//! The component (module) abstraction.
//!
//! A component is the unit of behavior, the analogue of an `SC_MODULE`. It
//! owns its state exclusively; all interaction with the rest of the system
//! happens through messages delivered by the kernel and through the
//! [`Api`] handed to [`Component::handle`].

use std::any::Any;

use crate::error::SimResult;
use crate::event::Msg;
use crate::json::Json;
use crate::kernel::Api;
use crate::snapshot::Decoder;

/// A simulation component.
///
/// Requiring `Any` lets harnesses downcast components after a run to read
/// their accumulated statistics (see `Simulator::get`).
pub trait Component: Any {
    /// Deliver one message. The component may read/write channels, schedule
    /// timers, and send messages through `api`; it must not block.
    fn handle(&mut self, api: &mut Api<'_>, msg: Msg);

    /// Capture this component's dynamic state for `Simulator::snapshot`.
    ///
    /// The default fails loudly: a component that keeps state the kernel
    /// cannot see (closure captures, model registers) must opt in
    /// explicitly, otherwise a snapshot would silently restore a stale
    /// model. Stateless components can return `Ok(Json::Null)`.
    fn snapshot(&mut self) -> SimResult<Json> {
        Err(crate::snapshot::err(
            "component does not implement snapshot",
        ))
    }

    /// Restore state captured by [`Component::snapshot`] onto a freshly
    /// constructed component of the same configuration.
    fn restore(&mut self, _state: &Json) -> SimResult<()> {
        Err(crate::snapshot::err("component does not implement restore"))
    }

    /// Restore onto the *live* component instance the document was captured
    /// from (or one of its lineage: `Simulator::rewind` applies an ancestor
    /// state, `Simulator::restore_delta` a descendant one). Because live
    /// state and document lie on one timeline, implementations may exploit
    /// the overlap — skip re-parsing payloads whose change epoch matches,
    /// truncate grow-only logs — where a cross-simulator [`Component::restore`]
    /// must parse everything. The default does a full restore, which is
    /// always correct.
    fn restore_live(&mut self, state: &Json) -> SimResult<()> {
        self.restore(state)
    }

    /// Decoders for the payload types this component receives, so a
    /// restore can rebuild messages a snapshot caught in flight. A crate
    /// exports its payload types' decoders as one `const` slice (for
    /// example `drcf_bus::snapshot::BUS_DECODERS`); the simulator collects
    /// the slices as components are added.
    fn decoders(&self) -> &'static [Decoder] {
        &[]
    }
}

/// Adapter turning a closure into a [`Component`]; handy for testbenches.
pub struct FnComponent<F: FnMut(&mut Api<'_>, Msg) + 'static> {
    f: F,
}

impl<F: FnMut(&mut Api<'_>, Msg) + 'static> FnComponent<F> {
    /// Wrap a closure.
    pub fn new(f: F) -> Self {
        FnComponent { f }
    }
}

impl<F: FnMut(&mut Api<'_>, Msg) + 'static> Component for FnComponent<F> {
    fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
        (self.f)(api, msg)
    }
}

/// A component that ignores every message; useful as an address-space
/// placeholder in tests.
#[derive(Default)]
pub struct NullComponent;

impl Component for NullComponent {
    fn handle(&mut self, _api: &mut Api<'_>, _msg: Msg) {}

    fn snapshot(&mut self) -> SimResult<Json> {
        Ok(Json::Null)
    }

    fn restore(&mut self, _state: &Json) -> SimResult<()> {
        Ok(())
    }
}
