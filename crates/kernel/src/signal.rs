//! Two-phase signals with SystemC `sc_signal` semantics.
//!
//! Writes during the evaluate phase only *request* an update; the kernel
//! applies all requested updates between delta cycles, and subscribers are
//! notified (via `MsgKind::SignalChanged`) only when the value actually
//! changed. This is exactly the evaluate/update split that makes SystemC
//! models insensitive to process ordering — and the property our proptests
//! check.

use std::any::Any;
use std::fmt;
use std::marker::PhantomData;

use crate::error::SimResult;
use crate::event::{ComponentId, SignalIdx};
use crate::json::{ju64, Json};
use crate::snapshot::{self as snap, SnapPrim};
use crate::time::SimTime;
use crate::trace::{TraceValue, Traceable};

/// Values a signal can carry.
pub trait SignalValue: Clone + PartialEq + fmt::Debug + 'static {}
impl<T: Clone + PartialEq + fmt::Debug + 'static> SignalValue for T {}

/// Typed handle to a signal registered with a simulator.
pub struct SignalRef<T> {
    pub(crate) idx: SignalIdx,
    _marker: PhantomData<fn() -> T>,
}

impl<T> SignalRef<T> {
    pub(crate) fn new(idx: SignalIdx) -> Self {
        SignalRef {
            idx,
            _marker: PhantomData,
        }
    }

    /// Raw channel index (for diagnostics).
    pub fn index(&self) -> SignalIdx {
        self.idx
    }
}

impl<T> Clone for SignalRef<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SignalRef<T> {}

impl<T> fmt::Debug for SignalRef<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SignalRef({})", self.idx)
    }
}

/// Trace hook: (tracer variable id, sampling function).
pub(crate) type TraceHook<T> = (usize, fn(&T) -> TraceValue);

pub(crate) struct SignalSlot<T: SignalValue> {
    pub name: String,
    pub current: T,
    pub pending: Option<T>,
    pub subscribers: Vec<ComponentId>,
    pub trace: Option<TraceHook<T>>,
    pub change_count: u64,
    pub last_change: SimTime,
}

/// Type-erased view the kernel uses during the update phase.
pub(crate) trait AnySignalSlot: Any {
    fn name(&self) -> &str;
    /// Apply a pending write. Returns `true` when the visible value changed.
    fn apply_update(&mut self, now: SimTime) -> bool;
    fn subscribers(&self) -> &[ComponentId];
    fn subscribe(&mut self, c: ComponentId);
    /// Sample for tracing, when tracing is enabled on this signal.
    fn trace_sample(&self) -> Option<(usize, TraceValue)>;
    /// The slot's snapshot entry; refused while a write is unapplied.
    fn snapshot_json(&self) -> SimResult<Json>;
    /// Restore the slot from an entry written by `snapshot_json`.
    fn restore_json(&mut self, state: &Json) -> SimResult<()>;
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: SnapPrim> AnySignalSlot for SignalSlot<T> {
    fn name(&self) -> &str {
        &self.name
    }

    fn apply_update(&mut self, now: SimTime) -> bool {
        match self.pending.take() {
            Some(v) if v != self.current => {
                self.current = v;
                self.change_count += 1;
                self.last_change = now;
                true
            }
            _ => false,
        }
    }

    fn subscribers(&self) -> &[ComponentId] {
        &self.subscribers
    }

    fn subscribe(&mut self, c: ComponentId) {
        if !self.subscribers.contains(&c) {
            self.subscribers.push(c);
        }
    }

    fn trace_sample(&self) -> Option<(usize, TraceValue)> {
        self.trace.map(|(var, f)| (var, f(&self.current)))
    }

    fn snapshot_json(&self) -> SimResult<Json> {
        if self.pending.is_some() {
            return Err(snap::err(format!(
                "signal {:?} has an unapplied write; snapshot only between run slices",
                self.name
            )));
        }
        Ok(Json::obj()
            .with("name", Json::from(self.name.as_str()))
            .with("type", Json::from(T::TAG))
            .with("current", self.current.enc())
            .with("change_count", ju64(self.change_count))
            .with("last_change", ju64(self.last_change.0))
            .with("subs", snap::usize_list_json(&self.subscribers)))
    }

    fn restore_json(&mut self, state: &Json) -> SimResult<()> {
        snap::check_tag::<T>("signal", &self.name, state)?;
        let cur = snap::field(state, "current")?;
        self.current = T::dec(cur).ok_or_else(|| {
            snap::err(format!(
                "signal {:?}: bad {} value {cur}",
                self.name,
                T::TAG
            ))
        })?;
        self.pending = None;
        self.change_count = snap::u64_field(state, "change_count")?;
        self.last_change = SimTime(snap::u64_field(state, "last_change")?);
        self.subscribers = snap::usize_list(state, "subs")?;
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl<T: SignalValue> SignalSlot<T> {
    pub fn new(name: String, init: T) -> Self {
        SignalSlot {
            name,
            current: init,
            pending: None,
            subscribers: Vec::new(),
            trace: None,
            change_count: 0,
            last_change: SimTime::ZERO,
        }
    }
}

/// Install the trace sampling function; called by the simulator when a
/// traceable signal is registered with a tracer.
pub(crate) fn trace_fn<T: SignalValue + Traceable>() -> fn(&T) -> TraceValue {
    |v| v.trace_value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_applies_only_on_change() {
        let mut s = SignalSlot::new("s".into(), 0u32);
        s.pending = Some(0);
        assert!(!s.apply_update(SimTime(10)), "same value is not a change");
        assert_eq!(s.change_count, 0);
        s.pending = Some(5);
        assert!(s.apply_update(SimTime(20)));
        assert_eq!(s.current, 5);
        assert_eq!(s.change_count, 1);
        assert_eq!(s.last_change, SimTime(20));
        assert!(!s.apply_update(SimTime(30)), "no pending write, no change");
    }

    #[test]
    fn last_write_in_a_delta_wins() {
        let mut s = SignalSlot::new("s".into(), 0u32);
        s.pending = Some(1);
        s.pending = Some(2); // overwrites the request, like sc_signal
        assert!(s.apply_update(SimTime(0)));
        assert_eq!(s.current, 2);
        assert_eq!(s.change_count, 1);
    }

    #[test]
    fn subscribe_deduplicates() {
        let mut s = SignalSlot::new("s".into(), false);
        s.subscribe(3);
        s.subscribe(3);
        s.subscribe(7);
        assert_eq!(s.subscribers(), &[3, 7]);
    }

    #[test]
    fn trace_sample_uses_current_value() {
        let mut s = SignalSlot::new("s".into(), 0u8);
        assert!(s.trace_sample().is_none());
        s.trace = Some((4, trace_fn::<u8>()));
        s.current = 9;
        assert_eq!(
            s.trace_sample(),
            Some((4, TraceValue::Bits { value: 9, width: 8 }))
        );
    }

    #[test]
    fn signal_ref_is_copy_and_debug() {
        let r: SignalRef<bool> = SignalRef::new(12);
        let r2 = r;
        assert_eq!(r.index(), r2.index());
        assert_eq!(format!("{r:?}"), "SignalRef(12)");
    }
}
