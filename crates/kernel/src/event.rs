//! Messages and scheduling primitives.
//!
//! The kernel is a deterministic discrete-event engine. Components never
//! call each other directly; every interaction is a [`Msg`] delivered by the
//! kernel at a well-defined (time, delta, sequence) point. This mirrors the
//! SystemC evaluate/update/notify structure the paper's methodology relies
//! on, while staying idiomatic single-owner Rust.

use std::any::Any;
use std::fmt;

use crate::snapshot::Payload;
use crate::time::SimDuration;

/// Identifies a component instance registered with the simulator.
pub type ComponentId = usize;

/// Identifies a signal channel (untyped form; see `SignalRef<T>` for the
/// typed handle).
pub type SignalIdx = usize;

/// Identifies a clock generator.
pub type ClockIdx = usize;

/// Identifies a FIFO channel (untyped form; see `FifoRef<T>`).
pub type FifoIdx = usize;

/// Which clock edge a [`MsgKind::ClockEdge`] notification refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Edge {
    /// Rising edge.
    Pos,
    /// Falling edge.
    Neg,
}

/// What happened on a FIFO that a subscriber is being told about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FifoEventKind {
    /// Data was written; readers may now succeed.
    DataWritten,
    /// Data was read; writers may now have space.
    DataRead,
}

/// When to deliver a scheduled message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delay {
    /// Deliver in the next delta cycle of the current timestep
    /// (SystemC `notify(SC_ZERO_TIME)`).
    Delta,
    /// Deliver after the given amount of simulated time. A zero duration is
    /// equivalent to [`Delay::Delta`].
    Time(SimDuration),
}

impl Delay {
    /// Convenience: a timed delay in nanoseconds.
    pub fn ns(v: u64) -> Delay {
        Delay::Time(SimDuration::ns(v))
    }
}

/// The payload of a delivery.
pub enum MsgKind {
    /// Sent to every component once at time zero, after all `init` hooks.
    Start,
    /// A subscribed signal changed value in the preceding update phase.
    SignalChanged(SignalIdx),
    /// A subscribed clock produced an edge.
    ClockEdge(ClockIdx, Edge),
    /// A subscribed FIFO had data written or read.
    Fifo(FifoIdx, FifoEventKind),
    /// A timer the component armed on itself fired. The tag is the value
    /// passed when arming; components use it to multiplex timers.
    Timer(u64),
    /// A user-defined payload from another component (or from itself).
    /// Downcast with [`Msg::user`].
    User(Box<dyn Payload>),
}

impl fmt::Debug for MsgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsgKind::Start => write!(f, "Start"),
            MsgKind::SignalChanged(i) => write!(f, "SignalChanged({i})"),
            MsgKind::ClockEdge(i, e) => write!(f, "ClockEdge({i}, {e:?})"),
            MsgKind::Fifo(i, k) => write!(f, "Fifo({i}, {k:?})"),
            MsgKind::Timer(t) => write!(f, "Timer({t})"),
            MsgKind::User(_) => write!(f, "User(..)"),
        }
    }
}

/// A delivered message.
#[derive(Debug)]
pub struct Msg {
    /// The component the message came from, when it was a directed send;
    /// kernel-originated notifications (clock edges, signal changes) have no
    /// source.
    pub source: Option<ComponentId>,
    /// The payload.
    pub kind: MsgKind,
}

impl Msg {
    /// Attempt to take the message as a user payload of type `T`.
    ///
    /// Returns `Ok(T)` when the message is a `User` payload of exactly that
    /// type; otherwise gives the message back so other decodings can be
    /// tried.
    pub fn user<T: Any>(self) -> Result<T, Msg> {
        match self.kind {
            MsgKind::User(b) if (b.as_ref() as &dyn Any).is::<T>() => {
                match (b as Box<dyn Any>).downcast::<T>() {
                    Ok(v) => Ok(*v),
                    Err(_) => unreachable!("the guard checked the payload type"),
                }
            }
            kind => Err(Msg {
                source: self.source,
                kind,
            }),
        }
    }

    /// Peek at a user payload by reference without consuming the message.
    pub fn user_ref<T: Any>(&self) -> Option<&T> {
        match &self.kind {
            MsgKind::User(b) => (b.as_ref() as &dyn Any).downcast_ref::<T>(),
            _ => None,
        }
    }
}

/// A delivery sitting in the timed queue or a delta queue.
#[derive(Debug)]
pub(crate) struct Delivery {
    pub target: ComponentId,
    pub msg: Msg,
    /// Background deliveries (free-running clock edges) do not keep the
    /// simulation alive: `run()` stops when only background work remains.
    pub background: bool,
}

/// Why a `run` call returned successfully.
///
/// Abnormal outcomes — deadlock, delta overflow, escalated error reports —
/// are not `StopReason`s: `run`/`run_until` return
/// `SimResult<StopReason>` and those surface as
/// [`SimError`](crate::error::SimError)s (see
/// [`SimErrorKind::Deadlock`](crate::error::SimErrorKind)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// No foreground events remain and no obligations are outstanding.
    Quiescent,
    /// The requested time horizon was reached.
    TimeLimit,
    /// A component called `Api::stop`.
    Stopped,
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::sync::{SemPost, SemWait};

    #[test]
    fn msg_user_downcast_roundtrip() {
        let m = Msg {
            source: Some(3),
            kind: MsgKind::User(Box::new(SemWait { tag: 42 })),
        };
        assert_eq!(m.user_ref::<SemWait>().map(|w| w.tag), Some(42));
        let v: SemWait = crate::testing::ok(m.user());
        assert_eq!(v.tag, 42);
    }

    #[test]
    fn msg_user_wrong_type_returns_message() {
        let m = Msg {
            source: None,
            kind: MsgKind::User(Box::new(SemPost)),
        };
        let m = m.user::<SemWait>().expect_err("wrong type must fail");
        assert!(m.user_ref::<SemWait>().is_none());
        let _: SemPost = crate::testing::ok(m.user());
    }

    #[test]
    fn msg_user_on_non_user_kind() {
        let m = Msg {
            source: None,
            kind: MsgKind::Timer(7),
        };
        assert!(m.user_ref::<u32>().is_none());
        let m = m.user::<u32>().expect_err("non-user kind");
        assert!(matches!(m.kind, MsgKind::Timer(7)));
    }

    #[test]
    fn stop_reason_is_copy_and_comparable() {
        let r = StopReason::Quiescent;
        let s = r;
        assert_eq!(r, s);
        assert_ne!(StopReason::TimeLimit, StopReason::Stopped);
    }

    #[test]
    fn delay_zero_time_compares() {
        assert_eq!(Delay::ns(0), Delay::Time(SimDuration::ZERO));
    }
}
