//! Synchronization primitives: semaphore and mutex components.
//!
//! SystemC ships `sc_semaphore` and `sc_mutex` for modeling shared
//! resources. In this kernel's actor style they are ordinary components:
//! a requester sends [`SemWait`] and receives [`SemGranted`] when a unit
//! becomes available (immediately, or after a [`SemPost`] from another
//! component). Grants are strictly FIFO, which keeps models deterministic
//! and starvation-free.

use std::collections::VecDeque;

use crate::component::Component;
use crate::error::SimResult;
use crate::event::{ComponentId, Delay, Msg, MsgKind};
use crate::json::{ju64, Json};
use crate::kernel::Api;
use crate::snapshot::{self as snap, Codec, Decoder};

/// Request one unit of the semaphore. The requester receives
/// [`SemGranted`] with the same `tag` once a unit is available. The
/// requester holds a kernel obligation between wait and grant, so a
/// never-granted wait surfaces as a deadlock.
#[derive(Debug, Clone, Copy)]
pub struct SemWait {
    /// Caller-chosen tag echoed in the grant.
    pub tag: u64,
}

/// Release one unit.
#[derive(Debug, Clone, Copy)]
pub struct SemPost;

/// A unit was granted to you.
#[derive(Debug, Clone, Copy)]
pub struct SemGranted {
    /// Tag from the wait.
    pub tag: u64,
}

crate::field_codec!(SemWait, "sync.SemWait", tag);

impl Codec for SemPost {
    const NAME: &'static str = "sync.SemPost";
    fn encode(&self) -> Json {
        Json::Null
    }
    fn decode(data: &Json) -> Option<SemPost> {
        matches!(data, Json::Null).then_some(SemPost)
    }
}

crate::field_codec!(SemGranted, "sync.SemGranted", tag);

/// Decoders for the semaphore's payloads.
pub const SYNC_DECODERS: &[Decoder] = &[
    Decoder::of::<SemWait>(),
    Decoder::of::<SemPost>(),
    Decoder::of::<SemGranted>(),
];

/// Counting semaphore component (a binary semaphore is a mutex).
pub struct Semaphore {
    count: u32,
    waiters: VecDeque<(ComponentId, u64)>,
    /// Total grants issued.
    pub grants: u64,
    /// Largest waiter-queue depth observed.
    pub max_queue: usize,
}

impl Semaphore {
    /// Semaphore with `initial` available units.
    pub fn new(initial: u32) -> Self {
        Semaphore {
            count: initial,
            waiters: VecDeque::new(),
            grants: 0,
            max_queue: 0,
        }
    }

    /// A mutex: binary semaphore with one unit.
    pub fn mutex() -> Self {
        Semaphore::new(1)
    }

    /// Units currently available.
    pub fn available(&self) -> u32 {
        self.count
    }

    /// Requesters currently queued.
    pub fn queued(&self) -> usize {
        self.waiters.len()
    }

    fn grant(&mut self, api: &mut Api<'_>, to: ComponentId, tag: u64) {
        self.grants += 1;
        api.obligation_end();
        api.send(to, SemGranted { tag }, Delay::Delta);
    }
}

impl Component for Semaphore {
    fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
        if matches!(msg.kind, MsgKind::Start) {
            return;
        }
        let source = msg.source;
        let msg = match msg.user::<SemWait>() {
            Ok(w) => {
                let Some(requester) = source else {
                    // A sourceless SemWait (kernel-injected) has nowhere to
                    // send the grant; flag the model instead of panicking.
                    api.raise(
                        crate::error::SimErrorKind::Internal,
                        "SemWait without a source component",
                    );
                    return;
                };
                // The requester's pending grant is an outstanding
                // obligation of the modeled system.
                api.obligation_begin();
                if self.count > 0 {
                    self.count -= 1;
                    self.grant(api, requester, w.tag);
                } else {
                    self.waiters.push_back((requester, w.tag));
                    self.max_queue = self.max_queue.max(self.waiters.len());
                }
                return;
            }
            Err(m) => m,
        };
        if msg.user_ref::<SemPost>().is_some() {
            if let Some((to, tag)) = self.waiters.pop_front() {
                self.grant(api, to, tag);
            } else {
                self.count += 1;
            }
        }
    }

    fn snapshot(&mut self) -> SimResult<Json> {
        let (to, tags): (Vec<ComponentId>, Vec<u64>) = self.waiters.iter().copied().unzip();
        Ok(Json::obj()
            .with("count", ju64(self.count.into()))
            .with("waiters", snap::usize_list_json(&to))
            .with("tags", Json::Arr(tags.into_iter().map(ju64).collect()))
            .with("grants", ju64(self.grants))
            .with("max_queue", ju64(self.max_queue as u64)))
    }

    fn restore(&mut self, state: &Json) -> SimResult<()> {
        let count = snap::u64_field(state, "count")?;
        self.count = u32::try_from(count).map_err(|_| snap::err("semaphore count exceeds u32"))?;
        let (to, tags) = (
            snap::usize_list(state, "waiters")?,
            snap::u64_list(state, "tags")?,
        );
        if to.len() != tags.len() {
            return Err(snap::err("semaphore waiters and tags differ in length"));
        }
        self.waiters = to.into_iter().zip(tags).collect();
        self.grants = snap::u64_field(state, "grants")?;
        self.max_queue = snap::usize_field(state, "max_queue")?;
        Ok(())
    }

    fn decoders(&self) -> &'static [Decoder] {
        SYNC_DECODERS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::FnComponent;
    use crate::event::StopReason;
    use crate::kernel::Simulator;
    use crate::time::SimDuration;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// N workers each acquire the semaphore, hold it for `hold` ns, then
    /// post. Record the grant order.
    fn run_workers(units: u32, n: usize, hold_ns: u64) -> (Vec<usize>, Simulator, usize) {
        let mut sim = Simulator::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        let sem_id = n; // workers are 0..n
        for i in 0..n {
            let order2 = order.clone();
            sim.add(
                &format!("worker{i}"),
                FnComponent::new(move |api, msg| match &msg.kind {
                    MsgKind::Start => {
                        // Stagger requests by index for a deterministic
                        // arrival order.
                        api.timer_in(SimDuration::ns(i as u64 + 1), 0);
                    }
                    MsgKind::Timer(0) => {
                        api.send(sem_id, SemWait { tag: i as u64 }, Delay::Delta);
                    }
                    MsgKind::Timer(1) => {
                        api.send(sem_id, SemPost, Delay::Delta);
                    }
                    _ => {
                        if msg.user_ref::<SemGranted>().is_some() {
                            order2.borrow_mut().push(i);
                            api.timer_in(SimDuration::ns(hold_ns), 1);
                        }
                    }
                }),
            );
        }
        let id = sim.add("sem", Semaphore::new(units));
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        let o = order.borrow().clone();
        (o, sim, id)
    }

    #[test]
    fn mutex_serializes_in_fifo_order() {
        let (order, sim, sem) = run_workers(1, 5, 10);
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        let s = sim.get::<Semaphore>(sem);
        assert_eq!(s.grants, 5);
        assert_eq!(s.available(), 1, "all units returned");
        assert_eq!(s.queued(), 0);
        assert!(s.max_queue >= 3, "workers actually queued");
    }

    #[test]
    fn counting_semaphore_admits_multiple_holders() {
        let (order, sim, sem) = run_workers(3, 5, 1000);
        assert_eq!(order.len(), 5);
        // First three grants happen before any release (at 1,2,3 ns).
        let s = sim.get::<Semaphore>(sem);
        assert_eq!(s.available(), 3);
        assert!(s.max_queue <= 2);
    }

    #[test]
    fn ungranted_wait_is_a_deadlock() {
        let mut sim = Simulator::new();
        sim.add(
            "greedy",
            FnComponent::new(|api, msg| {
                if matches!(msg.kind, MsgKind::Start) {
                    api.send(1, SemWait { tag: 0 }, Delay::Delta);
                    api.send(1, SemWait { tag: 1 }, Delay::Delta); // never granted
                }
            }),
        );
        sim.add("mutex", Semaphore::mutex());
        let err = sim.run().expect_err("second wait is never granted");
        assert_eq!(
            err.kind,
            crate::error::SimErrorKind::Deadlock { pending: 1 }
        );
    }

    #[test]
    fn post_without_waiters_accumulates() {
        let mut sim = Simulator::new();
        sim.add(
            "poster",
            FnComponent::new(|api, msg| {
                if matches!(msg.kind, MsgKind::Start) {
                    api.send(1, SemPost, Delay::Delta);
                    api.send(1, SemPost, Delay::Delta);
                }
            }),
        );
        let sem = sim.add("sem", Semaphore::new(0));
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        assert_eq!(sim.get::<Semaphore>(sem).available(), 2);
    }
}
