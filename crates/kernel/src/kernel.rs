//! The simulation kernel: elaboration, the evaluate/update/delta loop, and
//! the [`Api`] components use to interact with channels and each other.
//!
//! Semantics follow the SystemC 2.0 scheduler the paper builds on:
//!
//! 1. all deliveries at the current (time, delta) run in a deterministic
//!    order (scheduling order);
//! 2. signal writes become visible in the *update* phase between deltas;
//! 3. value changes notify subscribers in the next delta;
//! 4. when no delta work remains, time advances to the earliest pending
//!    timed event.
//!
//! Beyond SystemC, the kernel adds *obligations* — a counter of outstanding
//! split transactions — so a run can distinguish healthy quiescence from the
//! bus deadlock of the paper's §5.4 limitation 3.

use std::any::Any;

use crate::component::Component;
use crate::error::{SimError, SimErrorKind, SimResult};
use crate::event::{
    ClockIdx, ComponentId, Delay, Delivery, Edge, FifoEventKind, FifoIdx, Msg, MsgKind, SignalIdx,
    StopReason,
};
use crate::fifo::{AnyFifoSlot, FifoRef, FifoSlot};
use crate::json::{ju64, Json};
use crate::observe::{Recorder, SimEvent, TraceCategory, TraceEventKind, KERNEL_SOURCE};
use crate::queue::{EventQueue, TimedEntry};
use crate::report::{Reporter, Severity};
use crate::signal::{AnySignalSlot, SignalRef, SignalSlot, SignalValue};
use crate::snapshot::{
    self as snap, DecoderTable, Payload, SnapPrim, Snapshot, SnapshotDelta, Snapshotable,
};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Traceable, VcdTracer};

/// Pseudo-target used internally for clock tick events.
const CLOCK_TARGET: ComponentId = usize::MAX;

/// Handle to a clock generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockRef(pub(crate) ClockIdx);

/// Handle to a cancellable timer (see `Api::timer_cancellable`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerHandle(u64);

impl TimerHandle {
    /// The underlying queue sequence number. Snapshot support: components
    /// holding live handles serialize this value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuild a handle from [`TimerHandle::raw`] (snapshot restore).
    /// Sequence numbers are global to a run, so a restored handle is only
    /// meaningful inside the simulator whose snapshot produced it.
    pub fn from_raw(seq: u64) -> TimerHandle {
        TimerHandle(seq)
    }
}

struct ClockState {
    name: String,
    period: SimDuration,
    high_time: SimDuration,
    start_offset: SimDuration,
    pos_subs: Vec<ComponentId>,
    neg_subs: Vec<ComponentId>,
    started: bool,
    pos_edges: u64,
    /// Periodic-event fast path: a free-running clock has exactly one
    /// pending edge at any moment, so it lives in this slot instead of the
    /// general heap. `next_seq` is still drawn from the kernel's shared
    /// sequence counter, so merging slots with the heap by `(time, seq)`
    /// reproduces the heap-only dispatch order bit for bit.
    armed: bool,
    next_time: SimTime,
    next_seq: u64,
    next_edge: Edge,
}

/// Counters the kernel maintains about its own operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelMetrics {
    /// Messages dispatched to components.
    pub dispatched: u64,
    /// Delta cycles executed.
    pub delta_cycles: u64,
    /// Distinct timesteps visited.
    pub timesteps: u64,
    /// Largest number of delta cycles within one timestep.
    pub max_deltas_in_step: u64,
    /// Clock edges fired from the per-clock next-edge slots (the periodic
    /// fast path) rather than the general timed-event heap.
    pub clock_edges_fast: u64,
    /// Timed entries popped from the general heap.
    pub heap_events: u64,
    /// Subscriber notifications fanned out (clock edges, FIFO events, and
    /// signal changes delivered to subscribers).
    pub notifications: u64,
    /// Largest number of entries the timed-event queue held at once. Feed
    /// it back via [`Simulator::prereserve_queue`] between runs of a sweep
    /// so the next run's first timestep pays no regrow costs.
    pub queue_high_water: u64,
    /// Compact byte size of the most recent full snapshot document.
    ///
    /// This and the two counters below are *process-local* observability:
    /// they are deliberately excluded from the serialized snapshot metrics
    /// (and preserved across restore/rewind), because a run that happened
    /// to snapshot must stay bit-identical — same `state_hash` — to one
    /// that never did.
    pub snapshot_full_bytes: u64,
    /// Compact byte size of the most recent delta document
    /// ([`Simulator::snapshot_delta`]).
    pub snapshot_delta_bytes: u64,
    /// Components that were dirty (changed since the parent) in the most
    /// recent delta capture or warm rewind — the numerator of how
    /// incremental the incremental path actually was.
    pub snapshot_dirty_components: u64,
}

pub(crate) struct KernelState {
    now: SimTime,
    seq: u64,
    /// Sequence numbers of cancelled (not-yet-fired) timed deliveries.
    canceled: std::collections::HashSet<u64>,
    queue: EventQueue,
    next_delta: Vec<Delivery>,
    update_requests: Vec<SignalIdx>,
    /// Recycled buffer `apply_updates` swaps with `update_requests`, so the
    /// update phase allocates nothing in steady state.
    update_scratch: Vec<SignalIdx>,
    /// When set, clock edges are scheduled through the general heap instead
    /// of the per-clock slots. The resulting schedule is identical (same
    /// `(time, seq)` assignment); only the data path differs. Regression
    /// tests use it to diff the fast path against the reference path.
    legacy_clock_path: bool,
    signals: Vec<Box<dyn AnySignalSlot>>,
    clocks: Vec<ClockState>,
    fifos: Vec<Box<dyn AnyFifoSlot>>,
    tracer: Option<VcdTracer>,
    /// Structured span/counter recorder ([`crate::observe`]); starts
    /// disabled, where every emit is one predictable branch.
    recorder: Recorder,
    reporter: Reporter,
    obligations: u64,
    stop: bool,
    delta_limit: u64,
    metrics: KernelMetrics,
    component_count: usize,
    /// First typed error raised during the current run (`Api::raise`); the
    /// source id is resolved to a component name when the run finishes.
    pending_error: Option<(Option<ComponentId>, SimError)>,
    /// Dirty-tracking generation. Every mutation of a component, signal, or
    /// FIFO stamps the owning slot with the current generation; every
    /// capture point (snapshot, restore, rewind, delta) records the
    /// generation and then advances it. A slot is dirty relative to a
    /// capture iff its stamp is greater than the capture's generation.
    gen: u64,
    /// Per-signal dirty stamps, parallel to `signals`.
    signal_touched: Vec<u64>,
    /// Per-FIFO dirty stamps, parallel to `fifos`.
    fifo_touched: Vec<u64>,
}

impl KernelState {
    fn schedule(&mut self, delay: Delay, delivery: Delivery) -> Option<u64> {
        match delay {
            Delay::Delta => {
                self.next_delta.push(delivery);
                None
            }
            Delay::Time(d) if d.is_zero() => {
                self.next_delta.push(delivery);
                None
            }
            Delay::Time(d) => Some(self.schedule_timed(d, delivery)),
        }
    }

    /// Push a strictly-timed entry and return its sequence number (the
    /// cancellation handle).
    fn schedule_timed(&mut self, after: SimDuration, delivery: Delivery) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(TimedEntry {
            time: self.now + after,
            seq,
            delivery,
        });
        self.note_queue_depth();
        seq
    }

    #[inline]
    fn note_queue_depth(&mut self) {
        let depth = self.queue.len() as u64;
        if depth > self.metrics.queue_high_water {
            self.metrics.queue_high_water = depth;
        }
    }

    fn check_target(&self, target: ComponentId) {
        assert!(
            target < self.component_count,
            "message target {target} out of range (have {} components)",
            self.component_count
        );
    }

    fn clock_delivery(idx: ClockIdx, edge: Edge) -> Delivery {
        Delivery {
            target: CLOCK_TARGET,
            msg: Msg {
                source: None,
                kind: MsgKind::ClockEdge(idx, edge),
            },
            background: true,
        }
    }

    fn clock_schedule_edge(&mut self, idx: ClockIdx, edge: Edge, at: SimDuration) {
        if at.is_zero() {
            // A clock started with zero offset delivers its first edge in
            // the next delta, like any other zero-delay schedule (no seq).
            self.next_delta.push(Self::clock_delivery(idx, edge));
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        let time = self.now + at;
        if self.legacy_clock_path {
            self.queue.push(TimedEntry {
                time,
                seq,
                delivery: Self::clock_delivery(idx, edge),
            });
            self.note_queue_depth();
        } else {
            let c = &mut self.clocks[idx];
            debug_assert!(!c.armed, "a clock has at most one pending edge");
            c.armed = true;
            c.next_time = time;
            c.next_seq = seq;
            c.next_edge = edge;
        }
    }

    /// Earliest pending time across the queue and the armed clock slots.
    fn next_pending_time(&self) -> Option<SimTime> {
        let mut t = self.queue.peek_time();
        for c in &self.clocks {
            if c.armed && t.is_none_or(|x| c.next_time < x) {
                t = Some(c.next_time);
            }
        }
        t
    }

    /// Move every event scheduled exactly at `next_t` into `next_delta`,
    /// merging the heap with the armed clock slots by `(time, seq)` so the
    /// dispatch order is identical to a heap-only schedule.
    fn drain_events_at(&mut self, next_t: SimTime) {
        loop {
            let heap_seq = match self.queue.peek() {
                Some((t, s)) if t == next_t => Some(s),
                _ => None,
            };
            let mut clock_best: Option<(u64, ClockIdx)> = None;
            for (i, c) in self.clocks.iter().enumerate() {
                if c.armed
                    && c.next_time == next_t
                    && clock_best.is_none_or(|(s, _)| c.next_seq < s)
                {
                    clock_best = Some((c.next_seq, i));
                }
            }
            match (heap_seq, clock_best) {
                (Some(hs), Some((cs, ci))) => {
                    if hs < cs {
                        self.pop_heap_event();
                    } else {
                        self.fire_clock_slot(ci);
                    }
                }
                (Some(_), None) => self.pop_heap_event(),
                (None, Some((_, ci))) => self.fire_clock_slot(ci),
                (None, None) => break,
            }
        }
    }

    fn pop_heap_event(&mut self) {
        let Some(e) = self.queue.pop() else {
            return; // caller peeked an entry, so this cannot happen
        };
        self.metrics.heap_events += 1;
        // Cancellation is rare; skip the hash probe entirely when no timer
        // was ever cancelled (the common case in clock/bus-heavy runs).
        if !self.canceled.is_empty() && self.canceled.remove(&e.seq) {
            return; // timer was cancelled before firing
        }
        self.next_delta.push(e.delivery);
    }

    fn fire_clock_slot(&mut self, idx: ClockIdx) {
        let edge = {
            let c = &mut self.clocks[idx];
            c.armed = false;
            c.next_edge
        };
        self.metrics.clock_edges_fast += 1;
        self.next_delta.push(Self::clock_delivery(idx, edge));
    }

    fn clock_start_if_needed(&mut self, idx: ClockIdx) {
        if !self.clocks[idx].started {
            self.clocks[idx].started = true;
            let offset = self.clocks[idx].start_offset;
            self.clock_schedule_edge(idx, Edge::Pos, offset);
        }
    }

    /// Handle an internal clock tick: notify subscribers (next delta) and
    /// schedule the opposite edge.
    ///
    /// Borrows are split by destructuring `KernelState`, so the subscriber
    /// list is iterated in place — no per-tick clone.
    fn clock_tick(&mut self, idx: ClockIdx, edge: Edge) {
        let next_delay = {
            let KernelState {
                clocks,
                next_delta,
                metrics,
                ..
            } = self;
            let c = &mut clocks[idx];
            let (subs, next_delay) = match edge {
                Edge::Pos => {
                    c.pos_edges += 1;
                    (&c.pos_subs, c.high_time)
                }
                Edge::Neg => (&c.neg_subs, c.period - c.high_time),
            };
            for &target in subs {
                next_delta.push(Delivery {
                    target,
                    msg: Msg {
                        source: None,
                        kind: MsgKind::ClockEdge(idx, edge),
                    },
                    background: false,
                });
            }
            metrics.notifications += subs.len() as u64;
            next_delay
        };
        let next_edge = match edge {
            Edge::Pos => Edge::Neg,
            Edge::Neg => Edge::Pos,
        };
        self.clock_schedule_edge(idx, next_edge, next_delay);
    }

    fn notify_fifo(&mut self, idx: FifoIdx, kind: FifoEventKind) {
        let KernelState {
            fifos,
            next_delta,
            metrics,
            ..
        } = self;
        let subs = fifos[idx].subscribers();
        for &target in subs {
            next_delta.push(Delivery {
                target,
                msg: Msg {
                    source: None,
                    kind: MsgKind::Fifo(idx, kind),
                },
                background: false,
            });
        }
        metrics.notifications += subs.len() as u64;
    }

    fn apply_updates(&mut self) {
        if self.update_requests.is_empty() {
            return;
        }
        let KernelState {
            signals,
            next_delta,
            tracer,
            update_requests,
            update_scratch,
            metrics,
            now,
            ..
        } = self;
        // Swap the request list with the recycled scratch buffer instead of
        // taking it (which would allocate a fresh Vec every delta cycle).
        std::mem::swap(update_requests, update_scratch);
        update_scratch.sort_unstable();
        update_scratch.dedup();
        for &idx in update_scratch.iter() {
            let slot = &mut signals[idx];
            if slot.apply_update(*now) {
                if let Some(tracer) = tracer.as_mut() {
                    if let Some((var, val)) = slot.trace_sample() {
                        tracer.record(*now, var, val);
                    }
                }
                let subs = slot.subscribers();
                for &target in subs {
                    next_delta.push(Delivery {
                        target,
                        msg: Msg {
                            source: None,
                            kind: MsgKind::SignalChanged(idx),
                        },
                        background: false,
                    });
                }
                metrics.notifications += subs.len() as u64;
            }
        }
        update_scratch.clear();
    }

    // The typed channel handles (`SignalRef<T>`, `FifoRef<T>`) are only
    // produced by the registration calls, so a downcast mismatch means the
    // host program forged a handle across simulators — a programming error
    // with no sensible recovery. These three helpers are the kernel's only
    // sanctioned panic sites for it.
    /// Record one structured trace event ([`crate::observe`]). The enabled
    /// check happens *here*, before the event struct is built, so callers
    /// on the hot path pay a single branch when tracing is off.
    #[inline]
    fn observe(
        &mut self,
        comp: ComponentId,
        lane: u8,
        cat: TraceCategory,
        name: &'static str,
        kind: TraceEventKind,
        value: u64,
    ) {
        if self.recorder.is_enabled() {
            self.recorder.emit(SimEvent {
                at: self.now,
                delta: self.metrics.delta_cycles,
                comp,
                lane,
                cat,
                name,
                kind,
                value,
            });
        }
    }

    #[allow(clippy::expect_used)]
    fn signal_slot<T: SignalValue>(&self, idx: SignalIdx) -> &SignalSlot<T> {
        self.signals[idx]
            .as_any()
            .downcast_ref::<SignalSlot<T>>()
            .expect("signal type mismatch")
    }

    #[allow(clippy::expect_used)]
    fn signal_slot_mut<T: SignalValue>(&mut self, idx: SignalIdx) -> &mut SignalSlot<T> {
        self.signals[idx]
            .as_any_mut()
            .downcast_mut::<SignalSlot<T>>()
            .expect("signal type mismatch")
    }

    #[allow(clippy::expect_used)]
    fn fifo_slot_mut<T: 'static>(&mut self, idx: FifoIdx) -> &mut FifoSlot<T> {
        self.fifos[idx]
            .as_any_mut()
            .downcast_mut::<FifoSlot<T>>()
            .expect("fifo type mismatch")
    }
}

// ---------------------------------------------------------------------------
// Snapshot support: document walks and message-kind serialization
// ---------------------------------------------------------------------------

/// Which entries `Simulator::apply_doc` applies from a document.
#[derive(Clone, Copy)]
enum Apply {
    /// A full document into a freshly built simulator: every entry, through
    /// `Component::restore`.
    Fresh,
    /// A full document captured on this live simulator at generation
    /// `since`: the entries touched after it, through `restore_live`.
    Rewind { since: u64 },
    /// A delta document onto the live state it was cut from: its
    /// index-tagged entries, through `restore_live`.
    Delta,
}

/// Visit the entries of roster `key` in document `j` as `(slot, entry)`. A
/// full document lists every slot in order and must match the roster's
/// `len`; a delta tags each entry it carries with its slot index.
fn for_entries(
    j: &Json,
    key: &str,
    len: usize,
    delta: bool,
    mut visit: impl FnMut(usize, &Json) -> SimResult<()>,
) -> SimResult<()> {
    let entries = snap::arr_field(j, key)?;
    if delta {
        for ej in entries {
            let i = snap::usize_field(ej, "i")?;
            if i >= len {
                return Err(snap::err(format!("delta {key} index {i} out of range")));
            }
            visit(i, snap::field(ej, "d")?)?;
        }
        return Ok(());
    }
    if entries.len() != len {
        return Err(snap::err(format!(
            "snapshot has {} {key}, simulator has {len}",
            entries.len()
        )));
    }
    entries
        .iter()
        .enumerate()
        .try_for_each(|(i, e)| visit(i, e))
}

/// Check that document entry `e` names roster slot `i`, which is `live`.
fn check_name(what: &str, i: usize, live: &str, e: &Json) -> SimResult<()> {
    let name = snap::str_field(e, "name")?;
    if name == live {
        return Ok(());
    }
    Err(snap::err(format!(
        "{what} {i} name mismatch: simulator has {live:?}, snapshot has {name:?}"
    )))
}

fn edge_str(e: Edge) -> &'static str {
    match e {
        Edge::Pos => "pos",
        Edge::Neg => "neg",
    }
}

fn edge_of(s: &str) -> SimResult<Edge> {
    match s {
        "pos" => Ok(Edge::Pos),
        "neg" => Ok(Edge::Neg),
        other => Err(snap::err(format!("unknown clock edge {other:?}"))),
    }
}

fn msg_kind_json(kind: &MsgKind) -> Json {
    match kind {
        MsgKind::Start => Json::obj().with("k", Json::from("start")),
        MsgKind::SignalChanged(i) => Json::obj()
            .with("k", Json::from("signal"))
            .with("idx", ju64(*i as u64)),
        MsgKind::ClockEdge(i, e) => Json::obj()
            .with("k", Json::from("clock"))
            .with("idx", ju64(*i as u64))
            .with("edge", Json::from(edge_str(*e))),
        MsgKind::Fifo(i, ev) => Json::obj()
            .with("k", Json::from("fifo"))
            .with("idx", ju64(*i as u64))
            .with(
                "ev",
                Json::from(match ev {
                    FifoEventKind::DataWritten => "written",
                    FifoEventKind::DataRead => "read",
                }),
            ),
        MsgKind::Timer(tag) => Json::obj()
            .with("k", Json::from("timer"))
            .with("tag", ju64(*tag)),
        MsgKind::User(payload) => Json::obj()
            .with("k", Json::from("user"))
            .with("payload", snap::payload_json(payload.as_ref())),
    }
}

fn msg_kind_of(j: &Json, decoders: &DecoderTable) -> SimResult<MsgKind> {
    Ok(match snap::str_field(j, "k")? {
        "start" => MsgKind::Start,
        "signal" => MsgKind::SignalChanged(snap::usize_field(j, "idx")?),
        "clock" => MsgKind::ClockEdge(
            snap::usize_field(j, "idx")?,
            edge_of(snap::str_field(j, "edge")?)?,
        ),
        "fifo" => MsgKind::Fifo(
            snap::usize_field(j, "idx")?,
            match snap::str_field(j, "ev")? {
                "written" => FifoEventKind::DataWritten,
                "read" => FifoEventKind::DataRead,
                other => return Err(snap::err(format!("unknown fifo event {other:?}"))),
            },
        ),
        "timer" => MsgKind::Timer(snap::u64_field(j, "tag")?),
        "user" => MsgKind::User(decoders.decode(snap::field(j, "payload")?)?),
        other => return Err(snap::err(format!("unknown message kind {other:?}"))),
    })
}

fn metrics_json(m: &KernelMetrics) -> Json {
    Json::obj()
        .with("dispatched", ju64(m.dispatched))
        .with("delta_cycles", ju64(m.delta_cycles))
        .with("timesteps", ju64(m.timesteps))
        .with("max_deltas_in_step", ju64(m.max_deltas_in_step))
        .with("clock_edges_fast", ju64(m.clock_edges_fast))
        .with("heap_events", ju64(m.heap_events))
        .with("notifications", ju64(m.notifications))
        .with("queue_high_water", ju64(m.queue_high_water))
}

fn metrics_of(j: &Json) -> SimResult<KernelMetrics> {
    Ok(KernelMetrics {
        dispatched: snap::u64_field(j, "dispatched")?,
        delta_cycles: snap::u64_field(j, "delta_cycles")?,
        timesteps: snap::u64_field(j, "timesteps")?,
        max_deltas_in_step: snap::u64_field(j, "max_deltas_in_step")?,
        clock_edges_fast: snap::u64_field(j, "clock_edges_fast")?,
        heap_events: snap::u64_field(j, "heap_events")?,
        notifications: snap::u64_field(j, "notifications")?,
        queue_high_water: snap::u64_field(j, "queue_high_water")?,
        // Snapshot-size counters are process-local observability and are
        // deliberately absent from the serialized document (their values
        // would differ between a straight run and a restored one, breaking
        // state-hash bit-identity). `restore_globals_from` preserves the
        // live values across a restore.
        ..KernelMetrics::default()
    })
}

/// The interface a component uses while handling a message.
pub struct Api<'a> {
    st: &'a mut KernelState,
    me: ComponentId,
}

impl Api<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.st.now
    }

    /// This component's id.
    pub fn me(&self) -> ComponentId {
        self.me
    }

    /// Send a user payload to `target` after `delay`.
    ///
    /// The payload's type must have a snapshot [`Codec`], so a snapshot can
    /// always encode it in flight. The semaphore's payloads have one:
    ///
    /// ```
    /// use drcf_kernel::prelude::*;
    /// let mut sim = Simulator::new();
    /// sim.add("src", FnComponent::new(|api, _| api.send(0, SemPost, Delay::Delta)));
    /// ```
    ///
    /// A type without one does not compile:
    ///
    /// ```compile_fail
    /// use drcf_kernel::prelude::*;
    /// struct Opaque;
    /// let mut sim = Simulator::new();
    /// sim.add("src", FnComponent::new(|api, _| api.send(0, Opaque, Delay::Delta)));
    /// ```
    ///
    /// [`Codec`]: crate::snapshot::Codec
    pub fn send<P: Payload>(&mut self, target: ComponentId, payload: P, delay: Delay) {
        self.st.check_target(target);
        let me = self.me;
        self.st.schedule(
            delay,
            Delivery {
                target,
                msg: Msg {
                    source: Some(me),
                    kind: MsgKind::User(Box::new(payload)),
                },
                background: false,
            },
        );
    }

    /// Send a user payload after a plain duration.
    pub fn send_in<P: Payload>(&mut self, target: ComponentId, payload: P, after: SimDuration) {
        self.send(target, payload, Delay::Time(after));
    }

    /// Arm a timer on this component; a `MsgKind::Timer(tag)` arrives after
    /// `delay`.
    pub fn timer(&mut self, delay: Delay, tag: u64) {
        let me = self.me;
        self.st.schedule(
            delay,
            Delivery {
                target: me,
                msg: Msg {
                    source: Some(me),
                    kind: MsgKind::Timer(tag),
                },
                background: false,
            },
        );
    }

    /// Arm a timer after a plain duration.
    pub fn timer_in(&mut self, after: SimDuration, tag: u64) {
        self.timer(Delay::Time(after), tag);
    }

    /// Arm a *cancellable* timer; keep the handle to revoke it before it
    /// fires (watchdogs, poll timeouts). A zero duration is rounded up to
    /// the smallest timed delay so the timer stays cancellable.
    pub fn timer_cancellable(&mut self, after: SimDuration, tag: u64) -> TimerHandle {
        let me = self.me;
        let after = if after.is_zero() {
            SimDuration::fs(1)
        } else {
            after
        };
        let seq = self.st.schedule_timed(
            after,
            Delivery {
                target: me,
                msg: Msg {
                    source: Some(me),
                    kind: MsgKind::Timer(tag),
                },
                background: false,
            },
        );
        TimerHandle(seq)
    }

    /// Cancel a timer armed with [`Api::timer_cancellable`]. Cancelling a
    /// timer that already fired (or was already cancelled) is a no-op.
    pub fn cancel_timer(&mut self, h: TimerHandle) {
        self.st.canceled.insert(h.0);
    }

    /// Read a signal's current (update-phase) value.
    pub fn read<T: SignalValue>(&self, s: SignalRef<T>) -> T {
        self.st.signal_slot::<T>(s.idx).current.clone()
    }

    /// Request a signal update; visible to readers in the next delta cycle.
    pub fn write<T: SignalValue>(&mut self, s: SignalRef<T>, v: T) {
        self.st.signal_touched[s.idx] = self.st.gen;
        self.st.signal_slot_mut::<T>(s.idx).pending = Some(v);
        self.st.update_requests.push(s.idx);
    }

    /// Subscribe to change notifications of a signal.
    pub fn subscribe_signal<T: SignalValue>(&mut self, s: SignalRef<T>) {
        let me = self.me;
        self.st.signal_touched[s.idx] = self.st.gen;
        self.st.signals[s.idx].subscribe(me);
    }

    /// Subscribe to a clock edge. The clock starts free-running on first
    /// subscription.
    pub fn subscribe_clock(&mut self, c: ClockRef, edge: Edge) {
        let me = self.me;
        {
            let clock = &mut self.st.clocks[c.0];
            let subs = match edge {
                Edge::Pos => &mut clock.pos_subs,
                Edge::Neg => &mut clock.neg_subs,
            };
            if !subs.contains(&me) {
                subs.push(me);
            }
        }
        self.st.clock_start_if_needed(c.0);
    }

    /// Non-blocking FIFO write; on success subscribers get `DataWritten` in
    /// the next delta.
    pub fn fifo_try_put<T: 'static>(&mut self, f: FifoRef<T>, v: T) -> Result<(), T> {
        let slot = self.st.fifo_slot_mut::<T>(f.idx);
        match slot.try_put(v) {
            Ok(()) => {
                self.st.fifo_touched[f.idx] = self.st.gen;
                self.st.notify_fifo(f.idx, FifoEventKind::DataWritten);
                Ok(())
            }
            Err(v) => Err(v),
        }
    }

    /// Non-blocking FIFO read; on success subscribers get `DataRead` in the
    /// next delta.
    pub fn fifo_try_get<T: 'static>(&mut self, f: FifoRef<T>) -> Option<T> {
        let slot = self.st.fifo_slot_mut::<T>(f.idx);
        match slot.try_get() {
            Some(v) => {
                self.st.fifo_touched[f.idx] = self.st.gen;
                self.st.notify_fifo(f.idx, FifoEventKind::DataRead);
                Some(v)
            }
            None => None,
        }
    }

    /// Items currently queued in a FIFO.
    pub fn fifo_len<T: 'static>(&self, f: FifoRef<T>) -> usize {
        self.st.fifos[f.idx].len()
    }

    /// FIFO capacity.
    pub fn fifo_capacity<T: 'static>(&self, f: FifoRef<T>) -> usize {
        self.st.fifos[f.idx].capacity()
    }

    /// Subscribe to a FIFO's data-written/data-read notifications.
    pub fn subscribe_fifo<T: 'static>(&mut self, f: FifoRef<T>) {
        let me = self.me;
        self.st.fifo_touched[f.idx] = self.st.gen;
        self.st.fifos[f.idx].subscribe(me);
    }

    /// Declare the start of an outstanding obligation (e.g. a split
    /// transaction awaiting its response). A run that drains all events
    /// while obligations remain fails with a deadlock [`SimError`]
    /// carrying the outstanding count.
    pub fn obligation_begin(&mut self) {
        self.st.obligations += 1;
    }

    /// Declare an obligation fulfilled.
    pub fn obligation_end(&mut self) {
        debug_assert!(self.st.obligations > 0, "obligation underflow");
        self.st.obligations = self.st.obligations.saturating_sub(1);
    }

    /// Ask the kernel to stop after the current delivery.
    pub fn stop(&mut self) {
        self.st.stop = true;
    }

    /// Log a report entry.
    pub fn log(&mut self, severity: Severity, text: impl Into<String>) {
        let now = self.st.now;
        let me = self.me;
        self.st.reporter.log(now, Some(me), severity, text.into());
    }

    /// Raise a typed modeling error: logs a `Severity::Error` report *and*
    /// arms the run's typed error, so the enclosing `run`/`run_until`
    /// returns `Err(SimError { kind, .. })` attributed to this component.
    /// The first raise of a run determines the returned error; later raises
    /// still land in the report log.
    pub fn raise(&mut self, kind: SimErrorKind, text: impl Into<String>) {
        let text = text.into();
        let now = self.st.now;
        let me = self.me;
        self.st
            .reporter
            .log(now, Some(me), Severity::Error, text.clone());
        if self.st.pending_error.is_none() {
            self.st.pending_error = Some((Some(me), SimError::new(kind, text).at(now)));
        }
    }

    /// Whether structured tracing is recording. Instrumentation whose cost
    /// goes beyond one emit (e.g. computing a payload) should gate on this.
    #[inline]
    pub fn tracing_enabled(&self) -> bool {
        self.st.recorder.is_enabled()
    }

    /// Open a span on this component's main lane (see [`crate::observe`]).
    #[inline]
    pub fn trace_begin(&mut self, cat: TraceCategory, name: &'static str, value: u64) {
        let me = self.me;
        self.st
            .observe(me, 0, cat, name, TraceEventKind::Begin, value);
    }

    /// Close the span opened by [`Api::trace_begin`] with the same name.
    #[inline]
    pub fn trace_end(&mut self, cat: TraceCategory, name: &'static str, value: u64) {
        let me = self.me;
        self.st
            .observe(me, 0, cat, name, TraceEventKind::End, value);
    }

    /// Open a span on a specific lane. Lanes are sub-tracks within a
    /// component; put independent overlapping activities (execution vs. a
    /// background configuration load) on different lanes so each lane's
    /// spans nest.
    #[inline]
    pub fn trace_begin_lane(
        &mut self,
        lane: u8,
        cat: TraceCategory,
        name: &'static str,
        value: u64,
    ) {
        let me = self.me;
        self.st
            .observe(me, lane, cat, name, TraceEventKind::Begin, value);
    }

    /// Close a span on a specific lane.
    #[inline]
    pub fn trace_end_lane(&mut self, lane: u8, cat: TraceCategory, name: &'static str, value: u64) {
        let me = self.me;
        self.st
            .observe(me, lane, cat, name, TraceEventKind::End, value);
    }

    /// Record a point-in-time marker.
    #[inline]
    pub fn trace_instant(&mut self, cat: TraceCategory, name: &'static str, value: u64) {
        let me = self.me;
        self.st
            .observe(me, 0, cat, name, TraceEventKind::Instant, value);
    }

    /// Sample a counter value under this component's track.
    #[inline]
    pub fn trace_counter(&mut self, cat: TraceCategory, name: &'static str, value: u64) {
        let me = self.me;
        self.st
            .observe(me, 0, cat, name, TraceEventKind::Counter, value);
    }
}

struct CompSlot {
    name: String,
    comp: Option<Box<dyn Component>>,
    /// Generation of the last mutation (dispatch or `get_mut`); see
    /// `KernelState::gen`.
    touched_gen: u64,
}

/// Most recent capture points the kernel remembers for delta chaining and
/// warm rewind; older captures fall off and can no longer serve as parents.
const CAPTURED_CAP: usize = 64;

/// One remembered capture point: the live state equalled the document with
/// this hash at this generation, with the recorder and tracer at these
/// mutation epochs. The epochs let `snapshot_delta` skip the heavy
/// recorder/tracer globals when they have not changed since the parent
/// capture (the dominant payload of deltas over traced runs).
#[derive(Debug, Clone, Copy)]
struct Capture {
    hash: u64,
    gen: u64,
    recorder_epoch: u64,
    tracer_epoch: u64,
}

/// The simulator: owns all components and channels and runs the event loop.
pub struct Simulator {
    comps: Vec<CompSlot>,
    st: KernelState,
    started: bool,
    /// Recent capture points, oldest first, capped at [`CAPTURED_CAP`].
    /// `rewind` and `snapshot_delta` look parents up here; a hash that is
    /// not present (never captured on this simulator, or evicted, or pruned
    /// because it belonged to an abandoned branch) is a typed
    /// `SnapshotChain` error.
    captured: Vec<Capture>,
    /// Hash of the document the live state is known to equal — set by every
    /// capture point, invalidated by running. `restore_delta` requires it
    /// to match the delta's parent hash.
    current_doc_hash: Option<u64>,
    /// Recycled delta-cycle buffer; swapped with `st.next_delta` each delta
    /// so the dispatch loop reuses two buffers forever instead of
    /// allocating one per delta cycle.
    runnable: Vec<Delivery>,
    /// The payload decoders the components declared, for rebuilding
    /// in-flight messages on restore.
    decoders: DecoderTable,
    /// When set, running *under a horizon* with outstanding obligations and
    /// no local work returns `TimeLimit` instead of a deadlock error — a
    /// shard may be waiting on a cross-shard reply its coordinator injects
    /// before the next slice. Unbounded `run()` still detects deadlock.
    defer_deadlock: bool,
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulator {
    /// New, empty simulator at time zero.
    pub fn new() -> Self {
        Simulator {
            comps: Vec::new(),
            st: KernelState {
                now: SimTime::ZERO,
                seq: 0,
                canceled: std::collections::HashSet::new(),
                queue: EventQueue::default(),
                next_delta: Vec::new(),
                update_requests: Vec::new(),
                update_scratch: Vec::new(),
                legacy_clock_path: false,
                signals: Vec::new(),
                clocks: Vec::new(),
                fifos: Vec::new(),
                tracer: None,
                recorder: Recorder::disabled(),
                reporter: Reporter::new(),
                obligations: 0,
                stop: false,
                delta_limit: 100_000,
                metrics: KernelMetrics::default(),
                component_count: 0,
                pending_error: None,
                gen: 1,
                signal_touched: Vec::new(),
                fifo_touched: Vec::new(),
            },
            started: false,
            captured: Vec::new(),
            current_doc_hash: None,
            runnable: Vec::new(),
            decoders: DecoderTable::default(),
            defer_deadlock: false,
        }
    }

    /// Register a component; returns its id. Must be called before `run`.
    pub fn add_component(&mut self, name: &str, comp: Box<dyn Component>) -> ComponentId {
        assert!(!self.started, "cannot add components after the run started");
        self.decoders.add(comp.decoders());
        self.comps.push(CompSlot {
            name: name.to_string(),
            comp: Some(comp),
            touched_gen: 0,
        });
        self.st.component_count = self.comps.len();
        self.comps.len() - 1
    }

    /// Convenience for concrete component types.
    pub fn add<C: Component>(&mut self, name: &str, comp: C) -> ComponentId {
        self.add_component(name, Box::new(comp))
    }

    /// Register a signal channel.
    pub fn add_signal<T: SnapPrim>(&mut self, name: &str, init: T) -> SignalRef<T> {
        self.st
            .signals
            .push(Box::new(SignalSlot::new(name.to_string(), init)));
        self.st.signal_touched.push(0);
        SignalRef::new(self.st.signals.len() - 1)
    }

    /// Register a bounded FIFO channel.
    pub fn add_fifo<T: SnapPrim>(&mut self, name: &str, capacity: usize) -> FifoRef<T> {
        self.st
            .fifos
            .push(Box::new(FifoSlot::<T>::new(name.to_string(), capacity)));
        self.st.fifo_touched.push(0);
        FifoRef::new(self.st.fifos.len() - 1)
    }

    /// Register a clock. `high_time` is how long the clock stays high after
    /// a posedge (use `period / 2` for a symmetric clock).
    pub fn add_clock(
        &mut self,
        name: &str,
        period: SimDuration,
        high_time: SimDuration,
        start_offset: SimDuration,
    ) -> ClockRef {
        assert!(!period.is_zero(), "clock period must be nonzero");
        assert!(
            !high_time.is_zero() && high_time < period,
            "high time must be in (0, period)"
        );
        self.st.clocks.push(ClockState {
            name: name.to_string(),
            period,
            high_time,
            start_offset,
            pos_subs: Vec::new(),
            neg_subs: Vec::new(),
            started: false,
            pos_edges: 0,
            armed: false,
            next_time: SimTime::ZERO,
            next_seq: 0,
            next_edge: Edge::Pos,
        });
        ClockRef(self.st.clocks.len() - 1)
    }

    /// Symmetric clock from a frequency in MHz.
    pub fn add_clock_mhz(&mut self, name: &str, freq_mhz: u64) -> ClockRef {
        let period = SimDuration::cycles_at_mhz(1, freq_mhz);
        self.add_clock(name, period, period / 2, SimDuration::ZERO)
    }

    /// Enable VCD tracing.
    pub fn enable_trace(&mut self) {
        if self.st.tracer.is_none() {
            self.st.tracer = Some(VcdTracer::new());
        }
    }

    /// Register a signal with the tracer. Implicitly enables tracing if
    /// [`enable_trace`] has not been called yet.
    ///
    /// [`enable_trace`]: Simulator::enable_trace
    pub fn trace_signal<T: SignalValue + Traceable>(&mut self, s: SignalRef<T>) {
        self.enable_trace();
        let (name, value) = {
            let slot = self.st.signal_slot::<T>(s.idx);
            (slot.name.clone(), slot.current.trace_value())
        };
        let Some(tracer) = self.st.tracer.as_mut() else {
            return; // enable_trace just populated it
        };
        let var = tracer.declare(&name, value);
        self.st.signal_slot_mut::<T>(s.idx).trace = Some((var, crate::signal::trace_fn::<T>()));
    }

    /// Access the accumulated trace.
    pub fn tracer(&self) -> Option<&VcdTracer> {
        self.st.tracer.as_ref()
    }

    /// Enable structured tracing ([`crate::observe`]) with a ring buffer
    /// holding the most recent `capacity` events.
    pub fn enable_observe(&mut self, capacity: usize) {
        let floor = self.st.recorder.epoch();
        self.st.recorder = Recorder::enabled(capacity);
        self.st.recorder.bump_epoch_past(floor);
    }

    /// Install a preconfigured recorder (e.g. [`Recorder::disabled`] to
    /// turn tracing back off between runs). The mutation epoch stays
    /// monotonic across the swap so older capture points can never
    /// mistake the new recorder for an unchanged one.
    pub fn set_recorder(&mut self, r: Recorder) {
        let floor = self.st.recorder.epoch();
        self.st.recorder = r;
        self.st.recorder.bump_epoch_past(floor);
    }

    /// The structured-trace recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.st.recorder
    }

    /// Retained structured-trace events, oldest first.
    pub fn observe_events(&self) -> Vec<SimEvent> {
        self.st.recorder.events()
    }

    /// Access the report log.
    pub fn reports(&self) -> &Reporter {
        &self.st.reporter
    }

    /// Echo reports at or above `sev` to stderr.
    pub fn set_report_echo(&mut self, sev: Option<Severity>) {
        self.st.reporter.set_echo(sev);
    }

    /// Override the delta-cycle limit per timestep.
    pub fn set_delta_limit(&mut self, limit: u64) {
        self.st.delta_limit = limit;
    }

    /// Route clock edges through the general timed-event heap instead of
    /// the per-clock next-edge slots. The resulting schedule is identical —
    /// both paths draw sequence numbers from the same counter and dispatch
    /// in `(time, seq)` order — only the internal data path differs.
    /// Determinism regression tests use this to diff the optimized path
    /// against the reference path; benchmarks use it to measure the win.
    pub fn set_legacy_clock_path(&mut self, on: bool) {
        self.st.legacy_clock_path = on;
    }

    /// Treat quiescence-with-obligations under a `run_until` horizon as
    /// [`StopReason::TimeLimit`] instead of a deadlock error.
    ///
    /// Sharded runs (see [`crate::shard`]) set this on every shard
    /// simulator: a component blocked on a split transaction may be waiting
    /// for a cross-shard reply that the coordinator injects before the next
    /// window, which a single simulator cannot distinguish from true
    /// deadlock. Unbounded `run()` calls still detect deadlock normally,
    /// and the shard coordinator re-checks obligations once every shard has
    /// reached the end horizon.
    pub fn set_defer_deadlock(&mut self, on: bool) {
        self.defer_deadlock = on;
    }

    /// Pre-reserve timed-queue storage for roughly `n` concurrent entries —
    /// typically the previous run's [`KernelMetrics::queue_high_water`] —
    /// so a sweep point's first timestep doesn't pay regrow costs.
    pub fn prereserve_queue(&mut self, n: usize) {
        self.st.queue.reserve(n);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.st.now
    }

    /// Kernel operation counters.
    pub fn metrics(&self) -> KernelMetrics {
        self.st.metrics
    }

    /// Timed events currently pending (general heap plus armed per-clock
    /// next-edge slots).
    pub fn pending_timed_events(&self) -> usize {
        self.st.queue.len() + self.st.clocks.iter().filter(|c| c.armed).count()
    }

    /// Name of a component.
    pub fn component_name(&self, id: ComponentId) -> &str {
        &self.comps[id].name
    }

    /// Number of registered components.
    pub fn component_count(&self) -> usize {
        self.comps.len()
    }

    /// Downcast a component to its concrete type (panics on mismatch).
    pub fn get<T: Component>(&self, id: ComponentId) -> &T {
        match self.try_get(id) {
            Some(c) => c,
            None => component_access_failure::<T>(id, &self.comps[id].name),
        }
    }

    /// Downcast a component to its concrete type.
    pub fn try_get<T: Component>(&self, id: ComponentId) -> Option<&T> {
        let c = self.comps[id].comp.as_deref()?;
        (c as &dyn Any).downcast_ref::<T>()
    }

    /// Mutable downcast (for injecting state between runs in tests).
    pub fn get_mut<T: Component>(&mut self, id: ComponentId) -> &mut T {
        // Handing out `&mut` may mutate the component — conservatively mark
        // it dirty for the incremental-snapshot machinery.
        self.comps[id].touched_gen = self.st.gen;
        let name = self.comps[id].name.clone();
        match self.comps[id]
            .comp
            .as_deref_mut()
            .and_then(|c| (c as &mut dyn Any).downcast_mut::<T>())
        {
            Some(c) => c,
            None => component_access_failure::<T>(id, &name),
        }
    }

    /// Read a signal's current value from outside the simulation.
    pub fn signal_value<T: SignalValue>(&self, s: SignalRef<T>) -> T {
        self.st.signal_slot::<T>(s.idx).current.clone()
    }

    /// Number of value changes a signal has seen.
    pub fn signal_change_count<T: SignalValue>(&self, s: SignalRef<T>) -> u64 {
        self.st.signal_slot::<T>(s.idx).change_count
    }

    /// Snapshot of a FIFO's occupancy statistics:
    /// `(name, len, capacity, total_written, total_read, high_watermark)`.
    pub fn fifo_stats<T: 'static>(&self, f: FifoRef<T>) -> (String, usize, usize, u64, u64, usize) {
        let s = &self.st.fifos[f.idx];
        (
            s.name().to_string(),
            s.len(),
            s.capacity(),
            s.total_written(),
            s.total_read(),
            s.high_watermark(),
        )
    }

    /// Posedge count of a clock.
    pub fn clock_posedges(&self, c: ClockRef) -> u64 {
        self.st.clocks[c.0].pos_edges
    }

    /// Name of a clock.
    pub fn clock_name(&self, c: ClockRef) -> &str {
        &self.st.clocks[c.0].name
    }

    /// Outstanding obligations (nonzero after a deadlock return).
    pub fn obligations(&self) -> u64 {
        self.st.obligations
    }

    /// Schedule an initial user payload before the run starts (testbench
    /// stimulus).
    pub fn post<P: Payload>(&mut self, target: ComponentId, payload: P, delay: Delay) {
        self.st.check_target(target);
        self.st.schedule(
            delay,
            Delivery {
                target,
                msg: Msg {
                    source: None,
                    kind: MsgKind::User(Box::new(payload)),
                },
                background: false,
            },
        );
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for id in 0..self.comps.len() {
            self.st.next_delta.push(Delivery {
                target: id,
                msg: Msg {
                    source: None,
                    kind: MsgKind::Start,
                },
                background: false,
            });
        }
    }

    fn dispatch(&mut self, d: Delivery) {
        if d.target == CLOCK_TARGET {
            if let MsgKind::ClockEdge(idx, edge) = d.msg.kind {
                self.st.clock_tick(idx, edge);
            }
            return;
        }
        self.st.metrics.dispatched += 1;
        self.comps[d.target].touched_gen = self.st.gen;
        let Some(mut comp) = self.comps[d.target].comp.take() else {
            // The single-threaded kernel never re-enters dispatch, so a
            // vacant slot means the invariant broke; surface it as a typed
            // error instead of unwinding mid-run.
            let now = self.st.now;
            let msg = format!(
                "re-entrant dispatch on component {} ({})",
                d.target, self.comps[d.target].name
            );
            self.st
                .reporter
                .log(now, None, Severity::Error, msg.clone());
            if self.st.pending_error.is_none() {
                self.st.pending_error =
                    Some((None, SimError::new(SimErrorKind::Internal, msg).at(now)));
            }
            return;
        };
        {
            let mut api = Api {
                st: &mut self.st,
                me: d.target,
            };
            comp.handle(&mut api, d.msg);
        }
        self.comps[d.target].comp = Some(comp);
    }

    /// Run until quiescent. `Err` on deadlock, delta overflow, or an
    /// escalated `Severity::Error` report / `Api::raise`.
    pub fn run(&mut self) -> SimResult<StopReason> {
        self.run_inner(None)
    }

    /// Run until `horizon` (inclusive of events at the horizon).
    pub fn run_until(&mut self, horizon: SimTime) -> SimResult<StopReason> {
        self.run_inner(Some(horizon))
    }

    /// Run for an additional duration from the current time.
    pub fn run_for(&mut self, d: SimDuration) -> SimResult<StopReason> {
        let horizon = self.st.now + d;
        self.run_inner(Some(horizon))
    }

    /// Capture the complete dynamic state of this simulation as a
    /// [`Snapshot`] (see [`crate::snapshot`] for the contract).
    ///
    /// Legal only *between* run slices — after a `run_until` returned and
    /// before the next `run*` call — when no delta work or signal update is
    /// in flight.
    ///
    /// The report log is deliberately not captured; everything else that
    /// influences future dispatch is.
    pub fn snapshot(&mut self) -> SimResult<Snapshot> {
        if !self.started {
            return Err(snap::err(
                "snapshot before the run started; run at least one slice first",
            ));
        }
        if !self.st.next_delta.is_empty() || !self.st.update_requests.is_empty() {
            return Err(snap::err(
                "snapshot mid-delta-cycle; snapshot only between run slices",
            ));
        }
        if self.st.pending_error.is_some() {
            return Err(snap::err("snapshot with a pending simulation error"));
        }

        // Pending timed events, in global (time, seq) dispatch order so the
        // document is canonical and restore re-inserts front-to-back.
        let mut entries: Vec<&TimedEntry> = self.st.queue.iter_entries().collect();
        entries.sort_by_key(|e| (e.time, e.seq));
        let mut queue = Vec::with_capacity(entries.len());
        for e in entries {
            queue.push(
                Json::obj()
                    .with("t", ju64(e.time.0))
                    .with("seq", ju64(e.seq))
                    .with("target", ju64(e.delivery.target as u64))
                    .with(
                        "source",
                        match e.delivery.msg.source {
                            Some(s) => ju64(s as u64),
                            None => Json::Null,
                        },
                    )
                    .with("background", Json::Bool(e.delivery.background))
                    .with("kind", msg_kind_json(&e.delivery.msg.kind)),
            );
        }

        let mut canceled: Vec<u64> = self.st.canceled.iter().copied().collect();
        canceled.sort_unstable();

        let clocks: Vec<Json> = self
            .st
            .clocks
            .iter()
            .map(|c| {
                Json::obj()
                    .with("name", Json::from(c.name.as_str()))
                    .with("started", Json::Bool(c.started))
                    .with("pos_edges", ju64(c.pos_edges))
                    .with("armed", Json::Bool(c.armed))
                    .with("next_time", ju64(c.next_time.0))
                    .with("next_seq", ju64(c.next_seq))
                    .with("next_edge", Json::from(edge_str(c.next_edge)))
                    .with("pos_subs", snap::usize_list_json(&c.pos_subs))
                    .with("neg_subs", snap::usize_list_json(&c.neg_subs))
            })
            .collect();

        let signals = self
            .st
            .signals
            .iter()
            .map(|s| s.snapshot_json())
            .collect::<SimResult<Vec<Json>>>()?;
        let fifos: Vec<Json> = self.st.fifos.iter().map(|f| f.snapshot_json()).collect();

        let mut components = Vec::with_capacity(self.comps.len());
        for slot in &mut self.comps {
            let comp = slot
                .comp
                .as_mut()
                .ok_or_else(|| snap::err(format!("component {:?} is mid-dispatch", slot.name)))?;
            let state = comp.snapshot().map_err(|e| e.in_component(&slot.name))?;
            components.push(
                Json::obj()
                    .with("name", Json::from(slot.name.as_str()))
                    .with("state", state),
            );
        }

        let tracer = match &self.st.tracer {
            Some(t) => t.snapshot_json(),
            None => Json::Null,
        };

        let snapshot = Snapshot::from_state(
            Json::obj()
                .with("schema", Json::from(snap::SNAPSHOT_SCHEMA))
                .with("now", ju64(self.st.now.0))
                .with("seq", ju64(self.st.seq))
                .with("obligations", ju64(self.st.obligations))
                .with("delta_limit", ju64(self.st.delta_limit))
                .with("metrics", metrics_json(&self.st.metrics))
                .with(
                    "canceled",
                    Json::Arr(canceled.into_iter().map(ju64).collect()),
                )
                .with("queue", Json::Arr(queue))
                .with("clocks", Json::Arr(clocks))
                .with("signals", Json::Arr(signals))
                .with("fifos", Json::Arr(fifos))
                .with("tracer", tracer)
                .with("recorder", self.st.recorder.snapshot_json())
                .with("components", Json::Arr(components)),
        );
        self.st.metrics.snapshot_full_bytes = snapshot.byte_len();
        self.register_capture(snapshot.state_hash());
        Ok(snapshot)
    }

    /// Record a capture point: the live state equals the document with this
    /// hash, at the current generation. Future mutations stamp a strictly
    /// greater generation, so dirtiness relative to this capture is one
    /// integer comparison.
    fn register_capture(&mut self, hash: u64) {
        self.captured.push(Capture {
            hash,
            gen: self.st.gen,
            recorder_epoch: self.st.recorder.epoch(),
            tracer_epoch: self.st.tracer.as_ref().map_or(0, VcdTracer::epoch),
        });
        self.st.gen += 1;
        if self.captured.len() > CAPTURED_CAP {
            self.captured.remove(0);
        }
        self.current_doc_hash = Some(hash);
    }

    /// The capture point registered for `hash`, if it is still remembered.
    /// The latest registration wins (re-capturing the same document narrows
    /// the dirty set).
    fn captured_entry(&self, hash: u64) -> Option<Capture> {
        self.captured.iter().rev().find(|c| c.hash == hash).copied()
    }

    /// Generation at which `hash` was captured, if it is still remembered.
    fn captured_gen(&self, hash: u64) -> Option<u64> {
        self.captured_entry(hash).map(|c| c.gen)
    }

    /// Hash of the document the live state is known to equal, if the
    /// simulator is standing exactly at a capture point (it hasn't run
    /// since the last snapshot/restore/rewind/delta).
    pub fn current_doc_hash(&self) -> Option<u64> {
        self.current_doc_hash
    }

    /// Compare this simulator's static roster (component, signal, FIFO,
    /// and clock names, in order) against `snapshot`'s, reporting *every*
    /// mismatching field in one message. `None` means the shapes agree.
    ///
    /// [`Simulator::restore`] stops at the first mismatch it encounters;
    /// this gives callers validating a resume spec (e.g. a SoC builder
    /// handed a snapshot from a different configuration) the full diff up
    /// front so the error names what actually differs.
    pub fn roster_mismatch(&self, snapshot: &Snapshot) -> Option<String> {
        let j = snapshot.json();
        let doc_names = |key: &str| -> Vec<String> {
            j.get(key)
                .and_then(Json::as_arr)
                .map(|a| {
                    a.iter()
                        .map(|e| {
                            e.get("name")
                                .and_then(Json::as_str)
                                .unwrap_or("?")
                                .to_string()
                        })
                        .collect()
                })
                .unwrap_or_default()
        };
        fn diff(what: &str, doc: &[String], live: &[&str], out: &mut Vec<String>) {
            if doc.len() != live.len() {
                out.push(format!(
                    "{what} count: snapshot has {}, simulator has {}",
                    doc.len(),
                    live.len()
                ));
            }
            for (i, (d, l)) in doc.iter().zip(live).enumerate() {
                if d != l {
                    out.push(format!(
                        "{what} {i}: snapshot has {d:?}, simulator has {l:?}"
                    ));
                }
            }
        }
        let mut diffs = Vec::new();
        let comps: Vec<&str> = self.comps.iter().map(|c| c.name.as_str()).collect();
        diff("component", &doc_names("components"), &comps, &mut diffs);
        let sigs: Vec<&str> = self.st.signals.iter().map(|s| s.name()).collect();
        diff("signal", &doc_names("signals"), &sigs, &mut diffs);
        let fifos: Vec<&str> = self.st.fifos.iter().map(|f| f.name()).collect();
        diff("fifo", &doc_names("fifos"), &fifos, &mut diffs);
        let clocks: Vec<&str> = self.st.clocks.iter().map(|c| c.name.as_str()).collect();
        diff("clock", &doc_names("clocks"), &clocks, &mut diffs);
        if diffs.is_empty() {
            None
        } else {
            Some(diffs.join("; "))
        }
    }

    /// FNV-1a (64-bit) fingerprint of the canonical snapshot document.
    ///
    /// This takes a full [`Simulator::snapshot`] — the whole document tree
    /// is built and its compact rendering hashed once — and returns the
    /// hash that capture already computed, so it costs exactly one
    /// capture. Two simulators with equal hashes at the same slice have
    /// bit-identical dynamic state (time, queue order, channels, component
    /// state); sharded runs hash every shard at every horizon so a
    /// parallel-vs-serial divergence pinpoints the first bad slice.
    ///
    /// Same legality rules as [`Simulator::snapshot`]: only between run
    /// slices, and every component must implement `Component::snapshot`.
    pub fn state_hash(&mut self) -> SimResult<u64> {
        Ok(self.snapshot()?.state_hash())
    }

    /// Restore a [`Snapshot`] into this freshly built simulator. The
    /// simulator must have the same static shape (components, channels,
    /// clocks — by name and order) as the one that produced the snapshot;
    /// configuration parameters may differ, which is what warm-fork sweeps
    /// exploit.
    ///
    /// After a successful restore the simulator behaves exactly as the
    /// original did at snapshot time: `Start` is *not* re-delivered (all
    /// subscriptions are part of the snapshot), and a subsequent `run*`
    /// continues the deterministic `(time, seq)` dispatch order. On error
    /// the simulator is partially restored and must be discarded.
    pub fn restore(&mut self, snapshot: &Snapshot) -> SimResult<()> {
        if self.started {
            return Err(snap::err(
                "restore requires a freshly built simulator (run not started)",
            ));
        }
        let j = snapshot.json();
        match j.get("schema").and_then(Json::as_str) {
            Some(snap::SNAPSHOT_SCHEMA) => {}
            other => {
                return Err(snap::err(format!(
                    "snapshot schema mismatch: expected {}, found {other:?}",
                    snap::SNAPSHOT_SCHEMA
                )))
            }
        }
        self.apply_doc(j, Apply::Fresh)?;
        // Start must never re-fire: the snapshot already contains every
        // subscription and timer Start handlers created.
        self.started = true;
        self.register_capture(snapshot.state_hash());
        Ok(())
    }

    /// The one document-apply walk behind [`Simulator::restore`],
    /// [`Simulator::rewind`] and [`Simulator::restore_delta`]: components,
    /// signals and FIFOs as `how` selects them, then the clocks, the timed
    /// queue and the scalar globals, which every document carries in full.
    ///
    /// Every applied slot is stamped with the live generation: it now
    /// differs from every capture taken before this apply.
    fn apply_doc(&mut self, j: &Json, how: Apply) -> SimResult<()> {
        let delta = matches!(how, Apply::Delta);
        let live = !matches!(how, Apply::Fresh);
        // A rewind skips slots untouched since its parent capture: they
        // still equal the document.
        let wanted = |touched: u64| !matches!(how, Apply::Rewind { since } if touched <= since);
        let gen = self.st.gen;

        let mut applied: u64 = 0;
        for_entries(j, "components", self.comps.len(), delta, |i, cj| {
            let slot = &mut self.comps[i];
            if !wanted(slot.touched_gen) {
                return Ok(());
            }
            check_name("component", i, &slot.name, cj)?;
            let name = slot.name.as_str();
            let comp = slot
                .comp
                .as_mut()
                .ok_or_else(|| snap::err(format!("component {name:?} is mid-dispatch")))?;
            let state = snap::field(cj, "state")?;
            if live {
                comp.restore_live(state)
            } else {
                comp.restore(state)
            }
            .map_err(|e| e.in_component(name))?;
            slot.touched_gen = gen;
            applied += 1;
            Ok(())
        })?;

        let st = &mut self.st;
        for_entries(j, "signals", st.signals.len(), delta, |i, sj| {
            if wanted(st.signal_touched[i]) {
                check_name("signal", i, st.signals[i].name(), sj)?;
                st.signals[i].restore_json(sj)?;
                st.signal_touched[i] = gen;
            }
            Ok(())
        })?;
        for_entries(j, "fifos", st.fifos.len(), delta, |i, fj| {
            if wanted(st.fifo_touched[i]) {
                check_name("fifo", i, st.fifos[i].name(), fj)?;
                st.fifos[i].restore_json(fj)?;
                st.fifo_touched[i] = gen;
            }
            Ok(())
        })?;
        for_entries(j, "clocks", st.clocks.len(), false, |i, cj| {
            let c = &mut st.clocks[i];
            check_name("clock", i, &c.name, cj)?;
            c.started = snap::bool_field(cj, "started")?;
            c.pos_edges = snap::u64_field(cj, "pos_edges")?;
            c.armed = snap::bool_field(cj, "armed")?;
            c.next_time = SimTime(snap::u64_field(cj, "next_time")?);
            c.next_seq = snap::u64_field(cj, "next_seq")?;
            c.next_edge = edge_of(snap::str_field(cj, "next_edge")?)?;
            c.pos_subs = snap::usize_list(cj, "pos_subs")?;
            c.neg_subs = snap::usize_list(cj, "neg_subs")?;
            Ok(())
        })?;

        self.restore_queue_from(j)?;
        self.restore_globals_from(j)?;
        if live {
            self.clear_transients();
            self.st.metrics.snapshot_dirty_components = applied;
        }
        Ok(())
    }

    /// Rebuild the timed queue and the cancellation set from a document.
    /// Existing entries are dropped first (a no-op on a fresh simulator).
    ///
    /// Entries are re-inserted with their *original* sequence numbers,
    /// front-to-back, so the queue rebuilds the identical `(time, seq)`
    /// dispatch order.
    fn restore_queue_from(&mut self, j: &Json) -> SimResult<()> {
        self.st.queue.clear();
        for ej in snap::arr_field(j, "queue")? {
            let target = snap::u64_field(ej, "target")? as ComponentId;
            let source = match snap::field(ej, "source")? {
                Json::Null => None,
                s => Some(
                    crate::json::ju64_of(s)
                        .ok_or_else(|| snap::err("queue entry source is not a u64"))?
                        as ComponentId,
                ),
            };
            self.st.queue.push(TimedEntry {
                time: SimTime(snap::u64_field(ej, "t")?),
                seq: snap::u64_field(ej, "seq")?,
                delivery: Delivery {
                    target,
                    msg: Msg {
                        source,
                        kind: msg_kind_of(snap::field(ej, "kind")?, &self.decoders)?,
                    },
                    background: snap::bool_field(ej, "background")?,
                },
            });
        }
        self.st.canceled = snap::u64_list(j, "canceled")?.into_iter().collect();
        Ok(())
    }

    /// Restore tracer, recorder, and the scalar globals from a document.
    /// The process-local snapshot-size counters survive: they are not part
    /// of the serialized metrics (see [`KernelMetrics`]).
    fn restore_globals_from(&mut self, j: &Json) -> SimResult<()> {
        // Delta documents elide an epoch-stable tracer/recorder with an
        // "unchanged" marker: the parent-hash check that guards every
        // delta apply proves the live copy already equals the child's, so
        // the marker means "leave it alone", never "missing".
        let tj = snap::field(j, "tracer")?;
        if !snap::is_unchanged_mark(tj) {
            match (tj, self.st.tracer.as_mut()) {
                (Json::Null, None) => {}
                (Json::Null, Some(_)) => {
                    return Err(snap::err(
                        "simulator has a VCD tracer but the snapshot does not",
                    ))
                }
                (_, None) => {
                    return Err(snap::err(
                        "snapshot has a VCD tracer but the simulator does not",
                    ))
                }
                (t, Some(tracer)) => tracer.restore_json(t)?,
            }
        }
        let rj = snap::field(j, "recorder")?;
        if !snap::is_unchanged_mark(rj) {
            self.st.recorder.restore_json(rj)?;
        }

        self.st.now = SimTime(snap::u64_field(j, "now")?);
        self.st.seq = snap::u64_field(j, "seq")?;
        self.st.obligations = snap::u64_field(j, "obligations")?;
        self.st.delta_limit = snap::u64_field(j, "delta_limit")?;
        let keep = (
            self.st.metrics.snapshot_full_bytes,
            self.st.metrics.snapshot_delta_bytes,
            self.st.metrics.snapshot_dirty_components,
        );
        self.st.metrics = metrics_of(snap::field(j, "metrics")?)?;
        (
            self.st.metrics.snapshot_full_bytes,
            self.st.metrics.snapshot_delta_bytes,
            self.st.metrics.snapshot_dirty_components,
        ) = keep;
        Ok(())
    }

    /// Drop any in-flight work left by an errored run so a rewound state is
    /// clean: pending delta deliveries, unapplied signal updates, a pending
    /// stop/error. Everything here is rebuilt from the document or simply
    /// must not survive the rewind.
    fn clear_transients(&mut self) {
        self.st.next_delta.clear();
        self.st.update_requests.clear();
        self.st.update_scratch.clear();
        self.runnable.clear();
        self.st.stop = false;
        self.st.pending_error = None;
    }

    /// Reset this *live* simulator back to `parent` — an earlier capture of
    /// this same simulator — restoring only what changed since.
    ///
    /// This is the copy-on-write warm fork: components, signals, and FIFOs
    /// untouched since the parent capture are still bit-identical to the
    /// document and are skipped wholesale; touched ones are restored through
    /// [`Component::restore_live`], which may itself exploit the lineage
    /// (epoch-skip heavy payloads). Clocks, the timed queue, and the scalar
    /// globals are always restored — they are small and always move.
    ///
    /// `parent` must have been captured *on this simulator* (by `snapshot`,
    /// `restore`, or a previous `rewind`) and still be remembered; otherwise
    /// a typed [`SimErrorKind::SnapshotChain`] error is returned and the
    /// simulator is left untouched — callers fall back to a cold rebuild.
    /// After a successful rewind, captures taken on the abandoned branch are
    /// forgotten (they are no longer ancestors of the live state).
    ///
    /// On any other error the simulator is partially restored and must be
    /// discarded, exactly like [`Simulator::restore`].
    pub fn rewind(&mut self, parent: &Snapshot) -> SimResult<()> {
        if !self.started {
            return Err(snap::err(
                "rewind requires a live (started) simulator; use restore on a fresh one",
            ));
        }
        let phash = parent.state_hash();
        let Some(pg) = self.captured_gen(phash) else {
            return Err(SimError::new(
                SimErrorKind::SnapshotChain,
                format!(
                    "rewind parent {phash:016x} was not captured on this simulator \
                     (or fell out of the {CAPTURED_CAP}-entry capture window)"
                ),
            ));
        };
        self.apply_doc(parent.json(), Apply::Rewind { since: pg })?;

        // Captures taken after the parent belong to the branch being
        // abandoned; a future delta against them would silently compare
        // stamps across diverged timelines, so forget them.
        self.captured.retain(|c| c.gen <= pg);
        self.register_capture(phash);
        Ok(())
    }

    /// Capture an incremental snapshot against the capture `parent_hash`:
    /// a [`SnapshotDelta`] carrying only the components, signals, and FIFOs
    /// that changed since that capture (plus the always-moving queue,
    /// clocks, and globals), chained to it by its state hash, together with
    /// the full child document the delta was cut from (its `state_hash` is
    /// the delta's child hash).
    ///
    /// Serialization cost is dominated by the full-document pass (the child
    /// hash *is* the full snapshot hash, so chains validate against
    /// `state_hash` exactly); the win is the document size and, on the
    /// apply side, `restore_delta` patching a live simulator in place.
    pub fn snapshot_delta(&mut self, parent_hash: u64) -> SimResult<(SnapshotDelta, Snapshot)> {
        let Some(parent) = self.captured_entry(parent_hash) else {
            return Err(SimError::new(
                SimErrorKind::SnapshotChain,
                format!(
                    "delta parent {parent_hash:016x} was not captured on this simulator \
                     (or fell out of the {CAPTURED_CAP}-entry capture window)"
                ),
            ));
        };
        let pg = parent.gen;
        // Dirty masks must be read before `snapshot` advances the
        // generation (capturing must not make anything look clean).
        let dirty_comps: Vec<bool> = self.comps.iter().map(|s| s.touched_gen > pg).collect();
        let dirty_signals: Vec<bool> = self.st.signal_touched.iter().map(|&g| g > pg).collect();
        let dirty_fifos: Vec<bool> = self.st.fifo_touched.iter().map(|&g| g > pg).collect();
        // Epoch-stable recorder/tracer globals are elided: restore_delta
        // only ever applies onto a live state proven (by parent-hash check)
        // to equal the parent, so "unchanged since the parent capture in
        // the producer" implies the consumer's live copy already equals the
        // child's. The child hash is computed from the *full* document, so
        // eliding here never weakens chain validation.
        let recorder_unchanged = self.st.recorder.epoch() == parent.recorder_epoch;
        let tracer_unchanged =
            self.st.tracer.as_ref().map_or(0, VcdTracer::epoch) == parent.tracer_epoch;

        let full = self.snapshot()?;
        let j = full.json();
        let take = |key: &str| -> SimResult<Json> { Ok(snap::field(j, key)?.clone()) };
        // Dirty entries only, each tagged with its slot index so the apply
        // side can patch in place.
        let pick = |key: &str, mask: &[bool]| -> SimResult<Json> {
            let arr = snap::arr_field(j, key)?;
            let mut out = Vec::new();
            for (i, e) in arr.iter().enumerate() {
                if mask.get(i).copied().unwrap_or(true) {
                    out.push(Json::obj().with("i", ju64(i as u64)).with("d", e.clone()));
                }
            }
            Ok(Json::Arr(out))
        };

        let state = Json::obj()
            .with("schema", Json::from(snap::DELTA_SCHEMA))
            .with("parent", ju64(parent_hash))
            .with("child", ju64(full.state_hash()))
            .with("now", take("now")?)
            .with("seq", take("seq")?)
            .with("obligations", take("obligations")?)
            .with("delta_limit", take("delta_limit")?)
            .with("metrics", take("metrics")?)
            .with("canceled", take("canceled")?)
            .with("queue", take("queue")?)
            .with("clocks", take("clocks")?)
            .with("signals", pick("signals", &dirty_signals)?)
            .with("fifos", pick("fifos", &dirty_fifos)?)
            .with(
                "tracer",
                if tracer_unchanged {
                    snap::unchanged_mark()
                } else {
                    take("tracer")?
                },
            )
            .with(
                "recorder",
                if recorder_unchanged {
                    snap::unchanged_mark()
                } else {
                    take("recorder")?
                },
            )
            .with("components", pick("components", &dirty_comps)?);
        let delta = SnapshotDelta::from_state(state)?;
        self.st.metrics.snapshot_delta_bytes = delta.byte_len();
        self.st.metrics.snapshot_dirty_components =
            dirty_comps.iter().filter(|&&d| d).count() as u64;
        Ok((delta, full))
    }

    /// Apply an incremental snapshot to this *live* simulator, patching it
    /// forward from the delta's parent state to its child state.
    ///
    /// The simulator must be standing exactly at the parent document — at a
    /// capture point whose hash equals [`SnapshotDelta::parent_hash`];
    /// running since the last capture invalidates that (the state is no
    /// longer provably the parent). A mismatch is a typed
    /// [`SimErrorKind::SnapshotChain`] error naming both hashes, and leaves
    /// the simulator untouched.
    ///
    /// After a successful apply the simulator registers the delta's
    /// *declared* [`SnapshotDelta::child_hash`] as its capture point; the
    /// body is not re-hashed here. [`SnapshotChain::restore_into`] checks
    /// the live state against the chain's tip once per chain, so a
    /// tampered delta body is caught there.
    ///
    /// [`SnapshotChain::restore_into`]: crate::snapshot::SnapshotChain::restore_into
    pub fn restore_delta(&mut self, delta: &SnapshotDelta) -> SimResult<()> {
        if !self.started {
            return Err(snap::err(
                "restore_delta requires a live (started) simulator; restore the chain's \
                 base snapshot first",
            ));
        }
        let Some(cur) = self.current_doc_hash else {
            return Err(SimError::new(
                SimErrorKind::SnapshotChain,
                "restore_delta needs the simulator standing exactly at a captured document \
                 (snapshot, restore, or rewind first; running since invalidates it)",
            ));
        };
        if cur != delta.parent_hash() {
            return Err(SimError::new(
                SimErrorKind::SnapshotChain,
                format!(
                    "delta parent hash {:016x} does not match the live state {:016x}",
                    delta.parent_hash(),
                    cur
                ),
            ));
        }
        self.apply_doc(delta.json(), Apply::Delta)?;
        self.register_capture(delta.child_hash());
        Ok(())
    }

    /// The first error raised during this run: a typed `Api::raise` if one
    /// happened, else the first `Severity::Error` report logged at or after
    /// `mark`, resolved to a component name.
    fn take_run_error(&mut self, mark: usize) -> Option<SimError> {
        if let Some((src, mut e)) = self.st.pending_error.take() {
            if e.component.is_none() {
                if let Some(id) = src {
                    e = e.in_component(&self.comps[id].name);
                }
            }
            return Some(e);
        }
        let r = self
            .st
            .reporter
            .entries()
            .get(mark..)?
            .iter()
            .find(|r| r.severity == Severity::Error)?;
        let mut e = SimError::new(SimErrorKind::Report, r.text.clone()).at(r.time);
        if let Some(id) = r.source {
            e = e.in_component(&self.comps[id].name);
        }
        Some(e)
    }

    /// Convert a healthy stop into `Ok`, unless errors were raised during
    /// this run — those escalate.
    fn finish(&mut self, reason: StopReason, mark: usize) -> SimResult<StopReason> {
        match self.take_run_error(mark) {
            None => Ok(reason),
            Some(e) => Err(e),
        }
    }

    fn run_inner(&mut self, horizon: Option<SimTime>) -> SimResult<StopReason> {
        self.ensure_started();
        // Running diverges the live state from whatever document it last
        // equalled, so delta application is no longer legal until the next
        // capture point.
        self.current_doc_hash = None;
        // Errors logged before this run (e.g. in an earlier run_until slice
        // that already reported them) do not re-escalate.
        let mark = self.st.reporter.entries().len();
        loop {
            // Delta loop at the current time. The runnable buffer and
            // `next_delta` ping-pong via swap: dispatching drains one while
            // components fill the other, and both keep their capacity, so a
            // steady-state delta cycle performs zero allocations.
            let mut deltas_here: u64 = 0;
            while !self.st.next_delta.is_empty() || !self.st.update_requests.is_empty() {
                let mut runnable = std::mem::take(&mut self.runnable);
                std::mem::swap(&mut runnable, &mut self.st.next_delta);
                let mut stopped = false;
                for d in runnable.drain(..) {
                    self.dispatch(d);
                    if self.st.stop {
                        self.st.stop = false;
                        stopped = true;
                        // Breaking drops the Drain, which discards the rest
                        // of this delta's deliveries — the documented
                        // semantics of Api::stop.
                        break;
                    }
                }
                self.runnable = runnable;
                if stopped {
                    return self.finish(StopReason::Stopped, mark);
                }
                self.st.apply_updates();
                deltas_here += 1;
                self.st.metrics.delta_cycles += 1;
                if deltas_here > self.st.delta_limit {
                    let mut e = SimError::new(
                        SimErrorKind::DeltaOverflow,
                        format!(
                            "exceeded {} delta cycles in one timestep (zero-delay oscillation)",
                            self.st.delta_limit
                        ),
                    )
                    .at(self.st.now);
                    if let Some(cause) = self.take_run_error(mark) {
                        e = e.caused_by(cause);
                    }
                    return Err(e);
                }
            }
            if deltas_here > 0 {
                self.st.metrics.timesteps += 1;
                self.st.metrics.max_deltas_in_step =
                    self.st.metrics.max_deltas_in_step.max(deltas_here);
                // Kernel-phase instrumentation: one counter sample per
                // *active* timestep (never per delta), so the tracing-off
                // cost is a single branch per timestep.
                self.st.observe(
                    KERNEL_SOURCE,
                    0,
                    TraceCategory::Kernel,
                    "deltas_in_step",
                    TraceEventKind::Counter,
                    deltas_here,
                );
            }

            // Advance time. Background events (free-running clock ticks) do
            // not keep an unbounded run() alive, but under an explicit
            // horizon they still advance so synchronous observers see every
            // edge up to the horizon.
            let pending = self.st.next_pending_time();
            if !self.st.queue.has_foreground() {
                let background_within_horizon = match (horizon, pending) {
                    (Some(h), Some(t)) => t <= h,
                    _ => false,
                };
                if !background_within_horizon {
                    self.st.queue.debug_assert_foreground_consistent();
                    if let Some(h) = horizon {
                        if pending.is_some() {
                            // More work exists beyond the horizon.
                            self.st.now = h;
                            return self.finish(StopReason::TimeLimit, mark);
                        }
                    }
                    if self.st.obligations > 0 {
                        if let (Some(h), true) = (horizon, self.defer_deadlock) {
                            // Partitioned runs: the blocked transaction may
                            // complete with a cross-shard reply injected
                            // before the next slice, so quiescing with
                            // obligations under a horizon is not yet a
                            // deadlock. The coordinator checks obligations
                            // once all shards reach the end horizon.
                            self.st.now = h;
                            return self.finish(StopReason::TimeLimit, mark);
                        }
                        let mut e = SimError::deadlock(self.st.obligations).at(self.st.now);
                        if let Some(cause) = self.take_run_error(mark) {
                            e = e.caused_by(cause);
                        }
                        return Err(e);
                    }
                    if let Some(h) = horizon {
                        self.st.now = h;
                    }
                    return self.finish(StopReason::Quiescent, mark);
                }
            }
            let Some(next_t) = pending else {
                // has_foreground() said work remains but nothing is
                // scheduled: the foreground accounting broke. Surface it
                // rather than panicking.
                return Err(SimError::new(
                    SimErrorKind::Internal,
                    "foreground counter positive with an empty event queue",
                )
                .at(self.st.now));
            };
            if let Some(h) = horizon {
                if next_t > h {
                    self.st.now = h;
                    return self.finish(StopReason::TimeLimit, mark);
                }
            }
            debug_assert!(next_t >= self.st.now, "time must be monotone");
            self.st.now = next_t;
            self.st.observe(
                KERNEL_SOURCE,
                0,
                TraceCategory::Kernel,
                "time_advance",
                TraceEventKind::Instant,
                next_t.as_fs(),
            );
            self.st.drain_events_at(next_t);
        }
    }
}

/// Shared cold failure path for [`Simulator::get`]/[`Simulator::get_mut`]:
/// the component is mid-dispatch or of a different concrete type. Both are
/// host-program bugs, so this is the one sanctioned panic for them.
#[cold]
fn component_access_failure<T>(id: ComponentId, name: &str) -> ! {
    panic!(
        "component {id} ({name}) is unavailable or not a {}",
        std::any::type_name::<T>()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::FnComponent;
    use crate::testing::{ok, some};

    /// A component that records (time, tag) of every timer it receives.
    struct Recorder {
        fired: Vec<(SimTime, u64)>,
        plan: Vec<(SimDuration, u64)>,
    }

    impl Component for Recorder {
        fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
            match msg.kind {
                MsgKind::Start => {
                    for &(d, tag) in &self.plan {
                        api.timer_in(d, tag);
                    }
                }
                MsgKind::Timer(tag) => self.fired.push((api.now(), tag)),
                _ => {}
            }
        }
    }

    #[test]
    fn timers_fire_in_time_order() {
        let mut sim = Simulator::new();
        let id = sim.add(
            "rec",
            Recorder {
                fired: vec![],
                plan: vec![
                    (SimDuration::ns(30), 3),
                    (SimDuration::ns(10), 1),
                    (SimDuration::ns(20), 2),
                ],
            },
        );
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        let rec = sim.get::<Recorder>(id);
        assert_eq!(
            rec.fired,
            vec![
                (SimTime::ZERO + SimDuration::ns(10), 1),
                (SimTime::ZERO + SimDuration::ns(20), 2),
                (SimTime::ZERO + SimDuration::ns(30), 3),
            ]
        );
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::ns(30));
    }

    #[test]
    fn same_time_timers_fire_in_scheduling_order() {
        let mut sim = Simulator::new();
        let id = sim.add(
            "rec",
            Recorder {
                fired: vec![],
                plan: (0..20).map(|i| (SimDuration::ns(5), i)).collect(),
            },
        );
        ok(sim.run());
        let rec = sim.get::<Recorder>(id);
        let tags: Vec<u64> = rec.fired.iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn signal_write_visible_next_delta() {
        let mut sim = Simulator::new();
        let sig = sim.add_signal("s", 0u32);
        let observed = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let obs2 = observed.clone();
        // Writer: writes 7 at Start; reads back immediately (must still be 0)
        // then after a delta (must be 7).
        sim.add(
            "writer",
            FnComponent::new(move |api, msg| match msg.kind {
                MsgKind::Start => {
                    api.write(sig, 7u32);
                    obs2.borrow_mut().push(("eval", api.read(sig)));
                    api.timer(Delay::Delta, 0);
                }
                MsgKind::Timer(_) => {
                    obs2.borrow_mut().push(("after", api.read(sig)));
                }
                _ => {}
            }),
        );
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        assert_eq!(*observed.borrow(), vec![("eval", 0), ("after", 7)]);
        assert_eq!(sim.signal_value(sig), 7);
        assert_eq!(sim.signal_change_count(sig), 1);
    }

    #[test]
    fn signal_subscribers_notified_only_on_change() {
        let mut sim = Simulator::new();
        let sig = sim.add_signal("s", false);
        let count = std::rc::Rc::new(std::cell::Cell::new(0u32));
        let c2 = count.clone();
        sim.add(
            "listener",
            FnComponent::new(move |api, msg| match msg.kind {
                MsgKind::Start => api.subscribe_signal(sig),
                MsgKind::SignalChanged(_) => c2.set(c2.get() + 1),
                _ => {}
            }),
        );
        sim.add(
            "driver",
            FnComponent::new(move |api, msg| match msg.kind {
                MsgKind::Start => {
                    api.write(sig, false); // no change
                    api.timer_in(SimDuration::ns(1), 0);
                    api.timer_in(SimDuration::ns(2), 1);
                }
                MsgKind::Timer(0) => api.write(sig, true), // change
                MsgKind::Timer(1) => api.write(sig, true), // no change
                _ => {}
            }),
        );
        ok(sim.run());
        assert_eq!(count.get(), 1);
    }

    #[test]
    fn user_messages_round_trip_between_components() {
        // Any payload types will do; the semaphore's are at hand.
        use crate::sync::{SemGranted as Pong, SemWait as Ping};

        struct Responder;
        impl Component for Responder {
            fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
                if let Ok(Ping { tag }) = msg.user::<Ping>() {
                    let src = 0; // requester id is 0 by construction
                    api.send_in(src, Pong { tag: tag * 2 }, SimDuration::ns(5));
                }
            }
        }

        struct Requester {
            got: Option<(SimTime, u64)>,
            responder: ComponentId,
        }
        impl Component for Requester {
            fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
                match &msg.kind {
                    MsgKind::Start => {
                        let r = self.responder;
                        api.send_in(r, Ping { tag: 21 }, SimDuration::ns(5));
                    }
                    _ => {
                        if let Ok(Pong { tag }) = msg.user::<Pong>() {
                            self.got = Some((api.now(), tag));
                        }
                    }
                }
            }
        }

        let mut sim = Simulator::new();
        let req = sim.add(
            "req",
            Requester {
                got: None,
                responder: 1,
            },
        );
        sim.add("resp", Responder);
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        let r = sim.get::<Requester>(req);
        assert_eq!(r.got, Some((SimTime::ZERO + SimDuration::ns(10), 42)));
    }

    #[test]
    fn clock_edges_reach_subscribers() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock_mhz("clk", 100); // 10 ns period
        let edges = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let e2 = edges.clone();
        sim.add(
            "sync",
            FnComponent::new(move |api, msg| match msg.kind {
                MsgKind::Start => {
                    api.subscribe_clock(clk, Edge::Pos);
                    api.subscribe_clock(clk, Edge::Neg);
                }
                MsgKind::ClockEdge(_, e) => e2.borrow_mut().push((api.now().as_fs(), e)),
                _ => {}
            }),
        );
        ok(sim.run_until(SimTime::ZERO + SimDuration::ns(25)));
        let edges = edges.borrow();
        // Posedges at 0, 10, 20 ns; negedges at 5, 15, 25 ns.
        assert_eq!(
            *edges,
            vec![
                (0, Edge::Pos),
                (5_000_000, Edge::Neg),
                (10_000_000, Edge::Pos),
                (15_000_000, Edge::Neg),
                (20_000_000, Edge::Pos),
                (25_000_000, Edge::Neg),
            ]
        );
        assert!(sim.clock_posedges(clk) >= 3);
    }

    #[test]
    fn unsubscribed_clock_does_not_prevent_quiescence() {
        let mut sim = Simulator::new();
        let _clk = sim.add_clock_mhz("clk", 100);
        sim.add("idle", crate::component::NullComponent);
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn clock_only_activity_counts_as_background() {
        // A subscriber that does nothing on edges: after its Start, only
        // background clock ticks remain, so run() terminates quiescent.
        let mut sim = Simulator::new();
        let clk = sim.add_clock_mhz("clk", 100);
        sim.add(
            "lazy",
            FnComponent::new(move |api, msg| {
                if matches!(msg.kind, MsgKind::Start) {
                    api.subscribe_clock(clk, Edge::Pos);
                }
            }),
        );
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
    }

    #[test]
    fn deadlock_detected_via_obligations() {
        let mut sim = Simulator::new();
        sim.add(
            "stuck",
            FnComponent::new(|api, msg| {
                if matches!(msg.kind, MsgKind::Start) {
                    api.obligation_begin(); // never fulfilled
                }
            }),
        );
        let err = sim.run().expect_err("deadlock must surface as an error");
        assert_eq!(err.kind, SimErrorKind::Deadlock { pending: 1 });
        assert_eq!(err.pending_obligations(), Some(1));
        assert_eq!(sim.obligations(), 1);
    }

    #[test]
    fn fulfilled_obligation_is_quiescent() {
        let mut sim = Simulator::new();
        sim.add(
            "fine",
            FnComponent::new(|api, msg| match msg.kind {
                MsgKind::Start => {
                    api.obligation_begin();
                    api.timer_in(SimDuration::ns(3), 0);
                }
                MsgKind::Timer(_) => api.obligation_end(),
                _ => {}
            }),
        );
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        assert_eq!(sim.obligations(), 0);
    }

    #[test]
    fn stop_interrupts_the_run() {
        let mut sim = Simulator::new();
        sim.add(
            "stopper",
            FnComponent::new(|api, msg| match msg.kind {
                MsgKind::Start => api.timer_in(SimDuration::ns(7), 0),
                MsgKind::Timer(_) => api.stop(),
                _ => {}
            }),
        );
        assert_eq!(sim.run(), Ok(StopReason::Stopped));
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::ns(7));
    }

    #[test]
    fn run_until_respects_horizon_and_resumes() {
        let mut sim = Simulator::new();
        let id = sim.add(
            "rec",
            Recorder {
                fired: vec![],
                plan: vec![(SimDuration::ns(10), 1), (SimDuration::ns(100), 2)],
            },
        );
        assert_eq!(
            sim.run_until(SimTime::ZERO + SimDuration::ns(50)),
            Ok(StopReason::TimeLimit)
        );
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::ns(50));
        assert_eq!(sim.get::<Recorder>(id).fired.len(), 1);
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        assert_eq!(sim.get::<Recorder>(id).fired.len(), 2);
    }

    #[test]
    fn delta_overflow_detected() {
        // Two components ping-ponging with Delta delay oscillate forever in
        // one timestep.
        struct Ping2 {
            peer: ComponentId,
        }
        impl Component for Ping2 {
            fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
                match msg.kind {
                    MsgKind::Start | MsgKind::User(_) => {
                        let p = self.peer;
                        api.send(p, crate::sync::SemPost, Delay::Delta);
                    }
                    _ => {}
                }
            }
        }
        let mut sim = Simulator::new();
        sim.set_delta_limit(500);
        sim.add("a", Ping2 { peer: 1 });
        sim.add("b", Ping2 { peer: 0 });
        let err = sim.run().expect_err("oscillation must surface");
        assert_eq!(err.kind, SimErrorKind::DeltaOverflow);
    }

    #[test]
    fn fifo_notifications_flow() {
        let mut sim = Simulator::new();
        let fifo = sim.add_fifo::<u32>("f", 2);
        let got = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let g2 = got.clone();
        sim.add(
            "consumer",
            FnComponent::new(move |api, msg| match msg.kind {
                MsgKind::Start => api.subscribe_fifo(fifo),
                MsgKind::Fifo(_, FifoEventKind::DataWritten) => {
                    while let Some(v) = api.fifo_try_get(fifo) {
                        g2.borrow_mut().push(v);
                    }
                }
                _ => {}
            }),
        );
        sim.add(
            "producer",
            FnComponent::new(move |api, msg| match msg.kind {
                MsgKind::Start => {
                    for i in 0..3 {
                        api.timer_in(SimDuration::ns(10 * (i + 1)), i);
                    }
                }
                MsgKind::Timer(tag) => {
                    assert!(api.fifo_try_put(fifo, tag as u32).is_ok(), "fifo space");
                }
                _ => {}
            }),
        );
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        assert_eq!(*got.borrow(), vec![0, 1, 2]);
    }

    #[test]
    fn metrics_are_populated() {
        let mut sim = Simulator::new();
        sim.add(
            "busy",
            FnComponent::new(|api, msg| match msg.kind {
                MsgKind::Start => api.timer_in(SimDuration::ns(1), 0),
                MsgKind::Timer(t) if t < 5 => api.timer_in(SimDuration::ns(1), t + 1),
                _ => {}
            }),
        );
        ok(sim.run());
        let m = sim.metrics();
        assert!(m.dispatched >= 7); // Start + 6 timers
        assert!(m.timesteps >= 6);
        assert!(m.delta_cycles >= m.timesteps);
        assert!(m.max_deltas_in_step >= 1);
    }

    #[test]
    fn post_injects_external_stimulus() {
        let mut sim = Simulator::new();
        let seen = std::rc::Rc::new(std::cell::Cell::new(0u64));
        let s2 = seen.clone();
        let id = sim.add(
            "sink",
            FnComponent::new(move |_api, msg| {
                if let Some(w) = msg.user_ref::<crate::sync::SemWait>() {
                    s2.set(w.tag);
                }
            }),
        );
        sim.post(id, crate::sync::SemWait { tag: 99 }, Delay::ns(4));
        ok(sim.run());
        assert_eq!(seen.get(), 99);
    }

    #[test]
    fn component_names_and_counts() {
        let mut sim = Simulator::new();
        let a = sim.add("alpha", crate::component::NullComponent);
        let b = sim.add("beta", crate::component::NullComponent);
        assert_eq!(sim.component_name(a), "alpha");
        assert_eq!(sim.component_name(b), "beta");
        assert_eq!(sim.component_count(), 2);
        assert!(sim.try_get::<Recorder>(a).is_none());
    }

    #[test]
    fn cancelled_timer_never_fires() {
        struct Watchdog {
            handle: Option<TimerHandle>,
            pub watchdog_fired: bool,
        }
        impl Component for Watchdog {
            fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
                match msg.kind {
                    MsgKind::Start => {
                        // Arm a watchdog at 100ns, and the "work completes"
                        // timer at 50ns which disarms it.
                        self.handle = Some(api.timer_cancellable(SimDuration::ns(100), 9));
                        api.timer_in(SimDuration::ns(50), 1);
                    }
                    MsgKind::Timer(1) => {
                        let h = some(self.handle.take());
                        api.cancel_timer(h);
                    }
                    MsgKind::Timer(9) => self.watchdog_fired = true,
                    _ => {}
                }
            }
        }
        let mut sim = Simulator::new();
        let id = sim.add(
            "wd",
            Watchdog {
                handle: None,
                watchdog_fired: false,
            },
        );
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        assert!(!sim.get::<Watchdog>(id).watchdog_fired);
        // The cancelled event still advanced nothing: quiescence happened
        // when the queue drained at 100ns (entry skipped).
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::ns(100));
    }

    #[test]
    fn uncancelled_watchdog_fires() {
        struct Wd {
            pub fired: bool,
        }
        impl Component for Wd {
            fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
                match msg.kind {
                    MsgKind::Start => {
                        let _ = api.timer_cancellable(SimDuration::ns(10), 9);
                    }
                    MsgKind::Timer(9) => self.fired = true,
                    _ => {}
                }
            }
        }
        let mut sim = Simulator::new();
        let id = sim.add("wd", Wd { fired: false });
        ok(sim.run());
        assert!(sim.get::<Wd>(id).fired);
    }

    #[test]
    fn cancel_after_fire_is_a_noop() {
        struct Wd {
            handle: Option<TimerHandle>,
            pub fires: u32,
        }
        impl Component for Wd {
            fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
                match msg.kind {
                    MsgKind::Start => {
                        self.handle = Some(api.timer_cancellable(SimDuration::ns(10), 9));
                        api.timer_in(SimDuration::ns(50), 1);
                    }
                    MsgKind::Timer(9) => self.fires += 1,
                    MsgKind::Timer(1) => {
                        // Cancels something that already fired.
                        let h = some(self.handle.take());
                        api.cancel_timer(h);
                        api.timer_in(SimDuration::ns(10), 2);
                    }
                    _ => {}
                }
            }
        }
        let mut sim = Simulator::new();
        let id = sim.add(
            "wd",
            Wd {
                handle: None,
                fires: 0,
            },
        );
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        assert_eq!(sim.get::<Wd>(id).fires, 1);
    }

    #[test]
    fn trace_records_signal_changes() {
        let mut sim = Simulator::new();
        sim.enable_trace();
        let sig = sim.add_signal("data", 0u8);
        sim.trace_signal(sig);
        sim.add(
            "drv",
            FnComponent::new(move |api, msg| match msg.kind {
                MsgKind::Start => api.timer_in(SimDuration::ns(10), 0),
                MsgKind::Timer(_) => api.write(sig, 0xA5u8),
                _ => {}
            }),
        );
        ok(sim.run());
        let vcd = some(sim.tracer()).render();
        assert!(vcd.contains("$var wire 8 ! data $end"));
        assert!(vcd.contains("b10100101 !"));
    }
}
