//! Determinism regression for the zero-allocation dispatch loop.
//!
//! Builds a randomized component graph (clocks, clocked workers writing
//! signals and a shared FIFO, a timer-driven stimulus) and runs it three
//! ways:
//!
//! 1. the optimized dispatch path (per-clock next-edge slots),
//! 2. the optimized path again (replay determinism),
//! 3. the legacy clock path (`set_legacy_clock_path(true)`), which routes
//!    every clock edge through the general timed-event queue — the schedule
//!    the kernel used before the periodic fast path existed.
//!
//! All three must produce byte-identical VCD traces, identical event logs,
//! identical per-signal change counts, and identical kernel metrics (for
//! the counters that do not describe the internal data path itself).

use std::cell::RefCell;
use std::rc::Rc;

use drcf_kernel::prelude::*;
use proptest::prelude::*;

/// `(time_fs, actor, value)` — one observable event.
type Log = Rc<RefCell<Vec<(u64, u64, i64)>>>;

/// Everything observable about a run. The dispatch path must not leak into
/// any of it.
type Observation = (
    String,               // rendered VCD
    Vec<(u64, u64, i64)>, // ordered event log
    Vec<u64>,             // per-signal change counts
    u64,                  // final time (fs)
    (u64, u64, u64, u64), // dispatched, delta_cycles, timesteps, max_deltas
);

#[allow(clippy::type_complexity)]
fn run_world(
    clocks: &[(u64, u64, u64)], // (period_ns, high_ns, offset_ns)
    workers: &[(u8, bool, u8)], // (clock choice, both edges, fifo put cadence)
    plan: &[(u64, u64, u8)],    // stimulus timers: (delay_fs, tag, rechedule hops)
    horizon_ns: u64,
    legacy_clock: bool,
) -> Observation {
    let mut sim = Simulator::new();
    sim.set_legacy_clock_path(legacy_clock);
    sim.enable_trace();
    let log: Log = Rc::new(RefCell::new(Vec::new()));

    let clk_refs: Vec<ClockRef> = clocks
        .iter()
        .enumerate()
        .map(|(i, &(p, h, o))| {
            sim.add_clock(
                &format!("clk{i}"),
                SimDuration::ns(p),
                SimDuration::ns(h),
                SimDuration::ns(o),
            )
        })
        .collect();

    let fifo = sim.add_fifo::<u64>("shared", 4);

    let mut sigs = Vec::new();
    for (w, &(c, both, every)) in workers.iter().enumerate() {
        let sig = sim.add_signal(&format!("s{w}"), 0u64);
        sim.trace_signal(sig);
        sigs.push(sig);
        let clk = clk_refs[c as usize % clk_refs.len()];
        let l = log.clone();
        let every = every.max(1) as u64;
        let wid = w as u64;
        let mut edges = 0u64;
        sim.add(
            &format!("worker{w}"),
            FnComponent::new(move |api, msg| match msg.kind {
                MsgKind::Start => {
                    api.subscribe_clock(clk, Edge::Pos);
                    if both {
                        api.subscribe_clock(clk, Edge::Neg);
                    }
                }
                MsgKind::ClockEdge(_, edge) => {
                    edges += 1;
                    api.write(sig, edges);
                    let polarity = if edge == Edge::Pos { 1 } else { -1 };
                    l.borrow_mut().push((api.now().as_fs(), wid, polarity));
                    if edges.is_multiple_of(every) {
                        let _ = api.fifo_try_put(fifo, wid * 1000 + edges);
                    }
                }
                _ => {}
            }),
        );
    }

    let l2 = log.clone();
    sim.add(
        "drain",
        FnComponent::new(move |api, msg| match msg.kind {
            MsgKind::Start => api.subscribe_fifo(fifo),
            MsgKind::Fifo(_, FifoEventKind::DataWritten) => {
                while let Some(v) = api.fifo_try_get(fifo) {
                    l2.borrow_mut().push((api.now().as_fs(), 9999, v as i64));
                }
            }
            _ => {}
        }),
    );

    let bus = sim.add_signal("bus", 0u64);
    sim.trace_signal(bus);
    let plan2 = plan.to_vec();
    let l3 = log.clone();
    sim.add(
        "stim",
        FnComponent::new(move |api, msg| match msg.kind {
            MsgKind::Start => {
                for (i, &(d, _, hops)) in plan2.iter().enumerate() {
                    api.timer_in(SimDuration::fs(d), (i as u64) | ((hops as u64) << 32));
                }
            }
            MsgKind::Timer(t) => {
                // Low half: plan index. High half: remaining reschedule
                // hops, so boundary delays are also exercised relative to
                // mid-run `now` values, not just time zero.
                let idx = (t & 0xFFFF_FFFF) as usize;
                let hops = t >> 32;
                let (d, tag, _) = plan2[idx];
                api.write(bus, tag);
                l3.borrow_mut().push((api.now().as_fs(), 5000, tag as i64));
                if hops > 0 {
                    api.timer_in(SimDuration::fs(d), (idx as u64) | ((hops - 1) << 32));
                }
            }
            _ => {}
        }),
    );

    let stop = sim.run_until(SimTime::ZERO + SimDuration::ns(horizon_ns));
    assert!(
        matches!(stop, Ok(StopReason::TimeLimit) | Ok(StopReason::Quiescent)),
        "unexpected stop: {stop:?}"
    );
    let vcd = sim.tracer().expect("trace enabled").render();
    let mut counts: Vec<u64> = sigs.iter().map(|&s| sim.signal_change_count(s)).collect();
    counts.push(sim.signal_change_count(bus));
    let m = sim.metrics();
    let events = log.borrow().clone();
    (
        vcd,
        events,
        counts,
        sim.now().as_fs(),
        (
            m.dispatched,
            m.delta_cycles,
            m.timesteps,
            m.max_deltas_in_step,
        ),
    )
}

proptest! {
    /// Random graphs replay identically on the fast path, and the fast path
    /// reproduces the legacy clock schedule bit for bit.
    #[test]
    fn dispatch_paths_agree(
        raw_clocks in proptest::collection::vec((2u64..16, 0u64..100, 0u64..6), 1..4),
        workers in proptest::collection::vec((0u8..8, any::<bool>(), 1u8..4), 1..5),
        plan in proptest::collection::vec((0u64..60, 0u64..32), 0..24),
        horizon_ns in 40u64..160,
    ) {
        // Map the raw high-time fraction into (0, period).
        let clocks: Vec<(u64, u64, u64)> = raw_clocks
            .iter()
            .map(|&(p, h, o)| (p, 1 + h % (p - 1), o))
            .collect();
        // One-shot timers at ns granularity.
        let plan: Vec<(u64, u64, u8)> = plan
            .iter()
            .map(|&(d_ns, tag)| (d_ns * 1_000_000, tag, 0))
            .collect();
        let fast1 = run_world(&clocks, &workers, &plan, horizon_ns, false);
        let fast2 = run_world(&clocks, &workers, &plan, horizon_ns, false);
        let legacy_clk = run_world(&clocks, &workers, &plan, horizon_ns, true);
        prop_assert_eq!(&fast1, &fast2);
        prop_assert_eq!(&fast1, &legacy_clk);
    }

    /// Timer delays from zero to just past a microsecond — {0, 2^20−1,
    /// 2^20, 2^30−1, 2^30, 2^30+1} fs, both sides of two powers of two —
    /// with rescheduling hops so they are hit from arbitrary mid-run `now`
    /// values, interleaved with clock edges. The fast clock path must
    /// reproduce the legacy clock schedule bit for bit.
    #[test]
    fn wheel_boundary_delays_agree(
        raw_clocks in proptest::collection::vec((2u64..16, 0u64..100, 0u64..6), 1..3),
        workers in proptest::collection::vec((0u8..8, any::<bool>(), 1u8..4), 1..3),
        picks in proptest::collection::vec((0usize..6, 0u64..32, 0u8..3), 1..12),
        horizon_ns in 1100u64..2400,
    ) {
        const BOUNDARY_FS: [u64; 6] =
            [0, (1 << 20) - 1, 1 << 20, (1 << 30) - 1, 1 << 30, (1 << 30) + 1];
        let clocks: Vec<(u64, u64, u64)> = raw_clocks
            .iter()
            .map(|&(p, h, o)| (p, 1 + h % (p - 1), o))
            .collect();
        let plan: Vec<(u64, u64, u8)> = picks
            .iter()
            .map(|&(b, tag, hops)| (BOUNDARY_FS[b], tag, hops))
            .collect();
        let fast = run_world(&clocks, &workers, &plan, horizon_ns, false);
        let legacy_clk = run_world(&clocks, &workers, &plan, horizon_ns, true);
        prop_assert_eq!(&fast, &legacy_clk);
    }
}

/// The two paths differ only in their internal routing counters: on the
/// fast path every periodic edge is accounted in `clock_edges_fast`, on the
/// legacy path the same edges are heap pops.
#[test]
fn fast_path_accounts_clock_edges() {
    let build = |legacy: bool| {
        let mut sim = Simulator::new();
        sim.set_legacy_clock_path(legacy);
        let clk = sim.add_clock_mhz("clk", 100);
        sim.add(
            "sub",
            FnComponent::new(move |api, msg| {
                if matches!(msg.kind, MsgKind::Start) {
                    api.subscribe_clock(clk, Edge::Pos);
                }
            }),
        );
        let _ = sim.run_until(SimTime::ZERO + SimDuration::ns(200));
        sim.metrics()
    };
    let fast = build(false);
    let legacy = build(true);
    assert!(fast.clock_edges_fast > 10);
    assert_eq!(legacy.clock_edges_fast, 0);
    assert!(legacy.heap_events > fast.heap_events);
    // The externally observable counters agree.
    assert_eq!(fast.dispatched, legacy.dispatched);
    assert_eq!(fast.delta_cycles, legacy.delta_cycles);
    assert_eq!(fast.timesteps, legacy.timesteps);
    assert_eq!(fast.notifications, legacy.notifications);
}
