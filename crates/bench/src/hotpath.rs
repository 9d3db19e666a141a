//! Kernel hot-path throughput measurements.
//!
//! Three workloads sized so each runs in the hundreds of milliseconds:
//!
//! - **dense_clock** — many free-running clocks with several edge
//!   subscribers each; stresses the periodic-event path and subscriber
//!   fan-out (the innermost loop of every synchronous model).
//! - **fifo_heavy** — producer/consumer pairs over bounded FIFOs with
//!   extra passive observers; stresses `notify_fifo` fan-out and the
//!   delta-queue recycling.
//! - **e5_sweep** — the full §5.3 context-switch sweep (real bus + fabric
//!   traffic); the end-to-end experiment workload every DSE point pays.
//!   Runs with the coalesced configuration-traffic fast path and reports
//!   *effective* throughput: the per-burst reference event count over the
//!   coalesced wall time (the workload is timing-identical either way, so
//!   the reference count is the honest "work done" numerator).
//! - **ctx_switch_storm** — 8 contexts thrashed for 64 switches of
//!   2048-word loads with a periodic DMA contending for the bus; measured
//!   coalesced, with the per-burst run of the identical system as the
//!   event-count reference. Exercises accept, de-coalesce and re-coalesce.
//! - **warm_fork_dse** — an 8-point DSE sweep over the wireless-receiver
//!   DRCF scenario evaluated warm-fork style: the shared prefix is
//!   simulated once, snapshotted at 9/10 of the makespan, and one live
//!   base is rewound copy-on-write to the fork per point (only state the
//!   tail dirtied is restored). The cold sweep (each point re-simulating
//!   the prefix) is the event-count reference; the live cold-vs-warm wall
//!   speedup is reported as `warm_fork_speedup`, with the same sweep
//!   forked at 1/2 of the makespan reported as `warm_fork_speedup_half`
//!   (the prefix-length scaling check) and a full→delta→restore round
//!   trip hash-checked as `warm_fork_delta_identical`.
//!
//! Each measurement reports kernel events dispatched per wall-clock
//! second. [`bench_json`] renders the suite (plus the recorded
//! pre-optimization baseline) as the `BENCH_kernel.json` document that
//! tracks the repo's perf trajectory.

use std::time::Instant;

use drcf_bus::prelude::*;
use drcf_core::prelude::*;
use drcf_dse::prelude::Json;
use drcf_kernel::prelude::*;

use crate::e4_transform::ScriptProbe;
use crate::e5_ctx_switch::measure_switch_cost_opts;

/// One workload's throughput measurement.
#[derive(Debug, Clone)]
pub struct HotpathMeasurement {
    /// Workload name.
    pub name: String,
    /// Kernel deliveries dispatched to components.
    pub events: u64,
    /// Wall-clock seconds for the run.
    pub seconds: f64,
    /// `events / seconds`.
    pub events_per_sec: f64,
    /// Kernel dispatch profile for single-simulator workloads (absent for
    /// aggregated sweeps).
    pub profile: Option<DispatchProfile>,
    /// How the numbers were obtained, when not the plain
    /// events-dispatched-over-wall-time measurement.
    pub note: Option<String>,
}

impl HotpathMeasurement {
    fn new(name: &str, events: u64, seconds: f64) -> Self {
        HotpathMeasurement {
            name: name.to_string(),
            events,
            seconds,
            events_per_sec: if seconds > 0.0 {
                events as f64 / seconds
            } else {
                0.0
            },
            profile: None,
            note: None,
        }
    }

    fn with_profile(mut self, m: &KernelMetrics, seconds: f64) -> Self {
        self.profile = Some(DispatchProfile::from_metrics(m, seconds));
        self
    }

    fn with_note(mut self, note: &str) -> Self {
        self.note = Some(note.to_string());
        self
    }

    /// Encode as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .with("name", self.name.as_str().into())
            .with("events", self.events.into())
            .with("seconds", self.seconds.into())
            .with("events_per_sec", self.events_per_sec.into());
        if let Some(p) = &self.profile {
            let _ = j.set("fast_clock_fraction", p.fast_clock_fraction.into());
            let _ = j.set("avg_deltas_per_timestep", p.avg_deltas_per_timestep.into());
            let _ = j.set("notifications_per_event", p.notifications_per_event.into());
            let _ = j.set("queue_high_water", p.queue_high_water.into());
        }
        if let Some(n) = &self.note {
            let _ = j.set("note", n.as_str().into());
        }
        j
    }
}

/// Build the dense-clock model: `n_clocks` free-running clocks at
/// staggered frequencies, `subs_per_clock` posedge subscribers each.
fn build_dense_clock(sim: &mut Simulator, n_clocks: usize, subs_per_clock: usize) {
    for c in 0..n_clocks {
        // 50..x MHz staggered so edges rarely coincide (worst case for a
        // periodic fast path: no batching windfall).
        let clk = sim.add_clock_mhz(&format!("clk{c}"), 50 + 37 * c as u64);
        for s in 0..subs_per_clock {
            sim.add(
                &format!("sub{c}_{s}"),
                FnComponent::new(move |api, msg| {
                    if matches!(msg.kind, MsgKind::Start) {
                        api.subscribe_clock(clk, Edge::Pos);
                        if s == 0 {
                            api.subscribe_clock(clk, Edge::Neg);
                        }
                    }
                }),
            );
        }
    }
    // One foreground heartbeat so run_until sees foreground work; its
    // contribution (1 event/us) is noise next to the clock edges.
    sim.add(
        "heartbeat",
        FnComponent::new(|api, msg| match msg.kind {
            MsgKind::Start | MsgKind::Timer(_) => api.timer_in(SimDuration::us(1), 0),
            _ => {}
        }),
    );
}

/// Measure the dense-clock workload on a fresh simulator.
pub fn dense_clock(horizon_us: u64) -> HotpathMeasurement {
    let mut sim = Simulator::new();
    build_dense_clock(&mut sim, 8, 4);
    let t0 = Instant::now();
    let stop = sim.run_until(SimTime::ZERO + SimDuration::us(horizon_us));
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(stop, Ok(StopReason::TimeLimit));
    HotpathMeasurement::new("dense_clock", sim.metrics().dispatched, dt)
        .with_profile(&sim.metrics(), dt)
}

/// Measure the FIFO-heavy workload: `pairs` producer/consumer pairs plus
/// two passive observers per FIFO, `tokens` tokens per producer.
pub fn fifo_heavy(pairs: usize, tokens: u64) -> HotpathMeasurement {
    let mut sim = Simulator::new();
    for p in 0..pairs {
        let fifo = sim.add_fifo::<u64>(&format!("f{p}"), 8);
        sim.add(
            &format!("prod{p}"),
            FnComponent::new(move |api, msg| match msg.kind {
                MsgKind::Start => api.timer_in(SimDuration::ns(10), tokens),
                MsgKind::Timer(left) if left > 0 => {
                    if api.fifo_try_put(fifo, left).is_ok() {
                        api.timer_in(SimDuration::ns(10), left - 1);
                    } else {
                        // Full: retry after the consumer drains.
                        api.timer_in(SimDuration::ns(20), left);
                    }
                }
                _ => {}
            }),
        );
        sim.add(
            &format!("cons{p}"),
            FnComponent::new(move |api, msg| match msg.kind {
                MsgKind::Start => api.subscribe_fifo(fifo),
                MsgKind::Fifo(_, FifoEventKind::DataWritten) => {
                    while api.fifo_try_get(fifo).is_some() {}
                }
                _ => {}
            }),
        );
        for o in 0..2 {
            sim.add(
                &format!("obs{p}_{o}"),
                FnComponent::new(move |api, msg| {
                    if matches!(msg.kind, MsgKind::Start) {
                        api.subscribe_fifo(fifo);
                    }
                }),
            );
        }
    }
    let t0 = Instant::now();
    let stop = sim.run();
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(stop, Ok(StopReason::Quiescent));
    HotpathMeasurement::new("fifo_heavy", sim.metrics().dispatched, dt)
        .with_profile(&sim.metrics(), dt)
}

/// Measure the E5 context-switch sweep (serial, so the number is a pure
/// single-thread kernel throughput).
///
/// The timed runs use the coalesced configuration-traffic fast path; the
/// event numerator is the per-burst reference count of the *same* sweep
/// (timing-identical by construction, asserted in the e5 tests), measured
/// once per point untimed. The quotient is the effective throughput: how
/// fast the simulator retires the per-burst workload's worth of modeled
/// activity.
pub fn e5_sweep() -> HotpathMeasurement {
    let sizes = [64u64, 256, 1024, 4096];
    let widths = [1u64, 2, 4];
    let lat = [2u64, 8];
    const REPEATS: u64 = 16;
    // Per-burst reference: the events the workload costs without the fast
    // path (also warms allocator and page cache for the timed loop).
    let mut ref_events = 0u64;
    for &s in &sizes {
        for &w in &widths {
            for &l in &lat {
                ref_events += measure_switch_cost_opts(s, 0, w, l, false).dispatched;
            }
        }
    }
    let t0 = Instant::now();
    // One sweep is ~10ms; repeat so the timing is not noise-dominated.
    for _ in 0..REPEATS {
        for &s in &sizes {
            for &w in &widths {
                for &l in &lat {
                    let p = measure_switch_cost_opts(s, 0, w, l, true);
                    assert!(p.switches == 8);
                }
            }
        }
    }
    let dt = t0.elapsed().as_secs_f64();
    HotpathMeasurement::new("e5_ctx_switch_sweep", ref_events * REPEATS, dt).with_note(
        "effective throughput: per-burst reference event count over coalesced wall time \
         (identical simulated timing)",
    )
}

/// Ids used by the storm system (add order below).
mod storm_ids {
    use drcf_kernel::prelude::ComponentId;
    pub const BUS: ComponentId = 1;
    pub const MEM: ComponentId = 2;
    pub const DRCF: ComponentId = 3;
    pub const DMA: ComponentId = 4;
}

/// Storm shape: `CONTEXTS` contexts of `CONFIG_WORDS` words each, thrashed
/// round-robin for `SWITCHES` switches while a periodic DMA contends.
const STORM_CONTEXTS: usize = 8;
const STORM_CONFIG_WORDS: u64 = 2048;
const STORM_SWITCHES: usize = 64;

/// Build the context-switch storm system.
fn build_storm(coalesce: bool) -> Simulator {
    let mut sim = Simulator::new();
    let mut map = AddressMap::new();
    map.add(0x0000, 0x7FFF, storm_ids::MEM).unwrap();
    for k in 0..STORM_CONTEXTS as u64 {
        map.add(
            0x8000 + 0x100 * k,
            0x8000 + 0x100 * k + 0xF,
            storm_ids::DRCF,
        )
        .unwrap();
    }
    map.add(0xD000, 0xD003, storm_ids::DMA).unwrap();

    // Round-robin over all contexts: with one fabric slot every access
    // misses and forces a full-size load.
    let script: Vec<(BusOp, Addr, Word)> = (0..STORM_SWITCHES as u64)
        .map(|i| {
            (
                BusOp::Write,
                0x8000 + 0x100 * (i % STORM_CONTEXTS as u64),
                i,
            )
        })
        .collect();
    sim.add("probe", ScriptProbe::new(storm_ids::BUS, script));

    let mem_cfg = MemoryConfig {
        size_words: 0x8000,
        ..MemoryConfig::default()
    };
    let mut bus = Bus::new(BusConfig::default(), map);
    if coalesce {
        bus.register_slave_timing(storm_ids::MEM, mem_cfg.slave_timing());
    }
    sim.add("bus", bus);
    sim.add("mem", Memory::new(mem_cfg));

    let contexts: Vec<Context> = (0..STORM_CONTEXTS as u64)
        .map(|k| {
            Context::new(
                Box::new(RegisterFile::new("ctx", 0x8000 + 0x100 * k, 16, 1)),
                ContextParams {
                    config_addr: 0x100 + k * STORM_CONFIG_WORDS,
                    config_size_words: STORM_CONFIG_WORDS,
                    ..ContextParams::default()
                },
            )
        })
        .collect();
    sim.add(
        "drcf",
        Drcf::new(
            DrcfConfig {
                clock_mhz: 100,
                config_path: ConfigPath::SystemBus {
                    bus: storm_ids::BUS,
                    priority: 3,
                    burst: 16,
                },
                scheduler: SchedulerConfig::default(),
                overlap_load_exec: false,
                abort_load_of: vec![],
                coalesce_config_traffic: coalesce,
            },
            contexts,
        ),
    );

    // The second master: a descriptor-ring-style DMA copying a block every
    // ~40us. Its bursts land inside some configuration windows, forcing
    // de-coalesce + re-coalesce; the gaps leave most windows intact.
    let dma = Dma::new(DmaConfig::default(), storm_ids::BUS);
    let id = sim.add("dma", dma);
    debug_assert_eq!(id, storm_ids::DMA);
    sim.add(
        "dma_kick",
        FnComponent::new(|api, msg| {
            if matches!(msg.kind, MsgKind::Start) {
                api.send(
                    storm_ids::DMA,
                    DmaAutoRepeat {
                        program: DmaProgram {
                            src: 0x6000,
                            dst: 0x7000,
                            words: 32,
                            notify: storm_ids::DMA,
                            tag: 0,
                        },
                        period: SimDuration::us(40),
                        count: 24,
                    },
                    Delay::Delta,
                );
            }
        }),
    );
    sim
}

/// Run the storm `repeats` times with the given coalescing setting.
/// Returns (events per run, total wall seconds, final sim time).
fn run_storm(coalesce: bool, repeats: u32) -> (u64, f64, SimTime) {
    let mut events = 0u64;
    let mut makespan = SimTime::ZERO;
    let mut high_water = 0u64;
    let t0 = Instant::now();
    for _ in 0..repeats {
        let mut sim = build_storm(coalesce);
        // Capacity fix: seed the event queue with the previous run's
        // high-water mark so mid-run growth reallocations disappear.
        sim.prereserve_queue(high_water as usize);
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        let m = sim.metrics();
        events = m.dispatched;
        high_water = m.queue_high_water;
        makespan = sim.now();
        let f = sim.get::<Drcf>(storm_ids::DRCF);
        assert_eq!(f.stats.switches as usize, STORM_SWITCHES);
    }
    (events, t0.elapsed().as_secs_f64(), makespan)
}

/// Median of a non-empty sample.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Measure the storm coalesced and per-burst, alternating the two
/// settings over several rounds so a host speed phase hits both sides.
/// Returns the coalesced measurement (events = per-burst reference count,
/// seconds = median coalesced wall of one round) plus the live on-vs-off
/// wall-time speedup, the median of the rounds' ratios.
pub fn ctx_switch_storm() -> (HotpathMeasurement, f64) {
    const REPEATS: u32 = 16;
    const ROUNDS: usize = 7;
    let mut ev_off = 0;
    let (mut secs_on, mut ratios) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let (ev, off, t_off) = run_storm(false, REPEATS);
        let (_ev_on, on, t_on) = run_storm(true, REPEATS);
        assert_eq!(
            t_off, t_on,
            "coalescing must not change the storm's simulated makespan"
        );
        ev_off = ev;
        secs_on.push(on);
        ratios.push(off / on);
    }
    let m = HotpathMeasurement::new("ctx_switch_storm", ev_off * REPEATS as u64, median(secs_on))
        .with_note(
            "effective throughput: per-burst reference event count over coalesced wall time \
             (identical simulated timing); two masters, periodic de-coalesce",
        );
    (m, median(ratios))
}

/// Sweep points in the warm-fork DSE benchmark. Wide enough that the
/// shared prefix run amortizes well below one cold run per point.
const WARM_FORK_POINTS: usize = 16;

/// Everything the warm-fork bench proves beyond its wall measurement.
#[derive(Debug, Clone, Copy)]
pub struct WarmSweepStats {
    /// Cold-vs-warm wall speedup with the fork at 9/10 of the makespan.
    pub speedup: f64,
    /// Same sweep with the fork at 1/2 of the makespan: a shorter shared
    /// prefix must help less, so `speedup_half < speedup` is the scaling
    /// assertion `scripts/perf_gate.py` enforces.
    pub speedup_half: f64,
    /// Whether a delta capture applied onto a full-snapshot restore landed
    /// on the same `state_hash` as a cold (never-snapshotted) run.
    pub delta_identical: bool,
    /// Compact byte size of the full snapshot at the fork point.
    pub full_bytes: u64,
    /// Compact byte size of the delta document fork→9/10 point.
    pub delta_bytes: u64,
    /// Components the delta capture actually serialized.
    pub dirty_components: u64,
}

/// Measure the warm-fork DSE sweep. Returns the warm measurement (events =
/// cold-sweep reference dispatch count, seconds = warm wall time at the
/// 9/10 fork) plus the [`WarmSweepStats`] detail.
pub fn warm_fork_dse() -> (HotpathMeasurement, WarmSweepStats) {
    use drcf_dse::prelude::*;
    use drcf_soc::prelude::*;
    let w = wireless_receiver(96, 64);
    let names: Vec<String> = w.accels.iter().map(|a| a.name.clone()).collect();
    let spec = SocSpec {
        mapping: Mapping::Drcf {
            candidates: names,
            technology: morphosys(),
            geometry: FabricGeometry::new(24_000, 1),
            config_path: SocConfigPath::SystemBus,
            scheduler: SchedulerConfig::default(),
            overlap_load_exec: false,
        },
        ..SocSpec::default()
    };
    // Both phases timed three times, keeping the fastest pass: min-time is
    // the standard way to strip scheduler/allocator noise from a ratio gate.
    const TIMING_REPS: usize = 3;
    // Cold reference: every point pays the full run.
    let mut cold_events = 0u64;
    let mut makespan = SimDuration::ZERO;
    let mut cold_secs = f64::INFINITY;
    for rep in 0..TIMING_REPS {
        let t0 = Instant::now();
        for _ in 0..WARM_FORK_POINTS {
            let (m, soc) = run_soc(build_soc(&w, &spec).expect("build cold point"));
            assert!(m.ok, "cold point failed: {:?}", m.error);
            if rep == 0 {
                cold_events += soc.sim.metrics().dispatched;
            }
            makespan = m.makespan;
        }
        cold_secs = cold_secs.min(t0.elapsed().as_secs_f64());
    }
    // Warm: one shared prefix snapshot, then every point forks from a live
    // base copy-on-write — `sweep_warm_fork` restores the base once and
    // rewinds it in place per point, so per-point cost is the tail plus
    // the diff the tail dirtied. The prefix run is inside the timed region
    // — it is part of what a warm sweep costs.
    let warm_at = |num: u64, den: u64| -> f64 {
        let points: Vec<usize> = (0..WARM_FORK_POINTS).collect();
        let mut secs = f64::INFINITY;
        for _ in 0..TIMING_REPS {
            let t1 = Instant::now();
            let at = SimDuration::fs(makespan.as_fs() * num / den);
            let snap = snapshot_prefix(&w, &spec, at).expect("capture prefix");
            let recs = sweep_warm_fork(
                &points,
                &snap,
                || restore_soc(&w, &spec, &snap),
                |_, soc| {
                    let m = run_soc_mut(soc);
                    assert!(m.ok, "warm point failed: {:?}", m.error);
                    assert_eq!(
                        m.makespan, makespan,
                        "a warm fork must land exactly where the straight run does"
                    );
                    RunRecord::from_metrics("warm", vec![], &m)
                },
                &[],
                |_, _| {},
            );
            assert!(recs.iter().all(|r| r.ok), "all warm points must succeed");
            secs = secs.min(t1.elapsed().as_secs_f64());
        }
        secs
    };
    let warm_secs = warm_at(9, 10);
    let warm_secs_half = warm_at(1, 2);
    // Delta round trip (untimed): prove the incremental path the sweep
    // rests on. Fork at 1/2, advance a live sim to 9/10, capture the delta
    // against the fork, then apply it onto a *fresh* full restore of the
    // fork — the patched simulator must land on the same state hash as a
    // cold run paused at 9/10 that never saw a snapshot.
    let at_half = SimDuration::fs(makespan.as_fs() / 2);
    let at_nine = SimDuration::fs(makespan.as_fs() * 9 / 10);
    let snap_half = snapshot_prefix(&w, &spec, at_half).expect("capture half prefix");
    let mut live = restore_soc(&w, &spec, &snap_half).expect("restore live base");
    live.sim
        .run_until(drcf_kernel::prelude::SimTime::ZERO + at_nine)
        .expect("advance to 9/10");
    let (delta, _) = live
        .sim
        .snapshot_delta(snap_half.state_hash())
        .expect("capture delta");
    let km = live.sim.metrics();
    let cold_nine = snapshot_prefix(&w, &spec, at_nine).expect("cold 9/10 capture");
    let full_bytes = snap_half.byte_len();
    let mut chain = SnapshotChain::new(snap_half, 1);
    chain
        .push(ChainDoc::Delta(delta))
        .expect("the delta chains onto the fork");
    let (mut patched, tip) = restore_soc_chain(&w, &spec, &chain).expect("restore the delta chain");
    let delta_identical = tip.is_some_and(|t| t.state_hash() == cold_nine.state_hash());
    // The patched simulator must also *run* like the straight one.
    let m_tail = run_soc_mut(&mut patched);
    assert!(m_tail.ok, "delta-patched tail failed: {:?}", m_tail.error);
    assert_eq!(
        m_tail.makespan, makespan,
        "delta-patched resume must land exactly where the straight run does"
    );
    let m = HotpathMeasurement::new("warm_fork_dse", cold_events, warm_secs).with_note(
        "effective throughput: cold-sweep event count over warm-fork wall time (shared prefix \
         snapshotted once at 9/10 of the makespan, one live base rewound copy-on-write per \
         point; identical per-point results asserted, delta round trip hash-checked)",
    );
    let stats = WarmSweepStats {
        speedup: cold_secs / warm_secs,
        speedup_half: cold_secs / warm_secs_half,
        delta_identical,
        full_bytes,
        delta_bytes: km.snapshot_delta_bytes,
        dirty_components: km.snapshot_dirty_components,
    };
    (m, stats)
}

/// Shard count the `sharded_soc` bench targets.
pub const SHARDED_SOC_SHARDS: usize = 4;
/// Simulated horizon of the `sharded_soc` bench.
pub const SHARDED_SOC_HORIZON: SimDuration = SimDuration::us(300);

/// The multi-fabric ring the `sharded_soc` bench runs: wide enough
/// (8 tiles) that 4 shards get 2 tiles each, heavy enough per window that
/// cross-shard synchronization amortizes.
pub fn sharded_soc_ring() -> drcf_soc::prelude::FabricRing {
    drcf_soc::prelude::FabricRing {
        tiles: 8,
        work: 24,
        fanout: 8,
        ..drcf_soc::prelude::FabricRing::default()
    }
}

/// The run configuration of both sharded benches: `shards` worker shards
/// up to `horizon`, with a state hash per synchronization window.
pub fn sharded_config(horizon: SimDuration, shards: usize) -> ShardConfig {
    ShardConfig::to(SimTime::ZERO + horizon)
        .shards(shards)
        .hash_slices(true)
}

/// Measure one partitioned run (min wall time over `reps` passes).
fn time_partitioned(
    graph: &std::sync::Arc<drcf_soc::prelude::SocGraph>,
    cfg: &ShardConfig,
    reps: usize,
) -> (drcf_soc::prelude::PartitionedRun, f64) {
    let mut best = f64::INFINITY;
    let mut run = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = match drcf_soc::prelude::run_partitioned(graph, cfg) {
            Ok(r) => r,
            Err(e) => panic!("sharded run with {} shards failed: {e:?}", cfg.shards),
        };
        best = best.min(t0.elapsed().as_secs_f64());
        run = Some(r);
    }
    match run {
        Some(r) => (r, best),
        None => panic!("a sharded bench needs at least one timing rep"),
    }
}

/// Why `par` differs from `oracle`, or `None` when the two reports match
/// bit-for-bit: the resolved [`drcf_kernel::prelude::DivergenceDetail`]
/// (time, link, seq, both hashes), or the coarse counters when the runs
/// differ outside the hashed slices.
pub fn divergence(
    oracle: &drcf_kernel::prelude::ShardRunReport,
    par: &drcf_kernel::prelude::ShardRunReport,
    what: &str,
) -> Option<String> {
    if oracle.same_outcome(par) {
        return None;
    }
    Some(match par.divergence_detail(oracle) {
        Some(d) => format!("{what} diverged from the oracle: {d}"),
        None => format!(
            "{what} diverged from the oracle outside the hashed slices \
             (rounds {} vs {}, messages {} vs {})",
            par.rounds, oracle.rounds, par.messages, oracle.messages
        ),
    })
}

/// Run `graph` single-threaded (the conservative-lookahead oracle) and
/// with `shards` worker shards, two timed passes each, and compare the two
/// reports — per-LP metrics, probes, and per-window state hashes.
/// Returns the sharded measurement (events = total dispatched, seconds =
/// sharded wall) with `note`, the live serial-vs-sharded wall speedup, the
/// [`divergence`] (`None` when the reports match), and the sharded run
/// itself (for its profile and probes).
fn oracle_vs_sharded(
    name: &str,
    graph: &std::sync::Arc<drcf_soc::prelude::SocGraph>,
    horizon: SimDuration,
    shards: usize,
    note: &str,
) -> (
    HotpathMeasurement,
    f64,
    Option<String>,
    drcf_soc::prelude::PartitionedRun,
) {
    const TIMING_REPS: usize = 2;
    let (oracle, serial_secs) = time_partitioned(graph, &sharded_config(horizon, 1), TIMING_REPS);
    let (sharded, shard_secs) =
        time_partitioned(graph, &sharded_config(horizon, shards), TIMING_REPS);
    let diverged = divergence(&oracle.report, &sharded.report, name);
    let m = HotpathMeasurement::new(name, sharded.events(), shard_secs).with_note(note);
    (m, serial_secs / shard_secs, diverged, sharded)
}

/// Measure the sharded multi-fabric SoC bench: the 8-tile ring run
/// single-threaded and with [`SHARDED_SOC_SHARDS`] worker shards (see
/// `oracle_vs_sharded`). Returns the sharded measurement, the live
/// speedup, the shard count, the divergence from the oracle (`None` when
/// the reports matched), and the sharded run itself (for its
/// parallel-efficiency profile).
pub fn sharded_soc() -> (
    HotpathMeasurement,
    f64,
    usize,
    Option<String>,
    drcf_soc::prelude::PartitionedRun,
) {
    let graph = std::sync::Arc::new(sharded_soc_ring().graph());
    let (m, speedup, diverged, sharded) = oracle_vs_sharded(
        "sharded_soc",
        &graph,
        SHARDED_SOC_HORIZON,
        SHARDED_SOC_SHARDS,
        "8 fabric tiles over 4 worker shards, conservative bridge-latency lookahead; \
         events and per-window state hashes checked bit-identical to the single-threaded \
         oracle; speedup is serial wall over sharded wall",
    );
    (m, speedup, SHARDED_SOC_SHARDS, diverged, sharded)
}

/// Shard count the `sharded_e12` bench targets (the partitioner cuts the
/// topology into [`SHARDED_E12_FABRICS`]` + 1` logical processes).
pub const SHARDED_E12_SHARDS: usize = 4;
/// Fabric clusters in the `sharded_e12` bench topology.
pub const SHARDED_E12_FABRICS: usize = 3;
/// Context switches each churn master forces in the `sharded_e12` bench.
pub const SHARDED_E12_SWITCHES: u32 = 20;

/// The E12 hierarchical topology the `sharded_e12` bench runs: three DRCF
/// clusters behind slow bridges, each thrashed by its own churn master
/// while a latency probe works the CPU-local memory. Heavy 4096-word
/// contexts keep every fabric LP busy between the 10 us bridge-lookahead
/// synchronization windows.
pub fn sharded_e12_graph() -> std::sync::Arc<drcf_soc::prelude::SocGraph> {
    std::sync::Arc::new(crate::e12_hierarchy::sharded_e12_graph(
        4096,
        SHARDED_E12_FABRICS,
        SHARDED_E12_SWITCHES,
        400,
    ))
}

/// Simulated horizon of the `sharded_e12` bench (covers the full churn —
/// [`SHARDED_E12_SWITCHES`] switches of 4096 words per cluster plus bridge
/// round trips, quiescent around 2.5 ms — with deterministic headroom).
pub const SHARDED_E12_HORIZON: SimDuration = SimDuration::ms(3);

/// Measure the sharded E12 bench: the identical hierarchical SocSpec cut
/// at its bus bridges by the automatic partitioner, run single-threaded
/// and with [`SHARDED_E12_SHARDS`] worker shards (see
/// `oracle_vs_sharded`), and check every churn access forced a switch.
/// Returns the sharded measurement, the live speedup, the shard count, the
/// divergence from the oracle (`None` when the reports matched), and the
/// sharded run itself (for its critical-link and parallel-efficiency
/// reports).
pub fn sharded_e12() -> (
    HotpathMeasurement,
    f64,
    usize,
    Option<String>,
    drcf_soc::prelude::PartitionedRun,
) {
    let (m, speedup, diverged, sharded) = oracle_vs_sharded(
        "sharded_e12",
        &sharded_e12_graph(),
        SHARDED_E12_HORIZON,
        SHARDED_E12_SHARDS,
        "3 DRCF clusters behind bridges, cut into 4 LPs by the automatic partitioner; \
         events and per-window state hashes checked bit-identical to the single-threaded \
         oracle; speedup is serial wall over sharded wall",
    );
    let expected = SHARDED_E12_FABRICS as u64 * u64::from(SHARDED_E12_SWITCHES);
    let switches = crate::e12_hierarchy::e12_switches(&sharded);
    assert_eq!(switches, expected, "every churn access must force a switch");
    (m, speedup, SHARDED_E12_SHARDS, diverged, sharded)
}

/// Serve-layer cache outcome: the same sweep requested cold (empty store)
/// and then warm (answered from the content-addressed snapshot store).
pub struct ServeCacheStats {
    /// Cold wall time over warm wall time for the identical request.
    pub speedup: f64,
    /// Points the warm request answered from the store.
    pub hits: u64,
    /// Points in the request.
    pub points: u64,
    /// Warm records are bit-identical to the cold ones.
    pub identical: bool,
}

/// Measure the simulation-as-a-service cache: serve one clock sweep from an
/// empty store (simulates prefix + every point), then serve the identical
/// request again (everything answered from durable records). The warm
/// answer must be bit-identical; the wall ratio is the cache-hit speedup
/// the perf gate tracks.
pub fn serve_cache_bench() -> (HotpathMeasurement, ServeCacheStats) {
    use drcf_serve::prelude::*;
    let dir = std::env::temp_dir().join(format!("drcf-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SnapshotStore::open(&dir).expect("open bench store");
    let req = SweepRequest::small(4_000, vec![150, 250, 350, 500, 700]);

    let t0 = Instant::now();
    let cold = process_sweep(&store, &req).expect("cold serve sweep");
    let cold_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let warm = process_sweep(&store, &req).expect("warm serve sweep");
    let warm_secs = t1.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);

    let stats = ServeCacheStats {
        speedup: cold_secs / warm_secs.max(1e-9),
        hits: warm.from_cache as u64,
        points: req.points.len() as u64,
        identical: warm.records == cold.records && cold.simulated == req.points.len(),
    };
    let m = HotpathMeasurement::new("serve_cache", req.points.len() as u64, cold_secs).with_note(
        "5-point CPU-clock sweep served cold from an empty snapshot store, then re-served \
         warm from durable records; events counts sweep points, seconds is the cold wall",
    );
    (m, stats)
}

/// Run the full hot-path suite with default sizes. Returns the
/// measurements plus the storm's live coalescing-on-vs-off wall speedup
/// and the warm-fork stats (speedups at both fork depths, delta
/// round-trip identity, snapshot sizes).
pub fn run_suite() -> (Vec<HotpathMeasurement>, f64, WarmSweepStats) {
    let (storm, on_vs_off) = ctx_switch_storm();
    let (warm_fork, warm_stats) = warm_fork_dse();
    (
        vec![
            dense_clock(3000),
            fifo_heavy(16, 20_000),
            e5_sweep(),
            storm,
            warm_fork,
        ],
        on_vs_off,
        warm_stats,
    )
}

/// Pre-optimization throughput (events/sec), measured on the commit just
/// before the zero-allocation dispatch rework with this same harness
/// (`--bench-json`, release build). Kept as the fixed "before" reference
/// in `BENCH_kernel.json`; absolute numbers are machine-specific, the
/// ratio is the tracked quantity.
pub const BASELINE_EVENTS_PER_SEC: &[(&str, f64)] = &[
    ("dense_clock", 11_586_250.0),
    ("fifo_heavy", 23_567_612.0),
    ("e5_ctx_switch_sweep", 8_434_458.0),
    // Storm reference: median per-burst (coalescing off) throughput of the
    // identical system on the same box; the live on-vs-off ratio is also
    // reported separately as `ctx_switch_storm_on_vs_off`.
    ("ctx_switch_storm", 4_400_000.0),
];

/// Render the whole suite (plus baseline and speedups) as JSON, together
/// with the divergence of each sharded bench that did not match its
/// oracle (recorded as a false `*_identical` field in the document).
pub fn bench_json() -> (Json, Vec<String>) {
    let (mut current, storm_on_vs_off, warm_stats) = run_suite();
    let (sharded, sharded_speedup, sharded_shards, soc_diverged, soc_run) = sharded_soc();
    current.push(sharded);
    let (e12, e12_speedup, e12_shards, e12_diverged, e12_run) = sharded_e12();
    current.push(e12);
    let sharded_identical = soc_diverged.is_none();
    let e12_identical = e12_diverged.is_none();
    let (serve_m, serve_stats) = serve_cache_bench();
    current.push(serve_m);
    let eff_json = |eff: &drcf_kernel::prelude::EfficiencyReport| {
        Json::obj()
            .with("parallel_efficiency", eff.parallel_efficiency.into())
            .with("load_imbalance", eff.load_imbalance.into())
    };
    let soc_eff = soc_run.efficiency();
    let e12_eff = e12_run.efficiency();
    let e12_cl = e12_run.critical_links();
    let mut baseline_obj = Json::obj();
    for (name, eps) in BASELINE_EVENTS_PER_SEC {
        let _ = baseline_obj.set(name, (*eps).into());
    }
    let mut speedups = Json::obj();
    for m in &current {
        if let Some((_, base)) = BASELINE_EVENTS_PER_SEC.iter().find(|(n, _)| *n == m.name) {
            if base.is_finite() && *base > 0.0 {
                let _ = speedups.set(&m.name, (m.events_per_sec / base).into());
            }
        }
    }
    let hw_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let doc = Json::obj()
        .with("schema", "drcf-bench-kernel-v1".into())
        .with(
            "current",
            Json::Arr(current.iter().map(HotpathMeasurement::to_json).collect()),
        )
        .with("baseline_events_per_sec", baseline_obj)
        .with("speedup_vs_baseline", speedups)
        .with("ctx_switch_storm_on_vs_off", storm_on_vs_off.into())
        .with("warm_fork_speedup", warm_stats.speedup.into())
        .with("warm_fork_speedup_half", warm_stats.speedup_half.into())
        .with(
            "warm_fork_delta_identical",
            Json::Bool(warm_stats.delta_identical),
        )
        .with(
            "warm_fork_snapshot_full_bytes",
            warm_stats.full_bytes.into(),
        )
        .with(
            "warm_fork_snapshot_delta_bytes",
            warm_stats.delta_bytes.into(),
        )
        .with(
            "warm_fork_snapshot_dirty_components",
            warm_stats.dirty_components.into(),
        )
        .with("sharded_soc_speedup", sharded_speedup.into())
        .with("sharded_soc_shards", (sharded_shards as u64).into())
        .with("sharded_soc_identical", Json::Bool(sharded_identical))
        .with("sharded_e12_speedup", e12_speedup.into())
        .with("sharded_e12_shards", (e12_shards as u64).into())
        .with("sharded_e12_identical", Json::Bool(e12_identical))
        .with("sharded_soc_efficiency", eff_json(&soc_eff))
        .with("sharded_e12_efficiency", eff_json(&e12_eff))
        .with("sharded_e12_critical_link", e12_cl.json())
        .with("serve_cache_hit_speedup", serve_stats.speedup.into())
        .with("serve_cache_hits", serve_stats.hits.into())
        .with("serve_points", serve_stats.points.into())
        .with("serve_identical", Json::Bool(serve_stats.identical))
        .with("hw_threads", (hw_threads as u64).into());
    (doc, soc_diverged.into_iter().chain(e12_diverged).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_clock_counts_events() {
        let m = dense_clock(50);
        // 8 clocks, >=4 subscriber deliveries per posedge, 50us horizon.
        assert!(m.events > 10_000, "only {} events", m.events);
        assert!(m.seconds > 0.0);
    }

    #[test]
    fn fifo_heavy_conserves_and_counts() {
        let m = fifo_heavy(2, 500);
        assert!(m.events >= 2 * 500, "only {} events", m.events);
    }

    #[test]
    fn bench_json_shape() {
        let m = HotpathMeasurement::new("x", 100, 0.5);
        let j = m.to_json();
        assert_eq!(j.get("events").unwrap().as_u64(), Some(100));
        assert_eq!(j.get("events_per_sec").unwrap().as_f64(), Some(200.0));
    }

    #[test]
    fn sharded_soc_matches_oracle_on_a_small_topology() {
        let ring = drcf_soc::prelude::FabricRing {
            tiles: 4,
            ..sharded_soc_ring()
        };
        let graph = std::sync::Arc::new(ring.graph());
        let horizon = SimDuration::us(20);
        let (a, _) = time_partitioned(&graph, &sharded_config(horizon, 1), 1);
        let (b, _) = time_partitioned(&graph, &sharded_config(horizon, SHARDED_SOC_SHARDS), 1);
        assert!(
            a.report.same_outcome(&b.report),
            "diverged at {:?}",
            a.report.first_divergence(&b.report)
        );
        assert!(a.events() > 10_000, "events: {}", a.events());
    }
}
