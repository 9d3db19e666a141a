//! The two DSE workloads: cold design points (`dse_cold`) and warm-fork
//! sweeps (`dse_warm_fork`).
//!
//! Both draw from one seeded space of design points over the three
//! ADRIATIC workload families, their sizes, the mapping (all-fixed or a
//! DRCF), the fabric technology, the configuration path, the copy mode and
//! the context eviction policy.

use std::collections::BTreeMap;
use std::time::Instant;

use drcf_bus::prelude::{Bus, MemoryConfig};
use drcf_core::prelude::{all_presets, Drcf, EvictionPolicy, PrefetchPolicy, SchedulerConfig};
use drcf_dse::prelude::size_fabric;
use drcf_kernel::prelude::{SimDuration, SimTime, Snapshot};
use drcf_soc::prelude::{
    build_soc, multi_standard, restore_soc, run_soc_mut, snapshot_prefix, video_pipeline,
    wireless_receiver, BuiltSoc, Cpu, Mapping, RunMetrics, SocConfigPath, SocCopyMode, SocSpec,
    Workload,
};

use crate::measure::median;
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{fingerprint, run_items, Bench, Mismatch, Params, Round, Scale, Timed};

/// One design point: a workload and the SoC it runs on.
#[derive(Debug, Clone)]
pub struct Point {
    /// The application.
    pub workload: Workload,
    /// The SoC.
    pub spec: SocSpec,
}

/// Levels of every dimension of the design space.
const FAMILIES: usize = 3;
const SIZES: usize = 3;
const MAPPINGS: usize = 4; // 1 in 4 all-fixed, the rest DRCF
const TECHS: usize = 3;
const CONFIG_PATHS: usize = 3;
const COPY_MODES: usize = 3;
const EVICTIONS: usize = 2;

/// Build the workload of `family` at size level `size`.
fn family_workload(family: usize, size: usize) -> Workload {
    let frames = [2, 3, 4][size];
    let words = [64, 128, 192][size];
    match family {
        0 => wireless_receiver(frames, words),
        1 => multi_standard(frames + 1, words, 1),
        _ => video_pipeline(frames, words),
    }
}

/// Realize one point from its level indices.
fn point(levels: [usize; 7]) -> Point {
    let [family, size, mapping, tech, path, copy, eviction] = levels;
    let workload = family_workload(family, size);
    let copy_mode = [
        SocCopyMode::CpuDirect,
        SocCopyMode::CpuViaMemory,
        SocCopyMode::Dma,
    ][copy];
    // Configuration images live in system memory: fine-grain technologies
    // need far more of it.
    let memory_words = [0x40000, 0x20000, 0x8000][tech];
    let fixed = mapping == 0;
    let mapping = if fixed {
        Mapping::AllFixed
    } else {
        let names: Vec<String> = workload.accels.iter().map(|a| a.name.clone()).collect();
        // Two regions let the eviction policy choose between residents.
        let regions = 2;
        Mapping::Drcf {
            geometry: size_fabric(&workload, &names, 1.2, regions),
            candidates: names,
            technology: all_presets()[tech].clone(),
            config_path: [
                SocConfigPath::SystemBus,
                SocConfigPath::DirectPort,
                SocConfigPath::FixedRate { words_per_cycle: 4 },
            ][path]
                .clone(),
            scheduler: SchedulerConfig {
                slots: regions,
                prefetch: PrefetchPolicy::None,
                eviction: [EvictionPolicy::Lru, EvictionPolicy::Fifo][eviction],
            },
            overlap_load_exec: false,
        }
    };
    Point {
        workload,
        spec: SocSpec {
            memory: MemoryConfig {
                base: 0,
                size_words: if fixed { 0x8000 } else { memory_words },
                ..MemoryConfig::default()
            },
            copy_mode,
            mapping,
            ..SocSpec::default()
        },
    }
}

/// Level counts of the design dimensions, in [`point`]'s order.
const DIMS: [usize; 7] = [
    FAMILIES,
    SIZES,
    MAPPINGS,
    TECHS,
    CONFIG_PATHS,
    COPY_MODES,
    EVICTIONS,
];

/// A seeded grid of level vectors over `dims`. The dimensions in
/// `factorial` — the ones that set an op's cost most — form a full
/// factorial in nested-loop order, repeated `reps` times; the seed draws
/// every other dimension. Within each factorial cell a drawn dimension
/// takes its levels in seeded turns over the cell's `reps` copies, from a
/// seeded offset balanced over the cells: when `reps` is a multiple of its
/// level count, every cell sees each of its levels equally often. Rounds
/// from different seeds thus carry the same cost mix and differ only in
/// how the drawn dimensions combine with each other.
pub fn grid(rng: &mut Rng, dims: &[usize], factorial: &[usize], reps: usize) -> Vec<Vec<usize>> {
    let mut cells: Vec<Vec<usize>> = vec![vec![0; dims.len()]];
    for &d in factorial {
        cells = cells
            .into_iter()
            .flat_map(|c| {
                (0..dims[d]).map(move |l| {
                    let mut c = c.clone();
                    c[d] = l;
                    c
                })
            })
            .collect();
    }
    let n = cells.len();
    let mut out: Vec<Vec<usize>> = (0..reps).flat_map(|_| cells.iter().cloned()).collect();
    for (d, &levels) in dims.iter().enumerate() {
        if factorial.contains(&d) {
            continue;
        }
        for (i, offset) in rng.balanced(n, levels).into_iter().enumerate() {
            for (r, turn) in rng.balanced(reps, levels).into_iter().enumerate() {
                out[r * n + i][d] = (offset + turn) % levels;
            }
        }
    }
    out
}

/// Copies of each family x size x mapping x technology cell in a `dse_cold`
/// round: a multiple of 3 and 2, so every cell sees each configuration
/// path, copy mode and eviction policy equally often.
const COLD_REPS: usize = 6;

/// The `dse_cold` round: family x size x mapping x technology, six times.
/// The tiny round keeps every seventh point of the smallest size: 7 shares
/// no factor with the 12 mapping x technology cells, so it still covers
/// every mapping and technology.
pub fn design_points(seed: u64, scale: Scale) -> Vec<Point> {
    let mut cells = grid(&mut Rng::new(seed, 1), &DIMS, &[0, 1, 2, 3], COLD_REPS);
    if scale == Scale::Tiny {
        cells.retain(|c| c[1] == 0);
        cells = cells.into_iter().step_by(7).collect();
    }
    cells
        .iter()
        .map(|c| point([c[0], c[1], c[2], c[3], c[4], c[5], c[6]]))
        .collect()
}

/// Every point of the space's corners at the smallest size: used by the
/// smoke tests to prove no generated point fails.
pub fn all_level_points() -> Vec<Point> {
    let mut out = Vec::new();
    for family in 0..FAMILIES {
        for mapping in 0..2 {
            for tech in 0..TECHS {
                for path in 0..CONFIG_PATHS {
                    for copy in 0..COPY_MODES {
                        for eviction in 0..EVICTIONS {
                            out.push(point([family, 0, mapping, tech, path, copy, eviction]));
                        }
                    }
                }
            }
        }
    }
    out
}

/// Exact per-op statistics, summed over a round.
#[derive(Default)]
struct Counts(BTreeMap<&'static str, f64>);

impl Counts {
    fn add(&mut self, k: &'static str, v: f64) {
        *self.0.entry(k).or_insert(0.0) += v;
    }

    fn max(&mut self, k: &'static str, v: f64) {
        let e = self.0.entry(k).or_insert(0.0);
        *e = e.max(v);
    }

    /// Fold another op's counts in (sums, except the high-water mark).
    fn merge(&mut self, other: Counts) {
        for (k, v) in other.0 {
            if k == "kernel.queue_high_water" {
                self.max(k, v);
            } else {
                self.add(k, v);
            }
        }
    }

    /// Simulated statistics of a finished SoC. `events_before` is the
    /// dispatch count the simulator started the measured run with.
    fn soc(&mut self, soc: &BuiltSoc, m: &RunMetrics, events_before: u64) {
        let km = soc.sim.metrics();
        self.add("kernel.events", (km.dispatched - events_before) as f64);
        self.add("kernel.delta_cycles", km.delta_cycles as f64);
        self.add("kernel.timesteps", km.timesteps as f64);
        self.max("kernel.queue_high_water", km.queue_high_water as f64);
        let cpu = soc.sim.get::<Cpu>(soc.cpu);
        self.add("soc.cpu_retired", cpu.stats.retired as f64);
        self.add("soc.cpu_polls", cpu.stats.polls as f64);
        let bus = &soc.sim.get::<Bus>(soc.bus).stats;
        self.add("bus.requests", bus.requests as f64);
        self.add("bus.words", bus.words as f64);
        self.add(
            "bus.wait_total",
            bus.wait.mean().as_ns_f64() * bus.wait.count() as f64,
        );
        self.add("bus.wait_count", bus.wait.count() as f64);
        self.add("bus.busy_sum", m.bus_utilization);
        self.add("ops", 1.0);
        if let Some(d) = soc.drcf {
            let f = &soc.sim.get::<Drcf>(d).stats;
            self.add("core.switches", f.switches as f64);
            self.add("core.config_words", f.config_words as f64);
            self.add("core.hits", f.hits as f64);
            self.add("core.lookups", (f.hits + f.misses) as f64);
            self.add("core.reconfig", m.timeline.total_reconfig.as_ns_f64());
        }
    }

    /// Turn the accumulators into the per-layer count metrics.
    fn finish(mut self) -> BTreeMap<&'static str, f64> {
        let mut take = |k: &str| self.0.remove(k).unwrap_or(0.0);
        let (wait_total, wait_count) = (take("bus.wait_total"), take("bus.wait_count"));
        let (busy_sum, ops) = (take("bus.busy_sum"), take("ops"));
        let (hits, lookups) = (take("core.hits"), take("core.lookups"));
        let mut out = self.0;
        out.insert("bus.wait_mean", ratio(wait_total, wait_count));
        out.insert("bus.busy_frac", ratio(busy_sum, ops));
        out.insert("core.hit_rate", ratio(hits, lookups));
        out
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// `dse_cold`: each op builds a design point's SoC and runs it to
/// completion from scratch.
pub struct DseCold;

/// Prepared `dse_cold` inputs.
pub struct ColdState {
    points: Vec<Point>,
}

impl Bench for DseCold {
    type State = ColdState;

    fn prepare(&self, p: &Params) -> Result<ColdState, String> {
        Ok(ColdState {
            points: design_points(p.seed, p.scale),
        })
    }

    fn round(
        &self,
        st: &mut ColdState,
        tr: &mut Tracer,
        timed: &mut Timed,
        first_op: u32,
    ) -> Result<Round, String> {
        let points = &st.points;
        let outs = run_items(points.len(), tr, timed, |i, tr| {
            let pt = &points[i];
            let mut counts = Counts::default();
            tr.set_op(first_op + i as u32);
            let t = Instant::now();
            let op = tr.enter("op");
            let m = tr
                .span("soc.build", || build_soc(&pt.workload, &pt.spec))
                .ok()
                .map(|mut soc| {
                    let m = tr.span("kernel.run", || run_soc_mut(&mut soc));
                    tr.span("bench.collect", || counts.soc(&soc, &m, 0));
                    tr.span("soc.drop", || drop(soc));
                    m
                });
            tr.exit(op);
            (m, counts, t.elapsed().as_secs_f64() * 1e3)
        });
        let mut round = Round::default();
        let mut counts = Counts::default();
        for (i, (m, c, ms)) in outs.into_iter().enumerate() {
            timed.lat_ms.push(ms);
            counts.merge(c);
            if !m.as_ref().is_some_and(|m| m.ok) {
                round.not_ok.push(i);
            }
            round.fps.push(m.as_ref().map_or(0, fingerprint));
        }
        round.counts = counts.finish();
        Ok(round)
    }

    fn oracle(&self, st: &mut ColdState, first: &Round) -> Result<Vec<Mismatch>, String> {
        // Coalesced configuration traffic is timing-neutral: the per-burst
        // path must reproduce every run observable bit for bit. Every DRCF
        // point is checked; an all-fixed SoC has no configuration traffic.
        let mut bad = Vec::new();
        for (i, pt) in st.points.iter().enumerate() {
            if !matches!(pt.spec.mapping, Mapping::Drcf { .. }) {
                continue;
            }
            let spec = SocSpec {
                coalesce_config_traffic: false,
                ..pt.spec.clone()
            };
            let mut soc = build_soc(&pt.workload, &spec).map_err(|e| e.to_string())?;
            let m = run_soc_mut(&mut soc);
            if fingerprint(&m) != first.fps[i] {
                bad.push((i, format!("per-burst run differs: {m:?}")));
            }
        }
        Ok(bad)
    }

    fn layer_metrics(
        &self,
        _st: &mut ColdState,
        _traced_ms: &[f64],
    ) -> Result<BTreeMap<&'static str, f64>, String> {
        Ok(BTreeMap::new())
    }
}

/// One warm-fork sweep: a design point, its fork time, and the tail CPU
/// clocks to sweep.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// The scenario.
    pub point: Point,
    /// Fork offset: the shared prefix runs `[0, fork)`.
    pub fork: SimDuration,
    /// Tail CPU clocks, MHz, one point each.
    pub clocks: Vec<u64>,
}

/// Fork fractions of the straight makespan, as `(numerator, 10)`.
const FORK_TENTHS: [u64; 5] = [5, 6, 7, 8, 9];
/// Tail CPU clocks a sweep draws from, MHz.
const CLOCKS: [u64; 8] = [50, 100, 150, 200, 250, 300, 400, 500];

/// `dse_warm_fork`: per sweep, capture the prefix once, restore one live
/// base, then per point rewind it, retune the CPU clock and run the tail.
pub struct DseWarmFork;

/// Prepared `dse_warm_fork` inputs.
pub struct WarmState {
    sweeps: Vec<Sweep>,
    /// `state_hash` throughput per sweep, from the oracle's restore check.
    hash_mb_per_s: Vec<f64>,
}

/// Seeded warm-fork sweeps: family x size x technology x fork fraction,
/// the seed drawing configuration path, copy mode, eviction and the order
/// of the clocks. A full sweep runs every clock, so the round's tails are
/// the same for every seed. Placing a fork needs the scenario's straight
/// makespan, so each scenario is run cold once here.
pub fn warm_sweeps(seed: u64, scale: Scale) -> Result<Vec<Sweep>, String> {
    let mut rng = Rng::new(seed, 2);
    let mut dims = DIMS.to_vec();
    dims[2] = 1; // a single mapping level: DRCF
    dims.push(FORK_TENTHS.len());
    let cells = grid(&mut rng, &dims, &[0, 1, 3, 7], 1);
    let (keep, k) = match scale {
        Scale::Full => (1, CLOCKS.len()),
        Scale::Tiny => (cells.len() / 3, 2),
    };
    let mut out = Vec::new();
    for c in cells.iter().step_by(keep) {
        let point = point([c[0], c[1], 1, c[3], c[4], c[5], c[6]]);
        let mut soc = build_soc(&point.workload, &point.spec).map_err(|e| e.to_string())?;
        let m = run_soc_mut(&mut soc);
        if !m.ok {
            return Err(format!("fork placement run failed: {:?}", m.error));
        }
        let fork = SimDuration::fs(m.makespan.as_fs() * FORK_TENTHS[c[7]] / 10);
        let mut clocks = CLOCKS.to_vec();
        rng.shuffle(&mut clocks);
        clocks.truncate(k);
        out.push(Sweep {
            point,
            fork,
            clocks,
        });
    }
    Ok(out)
}

/// The cold straight run a warm-fork point must reproduce: run to the
/// fork, retune, run to completion — no snapshot anywhere.
pub fn straight_point(sweep: &Sweep, clock: u64) -> Result<RunMetrics, String> {
    let mut soc = build_soc(&sweep.point.workload, &sweep.point.spec).map_err(|e| e.to_string())?;
    soc.sim
        .run_until(SimTime::ZERO + sweep.fork)
        .map_err(|e| e.to_string())?;
    let cpu = soc.cpu;
    soc.sim.get_mut::<Cpu>(cpu).set_clock_mhz(clock);
    Ok(run_soc_mut(&mut soc))
}

/// Capture a sweep's prefix and restore the live base it forks from.
/// Returns the snapshot, the base, and the prefix's dispatch count.
fn open_sweep(sw: &Sweep, tr: &mut Tracer) -> Result<(Snapshot, BuiltSoc, u64), String> {
    let (w, spec) = (&sw.point.workload, &sw.point.spec);
    let mut soc = tr
        .span("soc.build", || build_soc(w, spec))
        .map_err(|e| e.to_string())?;
    tr.span("kernel.run", || soc.sim.run_until(SimTime::ZERO + sw.fork))
        .map_err(|e| e.to_string())?;
    let snap = tr
        .span("snapshot.capture", || soc.sim.snapshot())
        .map_err(|e| e.to_string())?;
    let prefix_events = soc.sim.metrics().dispatched;
    tr.span("soc.drop", || drop(soc));
    let base = tr
        .span("snapshot.restore", || restore_soc(w, spec, &snap))
        .map_err(|e| e.to_string())?;
    Ok((snap, base, prefix_events))
}

/// One sweep's ops: per point its metrics (`None` if the point could not
/// run) and latency in ms. The first point's op also carries the prefix
/// capture and base restore: that is when its user sees the first result.
fn warm_sweep(
    sw: &Sweep,
    first_op: u32,
    tr: &mut Tracer,
) -> (Vec<(Option<RunMetrics>, f64)>, Counts) {
    let mut counts = Counts::default();
    let mut out = Vec::with_capacity(sw.clocks.len());
    tr.set_op(first_op);
    let mut pending = Some((Instant::now(), tr.enter("op")));
    let (snap, mut base, prefix_events) = match open_sweep(sw, tr) {
        Ok(o) => o,
        Err(_) => {
            if let Some((t, op)) = pending.take() {
                tr.exit(op);
                out.push((None, t.elapsed().as_secs_f64() * 1e3));
            }
            out.resize(sw.clocks.len(), (None, 0.0));
            return (out, counts);
        }
    };
    counts.add("kernel.events", prefix_events as f64);
    counts.add("snapshot.full_bytes", snap.byte_len() as f64);
    for (j, &mhz) in sw.clocks.iter().enumerate() {
        let (t, op) = pending.take().unwrap_or_else(|| {
            tr.set_op(first_op + j as u32);
            (Instant::now(), tr.enter("op"))
        });
        let rewound = tr.span("snapshot.rewind", || base.sim.rewind(&snap));
        let m = rewound.ok().map(|()| {
            let cpu = base.cpu;
            tr.span("soc.retune", || {
                base.sim.get_mut::<Cpu>(cpu).set_clock_mhz(mhz)
            });
            let before = base.sim.metrics().dispatched;
            let m = tr.span("kernel.run", || run_soc_mut(&mut base));
            tr.span("bench.collect", || {
                counts.soc(&base, &m, before);
                counts.add(
                    "snapshot.dirty_components",
                    base.sim.metrics().snapshot_dirty_components as f64,
                );
            });
            m
        });
        tr.exit(op);
        out.push((m, t.elapsed().as_secs_f64() * 1e3));
    }
    (out, counts)
}

impl Bench for DseWarmFork {
    type State = WarmState;

    fn prepare(&self, p: &Params) -> Result<WarmState, String> {
        Ok(WarmState {
            sweeps: warm_sweeps(p.seed, p.scale)?,
            hash_mb_per_s: Vec::new(),
        })
    }

    fn round(
        &self,
        st: &mut WarmState,
        tr: &mut Tracer,
        timed: &mut Timed,
        first_op: u32,
    ) -> Result<Round, String> {
        let sweeps = &st.sweeps;
        // Op ids: sweeps' points numbered consecutively in sweep order.
        let firsts: Vec<u32> = sweeps
            .iter()
            .scan(first_op, |next, sw| {
                let id = *next;
                *next += sw.clocks.len() as u32;
                Some(id)
            })
            .collect();
        let outs = run_items(sweeps.len(), tr, timed, |i, tr| {
            warm_sweep(&sweeps[i], firsts[i], tr)
        });
        let mut round = Round::default();
        let mut counts = Counts::default();
        for (points, c) in outs {
            counts.merge(c);
            for (m, ms) in points {
                timed.lat_ms.push(ms);
                if !m.as_ref().is_some_and(|m| m.ok) {
                    round.not_ok.push(round.fps.len());
                }
                round.fps.push(m.as_ref().map_or(0, fingerprint));
            }
        }
        round.counts = counts.finish();
        Ok(round)
    }

    fn oracle(&self, st: &mut WarmState, first: &Round) -> Result<Vec<Mismatch>, String> {
        let mut bad = Vec::new();
        let mut i = 0;
        st.hash_mb_per_s.clear();
        for sw in &st.sweeps {
            // A restored base must hash to exactly the captured state.
            let (w, spec) = (&sw.point.workload, &sw.point.spec);
            let snap = snapshot_prefix(w, spec, sw.fork).map_err(|e| e.to_string())?;
            let mut base = restore_soc(w, spec, &snap).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let hash = base.sim.state_hash().map_err(|e| e.to_string())?;
            st.hash_mb_per_s
                .push(snap.byte_len() as f64 / 1e6 / t.elapsed().as_secs_f64());
            let restored = hash == snap.state_hash();
            for &mhz in &sw.clocks {
                let m = straight_point(sw, mhz)?;
                if !restored {
                    bad.push((i, format!("restored base hashes to {hash:016x}")));
                } else if fingerprint(&m) != first.fps[i] {
                    bad.push((
                        i,
                        format!("warm fork differs from the straight run at {mhz} MHz"),
                    ));
                }
                i += 1;
            }
        }
        Ok(bad)
    }

    fn layer_metrics(
        &self,
        st: &mut WarmState,
        _traced_ms: &[f64],
    ) -> Result<BTreeMap<&'static str, f64>, String> {
        Ok(BTreeMap::from([(
            "snapshot.hash_mb_per_s",
            median(&st.hash_mb_per_s),
        )]))
    }
}
