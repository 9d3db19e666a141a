//! # drcf-perfbench — the repository's end-to-end and per-layer benchmark
//!
//! Four user-shaped workloads drive the public seams of the simulator:
//!
//! - [`dse::DseCold`] — design points built and run from scratch, one
//!   after another (the paper's DSE loop).
//! - [`dse::DseWarmFork`] — warm-fork sweeps: one prefix capture and
//!   restore per sweep, then rewind + retune + tail per point.
//! - [`serve::ServeMixed`] — a closed-loop client against an in-process
//!   sweep server over loopback, from an empty store.
//! - [`shard::ShardedE12`] — the hierarchical E12 SoC cut at its bridges
//!   and run on two shards.
//!
//! [`drive`] runs one of them: set-up, then whole rounds of seeded ops
//! until the time budget is spent (with more timed set-ups between them;
//! the median is reported), then the untimed oracle checks. Every round of
//! a run repeats the same seeded ops, so the exact counts and the output
//! digest of round 1 must reappear bit-for-bit in every later round.
//! Every round and set-up is timed between two runs of the fixed
//! host-speed reference ([`calib`]) and scaled to the host's nominal speed.

pub mod calib;
pub mod dse;
pub mod measure;
pub mod rng;
pub mod serve;
pub mod shard;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use drcf_kernel::prelude::Fnv1a;

use crate::measure::{mean, median, peak_rss_mb, percentile, reset_peak_rss, Stopwatch};
use crate::trace::{layer_of, Tracer};

/// End-to-end metrics `(name, unit)`, printed by an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, printed by a traced run. Every
/// workload prints every one; a layer the workload bypasses reads 0.
/// Host time spent in a layer is given as its share (`frac`) of the traced
/// op wall time `trace.op_ms_mean`; simulated time is in `sim_ns`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.op_ms_mean", "ms"),
    ("trace.op_ms_p50", "ms"),
    ("trace.op_ms_p99", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.uncovered_frac", "frac"),
    ("trace.spans", "count"),
    ("bench.self_frac", "frac"),
    ("kernel.self_frac", "frac"),
    ("kernel.events", "count"),
    ("kernel.events_per_host_s", "1/s"),
    ("kernel.delta_cycles", "count"),
    ("kernel.timesteps", "count"),
    ("kernel.queue_high_water", "count"),
    ("soc.self_frac", "frac"),
    ("soc.cpu_retired", "count"),
    ("soc.cpu_polls", "count"),
    ("bus.requests", "count"),
    ("bus.words", "count"),
    ("bus.wait_mean", "sim_ns"),
    ("bus.busy_frac", "frac"),
    ("core.switches", "count"),
    ("core.config_words", "count"),
    ("core.hit_rate", "frac"),
    ("core.reconfig", "sim_ns"),
    ("snapshot.self_frac", "frac"),
    ("snapshot.capture_frac", "frac"),
    ("snapshot.restore_frac", "frac"),
    ("snapshot.rewind_frac", "frac"),
    ("snapshot.hash_mb_per_s", "MB/s"),
    ("snapshot.full_bytes", "bytes"),
    ("snapshot.delta_bytes", "bytes"),
    ("snapshot.dirty_components", "count"),
    ("serve.self_frac", "frac"),
    ("serve.wire_frac", "frac"),
    ("serve.hit_ratio", "frac"),
    ("serve.repeat_share", "frac"),
    ("serve.simulated_points", "count"),
    ("serve.hit_p50_rel", "x"),
    ("serve.warm_p50_rel", "x"),
    ("serve.cold_p50_rel", "x"),
    ("store.bytes", "bytes"),
    ("store.links", "count"),
    ("store.records", "count"),
    ("store.read_mb_per_s", "MB/s"),
    ("shard.self_frac", "frac"),
    ("shard.plan_rel", "x"),
    ("shard.rounds", "count"),
    ("shard.quiescent_rounds", "count"),
    ("shard.envelopes", "count"),
    ("shard.busy_frac", "frac"),
    ("shard.efficiency", "frac"),
    ("shard.overhead_ratio", "x"),
];

/// The workloads, by their `--workload` names.
pub const WORKLOADS: &[&str] = &["dse_cold", "dse_warm_fork", "serve_mixed", "sharded_e12"];

/// How big one round is: `Full` for measurement, `Tiny` for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Benchmark sizes.
    Full,
    /// Smallest sizes that still exercise every path.
    Tiny,
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Input seed.
    pub seed: u64,
    /// Timed-region budget, seconds (whole rounds run until it is spent).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Round size.
    pub scale: Scale,
    /// Scratch directory for stores and artifacts (inside the checkout).
    pub work_dir: PathBuf,
}

impl Params {
    /// Set-ups per run; the median set-up is reported. The first runs
    /// before round 1, the rest are spread evenly over the time budget,
    /// between rounds.
    fn setups(&self) -> usize {
        match self.scale {
            Scale::Full => 32,
            Scale::Tiny => 2,
        }
    }
}

/// Timing accumulated over the ops of one kind of round (untraced or
/// traced). A round records its ops' latencies and adds its times as
/// measured; [`drive`] then scales the round's latencies to the nominal
/// host speed ([`calib::factor`]) and appends the scaled round to `rounds`.
#[derive(Debug, Default, Clone)]
pub struct Timed {
    /// Per-op wall latency, ms (scaled once the round has ended).
    pub lat_ms: Vec<f64>,
    /// Timed-region wall, s, as measured.
    pub wall_s: f64,
    /// Process CPU over the timed region, s, as measured.
    pub cpu_s: f64,
    /// Per round, scaled: `(ops, wall s, process CPU s)`.
    pub rounds: Vec<(usize, f64, f64)>,
}

/// Run one round's `n` items in order on the calling thread, the only
/// thread that runs ops: one busy thread leaves the host's other cores to
/// everything else, and the host-speed reference (see [`calib`]) timed on
/// the same thread sees the core the ops ran on. The round's times go to
/// `timed`; per-op latencies are the caller's to record.
pub fn run_items<T, F>(n: usize, tr: &mut Tracer, timed: &mut Timed, mut f: F) -> Vec<T>
where
    F: FnMut(usize, &mut Tracer) -> T,
{
    let sw = Stopwatch::start();
    let outs = (0..n).map(|i| f(i, tr)).collect();
    let (wall, cpu) = sw.stop();
    timed.wall_s += wall;
    timed.cpu_s += cpu;
    outs
}

/// What one round produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Round {
    /// Fingerprint of each op's simulated result, in op order.
    pub fps: Vec<u64>,
    /// Ops whose run reported failure (`ok = false` or an error).
    pub not_ok: Vec<usize>,
    /// Exact counts (simulated statistics, kernel counters): identical in
    /// every round of a run and in every run with the same seed.
    pub counts: BTreeMap<&'static str, f64>,
}

/// An oracle mismatch: op index in the round and what disagreed.
pub type Mismatch = (usize, String);

/// One workload.
pub trait Bench {
    /// Prepared inputs and long-lived state (e.g. a running server).
    type State: Send;

    /// Set-up: everything before the first op. Timed; runs several times.
    fn prepare(&self, p: &Params) -> Result<Self::State, String>;

    /// Run one round of ops, timing each into `timed`, spanning layer
    /// calls into `tr` when it is enabled. `first_op` numbers the ops.
    fn round(
        &self,
        st: &mut Self::State,
        tr: &mut Tracer,
        timed: &mut Timed,
        first_op: u32,
    ) -> Result<Round, String>;

    /// Untimed cross-check of round-1 results against the repository's
    /// oracle for this path.
    fn oracle(&self, st: &mut Self::State, first: &Round) -> Result<Vec<Mismatch>, String>;

    /// Workload-specific per-layer metrics (host-dependent ones; the exact
    /// counts come from [`Round::counts`]). `traced_ms` holds the traced
    /// ops' latencies as measured, unscaled, to set beside the other host
    /// timings the workload takes here.
    fn layer_metrics(
        &self,
        st: &mut Self::State,
        traced_ms: &[f64],
    ) -> Result<BTreeMap<&'static str, f64>, String>;
}

/// A named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Outcome of one run.
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed (error, `ok = false`, oracle or determinism mismatch).
    pub failed: u64,
    /// The metrics this run reports (end to end, or per layer if traced).
    pub metrics: Vec<Metric>,
    /// FNV-1a over round 1's op fingerprints.
    pub digest: u64,
    /// Round-1 exact counts.
    pub counts: BTreeMap<&'static str, f64>,
    /// Rounds run.
    pub rounds: usize,
    /// Human-readable notes (sample counts, failures).
    pub notes: Vec<String>,
    /// The spans, when traced.
    pub tracer: Tracer,
}

impl Outcome {
    /// Did every op succeed and match its oracle?
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Run workload `b` under `p`.
pub fn drive<B: Bench>(b: &B, p: &Params) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut setup_s = Vec::new();
    let mut speeds = vec![calib::measure()];
    let mut st = timed_setup(b, p, &mut speeds, &mut setup_s)?;

    let mut tracer = Tracer::new(false, epoch);
    let mut untraced = Timed::default();
    let mut traced = Timed::default();
    let mut first: Option<Round> = None;
    let mut rounds = 0usize;
    let mut failed = 0u64;
    let mut notes = Vec::new();
    let mut next_op = 0u32;
    let mut rss = Vec::new();
    // Unscaled copies of the untraced and the traced rounds' timings.
    let mut raw = [Timed::default(), Timed::default()];
    let t0 = Instant::now();
    let setup_every = p.seconds / p.setups() as f64;
    let mut next_setup = setup_every;
    loop {
        // A traced run alternates untraced and traced rounds, so both
        // medians come from the same conditions.
        let tracing = p.trace && rounds % 2 == 1;
        tracer.set_enabled(tracing);
        let timed = if tracing { &mut traced } else { &mut untraced };
        let before = (timed.lat_ms.len(), timed.wall_s, timed.cpu_s);
        let peak_resets = reset_peak_rss();
        let r = b.round(&mut st, &mut tracer, timed, next_op)?;
        // One round is one user job: its peak memory is the process's
        // resident peak over the round. Where the peak cannot be reset,
        // only round 1's reading is the job's; later ones would add the
        // allocator's creep over rounds that repeat it.
        if !tracing && (peak_resets || rounds == 0) {
            rss.push(peak_rss_mb());
        }
        let after = calib::measure();
        let (wall, cpu) = (timed.wall_s - before.1, timed.cpu_s - before.2);
        let k = calib::factor(speeds[speeds.len() - 1], after);
        speeds.push(after);
        let lat = &mut timed.lat_ms[before.0..];
        let unscaled = &mut raw[usize::from(tracing)];
        unscaled.lat_ms.extend_from_slice(lat);
        unscaled.rounds.push((lat.len(), wall, cpu));
        lat.iter_mut().for_each(|ms| *ms *= k);
        timed.rounds.push((lat.len(), wall * k, cpu * k));
        next_op += r.fps.len() as u32;
        failed += r.not_ok.len() as u64;
        match &first {
            None => first = Some(r),
            Some(f) => {
                let differ = f.fps.iter().zip(&r.fps).filter(|(a, b)| a != b).count()
                    + f.fps.len().abs_diff(r.fps.len());
                if differ > 0 || f.counts != r.counts {
                    notes.push(format!(
                        "round {rounds} differs from round 0: {differ} op fingerprints, counts equal: {}",
                        f.counts == r.counts
                    ));
                    failed += differ.max(1) as u64;
                }
            }
        }
        rounds += 1;
        let min_rounds = if p.trace { 2 } else { 1 };
        if rounds >= min_rounds && t0.elapsed().as_secs_f64() >= p.seconds {
            break;
        }
        // A set-up is shorter than the host's speed phases: set-ups spread
        // over the run sample those phases as the rounds do.
        if t0.elapsed().as_secs_f64() >= next_setup {
            drop(timed_setup(b, p, &mut speeds, &mut setup_s)?);
            next_setup += setup_every;
        }
    }
    let first = first.ok_or("no round ran")?;
    let ops_per_round = first.fps.len() as u64;
    let attempted = ops_per_round * rounds as u64;

    let mismatches = b.oracle(&mut st, &first)?;
    for (i, why) in mismatches.iter().take(5) {
        notes.push(format!("oracle mismatch at op {i}: {why}"));
    }
    // Rounds reproduce round 1 exactly (checked above), so an op that
    // disagrees with its oracle disagrees in every round.
    failed += mismatches.len() as u64 * rounds as u64;
    failed = failed.min(attempted);

    let mut digest = Fnv1a::new();
    for fp in &first.fps {
        digest.update(&fp.to_le_bytes());
    }

    let metrics = if p.trace {
        let mut vals = b.layer_metrics(&mut st, &raw[1].lat_ms)?;
        for (k, v) in &first.counts {
            vals.insert(k, *v);
        }
        vals.extend(generic_layer_metrics(&tracer, &untraced, &traced));
        // Kernel throughput: the round's events over the host time the
        // kernel spans of every traced round took.
        let kernel_s =
            vals.get("kernel.self_frac").copied().unwrap_or(0.0) * tracer.root_total_s("op");
        let events = first.counts.get("kernel.events").copied().unwrap_or(0.0);
        if kernel_s > 0.0 {
            vals.insert(
                "kernel.events_per_host_s",
                events * traced.rounds.len() as f64 / kernel_s,
            );
        }
        let mut out = Vec::new();
        for (name, unit) in PER_LAYER {
            out.push(Metric {
                name,
                value: vals.remove(name).unwrap_or(0.0),
                unit,
            });
        }
        if let Some(extra) = vals.keys().next() {
            return Err(format!("metric {extra} is not in the per-layer table"));
        }
        out
    } else {
        let n = untraced.lat_ms.len();
        let beyond_p99 = n - (n as f64 * 0.99).ceil() as usize;
        notes.push(format!(
            "op latency p99 {} ms over {n} samples, {beyond_p99} beyond it; {rounds} rounds of {ops_per_round} ops",
            percentile(&untraced.lat_ms, 0.99)
        ));
        notes.push(format!(
            "host-speed reference {} s median over {} runs (nominal {} s); unscaled: ops_per_s {}, op_ms_p50 {}, cpu_ms_per_op {}",
            median(&speeds),
            speeds.len(),
            calib::NOMINAL_S,
            median(&rates(&raw[0])),
            median(&raw[0].lat_ms),
            median(&cpu_ms(&raw[0])),
        ));
        // Throughput and CPU cost are medians over rounds: every round runs
        // the same ops, and a round that other tenants of the host slowed
        // down falls out of the median instead of dragging the mean.
        let values = [
            median(&rates(&untraced)),
            median(&untraced.lat_ms),
            median(&cpu_ms(&untraced)),
            median(&setup_s),
            median(&rss),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        digest: digest.finish(),
        counts: first.counts,
        rounds,
        notes,
        tracer,
    })
}

/// Ops per second of each round.
fn rates(t: &Timed) -> Vec<f64> {
    t.rounds.iter().map(|&(n, w, _)| n as f64 / w).collect()
}

/// Process CPU ms per op of each round.
fn cpu_ms(t: &Timed) -> Vec<f64> {
    t.rounds
        .iter()
        .map(|&(n, _, c)| c * 1e3 / n as f64)
        .collect()
}

/// Time one set-up, scaled by the host-speed reference runs on either side
/// of it: the last of `speeds`, and one run after it, appended to `speeds`.
/// Appends the scaled time to `times` and returns the prepared state.
fn timed_setup<B: Bench>(
    b: &B,
    p: &Params,
    speeds: &mut Vec<f64>,
    times: &mut Vec<f64>,
) -> Result<B::State, String> {
    let t = Instant::now();
    let st = b.prepare(p)?;
    let wall = t.elapsed().as_secs_f64();
    let after = calib::measure();
    times.push(wall * calib::factor(speeds[speeds.len() - 1], after));
    speeds.push(after);
    Ok(st)
}

/// Per-layer metrics every workload derives the same way from its spans.
fn generic_layer_metrics(
    tr: &Tracer,
    untraced: &Timed,
    traced: &Timed,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let op_total = tr.root_total_s("op");
    let share = |s: f64| if op_total > 0.0 { s / op_total } else { 0.0 };
    let selfs = tr.self_time_by_name();
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, s) in &selfs {
        *by_layer.entry(layer_of(name)).or_insert(0.0) += s;
    }
    for (layer, key) in [
        ("kernel", "kernel.self_frac"),
        ("soc", "soc.self_frac"),
        ("snapshot", "snapshot.self_frac"),
        ("serve", "serve.self_frac"),
        ("shard", "shard.self_frac"),
        ("bench", "bench.self_frac"),
        ("op", "trace.uncovered_frac"),
    ] {
        out.insert(key, share(by_layer.get(layer).copied().unwrap_or(0.0)));
    }
    for (span, key) in [
        ("snapshot.capture", "snapshot.capture_frac"),
        ("snapshot.restore", "snapshot.restore_frac"),
        ("snapshot.rewind", "snapshot.rewind_frac"),
    ] {
        out.insert(key, share(selfs.get(span).copied().unwrap_or(0.0)));
    }
    out.insert("trace.op_ms_mean", mean(&traced.lat_ms));
    out.insert("trace.op_ms_p50", median(&traced.lat_ms));
    out.insert("trace.op_ms_p99", percentile(&traced.lat_ms, 0.99));
    out.insert(
        "trace.overhead_frac",
        median(&traced.lat_ms) / median(&untraced.lat_ms) - 1.0,
    );
    out.insert("trace.spans", tr.spans().len() as f64);
    out
}

/// FNV-1a fingerprint of a value's `Debug` rendering. `Debug` prints
/// every float with round-trip precision, so equal fingerprints mean
/// bit-equal results (NaN included, unlike `==`).
pub fn fingerprint(v: &impl std::fmt::Debug) -> u64 {
    let mut h = Fnv1a::new();
    h.update(format!("{v:?}").as_bytes());
    h.finish()
}

/// Run the workload named `name`.
pub fn run_named(name: &str, p: &Params) -> Result<Outcome, String> {
    match name {
        "dse_cold" => drive(&dse::DseCold, p),
        "dse_warm_fork" => drive(&dse::DseWarmFork, p),
        "serve_mixed" => drive(&serve::ServeMixed, p),
        "sharded_e12" => drive(&shard::ShardedE12, p),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

/// Format a float for JSON: as measured, every digit kept.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}
