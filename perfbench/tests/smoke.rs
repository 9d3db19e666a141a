//! The benchmark's own checks: tiny-size runs of every workload, metric
//! names against `BENCHMARK.json`, exact counts repeating for a fixed seed,
//! and the oracle tripping on a perturbed result.

use std::path::PathBuf;
use std::time::Instant;

use drcf_core::prelude::all_presets;
use drcf_kernel::json::Json;
use drcf_perfbench::dse::{all_level_points, design_points, grid, DseCold, DseWarmFork};
use drcf_perfbench::rng::Rng;
use drcf_perfbench::serve::ServeMixed;
use drcf_perfbench::shard::ShardedE12;
use drcf_perfbench::trace::Tracer;
use drcf_perfbench::{run_named, Bench, Params, Scale, Timed, END_TO_END, PER_LAYER, WORKLOADS};
use drcf_soc::prelude::{build_soc, run_soc_mut, Mapping, SocConfigPath};

fn params(tag: &str, seed: u64, trace: bool) -> Params {
    Params {
        seed,
        seconds: 0.05,
        trace,
        scale: Scale::Tiny,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}")),
    }
}

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_units(j: &Json, key: &str) -> Vec<(String, String)> {
    j.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.len() <= 64
        && n.starts_with(|c: char| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn metric_names_match_benchmark_json() {
    let j = benchmark_json();
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names_units(&j, "end_to_end"), table(END_TO_END));
    assert_eq!(names_units(&j, "per_layer"), table(PER_LAYER));
    let workloads: Vec<String> = j
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads list")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let mut all: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|(n, _)| *n)
        .collect();
    all.extend(WORKLOADS);
    for n in &all {
        assert!(valid_name(n), "bad metric or workload name {n:?}");
    }
    let mut dedup = all.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), all.len(), "names must be unique");
}

#[test]
fn every_workload_runs_tiny_untraced_and_traced() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let o = run_named(w, &params(&format!("smoke-{w}-{trace}"), 3, trace))
                .unwrap_or_else(|e| panic!("{w}: {e}"));
            assert!(o.correct(), "{w} trace={trace}: {:?}", o.notes);
            let table = if trace { PER_LAYER } else { END_TO_END };
            let got: Vec<&str> = o.metrics.iter().map(|m| m.name).collect();
            let want: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
            assert_eq!(got, want, "{w} trace={trace}");
            for m in &o.metrics {
                assert!(m.value.is_finite(), "{w}: {} = {}", m.name, m.value);
            }
            if !trace {
                for m in &o.metrics {
                    assert!(m.value > 0.0, "{w}: end-to-end {} must not be 0", m.name);
                }
            }
        }
    }
}

#[test]
fn exact_counts_and_digest_repeat_for_a_fixed_seed() {
    for w in WORKLOADS {
        let a = run_named(w, &params(&format!("repeat-a-{w}"), 9, false)).expect("first run");
        let b = run_named(w, &params(&format!("repeat-b-{w}"), 9, false)).expect("second run");
        assert_eq!(a.digest, b.digest, "{w}: output digest");
        assert_eq!(a.counts, b.counts, "{w}: exact counts");
        let c = run_named(w, &params(&format!("repeat-c-{w}"), 10, false)).expect("other seed");
        assert_ne!(
            a.digest, c.digest,
            "{w}: another seed must change the inputs"
        );
    }
}

#[test]
fn sharded_runs_take_300_rounds_each() {
    let o = run_named("sharded_e12", &params("rounds", 4, false)).expect("sharded run");
    let ops = o.attempted as f64 / o.rounds as f64;
    assert_eq!(o.counts["shard.rounds"], 300.0 * ops);
}

/// Run one round of `b`, perturb op `op`'s result, and require the oracle
/// to reject that op while accepting the untouched round.
fn oracle_trips<B: Bench>(b: &B, tag: &str, op: usize) {
    let p = params(tag, TRIP_SEED, false);
    let mut st = b.prepare(&p).expect("prepare");
    let mut tr = Tracer::new(false, Instant::now());
    let mut timed = Timed::default();
    let mut round = b.round(&mut st, &mut tr, &mut timed, 0).expect("round");
    assert!(
        b.oracle(&mut st, &round).expect("oracle").is_empty(),
        "{tag}: clean round"
    );
    round.fps[op] ^= 1;
    let bad = b.oracle(&mut st, &round).expect("oracle");
    assert!(
        bad.iter().any(|(i, _)| *i == op),
        "{tag}: perturbed op {op} not caught"
    );
}

const TRIP_SEED: u64 = 2;

#[test]
fn oracle_trips_on_a_perturbed_result() {
    // The cold oracle compares coalesced with per-burst configuration
    // traffic, which differ only on a DRCF configured over the system bus.
    let cold_op = design_points(TRIP_SEED, Scale::Tiny)
        .iter()
        .position(|p| {
            matches!(
                p.spec.mapping,
                Mapping::Drcf {
                    config_path: SocConfigPath::SystemBus,
                    ..
                }
            )
        })
        .expect("the tiny cold round has a DRCF configured over the system bus");
    oracle_trips(&DseCold, "perturb-cold", cold_op);
    oracle_trips(&DseWarmFork, "perturb-warm", 0);
    oracle_trips(&ServeMixed, "perturb-serve", 0);
    oracle_trips(&ShardedE12, "perturb-shard", 0);
}

#[test]
fn tiny_cold_round_covers_both_mappings_and_every_technology() {
    let points = design_points(TRIP_SEED, Scale::Tiny);
    assert!(points
        .iter()
        .any(|p| matches!(p.spec.mapping, Mapping::AllFixed)));
    let mut techs: Vec<&str> = points
        .iter()
        .filter_map(|p| match &p.spec.mapping {
            Mapping::Drcf { technology, .. } => Some(technology.name),
            Mapping::AllFixed => None,
        })
        .collect();
    techs.sort_unstable();
    techs.dedup();
    assert_eq!(techs.len(), all_presets().len(), "{techs:?}");
}

#[test]
fn cold_grid_balances_the_drawn_dimensions_in_every_cell() {
    // family, size, mapping, technology (the factorial), then configuration
    // path, copy mode and eviction (drawn), six copies of each cell.
    let dims = [3, 3, 4, 3, 3, 3, 2];
    let reps = 6;
    let cells = grid(&mut Rng::new(5, 1), &dims, &[0, 1, 2, 3], reps);
    let n = cells.len() / reps;
    assert_eq!(n, 3 * 3 * 4 * 3);
    for i in 0..n {
        for d in 4..dims.len() {
            let mut seen = vec![0; dims[d]];
            for r in 0..reps {
                assert_eq!(cells[r * n + i][..4], cells[i][..4]);
                seen[cells[r * n + i][d]] += 1;
            }
            assert!(
                seen.iter().all(|&k| k == reps / dims[d]),
                "cell {i} dim {d}: {seen:?}"
            );
        }
    }
}

#[test]
fn every_corner_of_the_design_space_runs() {
    for pt in all_level_points() {
        let mut soc = build_soc(&pt.workload, &pt.spec)
            .unwrap_or_else(|e| panic!("{}: {e}", pt.workload.name));
        let m = run_soc_mut(&mut soc);
        assert!(m.ok, "{}: {:?}", pt.workload.name, m.error);
    }
}
