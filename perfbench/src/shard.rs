//! `sharded_e12`: the E12 hierarchical SoC — DRCF clusters behind slow
//! bus bridges — cut at its bridges by the automatic partitioner into four
//! logical processes and run through the shard round protocol.
//!
//! The timed op is the inline one-shard run: every round of the
//! conservative window protocol (horizons, envelope exchange, merge,
//! quiescence checks), one op at a time. The two-shard run
//! is the identity oracle and gives the threaded overhead in the traced
//! run. On a 2-vCPU host the two-shard wall time follows the hypervisor's
//! scheduling of both vCPUs more than the code: its run-to-run spread was
//! wider than any usable bound.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use drcf_bench::e12_hierarchy::{e12_switches, sharded_e12_graph};
use drcf_bench::hotpath::{SHARDED_E12_FABRICS, SHARDED_E12_HORIZON};
use drcf_kernel::prelude::{ShardConfig, ShardRunReport, SimTime};
use drcf_soc::prelude::{plan_partition, run_partitioned, SocGraph};

use crate::measure::median;
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{fingerprint, run_items, Bench, Mismatch, Params, Round, Scale, Timed};

/// Worker shards of the oracle run.
pub const ORACLE_SHARDS: usize = 2;

/// Configuration words per context switch.
const CONFIG_WORDS: [u64; 3] = [1024, 2048, 3072];
/// Context switches each churner forces.
const SWITCHES: [u32; 3] = [8, 12, 16];
/// Probe read counts a variant is dealt: `300 + 25 * level`.
const PROBE_READ_LEVELS: usize = 9;

/// Prepared `sharded_e12` state.
pub struct ShardState {
    graphs: Vec<Arc<SocGraph>>,
    /// Round-1 reports, kept for the oracle's `same_outcome` check.
    first: Vec<ShardRunReport>,
}

/// `sharded_e12`.
pub struct ShardedE12;

/// Seeded E12 graph variants around the `sharded_e12` hot-path bench:
/// configuration words x switches, four times; the seed deals each
/// variant one of nine CPU-local probe read counts, each count to four
/// variants, so a round's total probe reads are the same for every seed.
pub fn e12_graphs(seed: u64, scale: Scale) -> Vec<Arc<SocGraph>> {
    let mut rng = Rng::new(seed, 5);
    let cells: Vec<(u64, u32)> = match scale {
        Scale::Full => (0..4)
            .flat_map(|_| {
                CONFIG_WORDS
                    .iter()
                    .flat_map(|&w| SWITCHES.iter().map(move |&s| (w, s)))
            })
            .collect(),
        Scale::Tiny => vec![(256, 2), (256, 3)],
    };
    let reads = rng.balanced(cells.len(), PROBE_READ_LEVELS);
    cells
        .into_iter()
        .zip(reads)
        .map(|((words, switches), level)| {
            let probe_reads = match scale {
                Scale::Full => 300 + 25 * level as u32,
                Scale::Tiny => 10 + level as u32,
            };
            Arc::new(sharded_e12_graph(
                words,
                SHARDED_E12_FABRICS,
                switches,
                probe_reads,
            ))
        })
        .collect()
}

/// The partitioned run configuration at `shards` workers.
pub fn config(shards: usize) -> ShardConfig {
    ShardConfig::to(SimTime::ZERO + SHARDED_E12_HORIZON).shards(shards)
}

/// Fingerprint of a run's deterministic outcome: exactly the fields
/// [`ShardRunReport::same_outcome`] compares.
pub fn outcome_fingerprint(r: &ShardRunReport) -> u64 {
    fingerprint(&(&r.lps, r.rounds, r.messages, r.in_flight_at_end))
}

impl Bench for ShardedE12 {
    type State = ShardState;

    fn prepare(&self, p: &Params) -> Result<ShardState, String> {
        Ok(ShardState {
            graphs: e12_graphs(p.seed, p.scale),
            first: Vec::new(),
        })
    }

    fn round(
        &self,
        st: &mut ShardState,
        tr: &mut Tracer,
        timed: &mut Timed,
        first_op: u32,
    ) -> Result<Round, String> {
        let graphs = &st.graphs;
        let cfg = config(1);
        let outs = run_items(graphs.len(), tr, timed, |i, tr| {
            tr.set_op(first_op + i as u32);
            let t = Instant::now();
            let op = tr.enter("op");
            let run = tr.span("shard.run", || run_partitioned(&graphs[i], &cfg));
            let counts = run.as_ref().ok().map(|r| {
                tr.span("bench.collect", || {
                    let rep = &r.report;
                    [
                        ("kernel.events", r.events()),
                        ("shard.rounds", rep.rounds),
                        ("shard.quiescent_rounds", rep.profile.quiescent_rounds),
                        ("shard.envelopes", rep.messages),
                        ("bus.words", r.metrics.bus_words),
                        ("core.switches", e12_switches(r)),
                    ]
                })
            });
            tr.exit(op);
            (
                run.ok().map(|r| r.report),
                counts,
                t.elapsed().as_secs_f64() * 1e3,
            )
        });
        let mut round = Round::default();
        let keep = st.first.is_empty();
        for (i, (report, counts, ms)) in outs.into_iter().enumerate() {
            timed.lat_ms.push(ms);
            for (k, v) in counts.into_iter().flatten() {
                *round.counts.entry(k).or_insert(0.0) += v as f64;
            }
            match report {
                Some(r) => {
                    round.fps.push(outcome_fingerprint(&r));
                    if keep {
                        st.first.push(r);
                    }
                }
                None => {
                    round.not_ok.push(i);
                    round.fps.push(0);
                }
            }
        }
        Ok(round)
    }

    fn oracle(&self, st: &mut ShardState, first: &Round) -> Result<Vec<Mismatch>, String> {
        let mut bad = Vec::new();
        for (i, g) in st.graphs.iter().enumerate() {
            let threaded = run_partitioned(g, &config(ORACLE_SHARDS)).map_err(|e| e.to_string())?;
            let same = st
                .first
                .get(i)
                .is_some_and(|r| r.same_outcome(&threaded.report));
            if !same || outcome_fingerprint(&threaded.report) != first.fps[i] {
                bad.push((i, "inline run differs from the 2-shard run".into()));
            }
        }
        Ok(bad)
    }

    fn layer_metrics(
        &self,
        st: &mut ShardState,
        traced_ms: &[f64],
    ) -> Result<BTreeMap<&'static str, f64>, String> {
        // The same graphs on two worker shards, one run at a time.
        let (mut busy, mut blocked) = (0u64, 0u64);
        let (mut threaded_ms, mut plan_ms, mut eff) = (Vec::new(), Vec::new(), Vec::new());
        for g in &st.graphs {
            let t = Instant::now();
            let run = run_partitioned(g, &config(ORACLE_SHARDS)).map_err(|e| e.to_string())?;
            threaded_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let prof = &run.report.profile;
            busy += prof.lps.iter().map(|l| l.busy_ns).sum::<u64>();
            blocked += prof.lps.iter().map(|l| l.blocked_ns).sum::<u64>();
            eff.push(prof.efficiency().parallel_efficiency);
            let t = Instant::now();
            plan_partition(g).map_err(|e| e.to_string())?;
            plan_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let op_ms = median(traced_ms);
        Ok(BTreeMap::from([
            (
                "shard.busy_frac",
                busy as f64 / (busy + blocked).max(1) as f64,
            ),
            ("shard.efficiency", median(&eff)),
            ("shard.overhead_ratio", median(&threaded_ms) / op_ms),
            ("shard.plan_rel", median(&plan_ms) / op_ms),
        ]))
    }
}
