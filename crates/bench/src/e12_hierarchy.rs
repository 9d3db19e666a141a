//! E12 (extension) — §4: "In real life, there is usually need for more
//! complex architectures."
//!
//! The paper criticizes partitioning methodologies restricted to a single
//! bus + single reconfigurable block. With the bus bridge, the same DRCF
//! system can be built hierarchically: the fabric and its configuration
//! memory live on a peripheral bus behind a bridge, so context-switch
//! traffic never touches the CPU's local bus. The experiment measures the
//! latency a latency-sensitive local master observes while the fabric
//! thrashes, in both topologies.

use std::sync::Arc;

use drcf_bus::prelude::*;
use drcf_core::prelude::*;
use drcf_dse::prelude::*;
use drcf_kernel::json::{ju64, Json};
use drcf_kernel::prelude::*;
use drcf_kernel::snapshot as snap;
use drcf_soc::prelude::{run_partitioned, Part, PartitionedRun, SocGraph};

use crate::common::{r2, ExperimentResult};

/// A latency-sensitive master: reads the local memory every `period`,
/// recording each read's latency.
struct Prober {
    port: MasterPort,
    period: SimDuration,
    reads_left: u32,
    addr: Addr,
}

impl Component for Prober {
    fn decoders(&self) -> &'static [drcf_kernel::snapshot::Decoder] {
        drcf_bus::snapshot::BUS_DECODERS
    }

    fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
        match &msg.kind {
            MsgKind::Start => api.timer_in(self.period, 0),
            MsgKind::Timer(_) => {
                if self.reads_left > 0 {
                    self.reads_left -= 1;
                    let a = self.addr;
                    self.port.read(api, a, 1);
                    let p = self.period;
                    api.timer_in(p, 0);
                }
            }
            _ => {
                let _ = self.port.take_response(api, msg);
            }
        }
    }

    fn snapshot(&mut self) -> SimResult<Json> {
        Ok(Json::obj()
            .with("port", self.port.snapshot_json())
            .with("reads_left", ju64(u64::from(self.reads_left))))
    }

    fn restore(&mut self, state: &Json) -> SimResult<()> {
        self.port.restore_json(snap::field(state, "port")?)?;
        self.reads_left = snap::u64_field(state, "reads_left")? as u32;
        Ok(())
    }
}

/// A churn master: alternates accesses between two DRCF contexts, forcing
/// a context switch per access.
struct Churner {
    port: MasterPort,
    accesses_left: u32,
    bases: [Addr; 2],
    i: usize,
}

impl Component for Churner {
    fn decoders(&self) -> &'static [drcf_kernel::snapshot::Decoder] {
        drcf_bus::snapshot::BUS_DECODERS
    }

    fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
        let next = |s: &mut Self, api: &mut Api<'_>| {
            if s.accesses_left > 0 {
                s.accesses_left -= 1;
                let addr = s.bases[s.i % 2];
                s.i += 1;
                s.port.write(api, addr, vec![s.i as u64]);
            }
        };
        match &msg.kind {
            MsgKind::Start => next(self, api),
            _ => {
                if self.port.take_response(api, msg).is_ok() {
                    next(self, api);
                }
            }
        }
    }

    fn snapshot(&mut self) -> SimResult<Json> {
        Ok(Json::obj()
            .with("port", self.port.snapshot_json())
            .with("accesses_left", ju64(u64::from(self.accesses_left)))
            .with("i", ju64(self.i as u64)))
    }

    fn restore(&mut self, state: &Json) -> SimResult<()> {
        self.port.restore_json(snap::field(state, "port")?)?;
        self.accesses_left = snap::u64_field(state, "accesses_left")? as u32;
        self.i = snap::usize_field(state, "i")?;
        Ok(())
    }
}

fn drcf(contexts_bus: ComponentId, config_words: u64) -> Drcf {
    Drcf::new(
        DrcfConfig {
            clock_mhz: 100,
            config_path: ConfigPath::SystemBus {
                bus: contexts_bus,
                priority: 3,
                burst: 16,
            },
            scheduler: SchedulerConfig::default(),
            overlap_load_exec: false,
            abort_load_of: vec![],
            coalesce_config_traffic: false,
        },
        vec![
            Context::new(
                Box::new(RegisterFile::new("ctx_a", 0x8000, 16, 1)),
                ContextParams {
                    config_addr: 0x1_0100,
                    config_size_words: config_words,
                    ..ContextParams::default()
                },
            ),
            Context::new(
                Box::new(RegisterFile::new("ctx_b", 0x8100, 16, 1)),
                ContextParams {
                    config_addr: 0x1_0100 + config_words,
                    config_size_words: config_words,
                    ..ContextParams::default()
                },
            ),
        ],
    )
}

/// Flat topology: everything on one bus.
/// ids: prober 0, churner 1, bus 2, local mem 3, cfg mem 4, drcf 5.
pub fn run_flat(config_words: u64) -> (f64, u64) {
    let mut sim = Simulator::new();
    let mut map = AddressMap::new();
    map.add(0x0000, 0x0FFF, 3).unwrap();
    map.add(0x1_0000, 0x1_7FFF, 4).unwrap();
    map.add(0x8000, 0x800F, 5).unwrap();
    map.add(0x8100, 0x810F, 5).unwrap();
    sim.add(
        "prober",
        Prober {
            port: MasterPort::new(2, 1),
            period: SimDuration::ns(500),
            reads_left: 200,
            addr: 0x10,
        },
    );
    sim.add(
        "churner",
        Churner {
            port: MasterPort::new(2, 1),
            accesses_left: 20,
            bases: [0x8000, 0x8100],
            i: 0,
        },
    );
    sim.add("bus", Bus::new(BusConfig::default(), map));
    sim.add(
        "local_mem",
        Memory::new(MemoryConfig {
            size_words: 0x1000,
            ..MemoryConfig::default()
        }),
    );
    sim.add(
        "cfg_mem",
        Memory::new(MemoryConfig {
            base: 0x1_0000,
            size_words: 0x8000,
            ..MemoryConfig::default()
        }),
    );
    sim.add("drcf", drcf(2, config_words));
    assert_eq!(sim.run(), Ok(StopReason::Quiescent));
    let p = sim.get::<Prober>(0);
    let mean = p.port.latency.mean().as_ns_f64();
    let max = p.port.latency.max().as_fs() / 1_000_000;
    (mean, max)
}

/// Hierarchical topology: the fabric + config memory behind a bridge.
/// ids: prober 0, churner 1, bus0 2, local mem 3, bridge 4, bus1 5,
/// cfg mem 6, drcf 7.
pub fn run_hierarchical(config_words: u64) -> (f64, u64) {
    let mut sim = Simulator::new();
    let mut map0 = AddressMap::new();
    map0.add(0x0000, 0x0FFF, 3).unwrap();
    map0.add(0x8000, 0x1_FFFF, 4).unwrap(); // remote window -> bridge
    let mut map1 = AddressMap::new();
    map1.add(0x1_0000, 0x1_7FFF, 6).unwrap();
    map1.add(0x8000, 0x800F, 7).unwrap();
    map1.add(0x8100, 0x810F, 7).unwrap();
    sim.add(
        "prober",
        Prober {
            port: MasterPort::new(2, 1),
            period: SimDuration::ns(500),
            reads_left: 200,
            addr: 0x10,
        },
    );
    sim.add(
        "churner",
        Churner {
            port: MasterPort::new(2, 1),
            accesses_left: 20,
            bases: [0x8000, 0x8100],
            i: 0,
        },
    );
    sim.add("bus0", Bus::new(BusConfig::default(), map0));
    sim.add(
        "local_mem",
        Memory::new(MemoryConfig {
            size_words: 0x1000,
            ..MemoryConfig::default()
        }),
    );
    sim.add("bridge", BusBridge::new(BridgeConfig::default(), 5));
    sim.add("bus1", Bus::new(BusConfig::default(), map1));
    sim.add(
        "cfg_mem",
        Memory::new(MemoryConfig {
            base: 0x1_0000,
            size_words: 0x8000,
            ..MemoryConfig::default()
        }),
    );
    // The fabric masters bus1 — its config traffic stays downstream.
    sim.add("drcf", drcf(5, config_words));
    assert_eq!(sim.run(), Ok(StopReason::Quiescent));
    let p = sim.get::<Prober>(0);
    let mean = p.port.latency.mean().as_ns_f64();
    let max = p.port.latency.max().as_fs() / 1_000_000;
    (mean, max)
}

/// Base of fabric cluster `c`'s address window in the sharded topology.
/// Clusters are spaced 1 MiW apart so every cluster's register + config
/// ranges are disjoint and a single bridge window covers exactly one.
fn fabric_base(c: usize) -> Addr {
    0x10_0000 * (c as Addr + 1)
}

/// The E12 system as a partitionable [`SocGraph`]: one CPU segment
/// (prober + local memory + one churn master per fabric cluster) and
/// `fabrics` peripheral segments, each holding its own config memory and
/// DRCF behind a slow bridge (100 forward / 100 return cycles at 10 MHz,
/// i.e. 10 us of conservative lookahead per direction). Cutting at the
/// bridges yields `fabrics + 1` logical processes whose context-switch
/// storms advance concurrently.
pub fn sharded_e12_graph(
    config_words: u64,
    fabrics: usize,
    accesses: u32,
    probe_reads: u32,
) -> SocGraph {
    let mut g = SocGraph::new();
    let cpu = g.add_segment("cpu", Some(BusConfig::default()));
    g.add_part(
        cpu,
        Part::new("prober", move |sim, ctx| {
            let bus = ctx.bus()?;
            Ok(sim.add(
                "prober",
                Prober {
                    port: MasterPort::new(bus, 1),
                    period: SimDuration::ns(500),
                    reads_left: probe_reads,
                    addr: 0x10,
                },
            ))
        })
        .with_weight(2)
        .with_probe(|sim, id| {
            let p = sim.get::<Prober>(id);
            Ok(Json::obj()
                .with("reads", ju64(p.port.latency.count()))
                .with("mean_latency_fs", ju64(p.port.latency.mean().as_fs()))
                .with("max_latency_fs", ju64(p.port.latency.max().as_fs())))
        }),
    );
    g.add_part(cpu, mem_part("local_mem", 0x0000, 0x1000));
    for c in 0..fabrics {
        let base = fabric_base(c);
        g.add_part(
            cpu,
            Part::new(&format!("churner{c}"), move |sim, ctx| {
                let bus = ctx.bus()?;
                Ok(sim.add(
                    &format!("churner{c}"),
                    Churner {
                        port: MasterPort::new(bus, 1),
                        accesses_left: accesses,
                        bases: [base + 0x8000, base + 0x8100],
                        i: 0,
                    },
                ))
            })
            .with_probe(|sim, id| {
                let ch = sim.get::<Churner>(id);
                Ok(Json::obj()
                    .with("issued", ju64(ch.i as u64))
                    .with("accesses_left", ju64(u64::from(ch.accesses_left))))
            }),
        );
        let fab = g.add_segment(&format!("fabric{c}"), Some(BusConfig::default()));
        g.add_part(
            fab,
            mem_part(&format!("cfg_mem{c}"), base + 0x1_0000, 0x8000),
        );
        g.add_part(
            fab,
            Part::new(&format!("drcf{c}"), move |sim, ctx| {
                let bus = ctx.bus()?;
                Ok(sim.add(
                    &format!("drcf{c}"),
                    Drcf::new(
                        DrcfConfig {
                            clock_mhz: 100,
                            config_path: ConfigPath::SystemBus {
                                bus,
                                priority: 3,
                                burst: 16,
                            },
                            scheduler: SchedulerConfig::default(),
                            overlap_load_exec: false,
                            abort_load_of: vec![],
                            coalesce_config_traffic: false,
                        },
                        vec![
                            Context::new(
                                Box::new(RegisterFile::new("ctx_a", base + 0x8000, 16, 1)),
                                ContextParams {
                                    config_addr: base + 0x1_0100,
                                    config_size_words: config_words,
                                    ..ContextParams::default()
                                },
                            ),
                            Context::new(
                                Box::new(RegisterFile::new("ctx_b", base + 0x8100, 16, 1)),
                                ContextParams {
                                    config_addr: base + 0x1_0100 + config_words,
                                    config_size_words: config_words,
                                    ..ContextParams::default()
                                },
                            ),
                        ],
                    ),
                ))
            })
            .with_claim(base + 0x8000, base + 0x800F)
            .with_claim(base + 0x8100, base + 0x810F)
            .with_weight(4)
            .with_probe(|sim, id| {
                let f = sim.get::<Drcf>(id);
                Ok(Json::obj()
                    .with("switches", ju64(f.stats.switches))
                    .with("config_words", ju64(f.stats.config_words)))
            }),
        );
        g.add_bridge(
            &format!("bridge{c}"),
            BridgeConfig {
                forward_cycles: 100,
                return_cycles: 100,
                clock_mhz: 10,
                priority: 1,
            },
            cpu,
            fab,
            (base + 0x8000, base + 0x1_FFFF),
        );
    }
    g
}

/// A memory part claiming `[base, base + words)` with deterministic slave
/// timing registered at its segment bus (required for coalescing and for
/// the partitioner's address map).
fn mem_part(name: &str, base: Addr, words: usize) -> Part {
    let cfg = MemoryConfig {
        base,
        size_words: words,
        ..MemoryConfig::default()
    };
    let timing = cfg.slave_timing();
    let owned = name.to_string();
    Part::new(name, move |sim, _ctx| {
        Ok(sim.add(&owned, Memory::new(cfg.clone())))
    })
    .with_claim(base, base + words as Addr - 1)
    .with_timing(timing)
}

/// Run the sharded E12 graph to `horizon` with per-window state hashing.
/// `shards == 1` is the single-LP oracle; any other count must be
/// bit-identical to it.
pub fn run_sharded_e12(
    graph: &Arc<SocGraph>,
    shards: usize,
    horizon: SimDuration,
) -> PartitionedRun {
    let cfg = ShardConfig::to(SimTime::ZERO + horizon)
        .shards(shards)
        .hash_slices(true);
    run_sharded_e12_with(graph, &cfg)
}

/// Run the sharded E12 graph under an explicit [`ShardConfig`] — the
/// hook the experiments CLI uses to enable per-LP tracing
/// (`ShardConfig::trace`) on top of the standard hashing setup.
pub fn run_sharded_e12_with(graph: &Arc<SocGraph>, cfg: &ShardConfig) -> PartitionedRun {
    match run_partitioned(graph, cfg) {
        Ok(r) => r,
        Err(e) => panic!("sharded E12 run with {} shards failed: {e:?}", cfg.shards),
    }
}

/// Total context switches across every fabric segment of a sharded E12 run.
pub fn e12_switches(run: &PartitionedRun) -> u64 {
    let mut total = 0;
    for lp in &run.report.lps {
        let parts = lp.probe.get("parts").and_then(Json::as_obj).unwrap_or(&[]);
        for (name, p) in parts {
            if name.starts_with("drcf") {
                total += p.get("switches").and_then(Json::as_u64).unwrap_or(0);
            }
        }
    }
    total
}

/// Execute E12.
pub fn run() -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "E12",
        "extension (§4) — hierarchical bus: insulating the CPU from configuration traffic",
    );
    let mut t = Table::new(
        "local-master read latency while the fabric thrashes (20 switches)",
        &[
            "topology",
            "config words",
            "mean latency (ns)",
            "max latency (ns)",
        ],
    );
    let mut pairs = Vec::new();
    for words in [512u64, 4096] {
        let flat = run_flat(words);
        let hier = run_hierarchical(words);
        t.row(vec![
            "flat (single bus)".into(),
            words.to_string(),
            r2(flat.0),
            flat.1.to_string(),
        ]);
        t.row(vec![
            "hierarchical (bridge)".into(),
            words.to_string(),
            r2(hier.0),
            hier.1.to_string(),
        ]);
        pairs.push((words, flat, hier));
    }
    res.tables.push(t);

    for (words, flat, hier) in &pairs {
        assert!(
            hier.0 < flat.0,
            "hierarchy must shield the local master ({words} words): {} vs {}",
            hier.0,
            flat.0
        );
    }
    // The shielding grows with config volume.
    let small_gain = pairs[0].1 .0 / pairs[0].2 .0;
    let large_gain = pairs[1].1 .0 / pairs[1].2 .0;
    assert!(large_gain >= small_gain * 0.9);
    res.summary.push(format!(
        "moving the fabric + config memory behind a bridge cuts the local master's mean read latency {:.1}x (4096-word contexts) — the 'more complex architectures' the paper's §4 demands are expressible and measurable",
        large_gain
    ));
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_shields_local_traffic() {
        let flat = run_flat(2048);
        let hier = run_hierarchical(2048);
        assert!(hier.0 < flat.0, "hier {} vs flat {}", hier.0, flat.0);
    }

    #[test]
    fn e12_renders() {
        let r = run();
        assert_eq!(r.tables[0].rows.len(), 4);
    }

    #[test]
    fn sharded_e12_cuts_into_one_lp_per_fabric_plus_cpu() {
        let g = Arc::new(sharded_e12_graph(256, 2, 4, 20));
        let plan = drcf_soc::prelude::plan_partition(&g).expect("plan");
        assert_eq!(plan.lp_count(), 3, "cpu + 2 fabric segments");
        assert_eq!(plan.cut.len(), 2, "both bridges cut");
        assert!(plan.local.is_empty(), "no merged bridges");
    }

    #[test]
    fn sharded_e12_matches_the_single_lp_oracle() {
        let g = Arc::new(sharded_e12_graph(256, 1, 6, 100));
        let horizon = SimDuration::us(300);
        let oracle = run_sharded_e12(&g, 1, horizon);
        let sharded = run_sharded_e12(&g, 2, horizon);
        assert!(
            oracle.report.same_outcome(&sharded.report),
            "diverged at {:?}",
            oracle.report.first_divergence(&sharded.report)
        );
        assert_eq!(oracle.metrics, sharded.metrics);
        // The churn actually completed: every access forced a switch.
        assert_eq!(
            e12_switches(&sharded),
            6,
            "churn must finish in the horizon"
        );
        assert!(sharded.report.messages > 0, "traffic must cross the cut");
    }
}
