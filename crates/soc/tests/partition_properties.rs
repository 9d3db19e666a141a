//! Property tests for the automatic partitioner: randomized
//! bridge-connected SoC graphs — random bridge latencies (including
//! zero-lookahead returns that force the merge fallback), random fault
//! windows and per-fabric config-traffic coalescing — must produce
//! bit-identical outcomes (`RunMetrics`, per-LP reports and per-slice
//! state hashes) at 1, 2 and 4 shards, and identical typed errors when a
//! fault window is hit.

use std::sync::Arc;

use drcf_bus::prelude::*;
use drcf_core::prelude::*;
use drcf_kernel::prelude::*;
use drcf_soc::prelude::*;
use proptest::prelude::*;

/// Per-fabric randomized parameters.
#[derive(Debug, Clone)]
struct FabricParams {
    forward_cycles: u64,
    return_cycles: u64,
    bridge_clock_mhz: u64,
    config_words: u64,
    coalesce: bool,
    accesses: usize,
}

fn fabric_params() -> impl Strategy<Value = FabricParams> {
    (
        50u64..150,
        prop_oneof![Just(0u64), 50u64..150],
        prop_oneof![Just(10u64), Just(25), Just(50), Just(100)],
        64u64..512,
        any::<bool>(),
        2usize..=4,
    )
        .prop_map(
            |(
                forward_cycles,
                return_cycles,
                bridge_clock_mhz,
                config_words,
                coalesce,
                accesses,
            )| {
                FabricParams {
                    forward_cycles,
                    return_cycles,
                    bridge_clock_mhz,
                    config_words,
                    coalesce,
                    accesses,
                }
            },
        )
}

/// Base of fabric `c`'s address window (disjoint per fabric).
fn base_of(c: usize) -> Addr {
    0x10_0000 * (c as Addr + 1)
}

/// Build a random bridge-connected graph: a CPU segment with one scripted
/// CPU master per fabric, plus one peripheral segment per fabric (config
/// memory + two-context DRCF) behind its own bridge. `fault` optionally
/// poisons the start of one fabric's config memory, which the CPU reads at
/// the end of its program — hitting it must abort the run with a typed
/// fault error, identically at every shard count.
fn build_graph(fabrics: &[FabricParams], fault: Option<usize>) -> Arc<SocGraph> {
    let mut g = SocGraph::new();
    let cpu_seg = g.add_segment("cpu", Some(BusConfig::default()));
    for (c, p) in fabrics.iter().enumerate() {
        let base = base_of(c);
        let accesses = p.accesses;
        g.add_part(
            cpu_seg,
            Part::new(&format!("cpu{c}"), move |sim, ctx| {
                let bus = ctx.bus()?;
                let mut program = Vec::new();
                for i in 0..accesses {
                    // Alternate the two contexts: every access misses and
                    // forces a full configuration load downstream.
                    let ctx_base = base + 0x8000 + 0x100 * (i as Addr % 2);
                    program.push(Instr::Write {
                        addr: ctx_base,
                        data: vec![i as Word + 1],
                    });
                }
                // Read back the start of the config memory (the fault
                // window, when one is injected on this fabric).
                program.push(Instr::Read {
                    addr: base + 0x1_0000,
                    burst: 4,
                });
                Ok(sim.add(
                    &format!("cpu{c}"),
                    Cpu::new(CpuConfig::default(), bus, program),
                ))
            }),
        );

        let mut bus_cfg = BusConfig::default();
        if fault == Some(c) {
            bus_cfg
                .fault_ranges
                .push((base + 0x1_0000, base + 0x1_0003));
        }
        let fab = g.add_segment(&format!("fabric{c}"), Some(bus_cfg));
        let mem_cfg = MemoryConfig {
            base: base + 0x1_0000,
            size_words: 0x1000,
            ..MemoryConfig::default()
        };
        let timing = mem_cfg.slave_timing();
        g.add_part(
            fab,
            Part::new(&format!("cfg_mem{c}"), move |sim, _| {
                Ok(sim.add(&format!("cfg_mem{c}"), Memory::new(mem_cfg.clone())))
            })
            .with_claim(base + 0x1_0000, base + 0x1_0FFF)
            .with_timing(timing),
        );
        let (config_words, coalesce) = (p.config_words, p.coalesce);
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
                            coalesce_config_traffic: coalesce,
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
            .with_claim(base + 0x8100, base + 0x810F),
        );
        g.add_bridge(
            &format!("bridge{c}"),
            BridgeConfig {
                forward_cycles: p.forward_cycles,
                return_cycles: p.return_cycles,
                clock_mhz: p.bridge_clock_mhz,
                priority: 1,
            },
            cpu_seg,
            fab,
            (base + 0x8000, base + 0x1_FFFF),
        );
    }
    Arc::new(g)
}

fn run_graph(g: &Arc<SocGraph>, shards: usize) -> SimResult<PartitionedRun> {
    let cfg = ShardConfig::to(SimTime::ZERO + SimDuration::us(400))
        .shards(shards)
        .hash_slices(true);
    run_partitioned(g, &cfg)
}

/// A plain graph per burst count: a CPU whose program writes and reads
/// back a remote memory through a bridge. The partitioner cuts it into two
/// LPs, the 2-shard run matches the single-shard oracle, and more bursts
/// across the bridge show up as more bus words.
#[test]
fn plain_bridge_graphs_match_the_single_shard_run() {
    let build_graph = |bursts: usize| {
        let mut g = SocGraph::new();
        let cpu_seg = g.add_segment("cpu", Some(BusConfig::default()));
        g.add_part(
            cpu_seg,
            Part::new("cpu", move |sim, ctx| {
                let bus = ctx.bus()?;
                let mut program = Vec::new();
                for i in 0..bursts {
                    program.push(Instr::Write {
                        addr: 0x1_0000 + 8 * i as Addr,
                        data: vec![i as Word; 4],
                    });
                    program.push(Instr::Read {
                        addr: 0x1_0000 + 8 * i as Addr,
                        burst: 4,
                    });
                }
                Ok(sim.add("cpu", Cpu::new(CpuConfig::default(), bus, program)))
            }),
        );
        let mem_seg = g.add_segment("mem", Some(BusConfig::default()));
        g.add_part(
            mem_seg,
            Part::new("remote_mem", |sim, _| {
                Ok(sim.add(
                    "remote_mem",
                    Memory::new(MemoryConfig {
                        base: 0x1_0000,
                        size_words: 0x1000,
                        ..MemoryConfig::default()
                    }),
                ))
            })
            .with_claim(0x1_0000, 0x1_0FFF),
        );
        g.add_bridge(
            "br",
            BridgeConfig::default(),
            cpu_seg,
            mem_seg,
            (0x1_0000, 0x1_FFFF),
        );
        Arc::new(g)
    };
    let mut bus_words = Vec::new();
    for bursts in [4usize, 8, 16] {
        let g = build_graph(bursts);
        assert_eq!(plan_partition(&g).expect("plan").lp_count(), 2);
        let cfg = ShardConfig::to(SimTime::ZERO + SimDuration::us(200)).hash_slices(true);
        let oracle = run_partitioned(&g, &cfg.clone().shards(1)).expect("1-shard run");
        let sharded = run_partitioned(&g, &cfg.shards(2)).expect("2-shard run");
        assert!(oracle.metrics.ok, "{:?}", oracle.metrics.error);
        assert_eq!(sharded.metrics, oracle.metrics, "{bursts} bursts");
        bus_words.push(oracle.metrics.bus_words);
    }
    assert!(bus_words[0] < bus_words[2], "{bus_words:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Bit-identity of sharded execution over random bridge-connected
    /// graphs: whatever the bridge latencies (zero-return bridges merge
    /// into their neighbor LP), coalescing settings and fault windows, the
    /// 2- and 4-shard runs agree with the single-LP oracle — on success
    /// in every metric, probe and per-slice state hash; on an injected
    /// fault in the exact typed error.
    #[test]
    fn random_bridge_graphs_are_shard_count_invariant(
        fabrics in proptest::collection::vec(fabric_params(), 1..4),
        fault_seed in any::<u8>(),
    ) {
        // Poison one fabric's readback window in half the cases.
        let fault = if fault_seed % 2 == 0 {
            Some(fault_seed as usize % fabrics.len())
        } else {
            None
        };
        let g = build_graph(&fabrics, fault);

        let plan = plan_partition(&g).expect("plan");
        let merged = fabrics.iter().filter(|p| p.return_cycles == 0).count();
        prop_assert_eq!(plan.cut.len() + plan.local.len(), fabrics.len());
        prop_assert_eq!(plan.local.len(), merged, "zero-return bridges merge");
        prop_assert_eq!(plan.lp_count(), 1 + fabrics.len() - merged);

        let oracle = run_graph(&g, 1);
        prop_assert_eq!(
            oracle.is_err(),
            fault.is_some(),
            "a poisoned readback window must abort the run: {:?}",
            oracle.as_ref().err()
        );
        for shards in [2usize, 4] {
            let run = run_graph(&g, shards);
            match (&oracle, &run) {
                (Ok(a), Ok(b)) => {
                    prop_assert!(
                        a.report.same_outcome(&b.report),
                        "{} shards diverged at {:?}",
                        shards,
                        a.report.first_divergence(&b.report)
                    );
                    prop_assert_eq!(&a.metrics, &b.metrics);
                }
                (Err(a), Err(b)) => {
                    prop_assert_eq!(a.to_string(), b.to_string(), "typed errors must match");
                }
                _ => prop_assert!(
                    false,
                    "oracle and {shards}-shard run disagree on success: {oracle:?} vs {run:?}"
                ),
            }
        }
    }
}
