//! Cross-crate integration: full SoC runs spanning every layer of the
//! stack (kernel → bus → fabric → SoC → DSE).

use drcf::prelude::*;

/// Every workload completes on every mapping with zero bus errors and a
/// consistent fabric accounting.
#[test]
fn all_workloads_complete_on_both_architectures() {
    let workloads = vec![
        wireless_receiver(3, 64),
        video_pipeline(3, 64),
        multi_standard(6, 32, 2),
    ];
    for w in workloads {
        let fixed = run_soc(build_soc(&w, &SocSpec::default()).expect("fixed build")).0;
        assert!(fixed.ok, "{}: fixed run failed", w.name);
        assert_eq!(fixed.errors, 0, "{}", w.name);

        let names: Vec<String> = w.accels.iter().map(|a| a.name.clone()).collect();
        let spec = SocSpec {
            mapping: Mapping::Drcf {
                geometry: size_fabric(&w, &names, 1.2, 1),
                candidates: names,
                technology: morphosys(),
                config_path: SocConfigPath::SystemBus,
                scheduler: SchedulerConfig::default(),
                overlap_load_exec: false,
            },
            ..SocSpec::default()
        };
        let folded = run_soc(build_soc(&w, &spec).expect("drcf build")).0;
        assert!(folded.ok, "{}: drcf run failed", w.name);
        assert_eq!(folded.errors, 0, "{}", w.name);
        assert!(folded.switches > 0, "{}", w.name);
        assert!(folded.makespan >= fixed.makespan, "{}", w.name);
        assert!(folded.area_gates < fixed.area_gates, "{}", w.name);
    }
}

/// Two identical builds produce bit-identical metrics (determinism across
/// the full stack).
#[test]
fn full_stack_determinism() {
    let run = || {
        let w = multi_standard(5, 48, 1);
        let names: Vec<String> = w.accels.iter().map(|a| a.name.clone()).collect();
        let spec = SocSpec {
            mapping: Mapping::Drcf {
                geometry: size_fabric(&w, &names, 1.1, 2),
                candidates: names,
                technology: varicore(),
                config_path: SocConfigPath::SystemBus,
                scheduler: SchedulerConfig {
                    slots: 2,
                    ..SchedulerConfig::default()
                },
                overlap_load_exec: false,
            },
            memory: MemoryConfig {
                base: 0,
                size_words: 0x20000,
                ..MemoryConfig::default()
            },
            ..SocSpec::default()
        };
        let (m, soc) = run_soc(build_soc(&w, &spec).expect("build"));
        (
            m.makespan,
            m.bus_words,
            m.switches,
            m.config_words,
            soc.sim.metrics(),
        )
    };
    assert_eq!(run(), run());
}

/// The parallel sweep gives the identical records as the serial one
/// for a real multi-configuration exploration.
#[test]
fn parallel_sweep_equals_serial() {
    let points: Vec<(u64, usize)> = cartesian2(&[32u64, 64], &[1usize, 2]);
    let eval = |&(samples, slots): &(u64, usize)| {
        let w = wireless_receiver(2, samples as usize);
        let names: Vec<String> = w.accels.iter().map(|a| a.name.clone()).collect();
        let spec = SocSpec {
            mapping: Mapping::Drcf {
                geometry: size_fabric(&w, &names, 1.1, slots),
                candidates: names,
                technology: morphosys(),
                config_path: SocConfigPath::SystemBus,
                scheduler: SchedulerConfig {
                    slots,
                    ..SchedulerConfig::default()
                },
                overlap_load_exec: false,
            },
            ..SocSpec::default()
        };
        let (m, _) = run_soc(build_soc(&w, &spec).expect("build"));
        RunRecord::from_metrics(
            "sweep",
            vec![
                ("samples".into(), samples.to_string()),
                ("slots".into(), slots.to_string()),
            ],
            &m,
        )
    };
    let par = sweep(&points, eval);
    let ser: Vec<RunRecord> = points.iter().map(eval).collect();
    assert_eq!(par, ser);
    assert_eq!(par.len(), 4);
}

/// The DMA moves application data while the fabric reconfigures over the
/// same bus — contention integrates correctly (no deadlock in split mode,
/// both finish).
#[test]
fn dma_and_fabric_share_the_bus() {
    let mut sim = Simulator::new();
    let mut map = AddressMap::new();
    map.add(0x0000, 0x7FFF, 2).unwrap(); // memory
    map.add(0x8000, 0x800F, 3).unwrap(); // fabric
    map.add(0xD000, 0xD003, 4).unwrap(); // DMA registers

    // Driver: kick a DMA copy, then poke the fabric (forcing a config load
    // that competes with the DMA for the bus).
    struct Driver {
        port: MasterPort,
        step: usize,
        done: bool,
    }
    impl Component for Driver {
        fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
            match &msg.kind {
                MsgKind::Start => {
                    api.send(
                        4,
                        DmaProgram {
                            src: 0x1000,
                            dst: 0x2000,
                            words: 256,
                            notify: 0,
                            tag: 1,
                        },
                        Delay::Delta,
                    );
                    self.port.write(api, 0x8000, vec![7]);
                }
                _ => {
                    if msg.user_ref::<DmaDone>().is_some() {
                        self.done = true;
                        return;
                    }
                    if self.port.take_response(api, msg).is_ok() {
                        self.step += 1;
                    }
                }
            }
        }
    }
    sim.add(
        "driver",
        Driver {
            port: MasterPort::new(1, 1),
            step: 0,
            done: false,
        },
    );
    sim.add("bus", Bus::new(BusConfig::default(), map));
    let mut mem = Memory::new(MemoryConfig {
        size_words: 0x8000,
        ..MemoryConfig::default()
    });
    for i in 0..256 {
        mem.poke(0x1000 + i, i + 1);
    }
    sim.add("mem", mem);
    sim.add(
        "drcf",
        Drcf::new(
            DrcfConfig {
                clock_mhz: 100,
                config_path: ConfigPath::SystemBus {
                    bus: 1,
                    priority: 3,
                    burst: 16,
                },
                scheduler: SchedulerConfig::default(),
                overlap_load_exec: false,
                abort_load_of: vec![],
                coalesce_config_traffic: false,
            },
            vec![Context::new(
                Box::new(RegisterFile::new("ctx", 0x8000, 16, 1)),
                ContextParams {
                    config_addr: 0x100,
                    config_size_words: 512,
                    ..ContextParams::default()
                },
            )],
        ),
    );
    sim.add("dma", Dma::new(DmaConfig::default(), 1));
    assert_eq!(sim.run(), Ok(StopReason::Quiescent));

    let driver = sim.get::<Driver>(0);
    assert!(driver.done, "DMA must complete");
    assert_eq!(driver.step, 1, "fabric access must complete");
    let mem = sim.get::<Memory>(2);
    assert_eq!(mem.peek(0x2000 + 255), Some(256), "DMA data landed");
    let fabric = sim.get::<Drcf>(3);
    assert_eq!(fabric.stats.switches, 1);
    let bus = sim.get::<Bus>(1);
    // All three masters (driver=0, fabric=3, DMA=4) were granted the bus.
    assert!(bus.stats.grants_for(0) >= 1, "driver granted");
    assert!(bus.stats.grants_for(3) >= 1, "fabric config reads granted");
    assert!(bus.stats.grants_for(4) >= 1, "DMA granted");
}

/// Error injection: a CPU program touching an unmapped address keeps the
/// system running to completion, but the run is reported as failed with a
/// typed error message instead of silently succeeding.
#[test]
fn unmapped_access_is_survivable() {
    let w = wireless_receiver(1, 32);
    let bindings = assign_bindings(&w, &SocSpec::default());
    let mut program = compile(&w.graph, &bindings, 50).unwrap();
    program.insert(
        0,
        Instr::Read {
            addr: 0xDEAD_0000,
            burst: 1,
        },
    );
    // Build normally, then swap in the fault-injected program.
    let mut soc = build_soc(&w, &SocSpec::default()).unwrap();
    *soc.sim.get_mut::<Cpu>(0) = Cpu::new(CpuConfig::default(), 1, program);
    let (m, soc) = run_soc(soc);
    assert!(!m.ok, "the injected decode error escalates to a failed run");
    let err = m.error.as_deref().unwrap_or("");
    assert!(!err.is_empty(), "failed runs carry a diagnostic message");
    assert_eq!(m.errors, 1, "exactly the injected error");
    assert!(
        soc.sim.reports().count(Severity::Warning) >= 1
            || soc.sim.reports().count(Severity::Error) >= 1
    );
    // Fault isolation: the rest of the workload still ran to completion.
    assert!(m.makespan.as_ns_f64() > 0.0, "workload still completed");
}
