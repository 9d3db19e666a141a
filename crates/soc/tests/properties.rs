//! Property tests for the SoC layer: program compilation structure,
//! analytic-profile consistency, and cross-mapping functional equivalence
//! on randomized workload parameters.

use std::sync::Arc;

use drcf_core::prelude::{morphosys, FabricGeometry, SchedulerConfig};
use drcf_kernel::prelude::{ShardConfig, SimDuration, SimTime};
use drcf_soc::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Compiled programs have exactly the expected instruction counts:
    /// each hardware task contributes 2*ceil(words/16) data bursts plus 4
    /// control steps (LEN, CTRL, poll, status reset); software tasks one
    /// Compute each.
    #[test]
    fn compile_instruction_count(
        sw in proptest::collection::vec(1u64..10_000, 0..6),
        hw in proptest::collection::vec(1usize..100, 0..6),
    ) {
        let mut g = TaskGraph::new();
        for (i, &cycles) in sw.iter().enumerate() {
            g.add(&format!("sw{i}"), TaskKind::Software { cycles }, vec![]);
        }
        for (i, &words) in hw.iter().enumerate() {
            g.add(
                &format!("hw{i}"),
                TaskKind::Hardware {
                    accel: "acc".into(),
                    input_words: words,
                    seed: i as u64,
                },
                vec![],
            );
        }
        let bindings = vec![AccelBinding {
            name: "acc".into(),
            base: 0x2000,
            window_words: 64,
        }];
        let prog = compile(&g, &bindings, 50).unwrap();
        let expect: usize = sw.len()
            + hw.iter()
                .map(|&w| {
                    let w = w.min(64);
                    2 * w.div_ceil(16) + 4
                })
                .sum::<usize>();
        prop_assert_eq!(prog.len(), expect);
    }

    /// Analytic-profile consistency: busy fractions in (0, 1], pairwise
    /// overlap never exceeds either block's busy fraction, and the
    /// schedule length bounds every block's busy time.
    #[test]
    fn asap_profile_consistency(frames in 1usize..5, samples in 16usize..128) {
        for w in [
            wireless_receiver(frames, samples),
            video_pipeline(frames, samples.min(64)),
            multi_standard(frames * 2, samples.min(64), 1),
        ] {
            let (profile, makespan) = asap_profile(&w).unwrap();
            prop_assert!(makespan > 0);
            for b in &profile.blocks {
                prop_assert!(b.busy_fraction > 0.0 && b.busy_fraction <= 1.0,
                    "{}: {}", b.instance, b.busy_fraction);
            }
            for (a, b, f) in &profile.overlap {
                let ba = profile.blocks.iter().find(|x| &x.instance == a).unwrap();
                let bb = profile.blocks.iter().find(|x| &x.instance == b).unwrap();
                prop_assert!(*f <= ba.busy_fraction + 1e-9);
                prop_assert!(*f <= bb.busy_fraction + 1e-9);
                prop_assert!(*f >= 0.0);
            }
        }
    }

    /// Functional equivalence of the two Fig. 1 mappings over randomized
    /// workload parameters: the CPU reads back identical data.
    #[test]
    fn mappings_agree_on_random_workloads(
        frames in 1usize..4,
        samples in 8usize..48,
        switch_every in 1usize..3,
    ) {
        let w = multi_standard(frames * 2, samples, switch_every);
        let run = |mapping: Mapping| {
            let spec = SocSpec { mapping, ..SocSpec::default() };
            let soc = build_soc(&w, &spec).expect("build");
            let (m, soc) = run_soc(soc);
            assert!(m.ok);
            soc.sim.get::<Cpu>(0).read_log.clone()
        };
        let names: Vec<String> = w.accels.iter().map(|a| a.name.clone()).collect();
        let max_gates = w.accels.iter().map(|a| a.kind.gate_count()).max().unwrap();
        let folded = Mapping::Drcf {
            geometry: FabricGeometry::new(max_gates * 12 / 10, 1),
            candidates: names,
            technology: morphosys(),
            config_path: SocConfigPath::SystemBus,
            scheduler: SchedulerConfig::default(),
            overlap_load_exec: false,
        };
        prop_assert_eq!(run(Mapping::AllFixed), run(folded));
    }

    /// Deterministic inputs: the same seed yields the same block; different
    /// seeds differ somewhere (overwhelmingly likely for 16+ words).
    #[test]
    fn task_inputs_seeded(seed in any::<u64>()) {
        let a = task_input(seed, 32);
        let b = task_input(seed, 32);
        prop_assert_eq!(&a, &b);
        let c = task_input(seed.wrapping_add(1), 32);
        prop_assert_ne!(&a, &c);
    }

    /// Sharded multi-fabric runs are a pure wall-clock optimization: over
    /// random tile counts, work mixes and fault windows, `RunMetrics`,
    /// per-LP reports and per-slice state hashes are bit-identical under
    /// 1, 2, and 4 shards.
    #[test]
    fn sharded_soc_is_shard_count_invariant(
        tiles in 2usize..6,
        work in 1u64..10,
        fanout in 0u64..6,
        emit_every in 1u64..5,
        fault_start_us in 0u64..20,
        fault_len_us in 0u64..10,
    ) {
        let ring = FabricRing {
            tiles,
            work,
            fanout,
            emit_every,
            fault_window: Some((
                SimTime::ZERO + SimDuration::us(fault_start_us),
                SimTime::ZERO + SimDuration::us(fault_start_us + fault_len_us),
            )),
            ..FabricRing::default()
        };
        let graph = Arc::new(ring.graph());
        let run = |shards: usize| {
            let cfg = ShardConfig::to(SimTime::ZERO + SimDuration::us(25))
                .shards(shards)
                .hash_slices(true);
            match run_partitioned(&graph, &cfg) {
                Ok(r) => r,
                Err(e) => panic!("{shards}-shard run failed: {e:?}"),
            }
        };
        let oracle = run(1);
        for shards in [2usize, 4] {
            let par = run(shards);
            prop_assert!(
                oracle.report.same_outcome(&par.report),
                "shards={} diverged at {:?}",
                shards,
                oracle.report.first_divergence(&par.report)
            );
            prop_assert_eq!(&oracle.metrics, &par.metrics);
            for (a, b) in oracle.report.lps.iter().zip(&par.report.lps) {
                prop_assert_eq!(&a.slice_hashes, &b.slice_hashes);
                prop_assert_eq!(a.state_hash, b.state_hash);
            }
        }
    }
}

/// Kernel compute-cycle models are monotone in input size for every kernel
/// (exhaustive over the library, not random).
#[test]
fn kernel_cycles_monotone() {
    let kinds = [
        KernelKind::Fir { taps: vec![1; 8] },
        KernelKind::Fft { points: 64 },
        KernelKind::Viterbi,
        KernelKind::Aes { rounds: 10 },
        KernelKind::Dct,
        KernelKind::MotionEst { search_points: 8 },
    ];
    for k in kinds {
        let mut prev = 0;
        for len in [1u64, 16, 64, 256, 1024] {
            let c = k.compute_cycles(len);
            assert!(c >= prev, "{k:?} not monotone at {len}");
            prev = c;
        }
    }
}
