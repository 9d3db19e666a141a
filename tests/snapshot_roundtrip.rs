//! Snapshot/restore as a first-class, supported workflow on the full SoC:
//! a run paused mid-flight, serialized to text, restored into a freshly
//! built system, and resumed must be bit-identical to the straight run —
//! including snapshots taken mid-context-switch (configuration train in
//! flight) and runs where an injected bus fault overlapping a
//! configuration image forces the coalesced train back onto the per-burst
//! path and ends the run in a typed error.

use drcf::prelude::*;
use proptest::prelude::*;

fn drcf_spec(workload: &Workload) -> SocSpec {
    let names: Vec<String> = workload.accels.iter().map(|a| a.name.clone()).collect();
    SocSpec {
        mapping: Mapping::Drcf {
            geometry: size_fabric(workload, &names, 1.2, 1),
            candidates: names,
            technology: morphosys(),
            config_path: SocConfigPath::SystemBus,
            scheduler: SchedulerConfig::default(),
            overlap_load_exec: false,
        },
        ..SocSpec::default()
    }
}

/// Everything a run leaves behind, rendered for bit-exact comparison.
fn observables(m: &RunMetrics, soc: &BuiltSoc) -> String {
    let cpu = soc.sim.get::<Cpu>(soc.cpu);
    let fabric = soc.drcf.map(|d| soc.sim.get::<Drcf>(d));
    format!(
        "metrics={m:?} now={} read_log={:?} fabric_stats={:?}",
        soc.sim.now().as_fs(),
        cpu.read_log,
        fabric.map(|f| &f.stats),
    )
}

/// Straight run, pausing run, and text-round-tripped resumed run of the
/// same spec must agree on every observable. Returns the straight
/// observables for extra assertions.
fn assert_roundtrip(w: &Workload, spec: &SocSpec, at: SimDuration) -> String {
    let (straight_m, straight) = run_soc(build_soc(w, spec).expect("build straight"));
    let want = observables(&straight_m, &straight);

    let paused_spec = SocSpec {
        snapshot_at: Some(at),
        ..spec.clone()
    };
    let (paused_m, paused) = run_soc(build_soc(w, &paused_spec).expect("build paused"));
    assert_eq!(
        observables(&paused_m, &paused),
        want,
        "pausing to snapshot must not perturb the run"
    );

    let text = paused.snapshot.expect("snapshot captured").to_text();
    let snap = Snapshot::parse(&text).expect("snapshot text parses");
    let (resumed_m, resumed) = run_soc(restore_soc(w, spec, &snap).expect("restore"));
    assert_eq!(
        observables(&resumed_m, &resumed),
        want,
        "resumed run diverged from the straight run"
    );
    assert_eq!(
        resumed.sim.observe_events(),
        straight.sim.observe_events(),
        "trace event streams diverged"
    );
    want
}

/// The first reconfiguration window of the straight run: `(start, done)`
/// of the earliest `SwitchStart`/`SwitchDone` pair in the fabric event
/// log.
fn first_switch_window(w: &Workload, spec: &SocSpec) -> (SimTime, SimTime) {
    let (m, soc) = run_soc(build_soc(w, spec).expect("build probe"));
    assert!(m.ok, "{m:?}");
    let drcf = soc.drcf.expect("fabric mapping");
    let events = &soc.sim.get::<Drcf>(drcf).stats.events;
    let start = events
        .iter()
        .find(|e| e.kind == FabricEventKind::SwitchStart)
        .expect("a switch started")
        .at;
    let done = events
        .iter()
        .find(|e| e.kind == FabricEventKind::SwitchDone && e.at > start)
        .expect("a switch finished")
        .at;
    (start, done)
}

#[test]
fn snapshot_mid_context_switch_resumes_bit_identical() {
    let w = wireless_receiver(2, 32);
    let spec = drcf_spec(&w);
    // Snapshot strictly inside the first reconfiguration window, while the
    // coalesced configuration train is on the bus.
    let (start, done) = first_switch_window(&w, &spec);
    assert!(done > start, "switch window is non-empty");
    let mid = SimTime((start.as_fs() + done.as_fs()) / 2);
    assert!(mid > start && mid < done, "snapshot point is mid-switch");
    assert_roundtrip(&w, &spec, mid.since(SimTime::ZERO));
}

#[test]
fn snapshot_with_fault_overlap_decoalesce_resumes_identically() {
    let w = wireless_receiver(2, 32);
    let mut spec = drcf_spec(&w);
    // Overlap the *last* context's configuration image with an injected
    // bus fault range: the coalesced train over that image must fall back
    // to per-burst bursts so the fault fires exactly as modeled, and the
    // failed load surfaces as a typed error.
    let probe = build_soc(&w, &spec).expect("build probe");
    let last = probe.context_params.last().expect("contexts planned");
    spec.bus.fault_ranges = vec![(last.config_addr, last.config_addr + 4)];
    let (m, soc) = run_soc(build_soc(&w, &spec).expect("build faulty"));
    assert!(!m.ok, "the fault must end the run in a typed error");
    assert!(m.error.is_some());
    assert!(
        soc.sim.get::<Bus>(soc.bus).stats.injected_faults > 0,
        "the fault fired on the per-burst path"
    );
    // Snapshot during the *first* context's (clean) load — before the
    // poisoned image is touched — and check the resumed run reproduces
    // the identical failure.
    let drcf = soc.drcf.expect("fabric mapping");
    let events = &soc.sim.get::<Drcf>(drcf).stats.events;
    let start = events
        .iter()
        .find(|e| e.kind == FabricEventKind::SwitchStart)
        .expect("a clean switch started")
        .at;
    let done = events
        .iter()
        .find(|e| e.kind == FabricEventKind::SwitchDone && e.at > start)
        .expect("the clean switch finished")
        .at;
    let mid = SimTime((start.as_fs() + done.as_fs()) / 2);
    let got = assert_roundtrip(&w, &spec, mid.since(SimTime::ZERO));
    assert!(got.contains("ok: false"), "round-trip preserved the error");
}

/// Delta-chain round trip on the full SoC: full snapshot at `cuts[0]`,
/// one text-round-tripped `drcf-snapshot-delta-v1` document per later cut
/// (all captured on one live timeline), applied in order onto a fresh
/// full-restored system. Verifies parent-hash linkage at every link, that
/// the chain tip's `state_hash` equals an unsnapshotted run paused at the
/// last cut, and that the patched system resumes bit-identically to the
/// straight run.
fn assert_delta_chain(w: &Workload, spec: &SocSpec, cuts: &[SimDuration]) {
    assert!(cuts.len() >= 2, "need a base cut plus at least one delta");
    let (straight_m, straight) = run_soc(build_soc(w, spec).expect("build straight"));
    let want = observables(&straight_m, &straight);
    // One live timeline: full capture at the first cut, deltas after it.
    let base = snapshot_prefix(w, spec, cuts[0]).expect("capture base");
    let mut live = restore_soc(w, spec, &base).expect("restore live timeline");
    let mut parent = base.state_hash();
    let mut chain = SnapshotChain::new(base, cuts.len());
    for &at in &cuts[1..] {
        live.sim
            .run_until(SimTime::ZERO + at)
            .expect("advance live timeline");
        let (d, _) = live.sim.snapshot_delta(parent).expect("capture delta");
        assert_eq!(d.parent_hash(), parent, "delta chains to its parent");
        parent = d.child_hash();
        // The delta document must survive the text round trip, like full
        // snapshots do.
        let d = SnapshotDelta::parse(&d.to_text()).expect("delta text parses");
        chain
            .push(ChainDoc::Delta(d))
            .expect("delta chains onto the tip");
    }
    // The chain tip must be the same state an unsnapshotted run paused at
    // the last cut captures.
    let cold = snapshot_prefix(w, spec, *cuts.last().expect("cuts")).expect("cold capture");
    assert_eq!(
        parent,
        cold.state_hash(),
        "delta-chain tip diverged from the never-snapshotted run"
    );
    // Fresh system: full restore of the base, then patch delta by delta.
    let (mut patched, tip) = restore_soc_chain(w, spec, &chain).expect("restore the chain");
    assert_eq!(
        tip.map(|t| t.state_hash()),
        Some(parent),
        "verified chain tip"
    );
    assert_eq!(
        patched.sim.current_doc_hash(),
        Some(parent),
        "patched simulator stands at the chain tip"
    );
    let resumed_m = run_soc_mut(&mut patched);
    assert_eq!(
        observables(&resumed_m, &patched),
        want,
        "delta-chain resume diverged from the straight run"
    );
}

/// Every `(SwitchStart, SwitchDone)` window of the straight run's fabric
/// event log, in order.
fn switch_windows(w: &Workload, spec: &SocSpec) -> (SimDuration, Vec<(SimTime, SimTime)>) {
    let (m, soc) = run_soc(build_soc(w, spec).expect("build probe"));
    assert!(m.ok, "{m:?}");
    let drcf = soc.drcf.expect("fabric mapping");
    let mut windows = Vec::new();
    let mut start = None;
    for e in &soc.sim.get::<Drcf>(drcf).stats.events {
        match e.kind {
            FabricEventKind::SwitchStart => start = Some(e.at),
            FabricEventKind::SwitchDone => {
                if let Some(s) = start.take() {
                    windows.push((s, e.at));
                }
            }
            _ => {}
        }
    }
    (m.makespan, windows)
}

#[test]
fn delta_chain_through_config_trains_resumes_bit_identical() {
    let w = wireless_receiver(2, 32);
    let spec = drcf_spec(&w);
    let (makespan, windows) = switch_windows(&w, &spec);
    assert!(windows.len() >= 2, "need two reconfiguration windows");
    let mid =
        |(s, d): (SimTime, SimTime)| SimTime((s.as_fs() + d.as_fs()) / 2).since(SimTime::ZERO);
    // Base captured mid-first-train (configuration words on the bus), one
    // delta captured mid-second-train, one near the end of the run: both
    // the full document and the incremental ones carry in-flight coalesced
    // train state.
    let cuts = [
        mid(windows[0]),
        mid(windows[1]),
        SimDuration::fs(makespan.as_fs() * 9 / 10),
    ];
    assert_delta_chain(&w, &spec, &cuts);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For random small workloads, snapshot fractions, and tracing
    /// settings, restore-then-resume is bit-identical to the straight run
    /// (RunMetrics, CPU read log, FabricStats, trace event streams).
    #[test]
    fn restore_vs_straight_run(
        frames in 1usize..3,
        samples_pow in 4u32..6,
        num in 1u64..8,
        traced in any::<bool>(),
    ) {
        let w = wireless_receiver(frames, 1usize << samples_pow);
        let mut spec = drcf_spec(&w);
        if traced {
            spec.trace_capacity = Some(1 << 14);
        }
        let (m, _) = run_soc(build_soc(&w, &spec).expect("build probe"));
        prop_assert!(m.ok, "{m:?}");
        let at = SimDuration::fs(m.makespan.as_fs() * num / 8);
        assert_roundtrip(&w, &spec, at);
    }

    /// Random mutation schedules: a full snapshot at a random fraction of
    /// the makespan followed by deltas captured at random later fractions
    /// (all on one live timeline) must chain by parent hash, land on the
    /// identical `state_hash` as an unsnapshotted run, and resume
    /// bit-identically to the straight run after a full-restore + patch.
    #[test]
    fn delta_chain_vs_full_restore_and_straight_run(
        frames in 1usize..3,
        samples_pow in 4u32..6,
        base in 1u64..6,
        steps in proptest::collection::vec(1u64..4, 1..4),
        traced in any::<bool>(),
    ) {
        let w = wireless_receiver(frames, 1usize << samples_pow);
        let mut spec = drcf_spec(&w);
        if traced {
            spec.trace_capacity = Some(1 << 14);
        }
        let (m, _) = run_soc(build_soc(&w, &spec).expect("build probe"));
        prop_assert!(m.ok, "{m:?}");
        // Strictly increasing tenths of the makespan: the base fraction,
        // then one cut per step, capped inside the run.
        let mut tenths = vec![base];
        for s in steps {
            let last = *tenths.last().expect("cuts");
            let next = (last + s).min(9);
            if next > last {
                tenths.push(next);
            }
        }
        let cuts: Vec<SimDuration> = tenths
            .iter()
            .map(|&n| SimDuration::fs(m.makespan.as_fs() * n / 10))
            .collect();
        assert_delta_chain(&w, &spec, &cuts);
    }
}
