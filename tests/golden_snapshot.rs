//! Golden snapshot documents across commits.
//!
//! The snapshot store and warm forks key on `state_hash` and reuse stored
//! documents from earlier runs, so a change that silently alters what a
//! snapshot contains — a reordered field, a statistic accounted
//! differently, a train completed through another path — breaks them even
//! when every in-run round trip still agrees with itself. This test pins
//! the hash and byte length of one fixed SoC's snapshots at three instants
//! to constants: mid-way through a coalesced configuration train, just
//! after a completed train, and at the end of the run. A deliberate format
//! change must update the constants and say why.
//!
//! The sharded multi-fabric ring is pinned the same way: its per-LP state
//! hashes, slice hashes and event count at 1 and at 4 shards.

use drcf::prelude::*;

/// A wireless receiver on a DRCF that loads its contexts over the system
/// bus with configuration-train coalescing on (the default).
fn golden_soc() -> (Workload, SocSpec) {
    let w = wireless_receiver(2, 32);
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
    assert!(spec.coalesce_config_traffic, "coalescing is on by default");
    (w, spec)
}

/// Inside the first reconfiguration window, with the train on the bus.
const MID_TRAIN_NS: u64 = 9_400;
/// Just after the first reconfiguration window closed.
const AFTER_TRAIN_NS: u64 = 11_800;

/// `(state_hash, byte_len)` at `MID_TRAIN_NS`, `AFTER_TRAIN_NS` and the
/// end of the run, recorded with the `drcf-snapshot-v2` documents: a train
/// in flight is written as its offer (bursts as contiguous runs, window
/// end) without its derived schedule, and the memory image as runs of
/// nonzero words. The v1 values were
/// `(18288879592867230796, 4534)`, `(10983539635962492241, 3334)` and
/// `(2458794955190095328, 6946)`. This SoC's memory holds no nonzero word,
/// so the last two documents differ from v1 only in the schema string.
const GOLDEN: [(u64, u64); 3] = [
    (465999301802236656, 3409),
    (15193347647391259034, 3334),
    (4975571263540560615, 6946),
];

fn capture(w: &Workload, spec: &SocSpec, at_ns: u64) -> Snapshot {
    snapshot_prefix(w, spec, SimDuration::ns(at_ns)).expect("capture")
}

#[test]
fn snapshot_documents_match_the_golden_hashes() {
    let (w, spec) = golden_soc();
    let (m, mut soc) = run_soc(build_soc(&w, &spec).expect("build"));
    assert!(m.ok, "{m:?}");
    // The capture instants sit where their names say: inside and just
    // after the first reconfiguration window.
    let drcf = soc.drcf.expect("fabric mapping");
    let events = &soc.sim.get::<Drcf>(drcf).stats.events;
    let at = |kind: FabricEventKind| {
        events
            .iter()
            .find(|e| e.kind == kind)
            .map(|e| e.at)
            .expect("a switch ran")
    };
    let (start, done) = (
        at(FabricEventKind::SwitchStart),
        at(FabricEventKind::SwitchDone),
    );
    let ns = |t: u64| SimTime::ZERO + SimDuration::ns(t);
    assert!(start < ns(MID_TRAIN_NS) && ns(MID_TRAIN_NS) < done);
    assert!(done < ns(AFTER_TRAIN_NS));
    let end = soc.sim.snapshot().expect("end-of-run capture");

    let mid = capture(&w, &spec, MID_TRAIN_NS);
    let after = capture(&w, &spec, AFTER_TRAIN_NS);
    let bus_train = |s: &Snapshot| {
        s.json()
            .get("components")
            .and_then(Json::as_arr)
            .and_then(|cs| {
                cs.iter()
                    .find(|c| c.get("name").and_then(Json::as_str) == Some("system_bus"))
            })
            .and_then(|c| c.get("state")?.get("train"))
            .cloned()
    };
    assert!(
        matches!(bus_train(&mid), Some(Json::Obj(_))),
        "a coalesced train is in flight at the mid-train capture"
    );
    assert!(
        after.json().to_string().contains("\"train\":null"),
        "the train has completed by the after-train capture"
    );
    let got = [
        (mid.state_hash(), mid.byte_len()),
        (after.state_hash(), after.byte_len()),
        (end.state_hash(), end.byte_len()),
    ];
    assert_eq!(got, GOLDEN, "snapshot documents changed");
}

/// The multi-fabric ring of the `sharded_soc` bench: 8 tiles with 24 work
/// units and 8 delta dispatches per tick, run to 300 us with a state hash
/// per synchronization window.
fn bench_ring_run(shards: usize) -> PartitionedRun {
    let ring = FabricRing {
        tiles: 8,
        work: 24,
        fanout: 8,
        ..FabricRing::default()
    };
    let cfg = ShardConfig::to(SimTime::ZERO + SimDuration::us(300))
        .shards(shards)
        .hash_slices(true);
    run_partitioned(&std::sync::Arc::new(ring.graph()), &cfg).expect("ring run")
}

/// Events the bench ring dispatches over all LPs.
const RING_DISPATCHED: u64 = 2_279_616;
/// Synchronization windows per LP, each with one slice hash.
const RING_SLICES: usize = 150;
/// Per tile LP, in order: the final `state_hash`, which is also the last
/// slice hash, and a rotate-xor fold of every slice hash. Recorded at 1
/// shard with the `drcf-snapshot-v2` documents; the ring holds no train and
/// no memory word, so every slice document differs from v1 only in the
/// schema string. The v1 values were, in order:
/// `(8173551465553221912, 6601636666495589730)`,
/// `(5941375899233604441, 905129867690350892)`,
/// `(4652776573414587915, 4902952109284041075)`,
/// `(16409356185398516807, 14773367067450941577)`,
/// `(7171451354109611499, 483088765730287626)`,
/// `(15160372177645918550, 11790005094024567736)`,
/// `(8095325587179713144, 17115244911588790518)` and
/// `(2902936252300542286, 4638452183558724275)`.
const RING_GOLDEN: [(u64, u64); 8] = [
    (14424505769913699491, 15960678214046030063),
    (13101011702661135328, 1802870165458656724),
    (17572346842059985550, 14229077499833650634),
    (4167691668335464490, 17373408768245266527),
    (5216685870292811434, 2684925074961366446),
    (3057427545835430945, 9415060430502166054),
    (8330731491875050329, 4046504125807237866),
    (6524821156926644039, 15188850475448623077),
];

#[test]
fn sharded_ring_matches_the_golden_hashes() {
    for shards in [1, 4] {
        let run = bench_ring_run(shards);
        assert_eq!(run.report.total_dispatched(), RING_DISPATCHED);
        assert_eq!(run.report.lps.len(), RING_GOLDEN.len());
        for (i, (lp, &(state, fold))) in run.report.lps.iter().zip(&RING_GOLDEN).enumerate() {
            assert_eq!(lp.name, format!("tile{i}"));
            assert_eq!(lp.state_hash, state, "{shards} shards: {} state", lp.name);
            assert_eq!(lp.slice_hashes.len(), RING_SLICES);
            assert_eq!(lp.slice_hashes.last(), Some(&state));
            let got = lp
                .slice_hashes
                .iter()
                .fold(0u64, |acc, &h| acc.rotate_left(7) ^ h);
            assert_eq!(got, fold, "{shards} shards: {} slices", lp.name);
        }
    }
}
