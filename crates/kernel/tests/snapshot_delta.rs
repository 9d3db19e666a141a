//! Incremental snapshots and in-place warm forks (ISSUE 9 tentpole).
//!
//! Contracts under test:
//! * `rewind` onto a captured ancestor snapshot, then re-running the tail,
//!   is bit-identical (`state_hash`, trace, metrics, component state) to a
//!   cold restore into a fresh simulator — and to the straight run.
//! * A `snapshot_delta` chain replayed with `restore_delta` onto a live
//!   simulator reproduces the exact `state_hash` of the full snapshot taken
//!   at each chain link, and resuming from the chain tip matches the
//!   straight run.
//! * Delta documents over mostly-idle models are smaller than full
//!   snapshots, and dirty-component counts reflect only touched components.
//! * Chain-integrity violations (wrong parent, uncaptured rewind target,
//!   a tampered delta body) surface as typed `SimErrorKind::SnapshotChain`
//!   errors, and malformed documents as typed errors on every apply path.

use drcf_kernel::prelude::*;
use drcf_kernel::snapshot;
use proptest::prelude::*;

/// Clocked counter writing a signal and feeding a FIFO — always dirty
/// between captures while the clock runs.
struct Pulse {
    clk: ClockRef,
    sig: SignalRef<u64>,
    fifo: FifoRef<u64>,
    edges: u64,
}

impl Component for Pulse {
    fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
        match msg.kind {
            MsgKind::Start => api.subscribe_clock(self.clk, Edge::Pos),
            MsgKind::ClockEdge(..) => {
                self.edges += 1;
                api.write(self.sig, self.edges);
                if self.edges.is_multiple_of(4) {
                    let _ = api.fifo_try_put(self.fifo, self.edges);
                }
            }
            _ => {}
        }
    }

    fn snapshot(&mut self) -> SimResult<Json> {
        Ok(Json::obj().with("edges", drcf_kernel::json::ju64(self.edges)))
    }

    fn restore(&mut self, state: &Json) -> SimResult<()> {
        self.edges = snapshot::u64_field(state, "edges")?;
        Ok(())
    }
}

/// FIFO drain with a running sum; dirty only when the FIFO delivers.
struct Drain {
    fifo: FifoRef<u64>,
    sum: u64,
}

impl Component for Drain {
    fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
        match msg.kind {
            MsgKind::Start => api.subscribe_fifo(self.fifo),
            MsgKind::Fifo(_, FifoEventKind::DataWritten) => {
                while let Some(v) = api.fifo_try_get(self.fifo) {
                    self.sum += v;
                }
            }
            _ => {}
        }
    }

    fn snapshot(&mut self) -> SimResult<Json> {
        Ok(Json::obj().with("sum", drcf_kernel::json::ju64(self.sum)))
    }

    fn restore(&mut self, state: &Json) -> SimResult<()> {
        self.sum = snapshot::u64_field(state, "sum")?;
        Ok(())
    }
}

/// A component with a deliberately bulky state document that goes quiet
/// after t=25ns: after its last timer fires it is never dispatched again,
/// so delta documents must stop carrying its payload.
struct Sleeper {
    blob: Vec<u64>,
    wakes: u64,
}

impl Component for Sleeper {
    fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
        match msg.kind {
            MsgKind::Start => api.timer_in(SimDuration::ns(25), 1),
            MsgKind::Timer(1) => {
                self.wakes += 1;
                for (i, w) in self.blob.iter_mut().enumerate() {
                    *w = (i as u64)
                        .wrapping_mul(0x9E37_79B9)
                        .wrapping_add(self.wakes);
                }
            }
            _ => {}
        }
    }

    fn snapshot(&mut self) -> SimResult<Json> {
        Ok(Json::obj()
            .with("wakes", drcf_kernel::json::ju64(self.wakes))
            .with(
                "blob",
                Json::Arr(
                    self.blob
                        .iter()
                        .map(|&w| drcf_kernel::json::ju64(w))
                        .collect(),
                ),
            ))
    }

    fn restore(&mut self, state: &Json) -> SimResult<()> {
        self.wakes = snapshot::u64_field(state, "wakes")?;
        let blob = match snapshot::field(state, "blob")? {
            Json::Arr(items) => items
                .iter()
                .map(|j| {
                    drcf_kernel::json::ju64_of(j)
                        .ok_or_else(|| snapshot::err("sleeper blob word is not a u64"))
                })
                .collect::<SimResult<Vec<u64>>>()?,
            _ => return Err(snapshot::err("sleeper blob is not an array")),
        };
        self.blob = blob;
        Ok(())
    }
}

struct World {
    sim: Simulator,
    pulse: ComponentId,
    drain: ComponentId,
    sig: SignalRef<u64>,
}

fn build_world() -> World {
    let mut sim = Simulator::new();
    sim.enable_trace();
    sim.enable_observe(256);
    let clk = sim.add_clock(
        "clk",
        SimDuration::ns(10),
        SimDuration::ns(4),
        SimDuration::ns(1),
    );
    let sig = sim.add_signal("pulse", 0u64);
    sim.trace_signal(sig);
    let fifo = sim.add_fifo::<u64>("queue", 4);
    let pulse = sim.add(
        "pulse",
        Pulse {
            clk,
            sig,
            fifo,
            edges: 0,
        },
    );
    let drain = sim.add("drain", Drain { fifo, sum: 0 });
    sim.add(
        "sleeper",
        Sleeper {
            blob: vec![0; 4096],
            wakes: 0,
        },
    );
    World {
        sim,
        pulse,
        drain,
        sig,
    }
}

fn at(ns: u64) -> SimTime {
    SimTime::ZERO + SimDuration::ns(ns)
}

type Observation = (String, Vec<SimEvent>, u64, u64, u64, u64);

fn observe(w: &mut World) -> Observation {
    (
        match w.sim.tracer() {
            Some(t) => t.render(),
            None => String::new(),
        },
        w.sim.observe_events(),
        w.sim.signal_change_count(w.sig),
        w.sim.get::<Pulse>(w.pulse).edges,
        w.sim.get::<Drain>(w.drain).sum,
        w.sim.snapshot().expect("observation snapshot").state_hash(),
    )
}

fn straight_observation(t2: u64) -> Observation {
    let mut w = build_world();
    w.sim.run_until(at(t2)).expect("straight run");
    observe(&mut w)
}

#[test]
fn rewind_matches_cold_restore_and_straight_run() {
    let want = straight_observation(400);

    let mut w = build_world();
    w.sim.run_until(at(45)).expect("prefix");
    let base = w.sim.snapshot().expect("base snapshot");

    // Run on past the fork point, then rewind the same live simulator.
    w.sim.run_until(at(230)).expect("overshoot");
    w.sim.rewind(&base).expect("rewind");
    assert_eq!(
        w.sim.snapshot().expect("post-rewind snapshot").state_hash(),
        base.state_hash(),
        "rewind must land exactly on the captured state"
    );
    // Rewind again from the capture point itself (zero dirty components).
    w.sim.rewind(&base).expect("rewind from capture point");
    w.sim.run_until(at(400)).expect("tail after rewind");
    assert_eq!(observe(&mut w), want, "rewound tail diverged");
}

#[test]
fn rewind_is_repeatable_across_many_forks() {
    let mut w = build_world();
    w.sim.run_until(at(45)).expect("prefix");
    let base = w.sim.snapshot().expect("base");
    let mut hashes = Vec::new();
    for i in 0..5u64 {
        w.sim.rewind(&base).expect("rewind");
        w.sim
            .run_until(at(45 + 40 * (i + 1)))
            .expect("variable-length tail");
        hashes.push(w.sim.snapshot().expect("tip").state_hash());
    }
    // Each tail length must reproduce the straight-run hash at that time.
    for (i, h) in hashes.iter().enumerate() {
        let t = 45 + 40 * (i as u64 + 1);
        let mut straight = build_world();
        straight.sim.run_until(at(t)).expect("straight");
        assert_eq!(
            straight.sim.snapshot().expect("straight tip").state_hash(),
            *h,
            "fork {i} to t={t}ns diverged from the straight run"
        );
    }
}

#[test]
fn delta_chain_restore_is_bit_identical_to_full_restore() {
    // Straight run capturing full snapshots at three checkpoints.
    let mut w = build_world();
    w.sim.run_until(at(45)).expect("to t1");
    let full1 = w.sim.snapshot().expect("full1");
    w.sim.run_until(at(120)).expect("to t2");
    let full2 = w.sim.snapshot().expect("full2");
    let (delta12, _) = w.sim.snapshot_delta(full1.state_hash()).expect("delta1->2");
    w.sim.run_until(at(200)).expect("to t3");
    let (delta23, _) = w
        .sim
        .snapshot_delta(delta12.child_hash())
        .expect("delta2->3");
    let full3 = w.sim.snapshot().expect("full3");

    assert_eq!(delta12.parent_hash(), full1.state_hash());
    assert_eq!(delta12.child_hash(), full2.state_hash());
    assert_eq!(delta23.child_hash(), full3.state_hash());

    // Text round-trip of a delta document.
    let delta12 = drcf_kernel::snapshot::SnapshotDelta::parse(&delta12.to_text())
        .expect("delta text round-trip");

    // Fresh simulator: full restore to t1, then patch forward twice.
    let mut fresh = build_world();
    fresh.sim.restore(&full1).expect("restore full1");
    fresh.sim.restore_delta(&delta12).expect("apply delta1->2");
    assert_eq!(
        fresh.sim.snapshot().expect("at t2").state_hash(),
        full2.state_hash(),
        "delta restore to t2 is not bit-identical"
    );
    // The snapshot above re-captured t2, so the chain head still matches.
    fresh.sim.restore_delta(&delta23).expect("apply delta2->3");
    assert_eq!(
        fresh.sim.snapshot().expect("at t3").state_hash(),
        full3.state_hash(),
        "delta restore to t3 is not bit-identical"
    );

    // Resuming from the chain tip matches the straight run.
    let want = straight_observation(400);
    fresh.sim.run_until(at(400)).expect("tail");
    assert_eq!(
        fresh.sim.snapshot().expect("resumed tip").state_hash(),
        want.5,
        "resume from chain tip diverged from the straight run"
    );
}

#[test]
fn delta_documents_shrink_when_components_idle() {
    let mut w = build_world();
    // Past t=25ns the Sleeper never runs again: deltas must drop its blob.
    w.sim.run_until(at(100)).expect("prefix");
    let full = w.sim.snapshot().expect("full");
    w.sim.run_until(at(140)).expect("advance");
    let (delta, _) = w.sim.snapshot_delta(full.state_hash()).expect("delta");
    assert!(
        delta.byte_len() < full.byte_len() / 2,
        "delta ({}) should be far smaller than full ({}) with the sleeper idle",
        delta.byte_len(),
        full.byte_len()
    );
    let m = w.sim.metrics();
    assert_eq!(m.snapshot_delta_bytes, delta.byte_len());
    // A delta capture internally builds the child full document (its hash
    // anchors the chain), so the full-bytes counter tracks the t=140
    // document, which is at least as large as the t=100 one.
    assert!(m.snapshot_full_bytes >= full.byte_len());
    assert!(
        m.snapshot_dirty_components >= 1 && m.snapshot_dirty_components <= 2,
        "only pulse (and possibly drain) ran in 100..140ns, got {}",
        m.snapshot_dirty_components
    );
}

#[test]
fn restore_delta_rejects_wrong_parent() {
    let mut w = build_world();
    w.sim.run_until(at(45)).expect("t1");
    let full1 = w.sim.snapshot().expect("full1");
    w.sim.run_until(at(120)).expect("t2");
    let full2 = w.sim.snapshot().expect("full2");
    w.sim.run_until(at(200)).expect("t3");
    let (delta, _) = w
        .sim
        .snapshot_delta(full2.state_hash())
        .expect("delta t2->t3");

    // A fresh sim restored to t1 is NOT standing at the delta's parent.
    let mut fresh = build_world();
    fresh.sim.restore(&full1).expect("restore full1");
    let err = fresh
        .sim
        .restore_delta(&delta)
        .expect_err("parent mismatch must be loud");
    assert_eq!(err.kind, SimErrorKind::SnapshotChain, "{err}");
    assert!(err.message.contains("parent hash"), "{err}");
}

#[test]
fn rewind_rejects_uncaptured_parent() {
    let mut w = build_world();
    w.sim.run_until(at(45)).expect("t1");
    let foreign = {
        let mut other = build_world();
        other.sim.run_until(at(45)).expect("other t1");
        // Perturb so the hash cannot collide with any capture of `w`.
        other.sim.run_until(at(55)).expect("other t1b");
        other.sim.snapshot().expect("foreign snapshot")
    };
    let err = w
        .sim
        .rewind(&foreign)
        .expect_err("foreign snapshot is not a captured ancestor");
    assert_eq!(err.kind, SimErrorKind::SnapshotChain, "{err}");
    assert!(err.message.contains("not captured"), "{err}");
}

#[test]
fn snapshot_chain_rebases_and_restores() {
    let mut w = build_world();
    w.sim.run_until(at(45)).expect("base point");
    let base = w.sim.snapshot().expect("base");
    let mut chain = SnapshotChain::new(base, 2);

    let checkpoints = [90u64, 130, 170, 210, 250];
    let mut tip_hashes = Vec::new();
    for &t in &checkpoints {
        w.sim.run_until(at(t)).expect("advance");
        let (doc, tip) = chain.checkpoint(&mut w.sim).expect("checkpoint");
        assert_eq!(tip.state_hash(), doc.tip_hash(), "checkpoint's full tip");
        tip_hashes.push(doc.tip_hash());
    }
    // delta_chain = 2: docs = base, D, D, Full(rebase), D, D.
    let fulls = chain
        .docs()
        .iter()
        .filter(|d| matches!(d, ChainDoc::Full(_)))
        .count();
    assert_eq!(fulls, 2, "one rebase expected after two deltas");
    assert_eq!(chain.len(), 6);

    // Restoring the chain into a fresh simulator lands on the tip hash and
    // resumes identically to the straight run.
    let mut fresh = build_world();
    chain.restore_into(&mut fresh.sim).expect("chain restore");
    assert_eq!(
        fresh.sim.snapshot().expect("tip").state_hash(),
        *tip_hashes.last().expect("tips recorded"),
    );
    fresh.sim.run_until(at(400)).expect("tail");
    assert_eq!(
        fresh.sim.snapshot().expect("final").state_hash(),
        straight_observation(400).5,
        "chain-restored run diverged from the straight run"
    );
}

#[test]
fn chain_push_rejects_broken_linkage() {
    let mut w = build_world();
    w.sim.run_until(at(45)).expect("t1");
    let base = w.sim.snapshot().expect("base");
    let mut chain = SnapshotChain::new(base.clone(), 4);
    w.sim.run_until(at(90)).expect("t2");
    let full2 = w.sim.snapshot().expect("full2");
    w.sim.run_until(at(130)).expect("t3");
    let (skip, _) = w
        .sim
        .snapshot_delta(full2.state_hash())
        .expect("delta skipping a link");
    // `skip` chains t2->t3 but the chain tip is the t1 base.
    let err = chain
        .push(ChainDoc::Delta(skip))
        .expect_err("broken linkage must be rejected");
    assert_eq!(err.kind, SimErrorKind::SnapshotChain, "{err}");
    assert!(err.message.contains("does not match chain tip"), "{err}");
}

/// Regression (ISSUE 10): delta documents used to carry the recorder and
/// tracer globals in full on every capture, dominating delta size on
/// traced runs. With epoch stamping, a capture over an idle recorder and
/// tracer elides both — the delta must be strictly smaller than the
/// globals payload it used to embed.
#[test]
fn unchanged_recorder_and_tracer_are_elided_from_deltas() {
    let mut w = build_world();
    w.sim.run_until(at(100)).expect("prefix");
    let full = w.sim.snapshot().expect("full");
    // Nothing ran between the captures, so the recorder/tracer epochs are
    // unchanged and the delta carries markers instead of payloads.
    let (delta, _) = w.sim.snapshot_delta(full.state_hash()).expect("delta");
    assert!(
        w.sim.recorder().emitted() > 0,
        "the prefix must have produced recorder traffic for this test to bite"
    );
    let globals_bytes = (w.sim.recorder().snapshot_json().to_string().len()
        + w.sim
            .tracer()
            .map_or(0, |t| t.snapshot_json().to_string().len())) as u64;
    assert!(
        delta.byte_len() < globals_bytes,
        "idle-globals delta ({}) must be strictly below the recorder+tracer \
         payload ({}) deltas used to carry in full",
        delta.byte_len(),
        globals_bytes
    );
    for key in ["recorder", "tracer"] {
        assert!(
            snapshot::is_unchanged_mark(snapshot::field(delta.json(), key).expect(key)),
            "{key} should be elided as an unchanged marker"
        );
    }
}

/// The elision is sound across simulators: a delta whose globals are
/// markers applies onto a fresh process-equivalent simulator standing at
/// the parent, landing bit-identically on the child hash and resuming
/// identically to the straight run.
#[test]
fn elided_globals_apply_bit_identically_across_simulators() {
    // No tracer, recorder disabled: the epochs never move, so every delta
    // elides the globals while the component state keeps changing.
    fn build_quiet() -> World {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(
            "clk",
            SimDuration::ns(10),
            SimDuration::ns(4),
            SimDuration::ns(1),
        );
        let sig = sim.add_signal("pulse", 0u64);
        let fifo = sim.add_fifo::<u64>("queue", 4);
        let pulse = sim.add(
            "pulse",
            Pulse {
                clk,
                sig,
                fifo,
                edges: 0,
            },
        );
        let drain = sim.add("drain", Drain { fifo, sum: 0 });
        World {
            sim,
            pulse,
            drain,
            sig,
        }
    }

    let mut w = build_quiet();
    w.sim.run_until(at(45)).expect("t1");
    let full1 = w.sim.snapshot().expect("full1");
    w.sim.run_until(at(120)).expect("t2");
    let (delta, _) = w.sim.snapshot_delta(full1.state_hash()).expect("delta");
    let full2 = w.sim.snapshot().expect("full2");
    assert!(
        snapshot::is_unchanged_mark(snapshot::field(delta.json(), "recorder").expect("recorder")),
        "disabled recorder must be elided even across a run slice"
    );

    let mut fresh = build_quiet();
    fresh.sim.restore(&full1).expect("restore full1");
    fresh.sim.restore_delta(&delta).expect("apply delta");
    assert_eq!(
        fresh.sim.snapshot().expect("at t2").state_hash(),
        full2.state_hash(),
        "marker delta must land exactly on the child state"
    );
    fresh.sim.run_until(at(300)).expect("tail");
    w.sim.run_until(at(300)).expect("straight tail");
    assert_eq!(
        fresh.sim.snapshot().expect("resumed tip").state_hash(),
        w.sim.snapshot().expect("straight tip").state_hash(),
        "resume from a marker delta diverged from the straight run"
    );
}

/// The value under `key` in object `j`, for tampering with documents.
fn field_mut<'a>(j: &'a mut Json, key: &str) -> &'a mut Json {
    match j {
        Json::Obj(fields) => fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .expect(key),
        other => panic!("{key}: not an object: {other}"),
    }
}

/// The array under `key` in object `j`.
fn arr_mut<'a>(j: &'a mut Json, key: &str) -> &'a mut Vec<Json> {
    match field_mut(j, key) {
        Json::Arr(items) => items,
        other => panic!("{key}: not an array: {other}"),
    }
}

/// Full document `full` recast as a delta onto `parent` that carries every
/// roster entry, each tagged with its slot index.
fn as_delta(full: &Json, parent: u64) -> SnapshotDelta {
    let mut d = full.clone();
    *field_mut(&mut d, "schema") = Json::from(snapshot::DELTA_SCHEMA);
    for key in ["components", "signals", "fifos"] {
        for (i, e) in arr_mut(&mut d, key).iter_mut().enumerate() {
            *e = Json::obj()
                .with("i", drcf_kernel::json::ju64(i as u64))
                .with("d", e.clone());
        }
    }
    let d = d
        .with("parent", drcf_kernel::json::ju64(parent))
        .with("child", drcf_kernel::json::ju64(full.fnv1a64()));
    SnapshotDelta::parse(&d.to_string()).expect("delta form parses")
}

/// A malformed full document, and the message each form of it must be
/// rejected with: as a full document (`restore`, `rewind`) and recast as a
/// delta (`restore_delta`), where an extra roster entry is an
/// out-of-range slot index.
struct Malformed {
    what: &'static str,
    spoil: fn(&mut Json),
    full_msg: &'static str,
    delta_msg: &'static str,
}

fn extra_entry(j: &mut Json, key: &str) {
    let roster = arr_mut(j, key);
    roster.push(roster[0].clone());
}

fn rename_first(j: &mut Json, key: &str) {
    *field_mut(&mut arr_mut(j, key)[0], "name") = Json::from("impostor");
}

fn retag_first(j: &mut Json, key: &str) {
    *field_mut(&mut arr_mut(j, key)[0], "type") = Json::from("u128");
}

const MALFORMED: &[Malformed] = &[
    Malformed {
        what: "component count",
        spoil: |j| extra_entry(j, "components"),
        full_msg: "snapshot has 4 components, simulator has 3",
        delta_msg: "delta components index 3 out of range",
    },
    Malformed {
        what: "signal count",
        spoil: |j| extra_entry(j, "signals"),
        full_msg: "snapshot has 2 signals, simulator has 1",
        delta_msg: "delta signals index 1 out of range",
    },
    Malformed {
        what: "fifo count",
        spoil: |j| extra_entry(j, "fifos"),
        full_msg: "snapshot has 2 fifos, simulator has 1",
        delta_msg: "delta fifos index 1 out of range",
    },
    Malformed {
        what: "clock count",
        spoil: |j| extra_entry(j, "clocks"),
        full_msg: "snapshot has 2 clocks, simulator has 1",
        delta_msg: "snapshot has 2 clocks, simulator has 1",
    },
    Malformed {
        what: "component name",
        spoil: |j| rename_first(j, "components"),
        full_msg: "component 0 name mismatch",
        delta_msg: "component 0 name mismatch",
    },
    Malformed {
        what: "signal name",
        spoil: |j| rename_first(j, "signals"),
        full_msg: "signal 0 name mismatch",
        delta_msg: "signal 0 name mismatch",
    },
    Malformed {
        what: "fifo name",
        spoil: |j| rename_first(j, "fifos"),
        full_msg: "fifo 0 name mismatch",
        delta_msg: "fifo 0 name mismatch",
    },
    Malformed {
        what: "clock name",
        spoil: |j| rename_first(j, "clocks"),
        full_msg: "clock 0 name mismatch",
        delta_msg: "clock 0 name mismatch",
    },
    Malformed {
        what: "signal type tag",
        spoil: |j| retag_first(j, "signals"),
        full_msg: "unknown signal type tag",
        delta_msg: "unknown signal type tag",
    },
    Malformed {
        what: "fifo type tag",
        spoil: |j| retag_first(j, "fifos"),
        full_msg: "unknown fifo type tag",
        delta_msg: "unknown fifo type tag",
    },
];

/// Every malformed document is a typed error through each of `restore`,
/// `rewind` and `restore_delta`, never a panic or a silent apply.
#[test]
fn malformed_documents_are_typed_errors_on_every_apply_path() {
    let expect_err = |r: SimResult<()>, path: &str, case: &Malformed, msg: &str| {
        let e = r.expect_err(&format!("{path} must reject the {} case", case.what));
        assert_eq!(
            e.kind,
            SimErrorKind::Validation,
            "{path}, {}: {e}",
            case.what
        );
        assert!(e.message.contains(msg), "{path}, {}: {e}", case.what);
    };
    for case in MALFORMED {
        let mut w = build_world();
        w.sim.run_until(at(45)).expect("prefix");
        let base = w.sim.snapshot().expect("base");
        let mut bad = base.json().clone();
        (case.spoil)(&mut bad);
        let bad = Snapshot::parse(&bad.to_string()).expect("malformed document parses");

        expect_err(
            build_world().sim.restore(&bad),
            "restore",
            case,
            case.full_msg,
        );

        // restore_delta, onto the live state the recast delta names.
        let mut live = build_world();
        live.sim.run_until(at(45)).expect("prefix");
        live.sim.snapshot().expect("stand at the base");
        let delta = as_delta(bad.json(), base.state_hash());
        expect_err(
            live.sim.restore_delta(&delta),
            "restore_delta",
            case,
            case.delta_msg,
        );

        // rewind only takes a document this simulator remembers capturing.
        // A delta's declared child hash is registered unchecked, so a no-op
        // delta declaring the malformed document's hash makes `w` remember
        // it; running on then dirties every slot the cases touch.
        let (noop, _) = w
            .sim
            .snapshot_delta(base.state_hash())
            .expect("no-op delta");
        let mut noop = noop.json().clone();
        *field_mut(&mut noop, "child") = drcf_kernel::json::ju64(bad.state_hash());
        let noop = SnapshotDelta::parse(&noop.to_string()).expect("no-op delta parses");
        w.sim.restore_delta(&noop).expect("apply the no-op delta");
        w.sim.run_until(at(90)).expect("dirty the live state");
        expect_err(w.sim.rewind(&bad), "rewind", case, case.full_msg);
    }
}

/// Restore into dirty state: a simulator that ran past the fork and is
/// rewound, and one that applies a delta chain on top of a restored base
/// after running it elsewhere, both land on the straight run's hash at the
/// fork and stay on it one slice later.
#[test]
fn restore_into_dirty_state_matches_straight_run() {
    let mut straight = build_world();
    straight
        .sim
        .run_until(at(120))
        .expect("straight to the fork");
    let want_fork = straight.sim.state_hash().expect("fork hash");
    straight.sim.run_until(at(200)).expect("straight slice");
    let want_next = straight.sim.state_hash().expect("next hash");

    let mut w = build_world();
    w.sim.run_until(at(45)).expect("base point");
    let base = w.sim.snapshot().expect("base");
    let mut chain = SnapshotChain::new(base.clone(), 4);
    w.sim.run_until(at(80)).expect("first link");
    chain.checkpoint(&mut w.sim).expect("delta to 80ns");
    w.sim.run_until(at(120)).expect("fork");
    let (_, fork) = chain.checkpoint(&mut w.sim).expect("delta to the fork");

    // Run past the fork, then rewind the dirtied simulator onto it.
    w.sim.run_until(at(300)).expect("overshoot");
    w.sim.rewind(&fork).expect("rewind to the fork");
    assert_eq!(w.sim.state_hash().expect("rewound"), want_fork);
    w.sim.run_until(at(200)).expect("slice after rewind");
    assert_eq!(w.sim.state_hash().expect("rewound slice"), want_next);

    // Restore the base, run it elsewhere, rewind it, then apply the chain.
    let mut c = build_world();
    c.sim.restore(&base).expect("restore base");
    c.sim.run_until(at(300)).expect("run elsewhere");
    c.sim.rewind(&base).expect("back to the base");
    for doc in &chain.docs()[1..] {
        let ChainDoc::Delta(d) = doc else {
            panic!("the chain has no rebase at period 4")
        };
        c.sim.restore_delta(d).expect("apply a link");
    }
    assert_eq!(c.sim.state_hash().expect("chain tip"), want_fork);
    c.sim.run_until(at(200)).expect("slice after the chain");
    assert_eq!(c.sim.state_hash().expect("chain slice"), want_next);
}

/// A delta whose body was changed after capture keeps its declared hashes,
/// so `push` accepts it; `restore_into` must catch it by the tip's hash.
#[test]
fn chain_restore_rejects_tampered_delta_body() {
    let mut w = build_world();
    w.sim.run_until(at(45)).expect("base point");
    let base = w.sim.snapshot().expect("base");
    let mut chain = SnapshotChain::new(base.clone(), 4);
    for t in [90, 130] {
        w.sim.run_until(at(t)).expect("advance");
        chain.checkpoint(&mut w.sim).expect("checkpoint");
    }

    let (verified, tip) = {
        let mut fresh = build_world();
        let tip = chain.restore_into(&mut fresh.sim).expect("pristine chain");
        (
            tip.expect("a verified capture after deltas"),
            chain.tip_hash(),
        )
    };
    assert_eq!(verified.state_hash(), tip);

    let ChainDoc::Delta(last) = &chain.docs()[2] else {
        panic!("the tip link is a delta")
    };
    let mut body = last.json().clone();
    let pulse = arr_mut(&mut body, "components")
        .iter_mut()
        .map(|e| field_mut(e, "d"))
        .find(|d| d.get("name").and_then(Json::as_str) == Some("pulse"))
        .expect("pulse ran, so the delta carries it");
    let edges = field_mut(field_mut(pulse, "state"), "edges");
    *edges = drcf_kernel::json::ju64(drcf_kernel::json::ju64_of(edges).expect("edges") + 1);
    let tampered = SnapshotDelta::parse(&body.to_string()).expect("tampered delta parses");
    assert_eq!(
        tampered.child_hash(),
        tip,
        "the header still declares the tip"
    );

    let mut bad = SnapshotChain::new(base, 4);
    bad.push(chain.docs()[1].clone()).expect("first link");
    bad.push(ChainDoc::Delta(tampered))
        .expect("push checks the header only");
    let err = bad
        .restore_into(&mut build_world().sim)
        .expect_err("a tampered body must not restore");
    assert_eq!(err.kind, SimErrorKind::SnapshotChain, "{err}");
    assert!(err.message.contains("tip declares"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random checkpoint schedules with random rebase periods: the chain
    /// restore lands on the same `state_hash` as the live simulator at the
    /// final checkpoint, and warm-rewinding back to the base reproduces the
    /// base hash — regardless of where the checkpoints fall relative to
    /// clock edges, FIFO traffic, or the sleeper's burst.
    #[test]
    fn random_schedules_delta_chain_bit_identity(
        base_ns in 5u64..60,
        steps in proptest::collection::vec(10u64..70, 1..6),
        delta_chain in 0usize..4,
    ) {
        let mut w = build_world();
        w.sim.run_until(at(base_ns)).expect("base point");
        let base = w.sim.snapshot().expect("base");
        let mut chain = SnapshotChain::new(base.clone(), delta_chain);
        let mut t = base_ns;
        for &d in &steps {
            t += d;
            w.sim.run_until(at(t)).expect("advance");
            chain.checkpoint(&mut w.sim).expect("checkpoint");
        }
        let live_tip = w.sim.snapshot().expect("live tip").state_hash();
        prop_assert_eq!(chain.tip_hash(), live_tip);

        let mut fresh = build_world();
        chain.restore_into(&mut fresh.sim).expect("chain restore");
        prop_assert_eq!(
            fresh.sim.snapshot().expect("restored tip").state_hash(),
            live_tip
        );

        // Warm fork the original live sim (which captured the base) back to
        // the base and re-run: the tip hash must reproduce.
        w.sim.rewind(&base).expect("rewind to base");
        prop_assert_eq!(
            w.sim.snapshot().expect("rewound").state_hash(),
            base.state_hash()
        );
        w.sim.run_until(at(t)).expect("re-run tail");
        prop_assert_eq!(
            w.sim.snapshot().expect("re-run tip").state_hash(),
            live_tip
        );
    }
}
