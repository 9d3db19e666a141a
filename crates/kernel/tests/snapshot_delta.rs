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
//! * Chain-integrity violations (wrong parent, uncaptured rewind target)
//!   surface as typed `SimErrorKind::SnapshotChain` errors.

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
    let delta12 = w.sim.snapshot_delta(&full1).expect("delta1->2");
    w.sim.run_until(at(200)).expect("to t3");
    let delta23 = w
        .sim
        .snapshot_delta_from(delta12.child_hash())
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
    let delta = w.sim.snapshot_delta(&full).expect("delta");
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
    let delta = w.sim.snapshot_delta(&full2).expect("delta t2->t3");

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
    let skip = w.sim.snapshot_delta(&full2).expect("delta skipping a link");
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
    let delta = w.sim.snapshot_delta(&full).expect("delta");
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
    let delta = w.sim.snapshot_delta(&full1).expect("delta");
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
