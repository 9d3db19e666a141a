//! Kernel-level snapshot/restore round-trips (ISSUE 5 tentpole).
//!
//! Contract under test: `run_until(t1); snapshot()` restored into a freshly
//! built, identically shaped simulator and then run to `t2` is
//! bit-identical — VCD trace, observe events, metrics, channel state, and
//! component state — to a single straight run to `t2`. The snapshot also
//! survives a text round-trip (`to_text` → `parse`).

use std::any::Any;

use drcf_kernel::prelude::*;
use drcf_kernel::snapshot;
use proptest::prelude::*;

/// User-payload message exercised through the timed queue: a snapshot taken
/// while one of these is in flight must encode it through its codec.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ping {
    serial: u64,
}

impl Codec for Ping {
    const NAME: &'static str = "test.Ping";
    fn encode(&self) -> Json {
        Json::obj().with("serial", drcf_kernel::json::ju64(self.serial))
    }
    fn decode(data: &Json) -> Option<Ping> {
        let serial = drcf_kernel::json::ju64_of(data.get("serial")?)?;
        Some(Ping { serial })
    }
}

const PING_DECODERS: &[Decoder] = &[Decoder::of::<Ping>()];

/// A clocked worker with private counters the kernel cannot see — the part
/// of the state space `Component::snapshot` exists for. It writes a signal,
/// feeds a FIFO, keeps a cancellable watchdog timer pending, and pings
/// itself with a user payload so the timed queue holds a codec-encoded
/// message across the snapshot point.
struct Worker {
    clk: ClockRef,
    sig: SignalRef<u64>,
    fifo: FifoRef<u64>,
    edges: u64,
    pings: u64,
    watchdog: Option<TimerHandle>,
}

impl Worker {
    fn new(clk: ClockRef, sig: SignalRef<u64>, fifo: FifoRef<u64>) -> Worker {
        Worker {
            clk,
            sig,
            fifo,
            edges: 0,
            pings: 0,
            watchdog: None,
        }
    }
}

impl Component for Worker {
    fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
        match msg.kind {
            MsgKind::Start => {
                api.subscribe_clock(self.clk, Edge::Pos);
                self.watchdog = Some(api.timer_cancellable(SimDuration::ns(500), 0xDEAD));
            }
            MsgKind::ClockEdge(..) => {
                self.edges += 1;
                api.write(self.sig, self.edges);
                if self.edges.is_multiple_of(3) {
                    let _ = api.fifo_try_put(self.fifo, self.edges);
                }
                if self.edges.is_multiple_of(5) {
                    let me = api.me();
                    api.send_in(me, Ping { serial: self.edges }, SimDuration::ns(7));
                }
                // Re-arm the watchdog: there is always one cancellable
                // timer pending when a snapshot is taken.
                if let Some(h) = self.watchdog.take() {
                    api.cancel_timer(h);
                }
                self.watchdog = Some(api.timer_cancellable(SimDuration::ns(500), 0xDEAD));
            }
            MsgKind::User(p) => {
                if let Some(ping) = (p.as_ref() as &dyn Any).downcast_ref::<Ping>() {
                    self.pings += ping.serial;
                    api.trace_instant(TraceCategory::Kernel, "ping", ping.serial);
                }
            }
            MsgKind::Timer(0xDEAD) => {
                // Watchdog fired: quiet system, note it and stand down.
                self.watchdog = None;
                api.write(self.sig, u64::MAX);
            }
            _ => {}
        }
    }

    fn snapshot(&mut self) -> SimResult<Json> {
        Ok(Json::obj()
            .with("edges", drcf_kernel::json::ju64(self.edges))
            .with("pings", drcf_kernel::json::ju64(self.pings))
            .with(
                "watchdog",
                match self.watchdog {
                    Some(h) => drcf_kernel::json::ju64(h.raw()),
                    None => Json::Null,
                },
            ))
    }

    fn restore(&mut self, state: &Json) -> SimResult<()> {
        self.edges = snapshot::u64_field(state, "edges")?;
        self.pings = snapshot::u64_field(state, "pings")?;
        self.watchdog = match snapshot::field(state, "watchdog")? {
            Json::Null => None,
            j => Some(TimerHandle::from_raw(
                drcf_kernel::json::ju64_of(j)
                    .ok_or_else(|| snapshot::err("worker watchdog handle is not a u64"))?,
            )),
        };
        Ok(())
    }

    fn decoders(&self) -> &'static [Decoder] {
        PING_DECODERS
    }
}

/// FIFO drain keeping a running sum — a second stateful component so the
/// component array has more than one snapshot entry.
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

struct World {
    sim: Simulator,
    worker: ComponentId,
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
    let sig = sim.add_signal("work", 0u64);
    sim.trace_signal(sig);
    let fifo = sim.add_fifo::<u64>("queue", 4);
    let worker = sim.add("worker", Worker::new(clk, sig, fifo));
    let drain = sim.add("drain", Drain { fifo, sum: 0 });
    World {
        sim,
        worker,
        drain,
        sig,
    }
}

type Observation = (String, Vec<SimEvent>, KernelMetrics, u64, u64, u64, u64);

fn observe(w: &World) -> Observation {
    (
        w.sim.tracer().expect("trace on").render(),
        w.sim.observe_events(),
        w.sim.metrics(),
        w.sim.signal_change_count(w.sig),
        w.sim.get::<Worker>(w.worker).edges,
        w.sim.get::<Worker>(w.worker).pings,
        w.sim.get::<Drain>(w.drain).sum,
    )
}

fn straight_run(t2_ns: u64) -> Observation {
    let mut w = build_world();
    w.sim
        .run_until(SimTime::ZERO + SimDuration::ns(t2_ns))
        .expect("straight run");
    observe(&w)
}

fn forked_run(t1_ns: u64, t2_ns: u64, through_text: bool) -> Observation {
    let mut w = build_world();
    w.sim
        .run_until(SimTime::ZERO + SimDuration::ns(t1_ns))
        .expect("prefix run");
    let snap = w.sim.snapshot().expect("snapshot");
    let snap = if through_text {
        Snapshot::parse(&snap.to_text()).expect("text round-trip")
    } else {
        snap
    };
    let mut fresh = build_world();
    fresh.sim.restore(&snap).expect("restore");
    fresh
        .sim
        .run_until(SimTime::ZERO + SimDuration::ns(t2_ns))
        .expect("resumed run");
    observe(&fresh)
}

#[test]
fn restore_matches_straight_run() {
    let straight = straight_run(400);
    // Snapshot point chosen so a Ping user payload and the watchdog timer
    // are both in flight (edge 5 fires at t=41ns, ping lands at 48ns).
    let forked = forked_run(45, 400, false);
    assert_eq!(straight, forked);
}

#[test]
fn restore_matches_straight_run_through_text() {
    let straight = straight_run(400);
    let forked = forked_run(45, 400, true);
    assert_eq!(straight, forked);
}

#[test]
fn restore_past_quiescence_matches() {
    // Horizon far beyond the last event: both runs go quiescent after the
    // watchdog fires, and the watchdog path itself crosses the snapshot.
    let straight = straight_run(5_000);
    let forked = forked_run(1_000, 5_000, true);
    assert_eq!(straight, forked);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Restore-vs-straight equivalence holds at arbitrary snapshot points,
    /// including ones that land between a clock edge and the delivery of
    /// the user payload it scheduled.
    #[test]
    fn restore_matches_straight_run_anywhere(t1_ns in 1u64..395, t2_ns in 395u64..450) {
        let straight = straight_run(t2_ns);
        let forked = forked_run(t1_ns, t2_ns, true);
        prop_assert_eq!(straight, forked);
    }
}

#[test]
fn snapshot_rejects_unstarted_and_restore_rejects_started() {
    let mut w = build_world();
    let err = w.sim.snapshot().expect_err("snapshot before run");
    assert!(err.message.contains("run at least one slice"), "{err}");

    w.sim
        .run_until(SimTime::ZERO + SimDuration::ns(50))
        .unwrap();
    let snap = w.sim.snapshot().unwrap();
    let err = w.sim.restore(&snap).expect_err("restore into started sim");
    assert!(err.message.contains("freshly built"), "{err}");
}

#[test]
fn restore_rejects_mismatched_shape() {
    let mut w = build_world();
    w.sim
        .run_until(SimTime::ZERO + SimDuration::ns(50))
        .unwrap();
    let snap = w.sim.snapshot().unwrap();

    // Same components, one extra signal: shape mismatch must be loud.
    let mut other = Simulator::new();
    other.enable_trace();
    other.enable_observe(256);
    let clk = other.add_clock(
        "clk",
        SimDuration::ns(10),
        SimDuration::ns(4),
        SimDuration::ns(1),
    );
    let sig = other.add_signal("work", 0u64);
    other.trace_signal(sig);
    let extra = other.add_signal("extra", 0u64);
    let _ = extra;
    let fifo = other.add_fifo::<u64>("queue", 4);
    other.add("worker", Worker::new(clk, sig, fifo));
    other.add("drain", Drain { fifo, sum: 0 });
    let err = other.restore(&snap).expect_err("signal count mismatch");
    assert!(err.message.contains("signals"), "{err}");
}

#[test]
fn snapshot_fails_loudly_on_closure_components() {
    // FnComponent cannot capture its closure state; the error must name
    // the offending component rather than silently dropping state.
    let mut sim = Simulator::new();
    sim.add("opaque", FnComponent::new(|_api, _msg| {}));
    sim.run_for(SimDuration::ns(1)).unwrap();
    let err = sim.snapshot().expect_err("FnComponent snapshot");
    assert_eq!(err.component.as_deref(), Some("opaque"));
    assert!(err.message.contains("does not implement snapshot"), "{err}");
}

/// Takes a mutex, holds it, and gives it back with a delayed post, so
/// semaphore messages sit in the timed queue between slices.
struct SemClient {
    sem: ComponentId,
    offset_ns: u64,
    rounds: u64,
    granted: u64,
}

impl Component for SemClient {
    fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
        if matches!(msg.kind, MsgKind::Start) {
            let wait = SemWait { tag: 0 };
            api.send_in(self.sem, wait, SimDuration::ns(self.offset_ns));
        } else if msg.user_ref::<SemGranted>().is_some() {
            self.granted += 1;
            api.send_in(self.sem, SemPost, SimDuration::ns(7));
            if self.granted < self.rounds {
                let wait = SemWait { tag: self.granted };
                api.send_in(self.sem, wait, SimDuration::ns(3));
            }
        }
    }

    fn snapshot(&mut self) -> SimResult<Json> {
        Ok(Json::obj().with("granted", drcf_kernel::json::ju64(self.granted)))
    }

    fn restore(&mut self, state: &Json) -> SimResult<()> {
        self.granted = snapshot::u64_field(state, "granted")?;
        Ok(())
    }
}

fn sem_world() -> Simulator {
    let mut sim = Simulator::new();
    let sem = sim.add("mutex", Semaphore::mutex());
    for (i, offset_ns) in [2, 5, 6].into_iter().enumerate() {
        let client = SemClient {
            sem,
            offset_ns,
            rounds: 4,
            granted: 0,
        };
        sim.add(&format!("client{i}"), client);
    }
    sim
}

/// What a finished semaphore run must agree on: the kernel counters, the
/// grant statistics and the final state hash.
fn sem_outcome(sim: &mut Simulator) -> (u64, u64, u64, u64, u64, usize, u64) {
    let m = sim.metrics();
    let sem = sim.get::<Semaphore>(0);
    let (grants, max_queue) = (sem.grants, sem.max_queue);
    let hash = sim.state_hash().expect("final hash");
    (
        m.dispatched,
        m.delta_cycles,
        m.timesteps,
        m.notifications,
        grants,
        max_queue,
        hash,
    )
}

/// A `SemWait` or `SemPost` sent with a delay is in the timed queue at a
/// cut; restoring it mid-flight resumes exactly like the straight run.
#[test]
fn timed_semaphore_message_in_flight_survives_a_cut() {
    let cuts: Vec<(u64, Snapshot)> = (1..60)
        .map(|cut_ns| {
            let mut sim = sem_world();
            sim.run_until(SimTime::ZERO + SimDuration::ns(cut_ns))
                .expect("prefix run");
            let text = sim.snapshot().expect("cut").to_text();
            (cut_ns, Snapshot::parse(&text).expect("text round trip"))
        })
        .collect();
    let in_flight = |name: &str| {
        cuts.iter()
            .any(|(_, snap)| snap.json().to_string().contains(name))
    };
    assert!(in_flight("sync.SemWait") && in_flight("sync.SemPost"));

    let end = SimTime::ZERO + SimDuration::ns(200);
    let mut straight = sem_world();
    straight.run_until(end).expect("straight run");
    let want = sem_outcome(&mut straight);
    assert_eq!(want.4, 12, "every client got every round");
    for (cut_ns, snap) in &cuts {
        let mut fresh = sem_world();
        fresh.restore(snap).expect("restore mid-flight");
        fresh.run_until(end).expect("resumed run");
        assert_eq!(sem_outcome(&mut fresh), want, "cut at {cut_ns} ns");
    }
}
