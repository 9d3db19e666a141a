//! `serve_mixed`: a closed-loop client against an in-process sweep server.
//!
//! Each round starts a [`SweepServer`] with one worker on an empty store
//! and lets one client, on the benchmark's own thread, send its seeded
//! request sequence, each request only after the previous reply (a closed
//! loop, like `--sweep-client` callers). The mix repeats answered sweeps
//! (store hits), asks new clock points on a stored fork (warm), and opens
//! new scenarios or fork offsets (cold). One client makes which requests
//! hit a matter of the seed alone, and keeps the load to one busy thread
//! at a time on a host with few cores.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use drcf_dse::prelude::RunRecord;
use drcf_kernel::json::Json;
use drcf_kernel::prelude::{ChainDoc, SimDuration, SimTime};
use drcf_serve::prelude::{process_sweep, Client, SnapshotStore, SweepRequest, SweepServer};
use drcf_soc::prelude::{build_soc, run_soc_mut, Cpu};

use crate::measure::{median, Stopwatch};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{fingerprint, Bench, Mismatch, Params, Round, Scale, Timed};

/// What a request is expected to cost the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Every point already in the store's record log.
    Hit,
    /// New clock points on a fork whose prefix is stored.
    Warm,
    /// A new scenario or fork offset: the prefix must be simulated.
    Cold,
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Req {
    /// The wire request.
    pub req: SweepRequest,
    /// Expected class.
    pub class: Class,
}

/// Tail clocks requests draw from, MHz.
const CLOCKS: [u64; 10] = [60, 90, 120, 150, 200, 250, 300, 350, 400, 500];
/// Fork offsets, in tenths of the scenario's straight makespan.
const FORK_TENTHS: [u64; 5] = [3, 5, 6, 7, 9];
/// Clock points per request.
const POINTS: usize = 3;

/// `(frames, samples)` of the scenarios.
const SCENARIOS: [(usize, usize); 8] = [
    (1, 16),
    (1, 24),
    (1, 32),
    (1, 40),
    (2, 16),
    (2, 24),
    (2, 32),
    (1, 48),
];

/// Straight makespan of a scenario, in ns (used to place forks).
fn makespan_ns(frames: usize, samples: usize) -> Result<u64, String> {
    let req = SweepRequest {
        frames,
        samples,
        ..SweepRequest::small(1, vec![1])
    };
    let (w, spec) = req.scenario();
    let mut soc = build_soc(&w, &spec).map_err(|e| e.to_string())?;
    let m = run_soc_mut(&mut soc);
    if !m.ok {
        return Err(format!("fork placement run failed: {:?}", m.error));
    }
    Ok(m.makespan.as_fs() / 1_000_000)
}

/// `(cold, warm, hit)` requests per round. Hits are the majority, so the
/// median request is a store read; cold requests are the slowest class, so
/// the tail is a cold miss. With 70% hits the median sits at the hits'
/// 71st percentile, clear of the class boundary. The full round opens
/// every one of the 40 (scenario, fork) pairs cold.
fn mix(scale: Scale) -> (usize, usize, usize) {
    match scale {
        Scale::Full => (40, 20, 140),
        Scale::Tiny => (2, 2, 6),
    }
}

/// Generate the request sequence over the scenarios
/// `(frames, samples, straight makespan ns)`. Every (scenario, fork) pair
/// is opened cold once (the first `cold` of them, in seeded order: every
/// seed opens the same pairs, but an open below a scenario's stored tip
/// runs from the last stored link before it, from the start if there is
/// none, and is not stored, so the order moves the cost); warm
/// requests ask three new clocks on a fork asked before; hits repeat an
/// answered request.
fn client_requests(rng: &mut Rng, scenarios: &[(usize, usize, u64)], scale: Scale) -> Vec<Req> {
    let (cold, warm, hit) = mix(scale);
    let mut opens: Vec<(usize, u64)> = (0..scenarios.len())
        .flat_map(|s| FORK_TENTHS.iter().map(move |&t| (s, t)))
        .collect();
    rng.shuffle(&mut opens);
    opens.truncate(cold);
    let mut plan: Vec<Class> = [(Class::Cold, cold), (Class::Warm, warm), (Class::Hit, hit)]
        .iter()
        .flat_map(|&(c, n)| std::iter::repeat_n(c, n))
        .collect();
    rng.shuffle(&mut plan);
    // Nothing can be repeated or re-forked before the first cold request.
    if let Some(first_cold) = plan.iter().position(|&c| c == Class::Cold) {
        plan.swap(0, first_cold);
    }
    let mut opens = opens.into_iter();
    let mut answered: Vec<SweepRequest> = Vec::new();
    // (scenario, fork tenth) -> clocks asked there so far.
    let mut asked: BTreeMap<(usize, u64), BTreeSet<u64>> = BTreeMap::new();
    let mut out = Vec::with_capacity(plan.len());
    for class in plan {
        let target = match class {
            Class::Hit => None,
            Class::Cold => opens.next(),
            Class::Warm => {
                let open: Vec<(usize, u64)> = asked
                    .iter()
                    .filter(|(_, used)| CLOCKS.len() - used.len() >= POINTS)
                    .map(|(k, _)| *k)
                    .collect();
                (!open.is_empty()).then(|| open[rng.below(open.len())])
            }
        };
        let req = match target {
            None => answered[rng.below(answered.len())].clone(),
            Some((s, tenth)) => {
                let used = asked.entry((s, tenth)).or_default();
                let mut clocks: Vec<u64> = CLOCKS
                    .iter()
                    .copied()
                    .filter(|c| !used.contains(c))
                    .collect();
                rng.shuffle(&mut clocks);
                clocks.truncate(POINTS);
                used.extend(&clocks);
                let (frames, samples, span_ns) = scenarios[s];
                let req = SweepRequest {
                    frames,
                    samples,
                    fork_ns: (span_ns * tenth / 10).max(1),
                    points: clocks,
                };
                answered.push(req.clone());
                req
            }
        };
        let class = if target.is_none() { Class::Hit } else { class };
        out.push(Req { req, class });
    }
    out
}

/// Generate the client's request sequence.
pub fn requests(seed: u64, scale: Scale) -> Result<Vec<Req>, String> {
    let mut sized = Vec::new();
    for &(f, s) in &SCENARIOS {
        sized.push((f, s, makespan_ns(f, s)?));
    }
    Ok(client_requests(&mut Rng::new(seed, 4), &sized, scale))
}

/// The record a served point must equal: a straight run to the fork, the
/// CPU retuned, run to completion, passed through the same JSON codec the
/// wire uses.
pub fn straight_record(req: &SweepRequest, clock: u64) -> Result<RunRecord, String> {
    let (w, spec) = req.scenario();
    let mut soc = build_soc(&w, &spec).map_err(|e| e.to_string())?;
    soc.sim
        .run_until(SimTime::ZERO + SimDuration::ns(req.fork_ns))
        .map_err(|e| e.to_string())?;
    let cpu = soc.cpu;
    soc.sim.get_mut::<Cpu>(cpu).set_clock_mhz(clock);
    let m = run_soc_mut(&mut soc);
    let rec = RunRecord::from_metrics(
        "serve",
        vec![
            ("clock_mhz".into(), clock.to_string()),
            ("fork_ns".into(), req.fork_ns.to_string()),
        ],
        &m,
    );
    let text = rec.to_json().to_string();
    let j = Json::parse(&text).map_err(|e| e.to_string())?;
    RunRecord::from_json(&j).map_err(|e| e.to_string())
}

/// A running one-worker server with its connected client.
struct Live {
    // Field order is drop order: the client hangs up before the server joins.
    client: Option<Client>,
    server: Option<SweepServer>,
    dir: PathBuf,
}

impl Live {
    fn start(dir: PathBuf) -> Result<Live, String> {
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let server = SweepServer::start(&dir, 1).map_err(|e| e.to_string())?;
        let client = Client::connect(&server.addr().to_string()).map_err(|e| e.to_string())?;
        Ok(Live {
            client: Some(client),
            server: Some(server),
            dir,
        })
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        self.client = None;
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Prepared `serve_mixed` state.
pub struct ServeState {
    reqs: Vec<Req>,
    live: Option<Live>,
    dir: PathBuf,
    rounds: usize,
    /// Per-request `(class, latency ms)` of traced rounds.
    traced: Vec<(Class, f64)>,
}

impl Drop for ServeState {
    fn drop(&mut self) {
        self.live = None;
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// `serve_mixed`.
pub struct ServeMixed;

/// A directory of its own for each set-up, as a set-up's state lives on
/// while the next one is timed.
fn fresh_dir(base: &Path) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    base.join(format!("serve-{}-{n}", std::process::id()))
}

impl Bench for ServeMixed {
    type State = ServeState;

    fn prepare(&self, p: &Params) -> Result<ServeState, String> {
        let reqs = requests(p.seed, p.scale)?;
        let dir = fresh_dir(&p.work_dir);
        let live = Live::start(dir.join("store-0"))?;
        Ok(ServeState {
            reqs,
            live: Some(live),
            dir,
            rounds: 0,
            traced: Vec::new(),
        })
    }

    fn round(
        &self,
        st: &mut ServeState,
        tr: &mut Tracer,
        timed: &mut Timed,
        first_op: u32,
    ) -> Result<Round, String> {
        // Every round starts from an empty store (set-up made round 0's).
        if st.live.is_none() {
            let store = st.dir.join(format!("store-{}", st.rounds));
            st.live = Some(Live::start(store)?);
        }
        let live = st.live.as_mut().ok_or("no live server")?;
        let client = live.client.as_mut().ok_or("no client")?;
        let tracing = tr.enabled();
        let sw = Stopwatch::start();
        let mut rows = Vec::with_capacity(st.reqs.len());
        for (i, r) in st.reqs.iter().enumerate() {
            tr.set_op(first_op + i as u32);
            let t = Instant::now();
            let op = tr.enter("op");
            let reply = tr.span("serve.request", || client.sweep(&r.req));
            tr.exit(op);
            rows.push((
                reply.map_err(|e| e.to_string()),
                t.elapsed().as_secs_f64() * 1e3,
            ));
        }
        let (wall, cpu) = sw.stop();
        timed.wall_s += wall;
        timed.cpu_s += cpu;
        let mut round = Round::default();
        let (mut points, mut hits, mut repeats, mut simulated) = (0usize, 0usize, 0usize, 0usize);
        for (r, (reply, ms)) in st.reqs.iter().zip(rows) {
            let n = r.req.points.len();
            let from_cache = reply.as_ref().map_or(0, |rep| rep.from_cache.min(n));
            if !reply
                .as_ref()
                .is_ok_and(|rep| rep.records.iter().all(|x| x.ok))
            {
                round.not_ok.push(round.fps.len());
            }
            round
                .fps
                .push(reply.as_ref().map_or(0, |rep| fingerprint(&rep.records)));
            timed.lat_ms.push(ms);
            points += n;
            hits += from_cache;
            simulated += n - from_cache;
            if r.class == Class::Hit {
                repeats += n;
            }
            if tracing {
                st.traced.push((r.class, ms));
            }
        }
        round
            .counts
            .insert("serve.hit_ratio", hits as f64 / points.max(1) as f64);
        round
            .counts
            .insert("serve.repeat_share", repeats as f64 / points.max(1) as f64);
        round
            .counts
            .insert("serve.simulated_points", simulated as f64);
        // Tear down outside the timed region; the next round starts empty.
        st.live = None;
        st.rounds += 1;
        Ok(round)
    }

    fn oracle(&self, st: &mut ServeState, first: &Round) -> Result<Vec<Mismatch>, String> {
        let mut cache: BTreeMap<(usize, usize, u64, u64), RunRecord> = BTreeMap::new();
        let mut bad = Vec::new();
        for (i, r) in st.reqs.iter().enumerate() {
            let mut expect = Vec::new();
            for &c in &r.req.points {
                let k = (r.req.frames, r.req.samples, r.req.fork_ns, c);
                if let std::collections::btree_map::Entry::Vacant(e) = cache.entry(k) {
                    e.insert(straight_record(&r.req, c)?);
                }
                expect.push(cache[&k].clone());
            }
            if fingerprint(&expect) != first.fps[i] {
                bad.push((
                    i,
                    format!("served records differ from straight runs for {:?}", r.req),
                ));
            }
        }
        Ok(bad)
    }

    fn layer_metrics(
        &self,
        st: &mut ServeState,
        traced_ms: &[f64],
    ) -> Result<BTreeMap<&'static str, f64>, String> {
        let mut out = BTreeMap::new();
        let p50 = median(traced_ms);
        for (class, key) in [
            (Class::Hit, "serve.hit_p50_rel"),
            (Class::Warm, "serve.warm_p50_rel"),
            (Class::Cold, "serve.cold_p50_rel"),
        ] {
            let v: Vec<f64> = st
                .traced
                .iter()
                .filter(|(c, _)| *c == class)
                .map(|(_, ms)| *ms)
                .collect();
            out.insert(key, if p50 > 0.0 { median(&v) / p50 } else { 0.0 });
        }
        // The same sequence through `process_sweep` in-process, three times
        // on fresh stores: what the requests cost without the socket and
        // codec.
        let mut process_ms = Vec::new();
        let mut last = None;
        for pass in 0..3 {
            let dir = st.dir.join(format!("replay-{pass}"));
            let store = SnapshotStore::open(&dir).map_err(|e| e.to_string())?;
            for r in &st.reqs {
                let t = Instant::now();
                let _ = process_sweep(&store, &r.req);
                process_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            if let Some((_, old)) = last.replace((store, dir)) {
                let _ = std::fs::remove_dir_all(old);
            }
        }
        let (store, store_dir) = last.ok_or("no replay ran")?;
        out.insert(
            "serve.wire_frac",
            if p50 > 0.0 {
                1.0 - median(&process_ms) / p50
            } else {
                0.0
            },
        );
        out.extend(store_metrics(&store, &st.reqs)?);
        drop(store);
        let _ = std::fs::remove_dir_all(&store_dir);
        Ok(out)
    }
}

/// Time the store's public read calls over every entry and fork the
/// sequences built, and size what is on disk.
fn store_metrics(
    store: &SnapshotStore,
    reqs: &[Req],
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut keys: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for r in reqs {
        keys.entry(r.req.key()).or_default().insert(r.req.fork_ns);
    }
    let (mut links, mut records, mut full, mut delta) = (0u64, 0u64, 0u64, 0u64);
    let t = Instant::now();
    for (&key, forks) in &keys {
        let meta = store
            .meta(key)
            .map_err(|e| e.to_string())?
            .unwrap_or_default();
        for link in &meta.links {
            links += 1;
            match store.load_link(key, link).map_err(|e| e.to_string())? {
                ChainDoc::Full(s) => full += s.byte_len(),
                ChainDoc::Delta(d) => delta += d.byte_len(),
            }
        }
        for &f in forks {
            records += store.records(key, f).map_err(|e| e.to_string())?.0.len() as u64;
        }
    }
    let read_s = t.elapsed().as_secs_f64();
    let bytes = dir_bytes(store.root());
    let mut out = BTreeMap::new();
    out.insert("store.bytes", bytes as f64);
    out.insert("store.links", links as f64);
    out.insert("store.records", records as f64);
    out.insert("store.read_mb_per_s", bytes as f64 / 1e6 / read_s.max(1e-9));
    out.insert("snapshot.full_bytes", full as f64);
    out.insert("snapshot.delta_bytes", delta as f64);
    Ok(out)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let p = e.path();
            if p.is_dir() {
                dir_bytes(&p)
            } else {
                e.metadata().map_or(0, |m| m.len())
            }
        })
        .sum()
}
