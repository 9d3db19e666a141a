//! Store-backed sweep serving: the cache-or-simulate core and the socket
//! server wrapping it.
//!
//! [`process_sweep`] is the whole service without the socket: look the
//! scenario up in the [`SnapshotStore`], restore the longest stored prefix
//! at or before the fork, extend and persist the chain if the fork is
//! beyond the tip, then answer every point either from the durable record
//! log or by warm-fork simulation (streaming each fresh record back to the
//! log as it lands). Any store poisoning — truncated link, bit flip,
//! re-parented delta, unreadable meta — is a typed error that triggers one
//! wipe-and-resimulate repair, so a corrupt store costs time, never a
//! wrong answer.
//!
//! [`SweepServer`] puts that behind a loopback TCP socket: connection
//! threads parse line-delimited JSON requests into a job queue; a worker
//! pool drains it; per-key locks (in-process) and leases (cross-process)
//! collapse concurrent identical requests into one simulation.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use drcf_dse::prelude::{sweep_warm_fork, RunRecord};
use drcf_kernel::prelude::{
    ChainDoc, SimDuration, SimError, SimErrorKind, SimResult, SimTime, Snapshot, SnapshotChain,
};
use drcf_soc::prelude::{
    build_soc, restore_soc, restore_soc_chain, run_soc_mut, BuiltSoc, Cpu, SocSpec, Workload,
};

use crate::protocol::{Reply, Request, SweepReply};
use crate::scenario::SweepRequest;
use crate::store::{ChainLink, SnapshotStore, StoreMeta, REBASE_PERIOD};

/// How often a lease waiter re-checks the store for the holder's results.
const LEASE_POLL: Duration = Duration::from_millis(25);

/// A store error that means "this entry is damaged", as opposed to an I/O
/// or environment failure: the repair is to wipe the entry and re-simulate.
fn is_poisoning(e: &SimError) -> bool {
    matches!(
        e.kind,
        SimErrorKind::SnapshotChain | SimErrorKind::Validation | SimErrorKind::Decode
    )
}

/// Run the scenario prefix cold (no store content) up to `fork`, filing the
/// resulting full snapshot as the chain's next link when it extends the tip.
fn cold_prefix(
    store: &SnapshotStore,
    key: u64,
    meta: &mut StoreMeta,
    w: &Workload,
    spec: &SocSpec,
    fork_ns: u64,
) -> SimResult<Snapshot> {
    let mut soc = build_soc(w, spec)?;
    soc.sim
        .run_until(SimTime::ZERO + SimDuration::ns(fork_ns))?;
    let snap = soc.sim.snapshot()?;
    if meta.links.last().is_none_or(|l| l.time_ns < fork_ns) {
        store.append_link(key, meta, &ChainDoc::Full(snap.clone()), fork_ns)?;
    }
    Ok(snap)
}

/// Produce the full fork snapshot for `(w, spec)` at `fork_ns`, reusing the
/// longest stored chain prefix at or before it and extending the stored
/// chain when the fork lies beyond the tip.
fn prefix_snapshot(
    store: &SnapshotStore,
    key: u64,
    w: &Workload,
    spec: &SocSpec,
    fork_ns: u64,
) -> SimResult<Snapshot> {
    let mut meta = store.meta(key)?.unwrap_or_default();
    // Enter at the last full link at-or-before the fork; the deltas that
    // follow it complete the chain. Links strictly increase in time, so
    // this is the longest usable prefix, and the chain's rebase period
    // bounds its restore depth.
    let usable = meta
        .links
        .iter()
        .take_while(|l| l.time_ns <= fork_ns)
        .count();
    let Some(entry) = meta.links[..usable].iter().rposition(|l| l.full) else {
        return cold_prefix(store, key, &mut meta, w, spec, fork_ns);
    };
    let mislabeled = |link: &ChainLink| {
        SimError::new(
            SimErrorKind::SnapshotChain,
            format!(
                "store link {} does not parse as its indexed kind",
                link.file
            ),
        )
    };
    let mut chain = match store.load_link(key, &meta.links[entry])? {
        ChainDoc::Full(base) => SnapshotChain::new(base, REBASE_PERIOD),
        ChainDoc::Delta(_) => return Err(mislabeled(&meta.links[entry])),
    };
    for link in &meta.links[entry + 1..usable] {
        match store.load_link(key, link)? {
            doc @ ChainDoc::Delta(_) => chain.push(doc)?,
            ChainDoc::Full(_) => return Err(mislabeled(link)),
        }
    }
    let (mut soc, tip) = restore_soc_chain(w, spec, &chain)?;
    let tip_ns = meta.links[usable - 1].time_ns;
    if tip_ns == fork_ns {
        // Standing exactly on the tip: the fork document is the chain
        // restore's verified capture, or a fresh one when the chain was
        // entered at a full tip link.
        return tip.map_or_else(|| soc.sim.snapshot(), Ok);
    }
    // Extend: run the gap and, when the fork lies beyond the whole stored
    // chain, file the next checkpoint (a delta off the tip, or a full
    // rebase link once the delta run gets long enough).
    soc.sim
        .run_until(SimTime::ZERO + SimDuration::ns(fork_ns))?;
    if usable == meta.links.len() {
        let (doc, fork) = chain.checkpoint(&mut soc.sim)?;
        store.append_link(key, &mut meta, doc, fork_ns)?;
        return Ok(fork);
    }
    soc.sim.snapshot()
}

/// Evaluate the sweep's missing points from the fork snapshot, appending
/// each completed record to the durable log in point order. Workers finish
/// points in any order, so a record waits in `held` until every point
/// before it is in the log (recovered points already are); one thread at
/// a time appends, outside the lock. A crash loses the points in flight
/// and the completed records waiting behind them; all of them are
/// re-simulated on the next request. Records still held when the sweep
/// returns (behind a point whose worker died) are appended then.
fn run_missing(
    store: &SnapshotStore,
    key: u64,
    req: &SweepRequest,
    w: &Workload,
    spec: &SocSpec,
    fork: &Snapshot,
    done: &[Option<RunRecord>],
) -> Vec<RunRecord> {
    let fork_ns = req.fork_ns;
    // Best-effort durability: a failed append only costs resumability.
    let append = |i: usize, rec: &RunRecord| {
        let _ = store.append_record(key, fork_ns, req.points[i], rec);
    };
    let order = Mutex::new(InOrder::default());
    let lock = || order.lock().unwrap_or_else(PoisonError::into_inner);
    let records = sweep_warm_fork(
        &req.points,
        fork,
        || restore_soc(w, spec, fork),
        |&clock: &u64, soc: &mut BuiltSoc| {
            let cpu = soc.cpu;
            soc.sim.get_mut::<Cpu>(cpu).set_clock_mhz(clock);
            let m = run_soc_mut(soc);
            RunRecord::from_metrics(
                "serve",
                vec![
                    ("clock_mhz".into(), clock.to_string()),
                    ("fork_ns".into(), fork_ns.to_string()),
                ],
                &m,
            )
        },
        done,
        |i, rec| {
            let mut o = lock();
            o.held.insert(i, rec.clone());
            if o.appending {
                // The appending thread reaches this record.
                return;
            }
            o.appending = true;
            loop {
                while done.get(o.next).is_some_and(Option::is_some) {
                    o.next += 1;
                }
                let point = o.next;
                let Some(rec) = o.held.remove(&point) else {
                    o.appending = false;
                    return;
                };
                o.next += 1;
                drop(o);
                append(point, &rec);
                o = lock();
            }
        },
    );
    for (i, rec) in &lock().held {
        append(*i, rec);
    }
    records
}

/// Completed sweep records waiting to be appended in point order.
#[derive(Default)]
struct InOrder {
    /// The next point to append.
    next: usize,
    held: BTreeMap<usize, RunRecord>,
    /// A thread is appending.
    appending: bool,
}

/// Answer `req` entirely from the record log, if every point is there.
fn cached_reply(
    store: &SnapshotStore,
    key: u64,
    req: &SweepRequest,
) -> SimResult<Option<SweepReply>> {
    let (recovered, _torn) = store.records(key, req.fork_ns)?;
    let records: Option<Vec<RunRecord>> = req
        .points
        .iter()
        .map(|p| recovered.get(p).cloned())
        .collect();
    Ok(records.map(|records| SweepReply {
        key,
        from_cache: records.len(),
        simulated: 0,
        records,
    }))
}

/// Serve one sweep request against the store: the full cache-or-simulate
/// path, usable directly (benches, tests) or from the socket server.
///
/// Concurrency contract: requests for the same key from other threads of
/// this process serialize on the store's key lock, and from other
/// processes on the entry's lease file — so N racing identical requests
/// cost one simulation, and the losers return bit-identical records read
/// from the log the winner wrote.
pub fn process_sweep(store: &SnapshotStore, req: &SweepRequest) -> SimResult<SweepReply> {
    req.validate()?;
    let key = req.key();
    let lock = store.key_lock(key);
    let _guard = match lock.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    let lease = loop {
        // Fully answered already (by us, another thread, or another
        // process)? Then no lease and no simulator are needed.
        if let Some(reply) = cached_reply(store, key, req).unwrap_or(None) {
            return Ok(reply);
        }
        match store.try_lease(key)? {
            Some(lease) => break lease,
            None => std::thread::sleep(LEASE_POLL),
        }
    };
    let (w, spec) = req.scenario();
    let attempt = |store: &SnapshotStore| -> SimResult<SweepReply> {
        let fork = prefix_snapshot(store, key, &w, &spec, req.fork_ns)?;
        let (recovered, _torn) = store.records(key, req.fork_ns)?;
        let done: Vec<Option<RunRecord>> = req
            .points
            .iter()
            .map(|p| recovered.get(p).cloned())
            .collect();
        let from_cache = done.iter().flatten().count();
        let records = run_missing(store, key, req, &w, &spec, &fork, &done);
        Ok(SweepReply {
            key,
            from_cache,
            simulated: req.points.len() - from_cache,
            records,
        })
    };
    match attempt(store) {
        Ok(reply) => {
            drop(lease);
            Ok(reply)
        }
        Err(e) if is_poisoning(&e) => {
            // The entry is damaged: wipe it (the lease file goes with the
            // directory, so dropping the guard now is a no-op), re-lease
            // the fresh entry so the repair stays exclusive, and simulate
            // cold. Corruption costs time, never a wrong answer.
            store.wipe(key)?;
            drop(lease);
            let _repair_lease = store.try_lease(key)?;
            attempt(store)
        }
        Err(e) => {
            drop(lease);
            Err(e)
        }
    }
}

/// One queued connection request awaiting a worker.
struct Job {
    req: SweepRequest,
    reply_tx: mpsc::Sender<Reply>,
}

struct Shared {
    store: SnapshotStore,
    queue: Mutex<std::collections::VecDeque<Job>>,
    available: Condvar,
    stop: AtomicBool,
    addr: SocketAddr,
}

impl Shared {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, std::collections::VecDeque<Job>> {
        match self.queue.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.available.notify_all();
        // Unblock the acceptor, which is parked in accept().
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running sweep server: acceptor + connection threads feeding a worker
/// pool through a queue, all over one loopback listener whose address is
/// published at `<store root>/serve.addr` for clients to discover.
pub struct SweepServer {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.lock_queue();
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                q = match shared.available.wait(q) {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
            }
        };
        let reply = match process_sweep(&shared.store, &job.req) {
            Ok(r) => Reply::Sweep(r),
            Err(e) => Reply::from_error(&e),
        };
        // The connection may have hung up; the job is still done and stored.
        let _ = job.reply_tx.send(reply);
    }
}

fn connection_loop(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = write_half;
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let reply = match Request::parse(&line) {
            Err(e) => Reply::from_error(&e),
            Ok(Request::Ping) => Reply::Pong,
            Ok(Request::Shutdown) => Reply::Bye,
            Ok(Request::Sweep(req)) => {
                let (tx, rx) = mpsc::channel();
                shared.lock_queue().push_back(Job { req, reply_tx: tx });
                shared.available.notify_one();
                rx.recv().unwrap_or_else(|_| {
                    Reply::from_error(&SimError::new(
                        SimErrorKind::Internal,
                        "server worker pool stopped before answering",
                    ))
                })
            }
        };
        let bye = matches!(reply, Reply::Bye);
        let mut out = reply.to_json().to_string();
        out.push('\n');
        if writer.write_all(out.as_bytes()).is_err() {
            break;
        }
        let _ = writer.flush();
        if bye {
            shared.request_stop();
            break;
        }
    }
}

impl SweepServer {
    /// Bind a loopback listener, publish its address at
    /// `<root>/serve.addr`, and start `workers` sweep workers.
    pub fn start(root: impl AsRef<Path>, workers: usize) -> SimResult<SweepServer> {
        let store = SnapshotStore::open(root.as_ref())?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| {
            SimError::new(SimErrorKind::Internal, format!("server bind failed: {e}"))
        })?;
        let addr = listener.local_addr().map_err(|e| {
            SimError::new(SimErrorKind::Internal, format!("server addr failed: {e}"))
        })?;
        std::fs::write(root.as_ref().join("serve.addr"), format!("{addr}\n")).map_err(|e| {
            SimError::new(
                SimErrorKind::Internal,
                format!("writing serve.addr failed: {e}"),
            )
        })?;
        let shared = Arc::new(Shared {
            store,
            queue: Mutex::new(std::collections::VecDeque::new()),
            available: Condvar::new(),
            stop: AtomicBool::new(false),
            addr,
        });
        let workers = workers.max(1);
        let pool: Vec<JoinHandle<()>> = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let shared = Arc::clone(&shared);
                    // Connection threads are cheap and bounded by client
                    // count; they exit on EOF or server stop.
                    std::thread::spawn(move || connection_loop(&shared, stream));
                }
            })
        };
        Ok(SweepServer {
            shared,
            acceptor: Some(acceptor),
            workers: pool,
        })
    }

    /// The bound socket address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Direct access to the server's store (manifest writing, tests).
    pub fn store(&self) -> &SnapshotStore {
        &self.shared.store
    }

    /// Has a shutdown request been received (or [`SweepServer::shutdown`]
    /// called)?
    pub fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Stop accepting work and join every thread. In-flight jobs finish
    /// first (workers drain the queue before observing the stop flag); the
    /// store manifest is refreshed on the way out as an inventory artifact.
    pub fn shutdown(mut self) {
        self.shared.request_stop();
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let _ = self.shared.store.write_manifest();
    }

    /// Block until a client asks the server to shut down, then join.
    pub fn serve_forever(self) {
        while !self.stopping() {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.shutdown();
    }
}

impl Drop for SweepServer {
    fn drop(&mut self) {
        self.shared.request_stop();
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}
