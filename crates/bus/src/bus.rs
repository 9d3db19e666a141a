//! The shared system bus.
//!
//! Bus-cycle-level timing (the "bus-cycle accurate" level of the ADRIATIC
//! flow, Fig. 3): every transaction pays an arbitration/address setup cost
//! plus per-word data cycles; a configurable arbiter picks among pending
//! masters; and the bus runs in one of two modes:
//!
//! * **Blocking** — the bus is held from grant until the slave's reply has
//!   been returned to the master, like a blocking interface-method call in
//!   the paper's SystemC listing. If a slave needs the *same* bus to make
//!   progress (a DRCF loading a context), the system deadlocks — the exact
//!   failure of §5.4, limitation 3, which the kernel detects and reports.
//! * **Split** — the bus is released between the address phase and the
//!   response phase, so slaves may master the bus while owing responses.

use drcf_kernel::json::{ju64, Json};
use drcf_kernel::prelude::*;
use drcf_kernel::snapshot::{self as snap, Snapshotable};

use crate::arbiter::{Arbiter, ArbiterKind, Candidate};
use crate::map::AddressMap;
use crate::monitor::BusStats;
use crate::protocol::{
    Addr, BulkAccess, BurstRun, BurstRuns, BusOp, BusRequest, BusResponse, BusStatus, ConfigTrain,
    ConfigTrainDecoalesced, ConfigTrainDone, ConfigTrainRejected, InFlightBurst, ServeBurst,
    SlaveAccess, SlaveReply, TrainBurst,
};

/// Blocking or split operation; see module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusMode {
    /// Hold the bus across the slave's processing time.
    Blocking,
    /// Release the bus between address and response phases.
    Split,
}

/// Static bus parameters.
#[derive(Debug, Clone)]
pub struct BusConfig {
    /// Bus clock in MHz.
    pub clock_mhz: u64,
    /// Arbitration + address cycles paid by every phase.
    pub setup_cycles: u64,
    /// Data cycles per word transferred (a 64-bit word on a 32-bit bus
    /// would be 2; on a 64-bit bus, 1).
    pub cycles_per_word: u64,
    /// Operation mode.
    pub mode: BusMode,
    /// Arbitration policy.
    pub arbiter: ArbiterKind,
    /// Fault injection: inclusive `[low, high]` address ranges whose
    /// accesses are granted normally but answered with a
    /// [`BusStatus::SlaveError`] response, raising a typed
    /// [`SimErrorKind::Fault`] so the enclosing run returns `Err`.
    pub fault_ranges: Vec<(Addr, Addr)>,
    /// When true, a decode miss escalates to a typed
    /// [`SimErrorKind::Decode`] run error in addition to the
    /// [`BusStatus::DecodeError`] response the master receives either way.
    pub escalate_decode_errors: bool,
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig {
            clock_mhz: 100,
            setup_cycles: 1,
            cycles_per_word: 1,
            mode: BusMode::Split,
            arbiter: ArbiterKind::Priority,
            fault_ranges: Vec::new(),
            escalate_decode_errors: false,
        }
    }
}

impl BusConfig {
    /// Cycles occupied on the bus by the request phase (address, plus write
    /// data travelling with it).
    pub fn request_cycles(&self, op: BusOp, burst: usize) -> u64 {
        self.setup_cycles
            + match op {
                BusOp::Write => burst as u64 * self.cycles_per_word,
                BusOp::Read => 0,
            }
    }

    /// Cycles occupied by the response phase (read data returning; writes
    /// acknowledge in the setup cycles alone).
    pub fn response_cycles(&self, op: BusOp, burst: usize) -> u64 {
        self.setup_cycles
            + match op {
                BusOp::Read => burst as u64 * self.cycles_per_word,
                BusOp::Write => 0,
            }
    }

    /// Duration of `cycles` bus cycles.
    pub fn cycles(&self, cycles: u64) -> SimDuration {
        SimDuration::cycles_at_mhz(cycles, self.clock_mhz)
    }

    /// Does the burst `[addr, addr + burst)` touch an injected fault range?
    pub fn fault_at(&self, addr: Addr, burst: usize) -> bool {
        let end = addr.saturating_add(burst.saturating_sub(1) as u64);
        self.fault_ranges
            .iter()
            .any(|&(low, high)| addr <= high && low <= end)
    }
}

/// Deterministic service timing of a slave, registered with the bus via
/// [`Bus::register_slave_timing`] so coalesced configuration trains can be
/// scheduled analytically. The contract: for a burst the bus delivers at
/// time `t`, the slave's [`SlaveReply`] arrives back at
/// `max(t, previous reply) + service(op, words)`. For
/// [`crate::memory::Memory`] this is exactly
/// [`crate::memory::MemoryConfig::slave_timing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlaveTiming {
    /// Slave clock in MHz.
    pub clock_mhz: u64,
    /// Cycles to the first word of a read.
    pub read_latency: u64,
    /// Cycles to accept the first word of a write.
    pub write_latency: u64,
    /// Additional cycles per burst word after the first.
    pub per_word: u64,
}

impl SlaveTiming {
    /// Service duration of one burst access.
    pub fn service(&self, op: BusOp, burst: usize) -> SimDuration {
        let first = match op {
            BusOp::Read => self.read_latency,
            BusOp::Write => self.write_latency,
        };
        let cycles = first + burst.saturating_sub(1) as u64 * self.per_word;
        SimDuration::cycles_at_mhz(cycles, self.clock_mhz)
    }
}

/// The four phase boundaries of one train burst: request granted at
/// `grant`, slave access delivered at `access`, slave reply back at
/// `reply`, response delivered to the master at `end` (== next grant).
#[derive(Debug, Clone, Copy, PartialEq)]
struct BurstSched {
    grant: SimTime,
    access: SimTime,
    reply: SimTime,
    end: SimTime,
}

/// The phase durations of one burst shape `(op, words)`.
#[derive(Debug, Clone, Copy)]
struct Phases {
    request: SimDuration,
    service: SimDuration,
    response: SimDuration,
}

impl Phases {
    fn of(cfg: &BusConfig, timing: &SlaveTiming, op: BusOp, words: usize) -> Phases {
        Phases {
            request: cfg.cycles(cfg.request_cycles(op, words)),
            service: timing.service(op, words),
            response: cfg.cycles(cfg.response_cycles(op, words)),
        }
    }

    /// Grant to response end of a burst that finds the slave free.
    fn period(&self) -> SimDuration {
        self.request + self.service + self.response
    }

    /// The boundaries of a burst granted at `grant` that finds the slave
    /// free.
    fn sched(&self, grant: SimTime) -> BurstSched {
        let access = grant + self.request;
        let reply = access + self.service;
        BurstSched {
            grant,
            access,
            reply,
            end: reply + self.response,
        }
    }
}

/// Walk `runs` behind a first burst that ends at `first_end`: each run
/// with its bursts' phases, the number of its bursts after the train's
/// first, and the grant of the first of those. Every burst after the first
/// is granted at its predecessor's end, past the predecessor's reply, so
/// it finds the slave free and ends one period later.
fn lay_out<'a>(
    cfg: &'a BusConfig,
    timing: SlaveTiming,
    runs: &'a BurstRuns,
    first_end: SimTime,
) -> impl Iterator<Item = (BurstRun, Phases, usize, SimTime)> + 'a {
    let mut grant = first_end;
    runs.runs().iter().enumerate().map(move |(i, &r)| {
        let p = Phases::of(cfg, &timing, r.op, r.words);
        let n = r.count - usize::from(i == 0);
        let at = grant;
        grant += p.period() * n as u64;
        (r, p, n, at)
    })
}

/// An accepted, currently-active configuration train. Its schedule is
/// closed form: `first` (the only burst that can wait for the slave)
/// plus one period per later burst, so every step costs O(runs).
struct TrainRun {
    master: ComponentId,
    priority: u8,
    tag: u64,
    slave: ComponentId,
    timing: SlaveTiming,
    started: SimTime,
    /// The slave-occupancy model's value when the window opened, for
    /// rewinding it on a de-coalesce before any burst reached the slave.
    slave_busy_at_start: SimTime,
    runs: BurstRuns,
    first: BurstSched,
    /// When the window closes: the last burst's response end.
    end: SimTime,
    timer: TimerHandle,
}

impl TrainRun {
    fn laid_out<'a>(
        &'a self,
        cfg: &'a BusConfig,
    ) -> impl Iterator<Item = (BurstRun, Phases, usize, SimTime)> + 'a {
        lay_out(cfg, self.timing, &self.runs, self.first.end)
    }

    /// The boundaries of burst `j`, if the train has that many.
    fn sched(&self, cfg: &BusConfig, j: usize) -> Option<BurstSched> {
        let Some(mut k) = j.checked_sub(1) else {
            return Some(self.first);
        };
        for (_, p, n, grant) in self.laid_out(cfg) {
            if k < n {
                return Some(p.sched(grant + p.period() * k as u64));
            }
            k -= n;
        }
        None
    }

    /// How many bursts have ended by `now`.
    fn done_by(&self, cfg: &BusConfig, now: SimTime) -> usize {
        if self.first.end > now {
            return 0;
        }
        let mut done = 1;
        for (_, p, n, grant) in self.laid_out(cfg) {
            // Every earlier burst has ended, so `grant <= now`.
            let period = p.period().as_fs();
            let fit = match now.since(grant).as_fs().checked_div(period) {
                Some(k) => n.min(k as usize),
                None => n,
            };
            done += fit;
            if fit < n {
                break;
            }
        }
        done
    }

    /// When the last burst's reply is back at the bus.
    fn last_reply(&self, cfg: &BusConfig) -> SimTime {
        self.runs.runs().last().map_or(self.first.reply, |r| {
            self.end - Phases::of(cfg, &self.timing, r.op, r.words).response
        })
    }
}

enum Pending {
    Request {
        req: BusRequest,
        arrival: u64,
        arrived_at: SimTime,
    },
    Response {
        reply: SlaveReply,
        arrival: u64,
        arrived_at: SimTime,
    },
}

impl Pending {
    fn candidate(&self) -> Candidate {
        match self {
            Pending::Request { req, arrival, .. } => Candidate {
                master: req.master,
                priority: req.priority,
                arrival: *arrival,
                is_response: false,
            },
            Pending::Response { reply, arrival, .. } => Candidate {
                master: reply.master,
                priority: u8::MAX,
                arrival: *arrival,
                is_response: true,
            },
        }
    }
}

enum State {
    Idle,
    /// Request phase in progress; at the timer, the access goes to `slave`.
    RequestPhase {
        req: BusRequest,
        slave: ComponentId,
    },
    /// Blocking mode only: bus held while the slave processes.
    WaitSlave,
    /// Response data returning to the master.
    ResponsePhase {
        reply: SlaveReply,
    },
}

const TAG_REQ_DONE: u64 = 1;
const TAG_RESP_DONE: u64 = 2;
const TAG_RETRY: u64 = 3;
const TAG_TRAIN_DONE: u64 = 4;

/// Transaction-id space the bus draws from for in-flight bursts handed back
/// at de-coalesce time; master ports count up from 1 and never reach it.
const TRAIN_TXN_BASE: u64 = 1 << 63;

/// The shared bus component.
pub struct Bus {
    cfg: BusConfig,
    map: AddressMap,
    arbiter: Box<dyn Arbiter>,
    pending: Vec<Pending>,
    arrivals: u64,
    state: State,
    retry_armed: bool,
    /// Registered analytic timings, keyed by slave component, together
    /// with the bus's model of when that slave's port frees up. The model
    /// mirrors the slave's own arrival-order port schedule, so a train's
    /// analytic window can account for service still draining from earlier
    /// traffic.
    slave_timings: Vec<(ComponentId, SlaveTiming, SimTime)>,
    /// Split-mode slave accesses whose replies have not returned yet.
    outstanding_split: usize,
    /// The active coalesced configuration train, if any.
    train: Option<TrainRun>,
    /// Ids handed out for de-coalesced in-flight bursts.
    train_txns: u64,
    /// Arbitration scratch, refilled from `pending` on every grant so a
    /// grant allocates nothing. Not bus state: snapshots skip it.
    candidates: Vec<Candidate>,
    /// Accumulated statistics.
    pub stats: BusStats,
}

impl Bus {
    /// New bus with the given configuration and decode map.
    pub fn new(cfg: BusConfig, map: AddressMap) -> Self {
        let arbiter = cfg.arbiter.build();
        Bus {
            cfg,
            map,
            arbiter,
            pending: Vec::new(),
            arrivals: 0,
            state: State::Idle,
            retry_armed: false,
            slave_timings: Vec::new(),
            outstanding_split: 0,
            train: None,
            train_txns: 0,
            candidates: Vec::new(),
            stats: BusStats::default(),
        }
    }

    /// Register the deterministic service timing of `slave`, enabling the
    /// coalesced configuration-train fast path for bursts that decode to
    /// it. The timing must match the slave's actual reply behavior exactly,
    /// or coalesced and per-burst runs will diverge.
    pub fn register_slave_timing(&mut self, slave: ComponentId, timing: SlaveTiming) {
        if let Some(e) = self.slave_timings.iter_mut().find(|e| e.0 == slave) {
            e.1 = timing;
        } else {
            self.slave_timings.push((slave, timing, SimTime::ZERO));
        }
    }

    /// Fold one slave access into the slave-occupancy model: the slave
    /// starts serving when its port frees, and holds it for the
    /// deterministic service time. No-op for slaves without a registered
    /// timing.
    fn note_slave_access(&mut self, now: SimTime, slave: ComponentId, op: BusOp, burst: usize) {
        if let Some(e) = self.slave_timings.iter_mut().find(|e| e.0 == slave) {
            let start = e.2.max(now);
            e.2 = start + e.1.service(op, burst);
        }
    }

    /// When the given slave's port frees up, per the occupancy model.
    fn slave_free_at(&self, slave: ComponentId) -> SimTime {
        self.slave_timings
            .iter()
            .find(|e| e.0 == slave)
            .map_or(SimTime::ZERO, |e| e.2)
    }

    /// Overwrite the occupancy model for `slave` (train bookkeeping).
    fn set_slave_busy_until(&mut self, slave: ComponentId, until: SimTime) {
        if let Some(e) = self.slave_timings.iter_mut().find(|e| e.0 == slave) {
            e.2 = until;
        }
    }

    /// The configuration.
    pub fn config(&self) -> &BusConfig {
        &self.cfg
    }

    /// The decode map.
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    fn enqueue_request(&mut self, api: &mut Api<'_>, req: BusRequest) {
        if let Err(e) = req.validate() {
            api.raise(
                SimErrorKind::BusError,
                format!("malformed bus request: {e}"),
            );
            let resp = BusResponse {
                id: req.id,
                op: req.op,
                addr: req.addr,
                status: BusStatus::SlaveError,
                data: vec![],
            };
            api.send(req.master, resp, Delay::Delta);
            return;
        }
        self.stats.requests += 1;
        api.trace_instant(TraceCategory::Bus, "request", req.master as u64);
        let arrival = self.arrivals;
        self.arrivals += 1;
        self.pending.push(Pending::Request {
            req,
            arrival,
            arrived_at: api.now(),
        });
        self.stats.max_queue = self.stats.max_queue.max(self.pending.len());
        api.trace_counter(TraceCategory::Bus, "queue_depth", self.pending.len() as u64);
        self.try_grant(api);
    }

    fn enqueue_response(&mut self, api: &mut Api<'_>, reply: SlaveReply) {
        let arrival = self.arrivals;
        self.arrivals += 1;
        self.pending.push(Pending::Response {
            reply,
            arrival,
            arrived_at: api.now(),
        });
        self.stats.max_queue = self.stats.max_queue.max(self.pending.len());
        self.try_grant(api);
    }

    fn try_grant(&mut self, api: &mut Api<'_>) {
        if !matches!(self.state, State::Idle) || self.pending.is_empty() {
            return;
        }
        self.candidates.clear();
        self.candidates
            .extend(self.pending.iter().map(Pending::candidate));
        let Some(idx) = self.arbiter.pick(api.now(), &self.candidates) else {
            // TDMA outside the owner's slot: retry at the next boundary.
            self.arm_retry(api);
            return;
        };
        let item = self.pending.swap_remove(idx);
        self.stats.busy.set_busy(api.now());
        match item {
            Pending::Request {
                req, arrived_at, ..
            } => {
                self.stats
                    .record_grants(req.master, api.now().since(arrived_at), 1);
                api.trace_instant(TraceCategory::Bus, "grant", req.master as u64);
                if self.cfg.fault_at(req.addr, req.burst) {
                    self.stats.injected_faults += 1;
                    api.trace_instant(TraceCategory::Bus, "injected_fault", req.addr);
                    api.raise(
                        SimErrorKind::Fault,
                        format!(
                            "injected bus fault: addr {:#x} burst {}",
                            req.addr, req.burst
                        ),
                    );
                    let resp = BusResponse {
                        id: req.id,
                        op: req.op,
                        addr: req.addr,
                        status: BusStatus::SlaveError,
                        data: vec![],
                    };
                    self.stats.responses += 1;
                    api.send(req.master, resp, Delay::Delta);
                    self.stats.busy.set_idle(api.now());
                    self.try_grant(api);
                    return;
                }
                match self.map.decode_burst(req.addr, req.burst) {
                    Some(slave) => {
                        let cycles = self.cfg.request_cycles(req.op, req.burst);
                        if req.op == BusOp::Write {
                            self.stats.words += req.burst as u64;
                        }
                        api.timer_in(self.cfg.cycles(cycles), TAG_REQ_DONE);
                        api.trace_begin(TraceCategory::Bus, "request_phase", req.master as u64);
                        self.state = State::RequestPhase { req, slave };
                    }
                    None => {
                        self.stats.decode_errors += 1;
                        api.trace_instant(TraceCategory::Bus, "decode_error", req.addr);
                        let text = format!(
                            "decode error: addr {:#x} burst {} claimed by no slave",
                            req.addr, req.burst
                        );
                        if self.cfg.escalate_decode_errors {
                            api.raise(SimErrorKind::Decode, text);
                        } else {
                            api.log(Severity::Warning, text);
                        }
                        let resp = BusResponse {
                            id: req.id,
                            op: req.op,
                            addr: req.addr,
                            status: BusStatus::DecodeError,
                            data: vec![],
                        };
                        self.stats.responses += 1;
                        api.send(req.master, resp, Delay::Delta);
                        self.stats.busy.set_idle(api.now());
                        self.try_grant(api);
                    }
                }
            }
            Pending::Response {
                reply, arrived_at, ..
            } => {
                self.stats
                    .record_grants(reply.master, api.now().since(arrived_at), 1);
                api.trace_instant(TraceCategory::Bus, "grant", reply.master as u64);
                let cycles = self
                    .cfg
                    .response_cycles(reply.resp.op, reply.resp.data.len().max(1));
                if reply.resp.op == BusOp::Read {
                    self.stats.words += reply.resp.data.len() as u64;
                }
                api.timer_in(self.cfg.cycles(cycles), TAG_RESP_DONE);
                api.trace_begin(TraceCategory::Bus, "response_phase", reply.master as u64);
                self.state = State::ResponsePhase { reply };
            }
        }
    }

    fn arm_retry(&mut self, api: &mut Api<'_>) {
        if self.retry_armed {
            return;
        }
        if let ArbiterKind::Tdma { slot, .. } = &self.cfg.arbiter {
            let slot_fs = slot.as_fs();
            let next = (api.now().as_fs() / slot_fs + 1) * slot_fs;
            let delay = SimDuration::fs(next - api.now().as_fs());
            self.retry_armed = true;
            api.timer_in(delay, TAG_RETRY);
        }
    }

    fn request_phase_done(&mut self, api: &mut Api<'_>) {
        let State::RequestPhase { req, slave } = std::mem::replace(&mut self.state, State::Idle)
        else {
            api.raise(
                SimErrorKind::Internal,
                "request-done timer fired outside the request phase",
            );
            return;
        };
        api.trace_end(TraceCategory::Bus, "request_phase", req.master as u64);
        let me = api.me();
        self.note_slave_access(api.now(), slave, req.op, req.burst);
        api.send(slave, SlaveAccess { req, bus: me }, Delay::Delta);
        match self.cfg.mode {
            BusMode::Blocking => {
                // Bus stays granted (and busy) until the reply returns.
                api.trace_begin(TraceCategory::Bus, "wait_slave", 0);
                self.state = State::WaitSlave;
            }
            BusMode::Split => {
                self.outstanding_split += 1;
                self.stats.busy.set_idle(api.now());
                self.try_grant(api);
            }
        }
    }

    fn reply_arrived(&mut self, api: &mut Api<'_>, reply: SlaveReply) {
        if self.cfg.mode == BusMode::Split {
            self.outstanding_split = self.outstanding_split.saturating_sub(1);
        }
        match self.cfg.mode {
            BusMode::Blocking => {
                debug_assert!(
                    matches!(self.state, State::WaitSlave),
                    "blocking bus got a reply while not waiting"
                );
                api.trace_end(TraceCategory::Bus, "wait_slave", 0);
                let cycles = self
                    .cfg
                    .response_cycles(reply.resp.op, reply.resp.data.len().max(1));
                if reply.resp.op == BusOp::Read {
                    self.stats.words += reply.resp.data.len() as u64;
                }
                api.timer_in(self.cfg.cycles(cycles), TAG_RESP_DONE);
                api.trace_begin(TraceCategory::Bus, "response_phase", reply.master as u64);
                self.state = State::ResponsePhase { reply };
            }
            BusMode::Split => self.enqueue_response(api, reply),
        }
    }

    fn response_phase_done(&mut self, api: &mut Api<'_>) {
        let State::ResponsePhase { reply } = std::mem::replace(&mut self.state, State::Idle) else {
            api.raise(
                SimErrorKind::Internal,
                "response-done timer fired outside the response phase",
            );
            return;
        };
        self.stats.responses += 1;
        api.trace_end(TraceCategory::Bus, "response_phase", reply.master as u64);
        api.send(reply.master, reply.resp, Delay::Delta);
        self.stats.busy.set_idle(api.now());
        self.try_grant(api);
    }

    /// Can this train run as one analytic window right now? Returns the
    /// target slave and its registered timing when every validity condition
    /// holds: split mode, a work-conserving arbiter, tracing off (per-burst
    /// spans are observable), bus idle with nothing queued, every burst
    /// decoding to the same timing-registered slave, and no fault range
    /// overlapping any burst (those must take the per-burst path so the
    /// fault fires exactly as it would have). Outstanding split replies are
    /// fine: if one lands mid-window, `decoalesce` reconstructs the exact
    /// per-burst bus state before it is processed.
    fn train_target(&self, api: &Api<'_>, t: &ConfigTrain) -> Option<(ComponentId, SlaveTiming)> {
        if self.cfg.mode != BusMode::Split
            || matches!(self.cfg.arbiter, ArbiterKind::Tdma { .. })
            || api.tracing_enabled()
            || !matches!(self.state, State::Idle)
            || !self.pending.is_empty()
            || self.retry_armed
        {
            return None;
        }
        let slave = self.runs_slave(&t.runs)?;
        let timing = self.slave_timings.iter().find(|e| e.0 == slave)?.1;
        Some((slave, timing))
    }

    /// The one slave every burst of `runs` decodes to, when there is one,
    /// no burst is empty and none touches an injected fault range. This is
    /// the per-burst answer, checked once per run and claim crossed: a
    /// run's bursts tile its span, so a fault range overlaps a burst iff it
    /// overlaps the span, and a claim the span crosses must hold its bursts
    /// whole.
    fn runs_slave(&self, runs: &BurstRuns) -> Option<ComponentId> {
        let mut slave = None;
        for r in runs.runs() {
            let w = r.words as u64;
            // A fixed run's bursts all cover its first one.
            let mut left = if r.fixed { 1 } else { r.count as u64 };
            let span = usize::try_from(left.checked_mul(w)?).ok()?;
            if w == 0 || self.cfg.fault_at(r.addr, span) {
                return None;
            }
            let mut addr = r.addr;
            while left > 0 {
                let claim = self.map.range_of_burst(addr, r.words)?;
                if *slave.get_or_insert(claim.slave) != claim.slave {
                    return None;
                }
                let fit = ((claim.high - addr - (w - 1)) / w + 1).min(left);
                left -= fit;
                if left > 0 {
                    addr = addr.checked_add(fit * w)?;
                }
            }
        }
        slave
    }

    /// Lay out a train of `runs` offered at `started` to a slave whose port
    /// frees at `slave_busy_at_start`: the first burst's boundaries, the
    /// only ones that can wait for the slave, and the window end.
    fn train_window(
        &self,
        timing: SlaveTiming,
        started: SimTime,
        slave_busy_at_start: SimTime,
        runs: &BurstRuns,
    ) -> Option<(BurstSched, SimTime)> {
        let r = runs.runs().first()?;
        let p = Phases::of(&self.cfg, &timing, r.op, r.words);
        let access = started + p.request;
        let reply = access.max(slave_busy_at_start) + p.service;
        let first = BurstSched {
            grant: started,
            access,
            reply,
            end: reply + p.response,
        };
        let end = lay_out(&self.cfg, timing, runs, first.end)
            .last()
            .map_or(first.end, |(_, p, n, grant)| grant + p.period() * n as u64);
        Some((first, end))
    }

    /// A master offered a configuration train: accept it by laying out its
    /// window and arming one timer at the window end, or reject it so the
    /// master falls back to per-burst.
    fn train_offered(&mut self, api: &mut Api<'_>, t: ConfigTrain) {
        let now = api.now();
        // The slave may still be draining service from earlier traffic;
        // the first reply can start no earlier than that point.
        let accepted = self.train_target(api, &t).and_then(|(slave, timing)| {
            let slave_busy_at_start = self.slave_free_at(slave);
            let (first, end) = self.train_window(timing, now, slave_busy_at_start, &t.runs)?;
            Some((slave, timing, slave_busy_at_start, first, end))
        });
        let Some((slave, timing, slave_busy_at_start, first, end)) = accepted else {
            api.send(t.master, ConfigTrainRejected { tag: t.tag }, Delay::Delta);
            return;
        };
        let train = TrainRun {
            master: t.master,
            priority: t.priority,
            tag: t.tag,
            slave,
            timing,
            started: now,
            slave_busy_at_start,
            runs: t.runs,
            first,
            end,
            timer: api.timer_cancellable(end.since(now), TAG_TRAIN_DONE),
        };
        self.set_slave_busy_until(slave, train.last_reply(&self.cfg));
        self.train = Some(train);
    }

    /// Replay the request-grant side of one train burst into the stats,
    /// exactly as `try_grant` + `request_phase_done` would have recorded it
    /// (uncontended: zero wait, queue depth one, busy from grant to slave
    /// access). The arrivals counter advances too, so arbiter arrival
    /// tiebreaks after the window match the per-burst world.
    fn replay_request_grant(&mut self, master: ComponentId, b: &TrainBurst, s: &BurstSched) {
        self.stats.requests += 1;
        self.arrivals += 1;
        self.stats.max_queue = self.stats.max_queue.max(1);
        self.stats.busy.set_busy(s.grant);
        self.stats.record_grants(master, SimDuration::ZERO, 1);
        if b.op == BusOp::Write {
            self.stats.words += b.words as u64;
        }
        self.stats.busy.set_idle(s.access);
    }

    /// Replay the response-grant side of one train burst (the reply queued
    /// and granted at `s.reply` with zero wait).
    fn replay_response_grant(&mut self, master: ComponentId, b: &TrainBurst, s: &BurstSched) {
        self.arrivals += 1;
        self.stats.max_queue = self.stats.max_queue.max(1);
        self.stats.busy.set_busy(s.reply);
        self.stats.record_grants(master, SimDuration::ZERO, 1);
        if b.op == BusOp::Read {
            self.stats.words += b.words as u64;
        }
    }

    /// Replay the first `upto` bursts of a train as fully completed, in
    /// O(runs) statistics updates: per burst, the per-burst world records
    /// one request and one response, two zero-wait grants at queue depth
    /// one, the burst's words once, and two busy periods — grant to slave
    /// access, and reply to response end. A run's bursts have equal
    /// periods, so each run adds its busy time at once.
    fn replay_train_prefix(&mut self, tr: &TrainRun, upto: usize) {
        if upto == 0 {
            return;
        }
        let n = upto as u64;
        self.stats.requests += n;
        self.stats.responses += n;
        self.arrivals += 2 * n;
        self.stats.max_queue = self.stats.max_queue.max(1);
        self.stats
            .record_grants(tr.master, SimDuration::ZERO, 2 * n);
        // The first burst's request phase is the one period that can find
        // the bus already busy; every later period starts from idle.
        let first = tr.first;
        self.stats.busy.set_busy(first.grant);
        self.stats.busy.set_idle(first.access);
        let mut words = tr.runs.runs().first().map_or(0, |r| r.words as u64);
        let mut busy = first.end.since(first.reply);
        let mut last_start = first.reply;
        let mut left = upto - 1;
        for (r, p, n, grant) in tr.laid_out(&self.cfg) {
            let m = n.min(left);
            if m == 0 {
                // The first run may hold the first burst alone.
                if left == 0 {
                    break;
                }
                continue;
            }
            words += r.words_of(m);
            busy += (p.request + p.response) * m as u64;
            last_start = p.sched(grant + p.period() * (m as u64 - 1)).reply;
            left -= m;
        }
        self.stats.words += words;
        self.stats
            .busy
            .add_busy_periods(2 * n - 1, busy, last_start);
    }

    /// The train window elapsed with no interference: replay every burst
    /// into the stats, fast-forward the slave, and tell the master.
    fn train_window_done(&mut self, api: &mut Api<'_>) {
        let Some(tr) = self.train.take() else {
            api.raise(
                SimErrorKind::Internal,
                "train-done timer fired with no active train",
            );
            return;
        };
        self.replay_train_prefix(&tr, tr.runs.len());
        let words = tr.runs.words();
        let busy_until = tr.last_reply(&self.cfg);
        api.send(
            tr.slave,
            BulkAccess {
                runs: tr.runs,
                busy_until,
                serve: None,
            },
            Delay::Delta,
        );
        api.send(
            tr.master,
            ConfigTrainDone { tag: tr.tag, words },
            Delay::Delta,
        );
    }

    /// Foreign traffic arrived mid-window: collapse the train back into the
    /// per-burst world at the current instant. Completed bursts are
    /// replayed; the burst mid-transaction (if any) is rebuilt onto the
    /// real bus machinery so it finishes through the normal phases; the
    /// rest is handed back to the master, which continues per-burst (or
    /// re-offers a train once the contention clears). Runs *before* the
    /// foreign message is processed, so the foreign grant/queue decisions
    /// see exactly the state the per-burst world would have had.
    fn decoalesce(&mut self, api: &mut Api<'_>) {
        let Some(tr) = self.train.take() else { return };
        api.cancel_timer(tr.timer);
        let now = api.now();
        let done = tr.done_by(&self.cfg, now);
        self.replay_train_prefix(&tr, done);
        let next = tr.runs.burst(done).zip(tr.sched(&self.cfg, done));
        let mut in_flight = None;
        let mut serve = None;
        let mut slave_prefix = done;
        if let Some((b, s)) = next {
            // The burst is mid-transaction iff its grant already happened.
            // A grant exactly *at* `now` only counts for the first burst:
            // the train offer (== the per-burst request) was granted
            // earlier in this very timestep, whereas later bursts would be
            // re-issued only after their predecessor's response delta.
            let granted = s.grant < now || (done == 0 && s.grant == now);
            if granted {
                let id = TRAIN_TXN_BASE | self.train_txns;
                self.train_txns += 1;
                self.replay_request_grant(tr.master, &b, &s);
                let req = BusRequest {
                    id,
                    master: tr.master,
                    op: b.op,
                    addr: b.addr,
                    burst: b.words,
                    data: match b.op {
                        BusOp::Write => vec![0; b.words],
                        BusOp::Read => vec![],
                    },
                    priority: tr.priority,
                };
                if now < s.access {
                    // Request phase: rebuild it; the slave access and reply
                    // then flow through the real machinery.
                    api.timer_in(s.access.since(now), TAG_REQ_DONE);
                    self.state = State::RequestPhase {
                        req,
                        slave: tr.slave,
                    };
                } else if now < s.reply {
                    // The slave is servicing the burst: hand it the access
                    // so it owes the real reply at the scheduled time.
                    self.outstanding_split += 1;
                    serve = Some(ServeBurst {
                        req,
                        bus: api.me(),
                        reply_at: s.reply,
                    });
                } else {
                    // Response phase: rebuild it. Read payloads are the
                    // implied zeros — configuration traffic is timing-only,
                    // the master discards data content.
                    self.replay_response_grant(tr.master, &b, &s);
                    api.timer_in(s.end.since(now), TAG_RESP_DONE);
                    let data = match b.op {
                        BusOp::Read => vec![0; b.words],
                        BusOp::Write => vec![],
                    };
                    self.state = State::ResponsePhase {
                        reply: SlaveReply {
                            resp: BusResponse {
                                id,
                                op: b.op,
                                addr: b.addr,
                                status: BusStatus::Ok,
                                data,
                            },
                            master: tr.master,
                        },
                    };
                    // The slave already serviced this burst.
                    slave_prefix = done + 1;
                }
                in_flight = Some(InFlightBurst {
                    id,
                    op: b.op,
                    addr: b.addr,
                    words: b.words,
                    issued_at: s.grant,
                });
            }
        }
        // Rewind the slave-occupancy model to the bursts that actually
        // reached the slave; a burst still in its request phase re-enters
        // it through the normal `request_phase_done` path. Bursts after the
        // next one are granted after its end, so none of them has.
        let accessed = done + usize::from(next.is_some_and(|(_, s)| s.access <= now));
        let cfg = &self.cfg;
        let reply_of = |j: usize| tr.sched(cfg, j).map(|s| s.reply);
        let slave_busy = accessed
            .checked_sub(1)
            .and_then(reply_of)
            .unwrap_or(tr.slave_busy_at_start);
        let busy_until = slave_prefix
            .checked_sub(1)
            .and_then(reply_of)
            .unwrap_or(tr.started);
        self.set_slave_busy_until(tr.slave, slave_busy);
        if slave_prefix > 0 || serve.is_some() {
            api.send(
                tr.slave,
                BulkAccess {
                    runs: tr.runs.prefix(slave_prefix),
                    busy_until,
                    serve,
                },
                Delay::Delta,
            );
        }
        api.send(
            tr.master,
            ConfigTrainDecoalesced {
                tag: tr.tag,
                done_bursts: done,
                in_flight,
            },
            Delay::Delta,
        );
    }
}

impl Bus {
    fn pending_json(&self) -> Json {
        use crate::snapshot::time_json;
        Json::Arr(
            self.pending
                .iter()
                .map(|p| match p {
                    Pending::Request {
                        req,
                        arrival,
                        arrived_at,
                    } => Json::obj()
                        .with("kind", "req".into())
                        .with("req", req.encode())
                        .with("arrival", ju64(*arrival))
                        .with("arrived_at", time_json(*arrived_at)),
                    Pending::Response {
                        reply,
                        arrival,
                        arrived_at,
                    } => Json::obj()
                        .with("kind", "resp".into())
                        .with("reply", reply.encode())
                        .with("arrival", ju64(*arrival))
                        .with("arrived_at", time_json(*arrived_at)),
                })
                .collect(),
        )
    }

    fn restore_pending(&mut self, state: &Json) -> SimResult<()> {
        use crate::snapshot::time_of;
        self.pending.clear();
        for p in snap::arr_field(state, "pending")? {
            let arrival = snap::u64_field(p, "arrival")?;
            let arrived_at =
                time_of(snap::field(p, "arrived_at")?).ok_or_else(|| snap::err("bad time"))?;
            let entry = match snap::str_field(p, "kind")? {
                "req" => Pending::Request {
                    req: BusRequest::decode(snap::field(p, "req")?)
                        .ok_or_else(|| snap::err("malformed pending bus request"))?,
                    arrival,
                    arrived_at,
                },
                "resp" => Pending::Response {
                    reply: SlaveReply::decode(snap::field(p, "reply")?)
                        .ok_or_else(|| snap::err("malformed pending slave reply"))?,
                    arrival,
                    arrived_at,
                },
                other => return Err(snap::err(format!("unknown pending kind `{other}`"))),
            };
            self.pending.push(entry);
        }
        Ok(())
    }

    fn state_json(&self) -> Json {
        match &self.state {
            State::Idle => Json::obj().with("kind", "idle".into()),
            State::RequestPhase { req, slave } => Json::obj()
                .with("kind", "request".into())
                .with("req", req.encode())
                .with("slave", ju64(*slave as u64)),
            State::WaitSlave => Json::obj().with("kind", "wait_slave".into()),
            State::ResponsePhase { reply } => Json::obj()
                .with("kind", "response".into())
                .with("reply", reply.encode()),
        }
    }

    fn restore_state(&mut self, state: &Json) -> SimResult<()> {
        let j = snap::field(state, "state")?;
        self.state = match snap::str_field(j, "kind")? {
            "idle" => State::Idle,
            "request" => State::RequestPhase {
                req: BusRequest::decode(snap::field(j, "req")?)
                    .ok_or_else(|| snap::err("malformed in-phase bus request"))?,
                slave: snap::usize_field(j, "slave")?,
            },
            "wait_slave" => State::WaitSlave,
            "response" => State::ResponsePhase {
                reply: SlaveReply::decode(snap::field(j, "reply")?)
                    .ok_or_else(|| snap::err("malformed in-phase slave reply"))?,
            },
            other => return Err(snap::err(format!("unknown bus state `{other}`"))),
        };
        Ok(())
    }

    /// The active train as its offer: who offered which bursts, when,
    /// against which slave occupancy, and where the window ends. The
    /// schedule is not written; it is a function of these fields and the
    /// bus's static timing, and `restore_train` recomputes it.
    fn train_json(&self) -> Json {
        use crate::snapshot::{burst_list_json, time_json};
        match &self.train {
            None => Json::Null,
            Some(t) => Json::obj()
                .with("master", ju64(t.master as u64))
                .with("priority", ju64(t.priority as u64))
                .with("tag", ju64(t.tag))
                .with("slave", ju64(t.slave as u64))
                .with("started", time_json(t.started))
                .with("slave_busy_at_start", time_json(t.slave_busy_at_start))
                .with("bursts", burst_list_json(&t.runs))
                .with("end", time_json(t.end))
                .with("timer", ju64(t.timer.raw())),
        }
    }

    /// Restore the active train from its offer, recomputing its schedule
    /// with the registered timing of its slave. The offer must pass the
    /// acceptance check on its bursts again: every burst decodes to the
    /// document's slave. A window end that differs from the document's
    /// means this bus or slave is timed differently from the one that
    /// captured it (another clock, another [`SlaveTiming`]), and the train
    /// cannot resume faithfully.
    fn restore_train(&mut self, state: &Json) -> SimResult<()> {
        use crate::snapshot::{burst_list_of, time_of};
        let j = snap::field(state, "train")?;
        if matches!(j, Json::Null) {
            self.train = None;
            return Ok(());
        }
        let time = |key: &str| -> SimResult<SimTime> {
            time_of(snap::field(j, key)?).ok_or_else(|| snap::err(format!("bad train {key} time")))
        };
        let malformed = || snap::err("malformed train burst list");
        let runs = burst_list_of(snap::field(j, "bursts")?)
            .filter(|r| !r.is_empty())
            .ok_or_else(malformed)?;
        let slave = snap::usize_field(j, "slave")?;
        if self.runs_slave(&runs) != Some(slave) {
            return Err(snap::err(format!(
                "train bursts do not all decode to slave {slave} clear of fault ranges"
            )));
        }
        let timing = self
            .slave_timings
            .iter()
            .find(|e| e.0 == slave)
            .ok_or_else(|| snap::err(format!("train targets unregistered slave timing {slave}")))?
            .1;
        let (started, slave_busy_at_start) = (time("started")?, time("slave_busy_at_start")?);
        let (first, end) = self
            .train_window(timing, started, slave_busy_at_start, &runs)
            .ok_or_else(malformed)?;
        let want = time("end")?;
        if end != want {
            return Err(snap::err(format!(
                "train window recomputes to end at {} fs, the document says {} fs \
                 (bus or slave timing differs from the capturing system)",
                end.as_fs(),
                want.as_fs()
            )));
        }
        self.train = Some(TrainRun {
            master: snap::usize_field(j, "master")?,
            priority: snap::u64_field(j, "priority")? as u8,
            tag: snap::u64_field(j, "tag")?,
            slave,
            timing,
            started,
            slave_busy_at_start,
            runs,
            first,
            end,
            timer: TimerHandle::from_raw(snap::u64_field(j, "timer")?),
        });
        Ok(())
    }
}

impl Component for Bus {
    fn decoders(&self) -> &'static [drcf_kernel::snapshot::Decoder] {
        crate::snapshot::BUS_DECODERS
    }

    fn snapshot(&mut self) -> SimResult<Json> {
        use crate::snapshot::time_json;
        Ok(Json::obj()
            .with("arbiter", self.arbiter.snapshot_state())
            .with("pending", self.pending_json())
            .with("arrivals", ju64(self.arrivals))
            .with("state", self.state_json())
            .with("retry_armed", Json::Bool(self.retry_armed))
            .with(
                "slave_busy",
                Json::Arr(
                    self.slave_timings
                        .iter()
                        .map(|&(id, _, busy)| Json::Arr(vec![ju64(id as u64), time_json(busy)]))
                        .collect(),
                ),
            )
            .with("outstanding_split", ju64(self.outstanding_split as u64))
            .with("train", self.train_json())
            .with("train_txns", ju64(self.train_txns))
            .with("stats", self.stats.snapshot_json()))
    }

    fn restore(&mut self, state: &Json) -> SimResult<()> {
        use crate::snapshot::time_of;
        self.arbiter
            .restore_state(snap::field(state, "arbiter")?)
            .map_err(snap::err)?;
        self.restore_pending(state)?;
        self.arrivals = snap::u64_field(state, "arrivals")?;
        self.restore_state(state)?;
        self.retry_armed = snap::bool_field(state, "retry_armed")?;
        for e in snap::arr_field(state, "slave_busy")? {
            let pair = e
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| snap::err("malformed slave-busy entry"))?;
            let id = drcf_kernel::json::ju64_of(&pair[0])
                .ok_or_else(|| snap::err("slave-busy id is not a u64"))?
                as ComponentId;
            let busy = time_of(&pair[1]).ok_or_else(|| snap::err("bad time"))?;
            let slot = self
                .slave_timings
                .iter_mut()
                .find(|t| t.0 == id)
                .ok_or_else(|| {
                    snap::err(format!("snapshot names unregistered slave timing {id}"))
                })?;
            slot.2 = busy;
        }
        self.outstanding_split = snap::usize_field(state, "outstanding_split")?;
        self.restore_train(state)?;
        self.train_txns = snap::u64_field(state, "train_txns")?;
        self.stats.restore_json(snap::field(state, "stats")?)?;
        Ok(())
    }

    fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
        match msg.kind {
            MsgKind::Timer(TAG_REQ_DONE) => self.request_phase_done(api),
            MsgKind::Timer(TAG_RESP_DONE) => self.response_phase_done(api),
            MsgKind::Timer(TAG_RETRY) => {
                self.retry_armed = false;
                self.try_grant(api);
            }
            MsgKind::Timer(TAG_TRAIN_DONE) => self.train_window_done(api),
            MsgKind::Start => {}
            _ => {
                let msg = match msg.user::<BusRequest>() {
                    Ok(req) => {
                        if self.train.is_some() {
                            self.decoalesce(api);
                        }
                        self.enqueue_request(api, req);
                        return;
                    }
                    Err(m) => m,
                };
                let msg = match msg.user::<SlaveReply>() {
                    Ok(reply) => {
                        if self.train.is_some() {
                            self.decoalesce(api);
                        }
                        self.reply_arrived(api, reply);
                        return;
                    }
                    Err(m) => m,
                };
                if let Ok(t) = msg.user::<ConfigTrain>() {
                    if self.train.is_some() {
                        self.decoalesce(api);
                    }
                    self.train_offered(api, t);
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::interfaces::{MasterPort, RegisterFile, SlaveAdapter};
    use drcf_kernel::testing::ok;

    /// A master that runs a fixed sequence of reads/writes back-to-back.
    struct SeqMaster {
        port: MasterPort,
        program: Vec<(BusOp, u64, Vec<u64>)>, // (op, addr, write data) reads use burst=data capacity
        pc: usize,
        pub responses: Vec<BusResponse>,
        /// When the first transaction is issued.
        start: SimDuration,
    }

    impl SeqMaster {
        fn new(bus: ComponentId, program: Vec<(BusOp, u64, Vec<u64>)>) -> Self {
            SeqMaster {
                port: MasterPort::new(bus, 1),
                program,
                pc: 0,
                responses: vec![],
                start: SimDuration::ZERO,
            }
        }

        fn issue_next(&mut self, api: &mut Api<'_>) {
            if let Some((op, addr, data)) = self.program.get(self.pc).cloned() {
                self.pc += 1;
                match op {
                    BusOp::Read => {
                        let burst = data.first().map(|&b| b as usize).unwrap_or(1);
                        self.port.read(api, addr, burst);
                    }
                    BusOp::Write => {
                        self.port.write(api, addr, data);
                    }
                }
            }
        }
    }

    impl Component for SeqMaster {
        fn snapshot(&mut self) -> SimResult<Json> {
            Ok(Json::obj()
                .with("port", self.port.snapshot_json())
                .with("pc", ju64(self.pc as u64))
                .with(
                    "responses",
                    Json::Arr(self.responses.iter().map(Codec::encode).collect()),
                ))
        }

        fn restore(&mut self, state: &Json) -> SimResult<()> {
            self.port.restore_json(snap::field(state, "port")?)?;
            self.pc = snap::usize_field(state, "pc")?;
            self.responses = snap::arr_field(state, "responses")?
                .iter()
                .map(BusResponse::decode)
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| snap::err("malformed recorded response"))?;
            Ok(())
        }

        fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
            match msg.kind {
                MsgKind::Start if self.start.is_zero() => self.issue_next(api),
                MsgKind::Start => api.timer_in(self.start, 0),
                MsgKind::Timer(_) => self.issue_next(api),
                _ => {
                    if let Ok(resp) = self.port.take_response(api, msg) {
                        self.responses.push(resp);
                        self.issue_next(api);
                    }
                }
            }
        }
    }

    fn build(mode: BusMode) -> (Simulator, ComponentId, ComponentId) {
        let mut sim = Simulator::new();
        // ids: 0 = master, 1 = bus, 2 = slave
        let mut map = AddressMap::new();
        ok(map.add(0x100, 0x10F, 2));
        let cfg = BusConfig {
            mode,
            ..BusConfig::default()
        };
        let master = sim.add(
            "master",
            SeqMaster::new(
                1,
                vec![
                    (BusOp::Write, 0x100, vec![7, 8]),
                    (BusOp::Read, 0x100, vec![2]), // burst 2
                ],
            ),
        );
        let bus = sim.add("bus", Bus::new(cfg, map));
        let _slave = sim.add(
            "slave",
            SlaveAdapter::new(RegisterFile::new("rf", 0x100, 16, 1), 100),
        );
        (sim, master, bus)
    }

    #[test]
    fn write_then_read_roundtrip_split() {
        let (mut sim, master, bus) = build(BusMode::Split);
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        let m = sim.get::<SeqMaster>(master);
        assert_eq!(m.responses.len(), 2);
        assert!(m.responses.iter().all(|r| r.is_ok()));
        assert_eq!(m.responses[1].data, vec![7, 8]);
        let b = sim.get::<Bus>(bus);
        assert_eq!(b.stats.requests, 2);
        assert_eq!(b.stats.responses, 2);
        assert_eq!(b.stats.words, 4); // 2 written + 2 read
        assert_eq!(b.stats.decode_errors, 0);
    }

    #[test]
    fn write_then_read_roundtrip_blocking() {
        let (mut sim, master, _) = build(BusMode::Blocking);
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        let m = sim.get::<SeqMaster>(master);
        assert_eq!(m.responses.len(), 2);
        assert_eq!(m.responses[1].data, vec![7, 8]);
    }

    #[test]
    fn decode_error_reported() {
        let mut sim = Simulator::new();
        let mut map = AddressMap::new();
        ok(map.add(0x100, 0x10F, 2));
        let master = sim.add(
            "master",
            SeqMaster::new(1, vec![(BusOp::Read, 0xDEAD, vec![1])]),
        );
        sim.add("bus", Bus::new(BusConfig::default(), map));
        sim.add(
            "slave",
            SlaveAdapter::new(RegisterFile::new("rf", 0x100, 16, 1), 100),
        );
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        let m = sim.get::<SeqMaster>(master);
        assert_eq!(m.responses.len(), 1);
        assert_eq!(m.responses[0].status, BusStatus::DecodeError);
        assert_eq!(m.port.errors, 1);
    }

    #[test]
    fn burst_crossing_slaves_is_decode_error() {
        let mut sim = Simulator::new();
        let mut map = AddressMap::new();
        ok(map.add(0x100, 0x103, 2));
        let master = sim.add(
            "master",
            // Read 8 words starting at 0x100: runs past the slave.
            SeqMaster::new(1, vec![(BusOp::Read, 0x100, vec![8])]),
        );
        sim.add("bus", Bus::new(BusConfig::default(), map));
        sim.add(
            "slave",
            SlaveAdapter::new(RegisterFile::new("rf", 0x100, 4, 1), 100),
        );
        ok(sim.run());
        let m = sim.get::<SeqMaster>(master);
        assert_eq!(m.responses[0].status, BusStatus::DecodeError);
    }

    #[test]
    fn timing_blocking_single_read() {
        // Blocking read of 1 word at 100 MHz (10ns cycles), setup 1,
        // cpw 1, slave 1 cycle:
        //   request phase  = 1 cycle  (10 ns)
        //   slave service  = 1 cycle  (10 ns)
        //   response phase = 1 setup + 1 word = 2 cycles (20 ns)
        // plus delta deliveries at zero time. Total simulated time = 40 ns.
        let mut sim = Simulator::new();
        let mut map = AddressMap::new();
        ok(map.add(0x0, 0xF, 2));
        let cfg = BusConfig {
            mode: BusMode::Blocking,
            ..BusConfig::default()
        };
        sim.add(
            "master",
            SeqMaster::new(1, vec![(BusOp::Read, 0x0, vec![1])]),
        );
        sim.add("bus", Bus::new(cfg, map));
        sim.add(
            "slave",
            SlaveAdapter::new(RegisterFile::new("rf", 0x0, 16, 1), 100),
        );
        ok(sim.run());
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::ns(40));
    }

    #[test]
    fn split_mode_overlaps_two_masters() {
        // Two masters each read from a slow slave (20 cycles). In split
        // mode the second request's address phase proceeds while the first
        // slave access is in flight, so total time is well below the
        // blocking-mode serialization.
        let run = |mode: BusMode| {
            let mut sim = Simulator::new();
            let mut map = AddressMap::new();
            ok(map.add(0x0, 0xFF, 3));
            let cfg = BusConfig {
                mode,
                ..BusConfig::default()
            };
            sim.add("m0", SeqMaster::new(2, vec![(BusOp::Read, 0x0, vec![1])]));
            sim.add("m1", SeqMaster::new(2, vec![(BusOp::Read, 0x10, vec![1])]));
            sim.add("bus", Bus::new(cfg, map));
            sim.add(
                "slave",
                SlaveAdapter::new(RegisterFile::new("rf", 0x0, 256, 20), 100),
            );
            assert!(sim.run().is_ok());
            sim.now().as_fs()
        };
        let split = run(BusMode::Split);
        let blocking = run(BusMode::Blocking);
        assert!(
            split < blocking,
            "split {split} should finish before blocking {blocking}"
        );
    }

    #[test]
    fn tdma_bus_grants_only_in_owner_slots() {
        // Two masters, TDMA slots of 1us each. Master 1 owns even slots,
        // master 0 (id 0) owns odd... owners = [0, 3] means master ids.
        let mut sim = Simulator::new();
        // ids: m0=0, m1=1, bus=2, slave=3.
        let mut map = AddressMap::new();
        ok(map.add(0x0, 0xFF, 3));
        let cfg = BusConfig {
            arbiter: ArbiterKind::Tdma {
                owners: vec![0, 1],
                slot: SimDuration::us(1),
            },
            ..BusConfig::default()
        };
        sim.add("m0", SeqMaster::new(2, vec![(BusOp::Read, 0x0, vec![1])]));
        sim.add("m1", SeqMaster::new(2, vec![(BusOp::Read, 0x1, vec![1])]));
        sim.add("bus", Bus::new(cfg, map));
        sim.add(
            "slave",
            SlaveAdapter::new(RegisterFile::new("rf", 0x0, 256, 1), 100),
        );
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        // Both complete; master 1's request had to wait for its slot
        // (slot 1 starts at 1us).
        let m0 = sim.get::<SeqMaster>(0);
        let m1 = sim.get::<SeqMaster>(1);
        assert_eq!(m0.responses.len(), 1);
        assert_eq!(m1.responses.len(), 1);
        assert!(
            sim.now() >= SimTime::ZERO + SimDuration::us(1),
            "master 1 must have waited for its TDMA slot, ended {}",
            sim.now()
        );
    }

    #[test]
    fn tdma_retry_fires_when_no_owner_pending() {
        // Only the slot-1 owner requests during slot 0: the bus must arm a
        // retry at the slot boundary instead of idling forever.
        let mut sim = Simulator::new();
        // ids: m0=0, bus=1, slave=2.
        let mut map = AddressMap::new();
        ok(map.add(0x0, 0xFF, 2));
        let cfg = BusConfig {
            arbiter: ArbiterKind::Tdma {
                owners: vec![99, 0], // slot 0 owned by an absent master
                slot: SimDuration::us(1),
            },
            ..BusConfig::default()
        };
        sim.add("m0", SeqMaster::new(1, vec![(BusOp::Read, 0x0, vec![1])]));
        sim.add("bus", Bus::new(cfg, map));
        sim.add(
            "slave",
            SlaveAdapter::new(RegisterFile::new("rf", 0x0, 256, 1), 100),
        );
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        let m0 = sim.get::<SeqMaster>(0);
        assert_eq!(m0.responses.len(), 1, "request served in master 0's slot");
        assert!(sim.now() >= SimTime::ZERO + SimDuration::us(1));
    }

    #[test]
    fn injected_fault_range_fails_the_run() {
        let mut sim = Simulator::new();
        let mut map = AddressMap::new();
        ok(map.add(0x100, 0x10F, 2));
        let cfg = BusConfig {
            fault_ranges: vec![(0x108, 0x10B)],
            ..BusConfig::default()
        };
        let master = sim.add(
            "master",
            SeqMaster::new(1, vec![(BusOp::Read, 0x108, vec![1])]),
        );
        let bus = sim.add("bus", Bus::new(cfg, map));
        sim.add(
            "slave",
            SlaveAdapter::new(RegisterFile::new("rf", 0x100, 16, 1), 100),
        );
        let err = sim.run().expect_err("injected fault must fail the run");
        assert_eq!(err.kind, SimErrorKind::Fault);
        assert_eq!(err.component.as_deref(), Some("bus"));
        // The master still observed a well-formed error response.
        let m = sim.get::<SeqMaster>(master);
        assert_eq!(m.responses.len(), 1);
        assert_eq!(m.responses[0].status, BusStatus::SlaveError);
        assert_eq!(m.port.errors, 1);
        assert_eq!(sim.get::<Bus>(bus).stats.injected_faults, 1);
    }

    #[test]
    fn fault_ranges_catch_bursts_that_graze_the_range() {
        let cfg = BusConfig {
            fault_ranges: vec![(0x108, 0x10B)],
            ..BusConfig::default()
        };
        assert!(cfg.fault_at(0x108, 1));
        assert!(cfg.fault_at(0x100, 16), "burst overlapping from below");
        assert!(cfg.fault_at(0x10B, 4), "burst starting at the top word");
        assert!(!cfg.fault_at(0x100, 8));
        assert!(!cfg.fault_at(0x10C, 4));
    }

    #[test]
    fn escalated_decode_miss_is_a_typed_error() {
        let mut sim = Simulator::new();
        let mut map = AddressMap::new();
        ok(map.add(0x100, 0x10F, 2));
        let cfg = BusConfig {
            escalate_decode_errors: true,
            ..BusConfig::default()
        };
        let master = sim.add(
            "master",
            SeqMaster::new(1, vec![(BusOp::Read, 0xDEAD, vec![1])]),
        );
        sim.add("bus", Bus::new(cfg, map));
        sim.add(
            "slave",
            SlaveAdapter::new(RegisterFile::new("rf", 0x100, 16, 1), 100),
        );
        let err = sim.run().expect_err("unmapped access must fail the run");
        assert_eq!(err.kind, SimErrorKind::Decode);
        // The DecodeError response is still delivered either way.
        let m = sim.get::<SeqMaster>(master);
        assert_eq!(m.responses[0].status, BusStatus::DecodeError);
    }

    #[test]
    fn malformed_request_is_a_typed_bus_error() {
        let mut sim = Simulator::new();
        let mut map = AddressMap::new();
        ok(map.add(0x0, 0xFF, 1));
        // id 0 = bus. Inject a zero-burst request straight at it.
        sim.add("bus", Bus::new(BusConfig::default(), map));
        sim.add(
            "rogue",
            FnComponent::new(|api, msg| {
                if matches!(msg.kind, MsgKind::Start) {
                    api.send(
                        0,
                        BusRequest {
                            id: 1,
                            master: 1,
                            op: BusOp::Read,
                            addr: 0x0,
                            burst: 0,
                            data: vec![],
                            priority: 0,
                        },
                        Delay::Delta,
                    );
                }
            }),
        );
        let err = sim.run().expect_err("zero burst must fail the run");
        assert_eq!(err.kind, SimErrorKind::BusError);
        assert_eq!(err.component.as_deref(), Some("bus"));
    }

    #[test]
    fn transactions_trace_balanced_spans_and_per_master_waits() {
        let (mut sim, master, bus) = build(BusMode::Split);
        sim.enable_observe(4096);
        ok(sim.run());
        let evs = sim.observe_events();
        let begins = evs
            .iter()
            .filter(|e| e.kind == TraceEventKind::Begin)
            .count();
        let ends = evs.iter().filter(|e| e.kind == TraceEventKind::End).count();
        assert!(begins > 0, "bus phases must open spans");
        assert_eq!(begins, ends, "every bus span must close");
        assert!(evs
            .iter()
            .any(|e| e.name == "grant" && e.value == master as u64));
        let b = sim.get::<Bus>(bus);
        let c = b.stats.contention(|id| sim.component_name(id).to_string());
        assert_eq!(
            c.rows.iter().map(|r| r.grants).sum::<u64>(),
            b.stats.total_grants()
        );
        assert!(c.rows.iter().any(|r| r.master == "master"));
    }

    #[test]
    fn bus_utilization_is_sane() {
        let (mut sim, _, bus) = build(BusMode::Split);
        ok(sim.run());
        let now = sim.now();
        let b = sim.get::<Bus>(bus);
        let u = b.stats.utilization(now);
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
        assert!(b.stats.max_queue >= 1);
        assert_eq!(b.stats.total_grants(), b.stats.requests + b.stats.responses);
    }

    // ---- configuration-train fast path -------------------------------

    use crate::memory::{Memory, MemoryConfig};
    use crate::protocol::{
        ConfigTrain, ConfigTrainDecoalesced, ConfigTrainDone, ConfigTrainRejected, TrainBurst,
    };

    /// When a master starts in a world with a lead read: after the lead's
    /// request phase, while the memory still serves it.
    const LEAD_START: SimDuration = SimDuration::ns(15);

    /// Offers its whole burst list as one [`ConfigTrain`] and falls back to
    /// per-burst transactions on rejection or de-coalesce, exactly like the
    /// fabric's configuration controller.
    struct TrainMaster {
        bus: ComponentId,
        port: MasterPort,
        bursts: Vec<TrainBurst>,
        pc: usize,
        outcome: Option<&'static str>,
        done_words: u64,
        deco: Option<ConfigTrainDecoalesced>,
        finished_at: Option<SimTime>,
        /// When the train is offered.
        start: SimDuration,
    }

    impl TrainMaster {
        fn new(bus: ComponentId, bursts: Vec<TrainBurst>) -> Self {
            TrainMaster {
                bus,
                port: MasterPort::new(bus, 1),
                bursts,
                pc: 0,
                outcome: None,
                done_words: 0,
                deco: None,
                finished_at: None,
                start: SimDuration::ZERO,
            }
        }

        fn offer(&mut self, api: &mut Api<'_>) {
            api.send(
                self.bus,
                ConfigTrain {
                    master: api.me(),
                    priority: 1,
                    tag: 42,
                    runs: self.bursts.iter().copied().collect(),
                },
                Delay::Delta,
            );
        }

        fn issue_next(&mut self, api: &mut Api<'_>) {
            if let Some(b) = self.bursts.get(self.pc).cloned() {
                self.pc += 1;
                match b.op {
                    BusOp::Read => {
                        self.port.read(api, b.addr, b.words);
                    }
                    BusOp::Write => {
                        self.port.write(api, b.addr, vec![0; b.words]);
                    }
                }
            } else {
                self.finished_at = Some(api.now());
            }
        }
    }

    impl Component for TrainMaster {
        fn snapshot(&mut self) -> SimResult<Json> {
            use crate::snapshot::time_json;
            Ok(Json::obj()
                .with("port", self.port.snapshot_json())
                .with("pc", ju64(self.pc as u64))
                .with(
                    "outcome",
                    self.outcome.map_or(Json::Null, |s| Json::Str(s.into())),
                )
                .with("done_words", ju64(self.done_words))
                .with(
                    "deco",
                    match &self.deco {
                        None => Json::Null,
                        Some(d) => d.encode(),
                    },
                )
                .with(
                    "finished_at",
                    self.finished_at.map_or(Json::Null, time_json),
                ))
        }

        fn restore(&mut self, state: &Json) -> SimResult<()> {
            use crate::snapshot::time_of;
            self.port.restore_json(snap::field(state, "port")?)?;
            self.pc = snap::usize_field(state, "pc")?;
            self.outcome = match snap::field(state, "outcome")? {
                Json::Null => None,
                j => match j.as_str() {
                    Some("done") => Some("done"),
                    Some("rejected") => Some("rejected"),
                    Some("decoalesced") => Some("decoalesced"),
                    _ => return Err(snap::err("unknown train outcome")),
                },
            };
            self.done_words = snap::u64_field(state, "done_words")?;
            self.deco = match snap::field(state, "deco")? {
                Json::Null => None,
                j => Some(
                    ConfigTrainDecoalesced::decode(j)
                        .ok_or_else(|| snap::err("malformed deco payload"))?,
                ),
            };
            self.finished_at = match snap::field(state, "finished_at")? {
                Json::Null => None,
                j => Some(time_of(j).ok_or_else(|| snap::err("bad time"))?),
            };
            Ok(())
        }

        fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
            let msg = match msg.kind {
                MsgKind::Start if self.start.is_zero() => return self.offer(api),
                MsgKind::Start => return api.timer_in(self.start, 0),
                MsgKind::Timer(_) => return self.offer(api),
                _ => msg,
            };
            let msg = match msg.user::<ConfigTrainDone>() {
                Ok(d) => {
                    self.outcome = Some("done");
                    self.done_words = d.words;
                    self.finished_at = Some(api.now());
                    return;
                }
                Err(m) => m,
            };
            let msg = match msg.user::<ConfigTrainRejected>() {
                Ok(_) => {
                    self.outcome = Some("rejected");
                    self.issue_next(api);
                    return;
                }
                Err(m) => m,
            };
            let msg = match msg.user::<ConfigTrainDecoalesced>() {
                Ok(d) => {
                    self.outcome = Some("decoalesced");
                    self.deco = Some(d);
                    self.pc = d.done_bursts;
                    if let Some(f) = d.in_flight {
                        self.port.adopt(api, f.id, f.issued_at);
                        self.pc += 1;
                    } else {
                        self.issue_next(api);
                    }
                    return;
                }
                Err(m) => m,
            };
            if self.port.take_response(api, msg).is_ok() {
                self.issue_next(api);
            }
        }
    }

    /// A rival master: a read of `lead` words at time zero, if set, and a
    /// two-word read after `delay`, if set.
    struct DelayedReader {
        port: MasterPort,
        lead: Option<usize>,
        delay: Option<SimDuration>,
    }

    impl Component for DelayedReader {
        fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
            match msg.kind {
                MsgKind::Start => {
                    if let Some(words) = self.lead {
                        self.port.read(api, 0x300, words);
                    }
                    if let Some(delay) = self.delay {
                        api.timer_in(delay, 0);
                    }
                }
                MsgKind::Timer(_) => {
                    self.port.read(api, 0x210, 2);
                }
                _ => {
                    let _ = self.port.take_response(api, msg);
                }
            }
        }
    }

    fn train_bursts() -> Vec<TrainBurst> {
        vec![
            TrainBurst {
                op: BusOp::Write,
                addr: 0x200,
                words: 8,
            },
            TrainBurst {
                op: BusOp::Read,
                addr: 0x208,
                words: 8,
            },
            TrainBurst {
                op: BusOp::Read,
                addr: 0x210,
                words: 8,
            },
        ]
    }

    /// ids: 0 = train/seq master, 1 = bus, 2 = memory, 3 = rival (optional).
    /// `rival_delay` arms the delayed reader; `train` selects the offering
    /// master vs the per-burst reference master with the same program.
    fn build_train_world(
        train: bool,
        register_timing: bool,
        rival_delay: Option<SimDuration>,
    ) -> (Simulator, ComponentId, ComponentId) {
        build_train_world_with(train_bursts(), train, register_timing, rival_delay)
    }

    /// [`build_train_world`] with the master's burst list given.
    fn build_train_world_with(
        bursts: Vec<TrainBurst>,
        train: bool,
        register_timing: bool,
        rival_delay: Option<SimDuration>,
    ) -> (Simulator, ComponentId, ComponentId) {
        let timing = register_timing.then(|| train_world_memory().slave_timing());
        build_timed_train_world(
            bursts,
            train,
            BusConfig::default(),
            timing,
            rival_delay,
            None,
        )
    }

    /// The train world's memory: 0x2000 words from 0x200.
    fn train_world_memory() -> MemoryConfig {
        MemoryConfig {
            base: 0x200,
            size_words: 0x2000,
            ..MemoryConfig::default()
        }
    }

    /// [`build_train_world_with`] with the bus configuration and the slave
    /// timing registered with the bus (if any) given. With a `lead`, the
    /// rival reads that many words at time zero and the master starts at
    /// [`LEAD_START`], while the memory still serves the lead read.
    fn build_timed_train_world(
        bursts: Vec<TrainBurst>,
        train: bool,
        bus_cfg: BusConfig,
        timing: Option<SlaveTiming>,
        rival_delay: Option<SimDuration>,
        lead: Option<usize>,
    ) -> (Simulator, ComponentId, ComponentId) {
        let mut sim = Simulator::new();
        let mut map = AddressMap::new();
        ok(map.add(0x200, 0x21FF, 2));
        let mem_cfg = train_world_memory();
        let start = lead.map_or(SimDuration::ZERO, |_| LEAD_START);
        let master = if train {
            let mut m = TrainMaster::new(1, bursts);
            m.start = start;
            sim.add("train", m)
        } else {
            let program: Vec<(BusOp, u64, Vec<u64>)> = bursts
                .into_iter()
                .map(|b| {
                    let payload = match b.op {
                        BusOp::Read => vec![b.words as u64],
                        BusOp::Write => vec![0; b.words],
                    };
                    (b.op, b.addr, payload)
                })
                .collect();
            let mut m = SeqMaster::new(1, program);
            m.start = start;
            sim.add("train", m)
        };
        let mut bus = Bus::new(bus_cfg, map);
        if let Some(timing) = timing {
            bus.register_slave_timing(2, timing);
        }
        let bus = sim.add("bus", bus);
        let _mem = sim.add("mem", Memory::new(mem_cfg));
        if rival_delay.is_some() || lead.is_some() {
            sim.add(
                "rival",
                DelayedReader {
                    port: MasterPort::new(1, 2),
                    lead,
                    delay: rival_delay,
                },
            );
        }
        (sim, master, bus)
    }

    /// Reference observables: finish time plus the bus statistics the train
    /// path must reproduce bit for bit.
    fn observe(train: bool, rival_delay: Option<SimDuration>) -> (SimTime, u64, u64, u64, String) {
        let (mut sim, master, bus) = build_train_world(train, true, rival_delay);
        ok(sim.run());
        // Sanity: the master observed the end of its whole program.
        if train {
            assert!(sim.get::<TrainMaster>(master).finished_at.is_some());
        } else {
            assert_eq!(sim.get::<SeqMaster>(master).responses.len(), 3);
        }
        let b = sim.get::<Bus>(bus);
        let waits = format!("{:?}", b.stats.contention(|id| format!("m{id}")));
        (
            // Quiescent time covers the master's and the rival's traffic.
            sim.now(),
            b.stats.requests,
            b.stats.responses,
            b.stats.words,
            waits,
        )
    }

    #[test]
    fn config_train_accepted_and_matches_per_burst_timing() {
        let (mut sim, master, _) = build_train_world(true, true, None);
        ok(sim.run());
        let m = sim.get::<TrainMaster>(master);
        assert_eq!(m.outcome, Some("done"));
        assert_eq!(m.done_words, 24);
        // The per-burst reference world ends at the same simulated time
        // with identical bus statistics and per-master waits.
        assert_eq!(observe(true, None), observe(false, None));
    }

    #[test]
    fn config_train_rejected_without_registered_slave_timing() {
        let (mut sim, master, _) = build_train_world(true, false, None);
        ok(sim.run());
        let m = sim.get::<TrainMaster>(master);
        assert_eq!(m.outcome, Some("rejected"));
        // The fallback still moves every word.
        assert!(m.finished_at.is_some());
    }

    #[test]
    fn config_train_decoalesces_on_foreign_traffic_and_stays_equivalent() {
        // Sweep the rival's arrival across the window so every de-coalesce
        // case (request phase, slave service, response phase, done prefix)
        // is exercised; each must match the per-burst world exactly.
        let mut saw_decoalesce = false;
        for ns in (0..400).step_by(7) {
            let delay = SimDuration::ns(ns);
            let (mut sim, master, _) = build_train_world(true, true, Some(delay));
            ok(sim.run());
            let m = sim.get::<TrainMaster>(master);
            if m.outcome == Some("decoalesced") {
                saw_decoalesce = true;
                let d = m.deco.as_ref().map(|d| d.done_bursts);
                assert!(d.unwrap_or(0) <= 3, "prefix within the train: {d:?}");
            }
            assert_eq!(
                observe(true, Some(delay)),
                observe(false, Some(delay)),
                "divergence with rival at {ns}ns"
            );
        }
        assert!(saw_decoalesce, "the sweep must hit mid-window arrivals");
    }

    /// Everything the split-world run can externally observe, for
    /// restore-vs-straight comparisons.
    fn split_observables(sim: &Simulator, master: ComponentId, bus: ComponentId) -> String {
        let m = sim.get::<SeqMaster>(master);
        let b = sim.get::<Bus>(bus);
        format!(
            "now={:?} responses={:?} stats={}",
            sim.now(),
            m.responses,
            b.stats.snapshot_json(),
        )
    }

    #[test]
    fn snapshot_mid_split_transaction_restores_bit_identical() {
        // Run to 15 ns: the write's 3-cycle request phase (30 ns) is still
        // in flight, so the bus is mid-transaction with a timer pending.
        let (mut sim, master, bus) = build(BusMode::Split);
        ok(sim.run_until(SimTime::ZERO + SimDuration::ns(15)));
        assert!(
            !matches!(sim.get::<Bus>(bus).state, State::Idle),
            "snapshot must land mid-transaction"
        );
        let snap = ok(sim.snapshot());

        let (mut fresh, master2, bus2) = build(BusMode::Split);
        ok(fresh.restore(&snap));
        ok(fresh.run());
        ok(sim.run());
        assert_eq!(
            split_observables(&sim, master, bus),
            split_observables(&fresh, master2, bus2),
        );
    }

    #[test]
    fn snapshot_mid_config_train_restores_bit_identical() {
        // Run into the analytic train window, snapshot while the train is
        // active, and check the restored world finishes identically.
        let (mut sim, master, bus) = build_train_world(true, true, None);
        ok(sim.run_until(SimTime::ZERO + SimDuration::ns(100)));
        assert!(
            sim.get::<Bus>(bus).train.is_some(),
            "snapshot must land inside the train window"
        );
        let snap = ok(sim.snapshot());

        let (mut fresh, master2, bus2) = build_train_world(true, true, None);
        ok(fresh.restore(&snap));
        ok(fresh.run());
        ok(sim.run());

        let view = |s: &Simulator, master: ComponentId, bus: ComponentId| {
            let m = s.get::<TrainMaster>(master);
            let b = s.get::<Bus>(bus);
            format!(
                "now={:?} outcome={:?} words={} finished={:?} stats={}",
                s.now(),
                m.outcome,
                m.done_words,
                m.finished_at,
                b.stats.snapshot_json(),
            )
        };
        assert_eq!(view(&sim, master, bus), view(&fresh, master2, bus2));
        assert_eq!(sim.get::<TrainMaster>(master).outcome, Some("done"));
    }

    /// The per-burst phase schedule of a train offered at `now` to a slave
    /// whose port frees at `slave_busy_at_start`, burst by burst: back to
    /// back on the bus, each reply served in order behind the previous
    /// one. The reference for the closed-form [`TrainRun`] schedule.
    fn reference_schedule(
        cfg: &BusConfig,
        timing: SlaveTiming,
        now: SimTime,
        slave_busy_at_start: SimTime,
        bursts: &[TrainBurst],
    ) -> Vec<BurstSched> {
        let mut sched = Vec::with_capacity(bursts.len());
        let mut grant = now;
        let mut slave_free = now.max(slave_busy_at_start);
        for b in bursts {
            let access = grant + cfg.cycles(cfg.request_cycles(b.op, b.words));
            let reply = access.max(slave_free) + timing.service(b.op, b.words);
            slave_free = reply;
            let end = reply + cfg.cycles(cfg.response_cycles(b.op, b.words));
            sched.push(BurstSched {
                grant,
                access,
                reply,
                end,
            });
            grant = end;
        }
        sched
    }

    /// The per-burst acceptance check on a train's bursts: the reference
    /// for [`Bus::runs_slave`].
    fn reference_slave(bus: &Bus, bursts: impl Iterator<Item = TrainBurst>) -> Option<ComponentId> {
        let mut slave = None;
        for b in bursts {
            if b.words == 0 || bus.cfg.fault_at(b.addr, b.words) {
                return None;
            }
            let s = bus.map.decode_burst(b.addr, b.words)?;
            if *slave.get_or_insert(s) != s {
                return None;
            }
        }
        slave
    }

    /// The per-burst replay of a train burst's request grant, as the bus
    /// did it before completed trains were accounted in one step: the
    /// reference for [`Bus::replay_train_prefix`].
    fn reference_request_grant(
        stats: &mut BusStats,
        arrivals: &mut u64,
        master: ComponentId,
        b: &TrainBurst,
        s: &BurstSched,
    ) {
        stats.requests += 1;
        *arrivals += 1;
        stats.max_queue = stats.max_queue.max(1);
        stats.busy.set_busy(s.grant);
        stats.record_grants(master, SimDuration::ZERO, 1);
        if b.op == BusOp::Write {
            stats.words += b.words as u64;
        }
        stats.busy.set_idle(s.access);
    }

    /// Reference replay of a train burst's response grant.
    fn reference_response_grant(
        stats: &mut BusStats,
        arrivals: &mut u64,
        master: ComponentId,
        b: &TrainBurst,
        s: &BurstSched,
    ) {
        *arrivals += 1;
        stats.max_queue = stats.max_queue.max(1);
        stats.busy.set_busy(s.reply);
        stats.record_grants(master, SimDuration::ZERO, 1);
        if b.op == BusOp::Read {
            stats.words += b.words as u64;
        }
    }

    /// Reference replay of a train burst's response-phase completion.
    fn reference_response_done(stats: &mut BusStats, s: &BurstSched) {
        stats.responses += 1;
        stats.busy.set_idle(s.end);
    }

    /// A small deterministic generator for the randomized train tests.
    /// Deterministic test randomness (a 64-bit LCG's high bits).
    pub(crate) struct Lcg(pub(crate) u64);

    impl Lcg {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }

        /// Uniform in `lo..=hi`.
        pub(crate) fn range(&mut self, lo: u64, hi: u64) -> u64 {
            lo + self.next() % (hi - lo + 1)
        }

        pub(crate) fn flip(&mut self) -> bool {
            self.next() & 1 == 1
        }
    }

    /// A random train of 1–300 bursts within the train world's memory.
    /// Half the trains have the configuration controller's shape: state
    /// save writes and state restore reads at one scratch address, image
    /// reads contiguous from a random address, each group in full bursts
    /// plus a partial last one. Half mix ops, lengths and addresses freely,
    /// now and then repeating the previous burst, so they have many runs,
    /// fixed ones among them.
    fn random_train(rng: &mut Lcg) -> Vec<TrainBurst> {
        let count = rng.range(1, 300) as usize;
        let burst = rng.range(1, 16) as usize;
        if rng.flip() {
            let saves = rng.range(0, count as u64) as usize;
            let restores = rng.range(0, (count - saves) as u64) as usize;
            let images = (count - saves - restores) as u64;
            let state = 0x200 + rng.range(0, 0x2000 - 16);
            let mut image = 0x200 + rng.range(0, 0x2000 - 16 * images);
            return (0..count)
                .map(|i| {
                    let group_last = i + 1 == saves || i + 1 == count - restores || i + 1 == count;
                    let words = if group_last {
                        rng.range(1, burst as u64) as usize
                    } else {
                        burst
                    };
                    let (op, addr) = if i < saves {
                        (BusOp::Write, state)
                    } else if i < count - restores {
                        image += words as u64;
                        (BusOp::Read, image - words as u64)
                    } else {
                        (BusOp::Read, state)
                    };
                    TrainBurst { op, addr, words }
                })
                .collect();
        }
        let mut bursts: Vec<TrainBurst> = Vec::with_capacity(count);
        while bursts.len() < count {
            let repeat = bursts.last().copied().filter(|_| rng.range(0, 3) == 0);
            let b = repeat.unwrap_or_else(|| {
                let op = if rng.flip() {
                    BusOp::Write
                } else {
                    BusOp::Read
                };
                let words = rng.range(1, 16) as usize;
                let addr = 0x200 + rng.range(0, 0x2000 - words as u64);
                TrainBurst { op, addr, words }
            });
            bursts.push(b);
        }
        bursts
    }

    /// The grant, access, reply and end of burst `s`, each ±1 fs, within
    /// `[from, to]`.
    fn boundary_cuts(s: &BurstSched, from: SimTime, to: SimTime) -> Vec<SimTime> {
        [s.grant, s.access, s.reply, s.end]
            .iter()
            .flat_map(|t| [t.as_fs().saturating_sub(1), t.as_fs(), t.as_fs() + 1])
            .map(SimTime)
            .filter(|t| (from..=to).contains(t))
            .collect()
    }

    /// The closed-form schedule and the batched replay against the
    /// per-burst reference. Each case draws bus and slave timings, a train,
    /// a slave busy until before, inside or after the first burst's access,
    /// and statistics from earlier traffic. The train's schedule must equal
    /// the reference burst by burst. Then the train is cut by the window
    /// timer, at random instants, and at the boundaries (±1 fs) of its
    /// first, last and one random burst, or of every burst with
    /// `every_burst`: at each cut the done count, the completed prefix and
    /// the in-flight burst's grants, as `decoalesce` replays them, must
    /// leave the statistics and the arrival counter as the per-burst
    /// replay does.
    fn check_closed_form_trains(seed: u64, cases: usize, every_burst: bool) {
        const MASTER: ComponentId = 4;
        let mut rng = Lcg(seed);
        for case in 0..cases {
            let cfg = BusConfig {
                clock_mhz: [50, 100, 133, 200][rng.range(0, 3) as usize],
                setup_cycles: rng.range(1, 3),
                cycles_per_word: rng.range(1, 2),
                ..BusConfig::default()
            };
            let timing = SlaveTiming {
                clock_mhz: [66, 100, 250][rng.range(0, 2) as usize],
                read_latency: rng.range(0, 6),
                write_latency: rng.range(0, 4),
                per_word: rng.range(0, 2),
            };
            let bursts = random_train(&mut rng);
            let now = SimTime::ZERO + SimDuration::ns(rng.range(100, 10_000));
            let b0 = bursts[0];
            let request = cfg.cycles(cfg.request_cycles(b0.op, b0.words)).as_fs();
            let slave_busy_at_start = match rng.range(0, 2) {
                0 => SimTime::ZERO + SimDuration::ns(rng.range(0, 100)),
                1 => now + SimDuration::fs(rng.range(0, request)),
                _ => now + SimDuration::fs(request + rng.range(1, 500_000_000)),
            };
            // Statistics from earlier traffic: the train's master already
            // granted or not, another master, some busy history, and the
            // tracker possibly still busy from a phase ending at `now`.
            let master_seen = rng.flip();
            let other_seen = rng.flip();
            let still_busy = rng.range(0, 3) == 0;
            let arrivals0 = rng.range(0, 50);
            let seeded = || {
                let mut s = BusStats::default();
                if other_seen {
                    s.record_grants(9, SimDuration::ns(40), 1);
                }
                if master_seen {
                    s.record_grants(MASTER, SimDuration::ns(25), 1);
                }
                s.requests = arrivals0 / 2;
                s.responses = arrivals0 / 2;
                s.max_queue = (arrivals0 % 3) as usize;
                s.busy.set_busy(SimTime::ZERO + SimDuration::ns(10));
                if !still_busy {
                    s.busy.set_idle(SimTime::ZERO + SimDuration::ns(60));
                }
                s
            };

            let mut bus = Bus::new(cfg.clone(), AddressMap::new());
            let want = reference_schedule(&cfg, timing, now, slave_busy_at_start, &bursts);
            let runs: BurstRuns = bursts.iter().copied().collect();
            let (first, end) = bus
                .train_window(timing, now, slave_busy_at_start, &runs)
                .expect("non-empty train");
            let tr = TrainRun {
                master: MASTER,
                priority: 1,
                tag: 7,
                slave: 2,
                timing,
                started: now,
                slave_busy_at_start,
                runs,
                first,
                end,
                timer: TimerHandle::from_raw(0),
            };
            let got: Vec<BurstSched> = (0..=bursts.len())
                .map_while(|j| tr.sched(&cfg, j))
                .collect();
            assert_eq!(got, want, "case {case}: schedule");
            let last = want[want.len() - 1];
            assert_eq!((tr.end, tr.last_reply(&cfg)), (last.end, last.reply));

            let mut cuts = vec![end];
            for _ in 0..4 {
                cuts.push(SimTime(rng.range(now.as_fs(), end.as_fs())));
            }
            let picked: Vec<usize> = if every_burst {
                (0..bursts.len()).collect()
            } else {
                vec![
                    0,
                    rng.range(0, bursts.len() as u64 - 1) as usize,
                    bursts.len() - 1,
                ]
            };
            for j in picked {
                cuts.extend(boundary_cuts(&want[j], now, end));
            }
            for cut in cuts {
                bus.stats = seeded();
                bus.arrivals = arrivals0;
                let mut want_stats = seeded();
                let mut want_arrivals = arrivals0;
                let done = want.iter().take_while(|s| s.end <= cut).count();
                assert_eq!(tr.done_by(&cfg, cut), done, "case {case}: done at {cut:?}");
                bus.replay_train_prefix(&tr, done);
                for (b, s) in bursts.iter().zip(&want).take(done) {
                    reference_request_grant(&mut want_stats, &mut want_arrivals, MASTER, b, s);
                    reference_response_grant(&mut want_stats, &mut want_arrivals, MASTER, b, s);
                    reference_response_done(&mut want_stats, s);
                }
                if let (Some(b), Some(s)) = (bursts.get(done), want.get(done)) {
                    if s.grant < cut || (done == 0 && s.grant == cut) {
                        bus.replay_request_grant(MASTER, b, s);
                        reference_request_grant(&mut want_stats, &mut want_arrivals, MASTER, b, s);
                        if cut >= s.reply {
                            bus.replay_response_grant(MASTER, b, s);
                            reference_response_grant(
                                &mut want_stats,
                                &mut want_arrivals,
                                MASTER,
                                b,
                                s,
                            );
                        }
                    }
                }
                assert_eq!(
                    (bus.stats.snapshot_json().to_string(), bus.arrivals),
                    (want_stats.snapshot_json().to_string(), want_arrivals),
                    "case {case}: {} bursts cut at {cut:?} ({done} done)",
                    bursts.len()
                );
            }
        }
    }

    #[test]
    fn batched_train_replay_matches_the_per_burst_replay() {
        check_closed_form_trains(0x7261_696e, 200, false);
    }

    /// The heavy version: thousands of trains, each cut at every burst's
    /// boundaries. Run with `cargo test --release -p drcf-bus -- --ignored`.
    #[test]
    #[ignore = "heavy; run in release"]
    fn batched_train_replay_matches_the_per_burst_replay_at_every_cut() {
        check_closed_form_trains(0x6375_7473, 2000, true);
    }

    /// End-to-end through the simulator: random trains completed by the
    /// window timer, or cut by a rival's request at a random instant or at
    /// a burst boundary ±1 fs, some offered while the memory still serves
    /// a lead read, leave the bus exactly as the per-burst world does —
    /// every statistic, the arrival counter and the finish time.
    fn check_trains_in_the_simulator(seed: u64, cases: usize) {
        let timing = train_world_memory().slave_timing();
        let mut rng = Lcg(seed);
        let (mut saw_decoalesce, mut saw_slave_busy) = (false, false);
        for case in 0..cases {
            let bursts = random_train(&mut rng);
            let lead = rng.flip().then(|| rng.range(1, 64) as usize);
            let world = |train: bool, rival: Option<SimDuration>| {
                let cfg = BusConfig::default();
                build_timed_train_world(bursts.clone(), train, cfg, Some(timing), rival, lead)
            };
            // The window as the bus lays it out, burst by burst.
            let (mut sim, _, bus) = world(true, None);
            let start = SimTime::ZERO + lead.map_or(SimDuration::ZERO, |_| LEAD_START);
            ok(sim.run_until(start + SimDuration::fs(1)));
            let t = sim.get::<Bus>(bus).train.as_ref().expect("train accepted");
            let (started, busy) = (t.started, t.slave_busy_at_start);
            let want = reference_schedule(&BusConfig::default(), timing, started, busy, &bursts);
            saw_slave_busy |= busy > want[0].access;
            let end = want[want.len() - 1].end;
            let rival = match rng.range(0, 2) {
                0 => None,
                1 => Some(SimTime(rng.range(0, end.as_fs()))),
                _ => {
                    let s = want[rng.range(0, bursts.len() as u64 - 1) as usize];
                    let cuts = boundary_cuts(&s, SimTime::ZERO, end);
                    Some(cuts[rng.range(0, cuts.len() as u64 - 1) as usize])
                }
            }
            .map(|t| t.since(SimTime::ZERO));
            let mut run = |train: bool| {
                let (mut sim, master, bus) = world(train, rival);
                ok(sim.run());
                if train {
                    let m = sim.get::<TrainMaster>(master);
                    assert!(m.finished_at.is_some(), "case {case}: train finished");
                    saw_decoalesce |= m.outcome == Some("decoalesced");
                }
                let b = sim.get::<Bus>(bus);
                (sim.now(), b.stats.snapshot_json().to_string(), b.arrivals)
            };
            let per_burst = run(false);
            assert_eq!(
                run(true),
                per_burst,
                "case {case}: rival {rival:?}, lead {lead:?}"
            );
        }
        assert!(saw_decoalesce, "some rivals must land mid-window");
        assert!(saw_slave_busy, "some trains must wait for the slave");
    }

    #[test]
    fn random_trains_match_the_per_burst_world() {
        check_trains_in_the_simulator(0x6275_7273, 40);
    }

    /// The heavy version of [`random_trains_match_the_per_burst_world`].
    #[test]
    #[ignore = "heavy; run in release"]
    fn random_trains_match_the_per_burst_world_at_scale() {
        check_trains_in_the_simulator(0x7363_616c, 2000);
    }

    /// A random train in the train world's memory built from groups of
    /// bursts: each group has its own op and burst size, may end in a
    /// partial burst, and either repeats one address or is contiguous,
    /// starting where the previous group ended or at an unrelated address.
    /// 1–300 bursts in all.
    fn random_run_train(rng: &mut Lcg) -> Vec<TrainBurst> {
        let total = rng.range(1, 300) as usize;
        let mut bursts: Vec<TrainBurst> = Vec::with_capacity(total);
        while bursts.len() < total {
            let op = if rng.flip() {
                BusOp::Write
            } else {
                BusOp::Read
            };
            let size = rng.range(1, 16) as usize;
            let len = (rng.range(1, 40) as usize).min(total - bursts.len());
            let partial = rng.flip().then(|| rng.range(1, size as u64) as usize);
            let fixed = rng.range(0, 2) == 0;
            let span = if fixed { size } else { len * size } as u64;
            let mut addr = match bursts.last() {
                Some(b) if rng.flip() && b.addr + b.words as u64 + span <= 0x2200 => {
                    b.addr + b.words as u64
                }
                _ => 0x200 + rng.range(0, 0x2000 - span),
            };
            for k in 0..len {
                let words = match partial {
                    Some(w) if k + 1 == len => w,
                    _ => size,
                };
                bursts.push(TrainBurst { op, addr, words });
                if !fixed {
                    addr += words as u64;
                }
            }
        }
        bursts
    }

    /// The active train's runs and its schedule burst by burst, if a train
    /// is in flight.
    fn live_train(sim: &Simulator, bus: ComponentId) -> Option<(BurstRuns, Vec<BurstSched>)> {
        let b = sim.get::<Bus>(bus);
        let t = b.train.as_ref()?;
        let sched = (0..=t.runs.len()).map_while(|j| t.sched(&b.cfg, j));
        Some((t.runs.clone(), sched.collect()))
    }

    /// A train document carries the offer, not the schedule: cut anywhere
    /// inside the window, at random or at a burst boundary ±1 fs, the
    /// restored bus rebuilds exactly the live runs and schedule, which
    /// equal the per-burst reference, and finishes the run as the live
    /// one does.
    #[test]
    fn restored_train_rebuilds_the_live_bursts_and_schedule() {
        let timing = train_world_memory().slave_timing();
        let mut rng = Lcg(0x7275_6e73);
        for case in 0..60 {
            let bursts = random_run_train(&mut rng);
            let (mut sim, master, bus) = build_train_world_with(bursts.clone(), true, true, None);
            ok(sim.run_until(SimTime::ZERO + SimDuration::ns(1)));
            let t = sim.get::<Bus>(bus).train.as_ref().expect("train accepted");
            let (started, end) = (t.started, t.end);
            let want = reference_schedule(&BusConfig::default(), timing, started, started, &bursts);
            let inside = (started + SimDuration::fs(1), end - SimDuration::fs(1));
            let cut = if rng.flip() {
                SimTime(rng.range(inside.0.as_fs(), inside.1.as_fs()))
            } else {
                let s = want[rng.range(0, bursts.len() as u64 - 1) as usize];
                let cuts = boundary_cuts(&s, inside.0, inside.1);
                cuts[rng.range(0, cuts.len() as u64 - 1) as usize]
            };
            ok(sim.run_until(cut));
            let live = live_train(&sim, bus).expect("cut inside the window");
            assert_eq!(live.1, want, "case {case}: live schedule");
            let doc = ok(sim.snapshot());
            let state = doc.json().to_string();
            assert!(
                !state.contains("\"sched\""),
                "case {case}: no schedule is written"
            );

            let (mut fresh, master2, bus2) = build_train_world_with(bursts, true, true, None);
            ok(fresh.restore(&ok(Snapshot::parse(&doc.to_text()))));
            assert_eq!(
                live_train(&fresh, bus2).as_ref(),
                Some(&live),
                "case {case}"
            );
            assert_eq!(ok(fresh.state_hash()), doc.state_hash(), "case {case}");
            ok(sim.run());
            ok(fresh.run());
            let view = |s: &Simulator, m: ComponentId, b: ComponentId| {
                let m = s.get::<TrainMaster>(m);
                let b = s.get::<Bus>(b);
                (
                    s.now(),
                    m.finished_at,
                    b.stats.snapshot_json().to_string(),
                    b.arrivals,
                )
            };
            assert_eq!(
                view(&fresh, master2, bus2),
                view(&sim, master, bus),
                "case {case}"
            );
        }
    }

    /// Run-level acceptance equals the per-burst check on random address
    /// maps: adjacent claims of the same slave (which a run may cross on a
    /// burst boundary, but no burst may straddle), gaps, fault ranges, and
    /// maps at the top of the address space, where a run's last burst can
    /// run past the end.
    #[test]
    fn run_acceptance_matches_the_per_burst_check() {
        let mut rng = Lcg(0x6d61_7073);
        let (mut accepted, mut crossing) = (0, 0);
        for case in 0..2000 {
            let base = if rng.range(0, 9) == 0 {
                Addr::MAX - 0x3FF
            } else {
                0
            };
            // Half the maps align claims, runs and bursts on 8 words, so
            // runs often cross claims on a burst boundary.
            let align = if rng.flip() { 8 } else { 1 };
            let mut map = AddressMap::new();
            let mut low = 0;
            while low < 0x400 {
                let len = (align * rng.range(1, 64 / align)).min(0x400 - low);
                // Mostly slave 1, now and then slave 2 or a gap.
                let slave = [1, 1, 1, 1, 2, 0][rng.range(0, 5) as usize];
                if slave > 0 {
                    ok(map.add(base + low, base + (low + len - 1), slave));
                }
                low += len;
            }
            let fault_ranges = (0..rng.range(0, 2))
                .map(|_| {
                    let a = base + rng.range(0, 0x3FF);
                    (a, a.saturating_add(rng.range(0, 8)))
                })
                .collect();
            let bus = Bus::new(
                BusConfig {
                    fault_ranges,
                    ..BusConfig::default()
                },
                map,
            );
            let mut runs = BurstRuns::default();
            for _ in 0..rng.range(1, 3) {
                let addr = base + align * rng.range(0, 0x3FF / align);
                let words = match align {
                    1 => rng.range(0, 8) as usize,
                    _ => 1 << rng.range(0, 3),
                };
                let most = if rng.flip() { 4 } else { 60 };
                // No burst may start past the end of the address space.
                let room = ((Addr::MAX - addr) / (words as u64).max(1)).saturating_add(1);
                runs.push(BurstRun {
                    op: if rng.flip() {
                        BusOp::Write
                    } else {
                        BusOp::Read
                    },
                    addr,
                    words,
                    count: rng.range(1, most).min(room) as usize,
                    fixed: rng.flip(),
                });
            }
            let got = bus.runs_slave(&runs);
            assert_eq!(
                got,
                reference_slave(&bus, runs.bursts()),
                "case {case}: {runs:?}"
            );
            if got.is_some() {
                accepted += 1;
                let claims = |r: &BurstRun| {
                    let first = bus.map.range_of_burst(r.addr, r.words);
                    let last = bus.map.range_of_burst(r.addr_of(r.count - 1), r.words);
                    first != last
                };
                crossing += usize::from(runs.runs().iter().any(claims));
            }
        }
        assert!(
            accepted > 200 && crossing > 50,
            "{accepted} accepted, {crossing} crossing"
        );
    }

    /// A mid-train document whose bursts do not all decode to its slave is
    /// refused with a typed error, instead of handing the memory a write
    /// outside its range on the next run.
    #[test]
    fn mid_train_document_with_bursts_off_its_slave_is_refused() {
        let (mut sim, _, bus) = build_train_world(true, true, None);
        ok(sim.run_until(SimTime::ZERO + SimDuration::ns(100)));
        assert!(sim.get::<Bus>(bus).train.is_some(), "cut inside the window");
        let text = ok(sim.snapshot()).json().to_string();
        let run = "[\"write\",512,8,1]";
        assert_eq!(text.matches(run).count(), 1, "the train's first run");
        let crafted = ok(Snapshot::parse(&text.replace(run, "[\"write\",16,8,1]")));
        let (mut fresh, _, _) = build_train_world(true, true, None);
        let e = fresh
            .restore(&crafted)
            .expect_err("a burst outside the memory");
        assert_eq!(e.kind, SimErrorKind::Validation, "{e}");
        assert!(e.to_string().contains("decode"), "{e}");
    }

    /// A mid-train document restored into a bus clocked differently, or one
    /// that registered another timing for the slave, recomputes another
    /// window end and is refused with a typed error.
    #[test]
    fn mid_train_document_refuses_other_timing() {
        let (mut sim, _, bus) = build_train_world(true, true, None);
        ok(sim.run_until(SimTime::ZERO + SimDuration::ns(100)));
        assert!(sim.get::<Bus>(bus).train.is_some(), "cut inside the window");
        let doc = ok(sim.snapshot());
        let timing = train_world_memory().slave_timing();
        let slower = SlaveTiming {
            per_word: timing.per_word + 1,
            ..timing
        };
        let fast_bus = BusConfig {
            clock_mhz: BusConfig::default().clock_mhz * 2,
            ..BusConfig::default()
        };
        for (what, cfg, timing) in [
            ("bus clock", fast_bus, timing),
            ("slave timing", BusConfig::default(), slower),
        ] {
            let (mut fresh, _, _) =
                build_timed_train_world(train_bursts(), true, cfg, Some(timing), None, None);
            let e = fresh.restore(&doc).expect_err(what);
            assert_eq!(e.kind, SimErrorKind::Validation, "{what}: {e}");
            assert!(e.to_string().contains("window"), "{what}: {e}");
        }
        // The same timing restores.
        let (mut same, _, _) = build_train_world(true, true, None);
        ok(same.restore(&doc));
    }
}
