//! The DRCF component — the paper's central artifact.
//!
//! A `Drcf` replaces a set of hardware accelerators on the bus. It
//! implements the union of their slave interfaces (same `get_low_add`/
//! `get_high_add`/`read`/`write` contract) and routes every incoming
//! interface access through the context scheduler, which behaves exactly as
//! §5.3 prescribes:
//!
//! 1. identify which context the access targets;
//! 2. if that context is active, forward the access directly;
//! 3. if not, activate a context switch;
//! 4. while switching, *suspend* the access, and generate the configuration
//!    data reads into the memory that holds the context;
//! 5. keep track of each context's active time and of the time the DRCF
//!    spends reconfiguring itself.
//!
//! Configuration data can travel three ways ([`ConfigPath`]): over the
//! system bus (generating the real contention the paper insists on
//! modeling), over a dedicated configuration port, or as a fixed latency
//! with no traffic (the OCAPI-XL-style baseline the paper criticizes for
//! *not* modeling the memory traffic of context switching).

use std::collections::VecDeque;

use drcf_bus::prelude::{
    apply_request, BurstRun, BurstRuns, BusOp, BusResponse, BusStatus, ConfigTrain,
    ConfigTrainDecoalesced, ConfigTrainDone, ConfigTrainRejected, DirectReadDone, DirectReadReq,
    MasterPort, SlaveAccess, SlaveReply,
};
use drcf_bus::snapshot::{time_json, time_of};
use drcf_kernel::json::{ju64, Json};
use drcf_kernel::prelude::*;
use drcf_kernel::snapshot::{self as snap, Snapshotable};

use crate::context::{Context, ContextId};
use crate::scheduler::{ContextScheduler, Lookup, SchedulerConfig};
use crate::stats::{FabricEventKind, FabricStats};

/// How configuration data reaches the fabric.
#[derive(Debug, Clone)]
pub enum ConfigPath {
    /// Master the system bus and read the configuration from a memory
    /// mapped there. Generates real bus traffic — the paper's headline
    /// modeling contribution.
    SystemBus {
        /// The bus to master.
        bus: ComponentId,
        /// Priority of configuration reads.
        priority: u8,
        /// Words per burst transaction.
        burst: usize,
    },
    /// A dedicated point-to-point port into a configuration memory
    /// (`DirectReadReq` traffic; contention only inside the memory).
    DirectPort {
        /// The configuration memory component.
        memory: ComponentId,
    },
    /// A pure transfer-rate model with no traffic generated: `words /
    /// words_per_cycle` cycles of `clock_mhz`. Models methodologies that
    /// ignore configuration-memory contention.
    FixedRate {
        /// Transfer rate in words per cycle.
        words_per_cycle: u64,
        /// Clock of the configuration engine, MHz.
        clock_mhz: u64,
    },
}

/// Fabric configuration.
#[derive(Debug, Clone)]
pub struct DrcfConfig {
    /// Execution clock of the fabric, MHz.
    pub clock_mhz: u64,
    /// Configuration transport.
    pub config_path: ConfigPath,
    /// Scheduler (slots, prefetch, eviction).
    pub scheduler: SchedulerConfig,
    /// When true, a context load may proceed while another context
    /// executes (MorphoSys-style background reload / partial
    /// reconfiguration). When false, reconfiguration blocks the fabric.
    pub overlap_load_exec: bool,
    /// Fault injection: contexts whose configuration load is forcibly
    /// aborted just as the transfer completes (mid-reconfiguration). The
    /// context is marked permanently failed, queued accesses get
    /// `SlaveError` replies, and the run ends with a
    /// [`SimErrorKind::ConfigLoad`] error.
    pub abort_load_of: Vec<ContextId>,
    /// Offer every [`ConfigPath::SystemBus`] load to the bus as a coalesced
    /// configuration train (one analytically-timed occupancy window instead
    /// of per-burst events). Timing, statistics and run outcomes are
    /// bit-identical either way; the bus falls back to per-burst whenever
    /// another master contends, a fault range overlaps, or tracing is on.
    /// Requires the bus to have the target memory's timing registered
    /// ([`drcf_bus::bus::Bus::register_slave_timing`]) for the fast path to
    /// ever engage.
    pub coalesce_config_traffic: bool,
}

impl Default for DrcfConfig {
    fn default() -> Self {
        DrcfConfig {
            clock_mhz: 100,
            config_path: ConfigPath::FixedRate {
                words_per_cycle: 1,
                clock_mhz: 100,
            },
            scheduler: SchedulerConfig::default(),
            overlap_load_exec: false,
            abort_load_of: Vec::new(),
            coalesce_config_traffic: false,
        }
    }
}

struct Queued {
    access: SlaveAccess,
    arrived: SimTime,
}

struct LoadOp {
    ctx: ContextId,
    /// Victim-state words still to write back before loading.
    save_remaining: u64,
    /// Configuration-image words still to read.
    image_remaining: u64,
    /// Saved-state words of the target still to restore after the image.
    restore_remaining: u64,
    /// Next configuration read address.
    next_addr: u64,
    /// Scratch address for state save/restore traffic.
    state_addr: u64,
    /// Words of the save burst currently in flight on the bus.
    save_in_flight: u64,
    /// Totals for accounting at install time.
    save_total: u64,
    restore_total: u64,
    prefetch: bool,
    started: SimTime,
    /// A coalesced configuration train covering all remaining words is
    /// outstanding at the bus (offer, window, or in-flight hand-back).
    train_pending: bool,
}

const TAG_EXEC_DONE: u64 = 1;
const TAG_EXTRA_DELAY_DONE: u64 = 2;
const TAG_FIXED_XFER_DONE: u64 = 3;

/// The dynamically reconfigurable fabric component.
///
/// ```
/// use drcf_kernel::prelude::*;
/// use drcf_bus::prelude::*;
/// use drcf_core::prelude::*;
///
/// // A minimal fabric with one register-file context, loading at a fixed
/// // rate, driven directly (no bus) by a testbench component.
/// let mut sim = Simulator::new();
/// sim.add(
///     "tb",
///     FnComponent::new(|api, msg| match &msg.kind {
///         MsgKind::Start => {
///             api.obligation_begin();
///             let req = BusRequest {
///                 id: 1, master: 0, op: BusOp::Write,
///                 addr: 0x2000, burst: 1, data: vec![7], priority: 0,
///             };
///             let me = api.me();
///             api.send(1, SlaveAccess { req, bus: me }, Delay::Delta);
///         }
///         _ => {
///             if msg.user_ref::<SlaveReply>().is_some() {
///                 api.obligation_end();
///             }
///         }
///     }),
/// );
/// let drcf = sim.add(
///     "drcf",
///     Drcf::new(
///         DrcfConfig::default(),
///         vec![Context::new(
///             Box::new(RegisterFile::new("ctx", 0x2000, 16, 1)),
///             ContextParams::default(),
///         )],
///     ),
/// );
/// assert_eq!(sim.run(), Ok(StopReason::Quiescent));
/// let fabric = sim.get::<Drcf>(drcf);
/// assert_eq!(fabric.stats.switches, 1);
/// assert!(fabric.stats.invariant_holds(sim.now()));
/// ```
pub struct Drcf {
    cfg: DrcfConfig,
    contexts: Vec<Context>,
    sched: ContextScheduler,
    port: Option<MasterPort>,
    queue: VecDeque<Queued>,
    loading: Option<LoadOp>,
    /// Contexts whose configuration permanently failed to load (config
    /// image unreadable or fabric too small); accesses to them fail fast.
    failed: Vec<bool>,
    /// Contexts that were evicted after running and left saved state in
    /// memory; their next activation must restore it.
    has_saved_state: Vec<bool>,
    exec_busy_until: SimTime,
    active_ctx: Option<ContextId>,
    low: u64,
    high: u64,
    /// Accumulated instrumentation (§5.3 step 5).
    pub stats: FabricStats,
}

impl Drcf {
    /// Build a fabric hosting `contexts`.
    ///
    /// Panics if the contexts' interface ranges overlap or parameters are
    /// invalid — the same conditions the transformation validator rejects.
    /// Use [`Drcf::try_new`] to get a typed error instead.
    pub fn new(cfg: DrcfConfig, contexts: Vec<Context>) -> Self {
        match Self::try_new(cfg, contexts) {
            Ok(d) => d,
            Err(e) => panic!("invalid DRCF: {e}"),
        }
    }

    /// Fallible constructor: returns a [`SimErrorKind::Validation`] error
    /// when the context set is empty, a context's parameters are invalid,
    /// or two contexts' interface ranges overlap.
    pub fn try_new(cfg: DrcfConfig, contexts: Vec<Context>) -> SimResult<Self> {
        if contexts.is_empty() {
            return Err(SimError::new(
                SimErrorKind::Validation,
                "a DRCF needs at least one context",
            ));
        }
        for (i, c) in contexts.iter().enumerate() {
            if let Err(e) = c.params.validate() {
                return Err(SimError::new(
                    SimErrorKind::Validation,
                    format!("context {i} ({}): {e}", c.name()),
                ));
            }
            for other in &contexts[..i] {
                let disjoint = c.model.high_addr() < other.model.low_addr()
                    || other.model.high_addr() < c.model.low_addr();
                if !disjoint {
                    return Err(SimError::new(
                        SimErrorKind::Validation,
                        format!(
                            "context interface ranges overlap: {} and {}",
                            c.name(),
                            other.name()
                        ),
                    ));
                }
            }
        }
        // Emptiness was validated above, so min/max exist.
        let low = contexts
            .iter()
            .map(|c| c.model.low_addr())
            .min()
            .unwrap_or(0);
        let high = contexts
            .iter()
            .map(|c| c.model.high_addr())
            .max()
            .unwrap_or(0);
        let slots_needed = contexts.iter().map(|c| c.params.slots_needed).collect();
        let sched = ContextScheduler::new(cfg.scheduler.clone(), slots_needed);
        let port = match cfg.config_path {
            ConfigPath::SystemBus { bus, priority, .. } => Some(MasterPort::new(bus, priority)),
            _ => None,
        };
        let n = contexts.len();
        Ok(Drcf {
            cfg,
            contexts,
            sched,
            port,
            queue: VecDeque::new(),
            loading: None,
            failed: vec![false; n],
            has_saved_state: vec![false; n],
            exec_busy_until: SimTime::ZERO,
            active_ctx: None,
            low,
            high,
            stats: FabricStats::new(n),
        })
    }

    /// Lowest interface address the DRCF claims (`get_low_add()` of the
    /// generated component).
    pub fn low_addr(&self) -> u64 {
        self.low
    }

    /// Highest interface address (`get_high_add()`).
    pub fn high_addr(&self) -> u64 {
        self.high
    }

    /// Number of hosted contexts.
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }

    /// Context name by id.
    pub fn context_name(&self, c: ContextId) -> &str {
        self.contexts[c].name()
    }

    /// The currently / most recently active context.
    pub fn active_context(&self) -> Option<ContextId> {
        self.active_ctx
    }

    /// Resident contexts right now.
    pub fn resident_contexts(&self) -> Vec<ContextId> {
        self.sched.resident_set()
    }

    /// Bus traffic counters of the configuration master port (when the
    /// config path is the system bus).
    pub fn config_port(&self) -> Option<&MasterPort> {
        self.port.as_ref()
    }

    fn decode(&self, addr: u64) -> Option<ContextId> {
        self.contexts.iter().position(|c| c.claims(addr))
    }

    fn reply_error(&mut self, api: &mut Api<'_>, access: &SlaveAccess) {
        let resp = BusResponse {
            id: access.req.id,
            op: access.req.op,
            addr: access.req.addr,
            status: BusStatus::SlaveError,
            data: vec![],
        };
        api.send(
            access.bus,
            SlaveReply {
                resp,
                master: access.req.master,
            },
            Delay::Delta,
        );
    }

    fn exec_free(&self, now: SimTime) -> bool {
        now >= self.exec_busy_until
    }

    /// §5.3 steps 1–4 driver: make progress on the head of the suspended
    /// queue, then consider prefetching.
    fn pump(&mut self, api: &mut Api<'_>) {
        loop {
            // Reconfiguration blocks everything unless overlap is enabled.
            let load_blocks = self.loading.is_some() && !self.cfg.overlap_load_exec;

            let Some(head) = self.queue.front() else {
                break;
            };
            let Some(ctx) = self.decode(head.access.req.addr) else {
                // on_slave_access only queues decodable accesses; reaching
                // here means the fabric state is inconsistent.
                api.raise(
                    SimErrorKind::Internal,
                    "queued access does not decode to any context",
                );
                if let Some(q) = self.queue.pop_front() {
                    self.reply_error(api, &q.access);
                }
                continue;
            };

            if self.sched.is_resident(ctx) {
                if load_blocks || !self.exec_free(api.now()) {
                    return; // a timer (exec/load) will pump again
                }
                let Some(q) = self.queue.pop_front() else {
                    break;
                };
                self.execute(api, ctx, q);
                return; // exec-done timer pumps the rest
            }

            // Needs a context switch.
            if self.failed[ctx] {
                if let Some(q) = self.queue.pop_front() {
                    self.reply_error(api, &q.access);
                }
                continue;
            }
            if self.loading.is_some() {
                // One load at a time; when it installs, pump retries.
                return;
            }
            match self.start_load(api, ctx, false) {
                LoadStart::Started => return,
                LoadStart::RetryLater => return,
                LoadStart::Impossible => {
                    self.failed[ctx] = true;
                    // Fail every queued access to this context and continue
                    // with the rest of the queue.
                    let me_ranges: Vec<usize> = self
                        .queue
                        .iter()
                        .enumerate()
                        .filter(|(_, q)| self.decode(q.access.req.addr) == Some(ctx))
                        .map(|(i, _)| i)
                        .collect();
                    for i in me_ranges.into_iter().rev() {
                        if let Some(q) = self.queue.remove(i) {
                            self.reply_error(api, &q.access);
                        }
                    }
                    continue;
                }
            }
        }
        self.maybe_prefetch(api);
    }

    /// §5.3 step 2: forward the (suspended) call to the active context.
    fn execute(&mut self, api: &mut Api<'_>, ctx: ContextId, q: Queued) {
        match self.sched.note_use(ctx) {
            Ok(true) => self.stats.prefetch_hits += 1,
            Ok(false) => {}
            Err(e) => api.raise(e.kind, e.message),
        }
        self.stats
            .record_event(api.now(), ctx, FabricEventKind::ExecStart);
        api.trace_begin(TraceCategory::Fabric, "exec", ctx as u64);
        api.trace_counter(TraceCategory::Fabric, "suspended", self.queue.len() as u64);
        self.active_ctx = Some(ctx);
        let model = self.contexts[ctx].model.as_mut();
        let resp = apply_request(model, &q.access.req);
        let cycles = model.access_cycles(q.access.req.op, q.access.req.addr, q.access.req.burst);
        let service = SimDuration::cycles_at_mhz(cycles, self.cfg.clock_mhz);
        self.exec_busy_until = api.now() + service;
        let cs = &mut self.stats.per_context[ctx];
        cs.active += service;
        cs.accesses += 1;
        cs.wait += api.now().since(q.arrived);
        api.send_in(
            q.access.bus,
            SlaveReply {
                resp,
                master: q.access.req.master,
            },
            service,
        );
        api.timer_in(service, TAG_EXEC_DONE);
    }

    /// §5.3 steps 3–4: begin a context switch.
    fn start_load(&mut self, api: &mut Api<'_>, ctx: ContextId, prefetch: bool) -> LoadStart {
        debug_assert!(self.loading.is_none(), "one load at a time");
        // Protect the executing context from eviction while it runs.
        let mut protected = Vec::new();
        if !self.exec_free(api.now()) {
            if let Some(a) = self.active_ctx {
                protected.push(a);
            }
        }
        match self.sched.lookup(ctx, &protected) {
            Lookup::Resident => LoadStart::RetryLater, // raced; treat as progress
            Lookup::TooBig => {
                api.raise(
                    SimErrorKind::Scheduler,
                    format!(
                        "context '{}' needs {} slots but the fabric has only {}",
                        self.contexts[ctx].name(),
                        self.contexts[ctx].params.slots_needed,
                        self.cfg.scheduler.slots
                    ),
                );
                LoadStart::Impossible
            }
            Lookup::NoRoom => {
                if protected.is_empty() {
                    // Nothing protected and still no room: permanent.
                    LoadStart::Impossible
                } else {
                    // Wait for the executing context to finish, then retry.
                    LoadStart::RetryLater
                }
            }
            Lookup::Load { evict } => {
                // Evicting a stateful context forces a state write-back
                // (extra traffic on top of the configuration transfers).
                let mut save_total = 0;
                for v in evict {
                    if let Err(e) = self.sched.evict(v) {
                        api.raise(e.kind, e.message);
                        continue;
                    }
                    self.stats
                        .record_event(api.now(), v, FabricEventKind::Evict);
                    api.trace_instant(TraceCategory::Fabric, "evict", v as u64);
                    let st = self.contexts[v].params.state_words;
                    if st > 0 {
                        save_total += st;
                        self.has_saved_state[v] = true;
                    }
                }
                let p = &self.contexts[ctx].params;
                let restore_total = if self.has_saved_state[ctx] {
                    p.state_words
                } else {
                    0
                };
                let words = p.config_size_words;
                self.loading = Some(LoadOp {
                    ctx,
                    save_remaining: save_total,
                    image_remaining: words,
                    restore_remaining: restore_total,
                    next_addr: p.config_addr,
                    state_addr: p.state_addr,
                    save_in_flight: 0,
                    save_total,
                    restore_total,
                    prefetch,
                    started: api.now(),
                    train_pending: false,
                });
                if prefetch {
                    self.stats.prefetches += 1;
                }
                self.stats
                    .record_event(api.now(), ctx, FabricEventKind::SwitchStart);
                // Switch spans live on lane 1 so a background (overlapped)
                // load nests independently of lane-0 exec spans.
                api.trace_begin_lane(1, TraceCategory::Fabric, "switch", ctx as u64);
                self.issue_config_transfer(api);
                LoadStart::Started
            }
        }
    }

    /// Generate configuration-memory traffic (§5.3 step 4): victim-state
    /// write-back, then the configuration image, then the target's saved
    /// state, in that order. On the system-bus path with
    /// [`DrcfConfig::coalesce_config_traffic`] set (and tracing off, which
    /// would need the per-burst spans), the whole remainder is first
    /// offered to the bus as a coalesced train.
    fn issue_config_transfer(&mut self, api: &mut Api<'_>) {
        if self.loading.is_none() {
            api.raise(
                SimErrorKind::Internal,
                "configuration transfer issued with no load in progress",
            );
            return;
        }
        match self.cfg.config_path {
            ConfigPath::SystemBus {
                priority, burst, ..
            } => {
                let burst = burst.max(1);
                let coalesce = self.cfg.coalesce_config_traffic && !api.tracing_enabled();
                if coalesce && self.offer_train(api, burst, priority) {
                    return;
                }
                self.issue_bus_burst(api, burst);
            }
            ConfigPath::DirectPort { memory } => {
                let Some(load) = self.loading.as_ref() else {
                    return;
                };
                // One aggregate streaming request: save + image + restore
                // words move over the dedicated port back to back (the
                // direction split does not change the port timing model).
                let words =
                    (load.save_remaining + load.image_remaining + load.restore_remaining) as usize;
                let ctx = load.ctx;
                let addr = load.next_addr;
                api.obligation_begin();
                api.send(
                    memory,
                    DirectReadReq {
                        requester: api.me(),
                        addr,
                        words,
                        tag: ctx as u64,
                    },
                    Delay::Delta,
                );
            }
            ConfigPath::FixedRate {
                words_per_cycle,
                clock_mhz,
            } => {
                let Some(load) = self.loading.as_ref() else {
                    return;
                };
                let total = load.save_remaining + load.image_remaining + load.restore_remaining;
                let cycles = total.div_ceil(words_per_cycle.max(1));
                let d = SimDuration::cycles_at_mhz(cycles, clock_mhz);
                api.timer_in(d, TAG_FIXED_XFER_DONE);
            }
        }
    }

    /// Issue the next single per-burst transaction of the load.
    fn issue_bus_burst(&mut self, api: &mut Api<'_>, burst: usize) {
        let Some(load) = self.loading.as_mut() else {
            return;
        };
        let Some(port) = self.port.as_mut() else {
            api.raise(
                SimErrorKind::Internal,
                "system-bus configuration path has no master port",
            );
            return;
        };
        if load.save_remaining > 0 {
            // State write-back of the evicted context(s).
            let chunk = (load.save_remaining as usize).min(burst);
            load.save_in_flight = chunk as u64;
            let addr = load.state_addr;
            port.write(api, addr, vec![0; chunk]);
        } else if load.image_remaining > 0 {
            let chunk = (load.image_remaining as usize).min(burst);
            let addr = load.next_addr;
            port.read(api, addr, chunk);
        } else {
            // Restore the target's saved state.
            let chunk = (load.restore_remaining as usize).min(burst);
            let addr = load.state_addr;
            port.read(api, addr, chunk);
        }
    }

    /// The load's remaining words as train runs, in issue order — exactly
    /// the bursts [`Drcf::issue_bus_burst`] would generate one at a time:
    /// state save writes and restore reads at the scratch address, image
    /// reads from the next image address, each group as full bursts plus
    /// at most one partial burst.
    fn train_runs(load: &LoadOp, burst: usize) -> BurstRuns {
        let mut runs = BurstRuns::default();
        let groups = [
            (BusOp::Write, load.state_addr, load.save_remaining, true),
            (BusOp::Read, load.next_addr, load.image_remaining, false),
            (BusOp::Read, load.state_addr, load.restore_remaining, true),
        ];
        for (op, addr, words, fixed) in groups {
            let (full, partial) = (words / burst as u64, words % burst as u64);
            runs.push(BurstRun {
                op,
                addr,
                words: burst,
                count: full as usize,
                fixed,
            });
            runs.push(BurstRun {
                op,
                addr: if fixed {
                    addr
                } else {
                    addr + full * burst as u64
                },
                words: partial as usize,
                count: usize::from(partial > 0),
                fixed,
            });
        }
        runs
    }

    /// Apply a de-coalesced train's first `done` bursts to the load
    /// accounting: whole bursts of `burst` words through the save, the
    /// image and the restore in turn, the last of each group partial —
    /// what the per-burst responses would have recorded.
    fn apply_train_progress(load: &mut LoadOp, mut done: u64, burst: usize) {
        let burst = burst as u64;
        let mut take = |remaining: &mut u64| {
            let n = done.min(remaining.div_ceil(burst));
            done -= n;
            let words = (n * burst).min(*remaining);
            *remaining -= words;
            words
        };
        take(&mut load.save_remaining);
        load.next_addr += take(&mut load.image_remaining);
        take(&mut load.restore_remaining);
    }

    /// Offer the whole remaining load to the bus as one coalesced train.
    /// Returns false when there is nothing to offer (degenerate empty
    /// load); the caller then falls back to the per-burst path.
    fn offer_train(&mut self, api: &mut Api<'_>, burst: usize, priority: u8) -> bool {
        let Some(load) = self.loading.as_mut() else {
            return false;
        };
        let runs = Self::train_runs(load, burst);
        if runs.is_empty() {
            return false;
        }
        let Some(port) = self.port.as_ref() else {
            return false;
        };
        let bus = port.bus();
        load.train_pending = true;
        let tag = load.ctx as u64;
        let master = api.me();
        api.obligation_begin();
        api.send(
            bus,
            ConfigTrain {
                master,
                priority,
                tag,
                runs,
            },
            Delay::Delta,
        );
        true
    }

    /// The bus ran the whole train uncontended: every remaining word has
    /// transferred, at exactly the per-burst completion instant.
    fn on_train_done(&mut self, api: &mut Api<'_>, done: ConfigTrainDone) {
        api.obligation_end();
        let Some(load) = self.loading.as_mut() else {
            api.raise(
                SimErrorKind::Internal,
                "train completion with no load in progress",
            );
            return;
        };
        debug_assert!(load.train_pending, "train completion without an offer");
        debug_assert_eq!(
            load.save_remaining + load.image_remaining + load.restore_remaining,
            done.words
        );
        load.train_pending = false;
        load.next_addr += load.image_remaining;
        load.save_remaining = 0;
        load.image_remaining = 0;
        load.restore_remaining = 0;
        self.transfer_complete(api);
    }

    /// The bus could not coalesce (busy, contended, fault overlap, no
    /// registered slave timing): transfer the next chunk per-burst. Every
    /// completed chunk re-offers a train, so coalescing resumes as soon as
    /// the contention clears.
    fn on_train_rejected(&mut self, api: &mut Api<'_>, _rej: ConfigTrainRejected) {
        api.obligation_end();
        let Some(load) = self.loading.as_mut() else {
            api.raise(
                SimErrorKind::Internal,
                "train rejection with no load in progress",
            );
            return;
        };
        debug_assert!(load.train_pending, "train rejection without an offer");
        load.train_pending = false;
        let ConfigPath::SystemBus { burst, .. } = self.cfg.config_path else {
            api.raise(
                SimErrorKind::Internal,
                "train rejection without a system-bus configuration path",
            );
            return;
        };
        self.issue_bus_burst(api, burst.max(1));
    }

    /// Foreign traffic broke the window: account the completed prefix,
    /// adopt the in-flight burst (if any) so its response flows through the
    /// normal split-transaction path, and continue per-burst/re-offer.
    fn on_train_decoalesced(&mut self, api: &mut Api<'_>, d: ConfigTrainDecoalesced) {
        api.obligation_end();
        let ConfigPath::SystemBus { burst, .. } = self.cfg.config_path else {
            api.raise(
                SimErrorKind::Internal,
                "train de-coalesce without a system-bus configuration path",
            );
            return;
        };
        let burst = burst.max(1);
        let Some(load) = self.loading.as_mut() else {
            api.raise(
                SimErrorKind::Internal,
                "train de-coalesce with no load in progress",
            );
            return;
        };
        debug_assert!(load.train_pending, "train de-coalesce without an offer");
        load.train_pending = false;
        Self::apply_train_progress(load, d.done_bursts as u64, burst);
        match d.in_flight {
            Some(f) => {
                // Replicate the issue-time bookkeeping of the per-burst
                // path; `on_bus_response` takes over when the response
                // arrives (and re-issues or completes from there).
                if f.op == BusOp::Write {
                    load.save_in_flight = f.words as u64;
                }
                let Some(port) = self.port.as_mut() else {
                    api.raise(
                        SimErrorKind::Internal,
                        "system-bus configuration path has no master port",
                    );
                    return;
                };
                port.adopt(api, f.id, f.issued_at);
            }
            None => {
                if load.save_remaining + load.image_remaining + load.restore_remaining == 0 {
                    self.transfer_complete(api);
                } else {
                    self.issue_config_transfer(api);
                }
            }
        }
    }

    /// All configuration words have arrived; apply the extra delay then
    /// install.
    fn transfer_complete(&mut self, api: &mut Api<'_>) {
        let Some(load) = self.loading.as_ref() else {
            api.raise(
                SimErrorKind::Internal,
                "configuration transfer completed with no load in progress",
            );
            return;
        };
        // Fault injection: abort the load mid-reconfiguration, after the
        // transfer but before installation — the window where a real fabric
        // is left partially configured.
        if self.cfg.abort_load_of.contains(&load.ctx) {
            let ctx = load.ctx;
            self.loading = None;
            self.failed[ctx] = true;
            api.trace_end_lane(1, TraceCategory::Fabric, "switch", ctx as u64);
            api.trace_instant(TraceCategory::Fabric, "load_aborted", ctx as u64);
            api.raise(
                SimErrorKind::ConfigLoad,
                format!(
                    "context '{}' load aborted mid-reconfiguration by fault injection",
                    self.contexts[ctx].name()
                ),
            );
            self.pump(api);
            return;
        }
        let extra = self.contexts[load.ctx].params.extra_reconfig_delay;
        if extra.is_zero() {
            self.install_loaded(api);
        } else {
            api.timer_in(extra, TAG_EXTRA_DELAY_DONE);
        }
    }

    fn install_loaded(&mut self, api: &mut Api<'_>) {
        let Some(load) = self.loading.take() else {
            api.raise(
                SimErrorKind::Internal,
                "context install fired with no load in progress",
            );
            return;
        };
        let dur = api.now().since(load.started);
        // Close the lane-1 switch span on every install outcome (success or
        // scheduler failure below) so begin/end pairs stay balanced.
        api.trace_end_lane(1, TraceCategory::Fabric, "switch", load.ctx as u64);
        if self.cfg.overlap_load_exec {
            self.stats.reconfig_overlapped += dur;
        } else {
            self.stats.reconfig += dur;
        }
        if let Err(e) = self.sched.install(load.ctx, load.prefetch) {
            api.raise(e.kind, e.message);
            self.failed[load.ctx] = true;
            self.pump(api);
            return;
        }
        self.stats.switches += 1;
        let cs = &mut self.stats.per_context[load.ctx];
        cs.switches_in += 1;
        cs.config_words += self.contexts[load.ctx].params.config_size_words;
        self.stats.config_words += self.contexts[load.ctx].params.config_size_words;
        self.stats.state_words += load.save_total + load.restore_total;
        self.stats
            .record_event(api.now(), load.ctx, FabricEventKind::SwitchDone);
        api.trace_instant(TraceCategory::Fabric, "install", load.ctx as u64);
        self.pump(api);
    }

    /// Prefetch when idle: queue empty, nothing loading, policy predicts.
    fn maybe_prefetch(&mut self, api: &mut Api<'_>) {
        if self.loading.is_some() || !self.queue.is_empty() {
            return;
        }
        let Some(cur) = self.active_ctx else { return };
        let Some(next) = self.sched.predict_next(cur) else {
            return;
        };
        // Only prefetch when it cannot disturb the active context.
        let _ = self.start_load(api, next, true);
    }

    fn on_slave_access(&mut self, api: &mut Api<'_>, access: SlaveAccess) {
        // §5.3 step 1: which context is this for?
        match self.decode(access.req.addr) {
            None => {
                api.log(
                    Severity::Warning,
                    format!("DRCF access to unclaimed address {:#x}", access.req.addr),
                );
                self.reply_error(api, &access);
            }
            Some(ctx) => {
                if self.sched.is_resident(ctx) {
                    self.stats.hits += 1;
                    api.trace_counter(TraceCategory::Fabric, "hits", self.stats.hits);
                } else {
                    self.stats.misses += 1;
                    api.trace_counter(TraceCategory::Fabric, "misses", self.stats.misses);
                }
                self.queue.push_back(Queued {
                    access,
                    arrived: api.now(),
                });
                self.pump(api);
            }
        }
    }

    fn on_bus_response(&mut self, api: &mut Api<'_>, resp: BusResponse) {
        // Configuration burst came back over the system bus.
        if !resp.is_ok() {
            api.raise(
                SimErrorKind::ConfigLoad,
                format!("configuration read failed at {:#x}", resp.addr),
            );
            // Abort the load and mark the context permanently failed so the
            // fabric cannot livelock retrying an unreadable image.
            if let Some(load) = self.loading.take() {
                self.failed[load.ctx] = true;
                api.trace_end_lane(1, TraceCategory::Fabric, "switch", load.ctx as u64);
                api.trace_instant(TraceCategory::Fabric, "load_aborted", load.ctx as u64);
            }
            self.pump(api);
            return;
        }
        let Some(load) = self.loading.as_mut() else {
            return;
        };
        match resp.op {
            BusOp::Write => {
                // Victim-state write-back acknowledged; the ack carries no
                // payload, so account the burst recorded at issue time.
                load.save_remaining = load.save_remaining.saturating_sub(load.save_in_flight);
                load.save_in_flight = 0;
            }
            BusOp::Read => {
                let got = resp.data.len() as u64;
                if load.image_remaining > 0 {
                    load.image_remaining = load.image_remaining.saturating_sub(got);
                    load.next_addr += got;
                } else {
                    load.restore_remaining = load.restore_remaining.saturating_sub(got);
                }
            }
        }
        if load.save_remaining + load.image_remaining + load.restore_remaining == 0 {
            self.transfer_complete(api);
        } else {
            self.issue_config_transfer(api);
        }
    }

    fn on_direct_done(&mut self, api: &mut Api<'_>, done: DirectReadDone) {
        api.obligation_end();
        if let Some(load) = self.loading.as_mut() {
            if load.ctx as u64 == done.tag {
                load.save_remaining = 0;
                load.image_remaining = 0;
                load.restore_remaining = 0;
                self.transfer_complete(api);
            }
        }
    }
}

enum LoadStart {
    Started,
    RetryLater,
    Impossible,
}

impl Drcf {
    fn loading_json(&self) -> Json {
        match &self.loading {
            None => Json::Null,
            Some(l) => Json::obj()
                .with("ctx", ju64(l.ctx as u64))
                .with("save_remaining", ju64(l.save_remaining))
                .with("image_remaining", ju64(l.image_remaining))
                .with("restore_remaining", ju64(l.restore_remaining))
                .with("next_addr", ju64(l.next_addr))
                .with("state_addr", ju64(l.state_addr))
                .with("save_in_flight", ju64(l.save_in_flight))
                .with("save_total", ju64(l.save_total))
                .with("restore_total", ju64(l.restore_total))
                .with("prefetch", Json::Bool(l.prefetch))
                .with("started", time_json(l.started))
                .with("train_pending", Json::Bool(l.train_pending)),
        }
    }

    fn restore_loading(&mut self, state: &Json) -> SimResult<()> {
        let j = snap::field(state, "loading")?;
        self.loading = match j {
            Json::Null => None,
            j => Some(LoadOp {
                ctx: snap::usize_field(j, "ctx")?,
                save_remaining: snap::u64_field(j, "save_remaining")?,
                image_remaining: snap::u64_field(j, "image_remaining")?,
                restore_remaining: snap::u64_field(j, "restore_remaining")?,
                next_addr: snap::u64_field(j, "next_addr")?,
                state_addr: snap::u64_field(j, "state_addr")?,
                save_in_flight: snap::u64_field(j, "save_in_flight")?,
                save_total: snap::u64_field(j, "save_total")?,
                restore_total: snap::u64_field(j, "restore_total")?,
                prefetch: snap::bool_field(j, "prefetch")?,
                started: time_of(snap::field(j, "started")?)
                    .ok_or_else(|| snap::err("bad load start time"))?,
                train_pending: snap::bool_field(j, "train_pending")?,
            }),
        };
        Ok(())
    }

    fn bool_list(v: &[bool]) -> Json {
        Json::Arr(v.iter().map(|&b| Json::Bool(b)).collect())
    }

    fn restore_bool_list(dst: &mut [bool], j: &Json, what: &str) -> SimResult<()> {
        let src = j
            .as_arr()
            .filter(|a| a.len() == dst.len())
            .ok_or_else(|| snap::err(format!("{what} list does not match this fabric")))?;
        for (d, s) in dst.iter_mut().zip(src) {
            *d = s
                .as_bool()
                .ok_or_else(|| snap::err(format!("{what} entry is not a bool")))?;
        }
        Ok(())
    }

    /// Restore everything except the per-context model images — the part
    /// shared by [`Component::restore`] and [`Component::restore_live`].
    fn restore_frame(&mut self, state: &Json) -> SimResult<()> {
        self.sched.restore_json(snap::field(state, "sched")?)?;
        match (snap::field(state, "port")?, self.port.as_mut()) {
            (Json::Null, None) => {}
            (j, Some(p)) if !matches!(j, Json::Null) => p.restore_json(j)?,
            _ => {
                return Err(snap::err(
                    "snapshot and fabric disagree about the configuration port",
                ))
            }
        }
        self.queue.clear();
        for q in snap::arr_field(state, "queue")? {
            self.queue.push_back(Queued {
                access: SlaveAccess::decode(snap::field(q, "access")?)
                    .ok_or_else(|| snap::err("malformed queued access"))?,
                arrived: time_of(snap::field(q, "arrived")?)
                    .ok_or_else(|| snap::err("bad queued-access arrival time"))?,
            });
        }
        self.restore_loading(state)?;
        Self::restore_bool_list(&mut self.failed, snap::field(state, "failed")?, "failed")?;
        Self::restore_bool_list(
            &mut self.has_saved_state,
            snap::field(state, "has_saved_state")?,
            "has_saved_state",
        )?;
        self.exec_busy_until = time_of(snap::field(state, "exec_busy_until")?)
            .ok_or_else(|| snap::err("bad exec_busy_until"))?;
        self.active_ctx = match snap::field(state, "active_ctx")? {
            Json::Null => None,
            j => Some(
                drcf_kernel::json::ju64_of(j)
                    .ok_or_else(|| snap::err("active_ctx is not a context id"))?
                    as ContextId,
            ),
        };
        self.stats.restore_json(snap::field(state, "stats")?)
    }
}

impl Component for Drcf {
    fn decoders(&self) -> &'static [drcf_kernel::snapshot::Decoder] {
        drcf_bus::snapshot::BUS_DECODERS
    }

    fn snapshot(&mut self) -> SimResult<Json> {
        let mut models = Vec::with_capacity(self.contexts.len());
        for c in &self.contexts {
            models.push(
                c.model
                    .snapshot_state()
                    .map_err(|e| snap::err(format!("context '{}': {e}", c.name())))?,
            );
        }
        Ok(Json::obj()
            .with("sched", self.sched.snapshot_json())
            .with(
                "port",
                self.port.as_ref().map_or(Json::Null, |p| p.snapshot_json()),
            )
            .with(
                "queue",
                Json::Arr(
                    self.queue
                        .iter()
                        .map(|q| {
                            Json::obj()
                                .with("access", q.access.encode())
                                .with("arrived", time_json(q.arrived))
                        })
                        .collect(),
                ),
            )
            .with("loading", self.loading_json())
            .with("failed", Self::bool_list(&self.failed))
            .with("has_saved_state", Self::bool_list(&self.has_saved_state))
            .with("exec_busy_until", time_json(self.exec_busy_until))
            .with(
                "active_ctx",
                self.active_ctx.map_or(Json::Null, |c| ju64(c as u64)),
            )
            .with("models", Json::Arr(models))
            .with("stats", self.stats.snapshot_json()))
    }

    fn restore(&mut self, state: &Json) -> SimResult<()> {
        self.restore_frame(state)?;
        // A cross-simulator restore trusts nothing: every context model is
        // force-parsed regardless of epochs.
        let models = snap::arr_field(state, "models")?;
        if models.len() != self.contexts.len() {
            return Err(snap::err(
                "snapshot context count does not match this fabric",
            ));
        }
        for (c, j) in self.contexts.iter_mut().zip(models) {
            let name = c.name().to_string();
            c.model
                .restore_state(j)
                .map_err(|e| snap::err(format!("context '{name}': {e}")))?;
        }
        Ok(())
    }

    fn restore_live(&mut self, state: &Json) -> SimResult<()> {
        self.restore_frame(state)?;
        // Live restore along a snapshot lineage: a context whose model
        // publishes a change epoch (`BusSlaveModel::change_epoch`) equal to
        // the document's recorded epoch has not been written between the
        // two points, so its (potentially large) context image is skipped.
        let models = snap::arr_field(state, "models")?;
        if models.len() != self.contexts.len() {
            return Err(snap::err(
                "snapshot context count does not match this fabric",
            ));
        }
        for (c, j) in self.contexts.iter_mut().zip(models) {
            if let Some(live) = c.model.change_epoch() {
                if j.get("epoch").and_then(drcf_kernel::json::ju64_of) == Some(live) {
                    continue;
                }
            }
            let name = c.name().to_string();
            c.model
                .restore_state(j)
                .map_err(|e| snap::err(format!("context '{name}': {e}")))?;
        }
        Ok(())
    }

    fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
        match msg.kind {
            MsgKind::Timer(TAG_EXEC_DONE) => {
                api.trace_end(
                    TraceCategory::Fabric,
                    "exec",
                    self.active_ctx.map_or(0, |c| c as u64),
                );
                self.pump(api);
            }
            MsgKind::Timer(TAG_EXTRA_DELAY_DONE) => self.install_loaded(api),
            MsgKind::Timer(TAG_FIXED_XFER_DONE) => self.transfer_complete(api),
            MsgKind::Start => {}
            _ => {
                // Configuration-port response?
                let msg = if let Some(port) = self.port.as_mut() {
                    match port.take_response(api, msg) {
                        Ok(resp) => {
                            self.on_bus_response(api, resp);
                            return;
                        }
                        Err(m) => m,
                    }
                } else {
                    msg
                };
                let msg = match msg.user::<SlaveAccess>() {
                    Ok(a) => {
                        self.on_slave_access(api, a);
                        return;
                    }
                    Err(m) => m,
                };
                let msg = match msg.user::<ConfigTrainDone>() {
                    Ok(done) => {
                        self.on_train_done(api, done);
                        return;
                    }
                    Err(m) => m,
                };
                let msg = match msg.user::<ConfigTrainRejected>() {
                    Ok(rej) => {
                        self.on_train_rejected(api, rej);
                        return;
                    }
                    Err(m) => m,
                };
                let msg = match msg.user::<ConfigTrainDecoalesced>() {
                    Ok(d) => {
                        self.on_train_decoalesced(api, d);
                        return;
                    }
                    Err(m) => m,
                };
                if let Ok(done) = msg.user::<DirectReadDone>() {
                    self.on_direct_done(api, done);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ContextParams;
    use crate::scheduler::{EvictionPolicy, PrefetchPolicy};
    use drcf_bus::prelude::RegisterFile;
    use drcf_kernel::testing::some;

    fn ctx(name: &'static str, low: u64, words: u64) -> Context {
        Context::new(
            Box::new(RegisterFile::new(name, low, 8, 2)),
            ContextParams {
                config_size_words: words,
                ..ContextParams::default()
            },
        )
    }

    /// Driver that sends raw SlaveAccess messages straight to the DRCF
    /// (playing the role of the bus) and records replies.
    struct Driver {
        drcf: ComponentId,
        sends: Vec<(SimDuration, u64, BusOp, u64)>, // (when, addr, op, data)
        next_id: u64,
        pub replies: Vec<(SimTime, BusResponse)>,
    }

    impl Component for Driver {
        fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
            match &msg.kind {
                MsgKind::Start => {
                    for (i, &(at, _, _, _)) in self.sends.iter().enumerate() {
                        api.obligation_begin();
                        api.timer(Delay::Time(at), i as u64);
                    }
                }
                MsgKind::Timer(i) => {
                    let (_, addr, op, data) = self.sends[*i as usize];
                    self.next_id += 1;
                    let req = drcf_bus::prelude::BusRequest {
                        id: self.next_id,
                        master: api.me(),
                        op,
                        addr,
                        burst: 1,
                        data: if op == BusOp::Write {
                            vec![data]
                        } else {
                            vec![]
                        },
                        priority: 0,
                    };
                    let me = api.me();
                    let drcf = self.drcf;
                    api.send(drcf, SlaveAccess { req, bus: me }, Delay::Delta);
                }
                _ => {
                    if let Ok(reply) = msg.user::<SlaveReply>() {
                        self.replies.push((api.now(), reply.resp));
                        api.obligation_end();
                    }
                }
            }
        }
    }

    fn fixed_rate_drcf(contexts: Vec<Context>, slots: usize) -> Drcf {
        Drcf::new(
            DrcfConfig {
                clock_mhz: 100,
                config_path: ConfigPath::FixedRate {
                    words_per_cycle: 1,
                    clock_mhz: 100,
                },
                scheduler: SchedulerConfig {
                    slots,
                    ..SchedulerConfig::default()
                },
                overlap_load_exec: false,
                abort_load_of: vec![],
                coalesce_config_traffic: false,
            },
            contexts,
        )
    }

    fn run_driver(
        drcf: Drcf,
        sends: Vec<(SimDuration, u64, BusOp, u64)>,
    ) -> (Simulator, ComponentId, ComponentId) {
        let mut sim = Simulator::new();
        let driver = sim.add(
            "driver",
            Driver {
                drcf: 1,
                sends,
                next_id: 0,
                replies: vec![],
            },
        );
        let fabric = sim.add("drcf", drcf);
        let r = sim.run();
        assert_eq!(r, Ok(StopReason::Quiescent));
        (sim, driver, fabric)
    }

    /// Like `run_driver` but for scenarios that end in a typed error.
    fn run_driver_err(
        drcf: Drcf,
        sends: Vec<(SimDuration, u64, BusOp, u64)>,
    ) -> (Simulator, ComponentId, ComponentId, SimError) {
        let mut sim = Simulator::new();
        let driver = sim.add(
            "driver",
            Driver {
                drcf: 1,
                sends,
                next_id: 0,
                replies: vec![],
            },
        );
        let fabric = sim.add("drcf", drcf);
        let err = sim.run().expect_err("scenario should end in a typed error");
        (sim, driver, fabric, err)
    }

    #[test]
    fn first_access_pays_reconfiguration() {
        // Context of 100 words at 1 word/cycle @100MHz = 1000ns transfer.
        // Execution: RegisterFile 2 cycles = 20ns.
        let drcf = fixed_rate_drcf(vec![ctx("a", 0x000, 100)], 1);
        let (sim, driver, fabric) =
            run_driver(drcf, vec![(SimDuration::ZERO, 0x0, BusOp::Write, 42)]);
        let d = sim.get::<Driver>(driver);
        assert_eq!(d.replies.len(), 1);
        assert!(d.replies[0].1.is_ok());
        // Reply no earlier than load (1000ns) + exec (20ns).
        assert!(
            d.replies[0].0 >= SimTime::ZERO + SimDuration::ns(1020),
            "reply at {}",
            d.replies[0].0
        );
        let f = sim.get::<Drcf>(fabric);
        assert_eq!(f.stats.misses, 1);
        assert_eq!(f.stats.hits, 0);
        assert_eq!(f.stats.switches, 1);
        assert_eq!(f.stats.config_words, 100);
        assert_eq!(f.stats.per_context[0].accesses, 1);
        assert!(f.stats.invariant_holds(sim.now()));
    }

    #[test]
    fn second_access_to_same_context_is_a_hit() {
        let drcf = fixed_rate_drcf(vec![ctx("a", 0x000, 100)], 1);
        let (sim, _, fabric) = run_driver(
            drcf,
            vec![
                (SimDuration::ZERO, 0x0, BusOp::Write, 1),
                (SimDuration::us(5), 0x0, BusOp::Read, 0),
            ],
        );
        let f = sim.get::<Drcf>(fabric);
        assert_eq!(f.stats.misses, 1);
        assert_eq!(f.stats.hits, 1);
        assert_eq!(f.stats.switches, 1, "no second reconfiguration");
    }

    #[test]
    fn alternating_contexts_thrash_a_single_slot() {
        let drcf = fixed_rate_drcf(vec![ctx("a", 0x000, 50), ctx("b", 0x100, 50)], 1);
        let (sim, driver, fabric) = run_driver(
            drcf,
            vec![
                (SimDuration::ZERO, 0x000, BusOp::Write, 1),
                (SimDuration::us(2), 0x100, BusOp::Write, 2),
                (SimDuration::us(4), 0x000, BusOp::Read, 0),
                (SimDuration::us(6), 0x100, BusOp::Read, 0),
            ],
        );
        let f = sim.get::<Drcf>(fabric);
        assert_eq!(f.stats.switches, 4, "every access reconfigures");
        assert_eq!(f.stats.misses, 4);
        assert_eq!(f.stats.config_words, 200);
        // State survives eviction (the model object persists; only fabric
        // residency changes) — reads return the written values.
        let d = sim.get::<Driver>(driver);
        assert_eq!(d.replies.len(), 4);
        assert!(d.replies.iter().all(|(_, r)| r.is_ok()));
    }

    #[test]
    fn two_slots_hold_both_contexts() {
        let drcf = fixed_rate_drcf(vec![ctx("a", 0x000, 50), ctx("b", 0x100, 50)], 2);
        let (sim, _, fabric) = run_driver(
            drcf,
            vec![
                (SimDuration::ZERO, 0x000, BusOp::Write, 1),
                (SimDuration::us(2), 0x100, BusOp::Write, 2),
                (SimDuration::us(4), 0x000, BusOp::Read, 0),
                (SimDuration::us(6), 0x100, BusOp::Read, 0),
            ],
        );
        let f = sim.get::<Drcf>(fabric);
        assert_eq!(f.stats.switches, 2, "each context loads once");
        assert_eq!(f.stats.hits, 2);
        assert_eq!(f.resident_contexts(), vec![0, 1]);
    }

    #[test]
    fn suspended_call_waits_for_switch_then_completes() {
        // Access to B arrives while A is loaded: must suspend, reconfigure,
        // then serve (§5.3 step 4).
        let drcf = fixed_rate_drcf(vec![ctx("a", 0x000, 10), ctx("b", 0x100, 1000)], 1);
        let (sim, driver, _) = run_driver(
            drcf,
            vec![
                (SimDuration::ZERO, 0x000, BusOp::Write, 1),
                (SimDuration::us(1), 0x100, BusOp::Write, 2),
            ],
        );
        let d = sim.get::<Driver>(driver);
        assert_eq!(d.replies.len(), 2);
        // B's reply must be at least 1us (arrival) + 10us (1000-word load).
        assert!(d.replies[1].0 >= SimTime::ZERO + SimDuration::us(11));
    }

    #[test]
    fn unclaimed_address_gets_slave_error() {
        let drcf = fixed_rate_drcf(vec![ctx("a", 0x000, 10)], 1);
        let (sim, driver, _) = run_driver(drcf, vec![(SimDuration::ZERO, 0x500, BusOp::Read, 0)]);
        let d = sim.get::<Driver>(driver);
        assert_eq!(d.replies[0].1.status, BusStatus::SlaveError);
    }

    #[test]
    fn too_big_context_fails_cleanly() {
        let mut big = ctx("big", 0x000, 10);
        big.params.slots_needed = 4;
        let drcf = Drcf::new(
            DrcfConfig {
                scheduler: SchedulerConfig {
                    slots: 2,
                    ..SchedulerConfig::default()
                },
                ..DrcfConfig::default()
            },
            vec![big, ctx("ok", 0x100, 10)],
        );
        let (sim, driver, _, err) = run_driver_err(
            drcf,
            vec![
                (SimDuration::ZERO, 0x000, BusOp::Write, 1), // impossible
                (SimDuration::ns(10), 0x100, BusOp::Write, 2), // fine
            ],
        );
        // The impossible load is a typed scheduler error, but the other
        // context still gets served: faults are isolated, not fatal.
        assert_eq!(err.kind, SimErrorKind::Scheduler);
        assert_eq!(err.component.as_deref(), Some("drcf"));
        let d = sim.get::<Driver>(driver);
        assert_eq!(d.replies.len(), 2);
        let too_big = some(d.replies.iter().find(|(_, r)| r.addr == 0x000));
        assert_eq!(too_big.1.status, BusStatus::SlaveError);
        let ok = some(d.replies.iter().find(|(_, r)| r.addr == 0x100));
        assert!(ok.1.is_ok());
        assert!(sim.reports().has_errors(), "error was logged");
    }

    #[test]
    fn injected_load_abort_fails_the_context() {
        let cfg = DrcfConfig {
            abort_load_of: vec![0],
            ..DrcfConfig::default()
        };
        let drcf = Drcf::new(cfg, vec![ctx("victim", 0x000, 10), ctx("ok", 0x100, 10)]);
        let (sim, driver, fabric, err) = run_driver_err(
            drcf,
            vec![
                (SimDuration::ZERO, 0x000, BusOp::Write, 1), // aborted mid-load
                (SimDuration::us(1), 0x100, BusOp::Write, 2), // unaffected
            ],
        );
        assert_eq!(err.kind, SimErrorKind::ConfigLoad);
        assert!(err.message.contains("victim"), "{}", err.message);
        let d = sim.get::<Driver>(driver);
        assert_eq!(d.replies.len(), 2, "both accesses get replies");
        let aborted = some(d.replies.iter().find(|(_, r)| r.addr == 0x000));
        assert_eq!(aborted.1.status, BusStatus::SlaveError);
        let fine = some(d.replies.iter().find(|(_, r)| r.addr == 0x100));
        assert!(fine.1.is_ok());
        let f = sim.get::<Drcf>(fabric);
        assert_eq!(f.resident_contexts(), vec![1], "victim never installed");
    }

    #[test]
    fn try_new_rejects_overlap_with_typed_error() {
        let Err(err) = Drcf::try_new(
            DrcfConfig::default(),
            vec![ctx("a", 0x000, 10), ctx("b", 0x004, 10)],
        ) else {
            unreachable!("overlapping ranges must be rejected")
        };
        assert_eq!(err.kind, SimErrorKind::Validation);
        assert!(err.message.contains("overlap"), "{}", err.message);
        let empty = Drcf::try_new(DrcfConfig::default(), vec![]);
        assert_eq!(empty.err().map(|e| e.kind), Some(SimErrorKind::Validation));
    }

    #[test]
    #[should_panic(expected = "interface ranges overlap")]
    fn overlapping_context_ranges_rejected() {
        let _ = fixed_rate_drcf(vec![ctx("a", 0x000, 10), ctx("b", 0x004, 10)], 1);
    }

    #[test]
    fn last_successor_prefetch_hides_reload() {
        // Pattern A,B,A,B,... with 2 slots, LastSuccessor prediction and
        // background loading: after the pattern is learned, switches keep
        // happening but prefetched loads turn them into hits.
        let build = |prefetch: bool| {
            Drcf::new(
                DrcfConfig {
                    clock_mhz: 100,
                    config_path: ConfigPath::FixedRate {
                        words_per_cycle: 1,
                        clock_mhz: 100,
                    },
                    scheduler: SchedulerConfig {
                        slots: 1,
                        prefetch: if prefetch {
                            PrefetchPolicy::LastSuccessor
                        } else {
                            PrefetchPolicy::None
                        },
                        ..SchedulerConfig::default()
                    },
                    overlap_load_exec: true,
                    abort_load_of: vec![],
                    coalesce_config_traffic: false,
                },
                vec![ctx("a", 0x000, 400), ctx("b", 0x100, 400)],
            )
        };
        let run = |prefetch: bool| {
            let sends = (0..10u64)
                .map(|i| {
                    let addr = if i % 2 == 0 { 0x000 } else { 0x100 };
                    (SimDuration::us(20 * i), addr, BusOp::Write, i)
                })
                .collect();
            let (sim, _, fabric) = run_driver(build(prefetch), sends);
            let f = sim.get::<Drcf>(fabric);
            (f.stats.prefetches, f.stats.prefetch_hits, sim.now())
        };
        let (p0, h0, _) = run(false);
        assert_eq!(p0, 0);
        assert_eq!(h0, 0);
        let (p1, h1, _) = run(true);
        assert!(p1 > 0, "prefetches must be issued");
        assert!(h1 > 0, "some prefetches must be used");
    }

    #[test]
    fn fifo_eviction_end_to_end() {
        // 2 slots, FIFO eviction, access pattern a,b,c: c must evict a
        // (oldest load), leaving {b, c} resident.
        let drcf = Drcf::new(
            DrcfConfig {
                scheduler: SchedulerConfig {
                    slots: 2,
                    eviction: EvictionPolicy::Fifo,
                    ..SchedulerConfig::default()
                },
                ..DrcfConfig::default()
            },
            vec![
                ctx("a", 0x000, 10),
                ctx("b", 0x100, 10),
                ctx("c", 0x200, 10),
            ],
        );
        let (sim, _, fabric) = run_driver(
            drcf,
            vec![
                (SimDuration::ZERO, 0x000, BusOp::Write, 1),
                (SimDuration::us(1), 0x100, BusOp::Write, 2),
                (SimDuration::us(2), 0x000, BusOp::Read, 0), // recency bump for a
                (SimDuration::us(3), 0x200, BusOp::Write, 3),
            ],
        );
        let f = sim.get::<Drcf>(fabric);
        // FIFO ignores the recency bump: a (oldest load) is evicted.
        assert_eq!(f.resident_contexts(), vec![1, 2]);
    }

    #[test]
    fn stateful_contexts_pay_save_and_restore_traffic() {
        // Two contexts, 50-word images; context A additionally carries 30
        // words of live state. Sequence: A (load), B (evict A -> save 30),
        // A (restore 30 + image), B (evict A -> save 30 again).
        let mut a = ctx("a", 0x000, 50);
        a.params.state_words = 30;
        a.params.state_addr = 0x800;
        let b = ctx("b", 0x100, 50);
        let drcf = fixed_rate_drcf(vec![a, b], 1);
        let (sim, _, fabric) = run_driver(
            drcf,
            vec![
                (SimDuration::ZERO, 0x000, BusOp::Write, 1),
                (SimDuration::us(2), 0x100, BusOp::Write, 2),
                (SimDuration::us(4), 0x000, BusOp::Read, 0),
                (SimDuration::us(6), 0x100, BusOp::Write, 3),
            ],
        );
        let f = sim.get::<Drcf>(fabric);
        assert_eq!(f.stats.switches, 4);
        assert_eq!(f.stats.config_words, 4 * 50);
        // Saves: at switches 2 and 4 (A evicted, 30 words each).
        // Restore: at switch 3 (A reloads its saved state, 30 words).
        assert_eq!(f.stats.state_words, 3 * 30);
    }

    #[test]
    fn first_load_of_stateful_context_does_not_restore() {
        let mut a = ctx("a", 0x000, 50);
        a.params.state_words = 100;
        a.params.state_addr = 0x800;
        let drcf = fixed_rate_drcf(vec![a], 1);
        let (sim, _, fabric) = run_driver(drcf, vec![(SimDuration::ZERO, 0x000, BusOp::Write, 1)]);
        let f = sim.get::<Drcf>(fabric);
        assert_eq!(f.stats.switches, 1);
        assert_eq!(
            f.stats.state_words, 0,
            "nothing saved yet, nothing restored"
        );
    }

    #[test]
    fn state_traffic_lengthens_the_switch() {
        // Identical thrash with and without state: the stateful variant's
        // makespan must exceed the stateless one by the extra words.
        let run = |state_words: u64| {
            let mut a = ctx("a", 0x000, 100);
            a.params.state_words = state_words;
            a.params.state_addr = 0x800;
            let mut b = ctx("b", 0x100, 100);
            b.params.state_words = state_words;
            b.params.state_addr = 0x900;
            let drcf = fixed_rate_drcf(vec![a, b], 1);
            let (sim, _, _) = run_driver(
                drcf,
                (0..6u64)
                    .map(|i| {
                        let addr = if i % 2 == 0 { 0x000 } else { 0x100 };
                        (SimDuration::us(20 * i), addr, BusOp::Write, i)
                    })
                    .collect(),
            );
            sim.now().as_fs()
        };
        let stateless = run(0);
        let stateful = run(200);
        assert!(
            stateful > stateless,
            "state save/restore must cost time: {stateful} vs {stateless}"
        );
    }

    #[test]
    fn fabric_spans_balance_even_when_a_load_aborts() {
        // Context 0's load is aborted by fault injection: its lane-1 switch
        // span must still be closed, and every exec begin must pair with an
        // end. Mix in a healthy context so both code paths run.
        let cfg = DrcfConfig {
            abort_load_of: vec![0],
            ..DrcfConfig::default()
        };
        let drcf = Drcf::new(cfg, vec![ctx("victim", 0x000, 10), ctx("ok", 0x100, 10)]);
        let mut sim = Simulator::new();
        sim.enable_observe(4096);
        let _driver = sim.add(
            "driver",
            Driver {
                drcf: 1,
                sends: vec![
                    (SimDuration::ZERO, 0x000, BusOp::Write, 1),
                    (SimDuration::us(1), 0x100, BusOp::Write, 2),
                    (SimDuration::us(2), 0x100, BusOp::Read, 0),
                ],
                next_id: 0,
                replies: vec![],
            },
        );
        let _fabric = sim.add("drcf", drcf);
        let _ = sim.run();
        let events = sim.observe_events();
        let begins = |name: &str| {
            events
                .iter()
                .filter(|e| e.kind == TraceEventKind::Begin && e.name == name)
                .count()
        };
        let ends = |name: &str| {
            events
                .iter()
                .filter(|e| e.kind == TraceEventKind::End && e.name == name)
                .count()
        };
        assert!(begins("exec") > 0, "exec spans were recorded");
        assert_eq!(begins("exec"), ends("exec"));
        assert_eq!(begins("switch"), 2, "one load per context was started");
        assert_eq!(begins("switch"), ends("switch"), "abort closes its span");
        assert!(
            events
                .iter()
                .any(|e| e.kind == TraceEventKind::Instant && e.name == "load_aborted"),
            "the aborted load leaves an instant marker"
        );
        assert!(events
            .iter()
            .any(|e| e.kind == TraceEventKind::Counter && e.name == "misses"));
    }

    #[test]
    fn accounting_invariant_across_runs() {
        let drcf = fixed_rate_drcf(vec![ctx("a", 0x000, 200), ctx("b", 0x100, 300)], 1);
        let mut sends = Vec::new();
        for i in 0..10u64 {
            let addr = if i % 2 == 0 { 0x000 } else { 0x100 };
            sends.push((SimDuration::us(10 * i), addr, BusOp::Write, i));
        }
        let (sim, _, fabric) = run_driver(drcf, sends);
        let f = sim.get::<Drcf>(fabric);
        assert!(f.stats.invariant_holds(sim.now()));
        assert_eq!(f.stats.switches, 10);
        assert_eq!(
            f.stats.config_words,
            5 * 200 + 5 * 300,
            "every switch streams its context"
        );
    }

    /// The load a configuration controller has left: `save`, `image` and
    /// `restore` words, image from 0x1000, state at 0x800.
    fn load_op(save: u64, image: u64, restore: u64) -> LoadOp {
        LoadOp {
            ctx: 0,
            save_remaining: save,
            image_remaining: image,
            restore_remaining: restore,
            next_addr: 0x1000,
            state_addr: 0x800,
            save_in_flight: 0,
            save_total: save,
            restore_total: restore,
            prefetch: false,
            started: SimTime::ZERO,
            train_pending: false,
        }
    }

    /// The train's runs expand to exactly the chunks `issue_bus_burst`
    /// issues one per response, and a de-coalesce after any number of
    /// bursts leaves the load where those responses would have.
    #[test]
    fn train_runs_match_the_per_burst_chunks() {
        for (save, image, restore, burst) in [
            (0, 1, 0, 1),
            (0, 100, 0, 16),
            (37, 100, 37, 16),
            (32, 64, 16, 16),
            (5, 3, 9, 4),
            (40, 0, 7, 8),
            (1, 1, 1, 8),
        ] {
            let view = |l: &LoadOp| {
                (
                    l.save_remaining,
                    l.image_remaining,
                    l.restore_remaining,
                    l.next_addr,
                )
            };
            // The per-burst world: chunks of `burst`, save then image then
            // restore, each response retiring its chunk.
            let mut load = load_op(save, image, restore);
            let (mut chunks, mut after) = (Vec::new(), vec![view(&load)]);
            let b = burst as u64;
            while load.save_remaining + load.image_remaining + load.restore_remaining > 0 {
                if load.save_remaining > 0 {
                    let words = load.save_remaining.min(b);
                    chunks.push((BusOp::Write, load.state_addr, words as usize));
                    load.save_remaining -= words;
                } else if load.image_remaining > 0 {
                    let words = load.image_remaining.min(b);
                    chunks.push((BusOp::Read, load.next_addr, words as usize));
                    load.image_remaining -= words;
                    load.next_addr += words;
                } else {
                    let words = load.restore_remaining.min(b);
                    chunks.push((BusOp::Read, load.state_addr, words as usize));
                    load.restore_remaining -= words;
                }
                after.push(view(&load));
            }
            let runs = Drcf::train_runs(&load_op(save, image, restore), burst);
            let got: Vec<_> = runs.bursts().map(|b| (b.op, b.addr, b.words)).collect();
            assert_eq!(got, chunks, "{save}/{image}/{restore} by {burst}");
            assert!(runs.runs().len() <= 6);
            for (done, want) in after.iter().enumerate() {
                let mut load = load_op(save, image, restore);
                Drcf::apply_train_progress(&mut load, done as u64, burst);
                assert_eq!(view(&load), *want, "{done} bursts done");
            }
        }
    }
}
