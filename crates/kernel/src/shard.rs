//! Sharded multi-core simulation with conservative lookahead.
//!
//! A [`ShardTopology`] partitions a system into *logical processes* (LPs),
//! each a complete single-threaded [`Simulator`], connected by directed
//! [`links`](ShardTopology::add_link) with declared minimum latencies — the
//! lookahead sources. Bus bridges and FIFO-style streams are the natural
//! cut points: their transport latency is known statically, so an LP can
//! safely simulate ahead of its neighbors by exactly that amount (classic
//! conservative parallel discrete-event simulation à la Chandy–Misra–Bryant,
//! specialized to a barrier-synchronous window protocol).
//!
//! ## The window protocol
//!
//! The coordinator repeatedly computes, for every LP *i*, a horizon
//!
//! ```text
//! horizon(i) = min(end,
//!                  committed(i) + window,
//!                  min over incoming links l: committed(src(l)) + latency(l))
//! ```
//!
//! and has every LP `run_until` its horizon. Messages sent across a link
//! during a window are collected in per-link egress outboxes, stamped
//! `(deliver_time, link, seq)` by the coordinator in a deterministic order
//! (LP index, then send order), globally sorted by that stamp, and injected
//! into their destination LPs before the next window. Because a message
//! sent at time *t* on a link of latency *L* delivers at `t + L`, and the
//! destination's horizon never exceeds `committed(src) + L`, every message
//! arrives before the destination simulates past its delivery time —
//! conservative safety with zero rollbacks.
//!
//! ## Determinism
//!
//! The merge order, the horizon schedule, and the per-LP kernels are all
//! pure functions of the topology — none depends on how LPs are grouped
//! onto worker threads. Running with 1 shard (the single-threaded oracle,
//! executed inline on the calling thread) or with N worker threads
//! therefore produces bit-identical results: same per-LP `(time, seq)`
//! dispatch orders, same [`KernelMetrics`], same [`Simulator::state_hash`]
//! at every window. The per-slice hashes are recorded in the
//! [`ShardRunReport`] so a parallel-vs-serial divergence (a plumbing bug)
//! pinpoints the first bad slice instead of requiring a full-state diff.
//!
//! Components are not `Send` (they may hold `Rc`s into model state), so LP
//! simulators are *built on the worker thread that owns them* from `Send`
//! builder closures; only plain data — link messages, horizons, hashes,
//! metrics — ever crosses threads.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::mpsc;

use crate::component::Component;
use crate::error::{SimError, SimErrorKind, SimResult};
use crate::event::{ComponentId, Delay, Msg, StopReason};
use crate::json::{ju64, ju64_of, Json};
use crate::kernel::{Api, KernelMetrics, Simulator};
use crate::snapshot::{Codec, Decoder};
use crate::time::{SimDuration, SimTime};

/// A message crossing a shard boundary: plain `Send` data, no trait
/// objects. `tag` identifies the message to the receiving model; `words`
/// carry the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkMsg {
    /// Model-defined discriminator (packet id, opcode, ...).
    pub tag: u64,
    /// Payload words.
    pub words: Vec<u64>,
}

/// What an ingress component receives: the original [`LinkMsg`] plus the
/// `(link, seq)` stamp the deterministic merge assigned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkPacket {
    /// Index of the link the message traveled on.
    pub link: usize,
    /// Per-link monotone sequence number (assigned in merge order).
    pub seq: u64,
    /// The message itself.
    pub msg: LinkMsg,
}

/// A directed cross-shard connection with a declared minimum latency (the
/// lookahead source) and a bounded per-window capacity.
#[derive(Debug, Clone)]
pub struct LinkInfo {
    /// Index in the topology's link table.
    pub index: usize,
    /// Channel name (used for egress component names and diagnostics).
    pub name: String,
    /// Source LP index.
    pub from: usize,
    /// Destination LP index.
    pub to: usize,
    /// Minimum transport latency; must be positive — this is the lookahead.
    pub min_latency: SimDuration,
    /// Maximum messages in flight per synchronization window.
    pub capacity: usize,
}

/// Default bounded-channel capacity per window.
pub const DEFAULT_LINK_CAPACITY: usize = 4096;

/// Builder closure: constructs one LP's simulator on its worker thread.
pub type LpBuild = Box<dyn FnOnce(&mut Simulator, &mut LpIo) -> SimResult<()> + Send>;
/// Probe closure: extracts a JSON summary from a finished LP.
pub type LpProbe = Box<dyn FnOnce(&mut Simulator) -> SimResult<Json> + Send>;

struct LpSpec {
    name: String,
    build: LpBuild,
    probe: Option<LpProbe>,
    weight: u64,
}

/// Per-LP wiring handed to the builder closure.
///
/// Egress components for every outgoing link are pre-registered (in link
/// declaration order, occupying the first component ids); the builder reads
/// their ids with [`LpIo::egress`] and must register an ingress target for
/// every incoming link with [`LpIo::set_ingress`].
pub struct LpIo {
    lp: usize,
    links: Vec<LinkInfo>,
    egress: Vec<(usize, ComponentId)>,
    ingress: Vec<(usize, Option<ComponentId>)>,
}

impl LpIo {
    /// This LP's index in the topology.
    pub fn lp(&self) -> usize {
        self.lp
    }

    /// Links touching this LP (outgoing and incoming).
    pub fn links(&self) -> &[LinkInfo] {
        &self.links
    }

    /// Outgoing link indices, in declaration order.
    pub fn outgoing(&self) -> Vec<usize> {
        self.egress.iter().map(|&(l, _)| l).collect()
    }

    /// Incoming link indices, in declaration order.
    pub fn incoming(&self) -> Vec<usize> {
        self.ingress.iter().map(|&(l, _)| l).collect()
    }

    /// The pre-registered egress component for an outgoing link. Send a
    /// [`LinkMsg`] to this component (any delay) to transmit on the link.
    pub fn egress(&self, link: usize) -> SimResult<ComponentId> {
        self.egress
            .iter()
            .find(|&&(l, _)| l == link)
            .map(|&(_, id)| id)
            .ok_or_else(|| shard_err(format!("link {link} is not an egress of LP {}", self.lp)))
    }

    /// A bound transmit handle for an outgoing link — the preferred way to
    /// wire a [`LinkEndpoint`] to its channel.
    pub fn tx(&self, link: usize) -> SimResult<LinkTx> {
        Ok(LinkTx {
            link,
            egress: self.egress(link)?,
        })
    }

    /// Declare which component receives [`LinkPacket`]s for an incoming
    /// link. Every incoming link must have exactly one ingress target.
    pub fn set_ingress(&mut self, link: usize, target: ComponentId) -> SimResult<()> {
        let lp = self.lp;
        let slot = self
            .ingress
            .iter_mut()
            .find(|(l, _)| *l == link)
            .ok_or_else(|| shard_err(format!("link {link} is not an ingress of LP {lp}")))?;
        slot.1 = Some(target);
        Ok(())
    }
}

/// A bound transmit handle for one outgoing link: the link index plus the
/// pre-registered egress component id. Components hold one of these per
/// outgoing channel and call [`LinkTx::send`] to transmit — the message is
/// delivered to the egress in the same timestep, stamped with the current
/// simulation time, and carried across the shard boundary by the
/// deterministic merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkTx {
    link: usize,
    egress: ComponentId,
}

impl LinkTx {
    /// Index of the link this handle transmits on.
    pub fn link(&self) -> usize {
        self.link
    }

    /// The egress component id (useful for models that pre-date the
    /// handle and address egress components directly).
    pub fn egress(&self) -> ComponentId {
        self.egress
    }

    /// Transmit a [`LinkMsg`] on this link. The message is stamped with
    /// the current simulation time and delivered to the peer LP no earlier
    /// than `now + min_latency` of the link.
    pub fn send(&self, api: &mut Api<'_>, msg: LinkMsg) {
        api.send(self.egress, msg, Delay::Delta);
    }
}

/// Adapter trait for components that terminate a cross-shard link — the
/// bus bridge stubs implement it, as does any model that forwards local
/// traffic into [`LinkMsg`] envelopes. The partitioner constructs the
/// endpoint, hands it its transmit handles via [`LinkEndpoint::attach_tx`],
/// then registers it as the ingress target of the matching reverse link.
pub trait LinkEndpoint: Component {
    /// Hand the endpoint a transmit handle for one of its outgoing links.
    /// Called once per outgoing link, in link declaration order, before
    /// the component is added to the simulator.
    fn attach_tx(&mut self, tx: LinkTx);
}

/// A partitioned system: LPs plus the links (cut points) between them.
#[derive(Default)]
pub struct ShardTopology {
    lps: Vec<LpSpec>,
    links: Vec<LinkInfo>,
}

impl ShardTopology {
    /// Empty topology.
    pub fn new() -> ShardTopology {
        ShardTopology::default()
    }

    /// Number of LPs.
    pub fn lp_count(&self) -> usize {
        self.lps.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Add a logical process. The builder runs once, on the worker thread
    /// that owns the LP, against a fresh simulator whose egress components
    /// are already registered.
    pub fn add_lp(
        &mut self,
        name: &str,
        build: impl FnOnce(&mut Simulator, &mut LpIo) -> SimResult<()> + Send + 'static,
    ) -> usize {
        self.lps.push(LpSpec {
            name: name.to_string(),
            build: Box::new(build),
            probe: None,
            weight: 1,
        });
        self.lps.len() - 1
    }

    /// Attach a result probe to an LP; its JSON lands in the LP's report.
    pub fn set_probe(
        &mut self,
        lp: usize,
        probe: impl FnOnce(&mut Simulator) -> SimResult<Json> + Send + 'static,
    ) {
        if let Some(spec) = self.lps.get_mut(lp) {
            spec.probe = Some(Box::new(probe));
        }
    }

    /// Set an LP's load weight (relative cost estimate) for the
    /// [`partition_lps`] auto-partitioner. Default 1.
    pub fn set_weight(&mut self, lp: usize, weight: u64) {
        if let Some(spec) = self.lps.get_mut(lp) {
            spec.weight = weight;
        }
    }

    /// LP load weights, indexed by LP.
    pub fn weights(&self) -> Vec<u64> {
        self.lps.iter().map(|s| s.weight).collect()
    }

    /// Add a directed link from LP `from` to LP `to` with the given minimum
    /// transport latency (must be positive; validated at run time).
    pub fn add_link(
        &mut self,
        name: &str,
        from: usize,
        to: usize,
        min_latency: SimDuration,
    ) -> usize {
        let index = self.links.len();
        self.links.push(LinkInfo {
            index,
            name: name.to_string(),
            from,
            to,
            min_latency,
            capacity: DEFAULT_LINK_CAPACITY,
        });
        index
    }

    /// Override a link's bounded per-window capacity.
    pub fn set_link_capacity(&mut self, link: usize, capacity: usize) {
        if let Some(l) = self.links.get_mut(link) {
            l.capacity = capacity;
        }
    }

    fn validate(&self) -> SimResult<()> {
        if self.lps.is_empty() {
            return Err(shard_err("topology has no LPs"));
        }
        for l in &self.links {
            if l.from >= self.lps.len() || l.to >= self.lps.len() {
                return Err(shard_err(format!(
                    "link {:?} references LP {} out of {}",
                    l.name,
                    l.from.max(l.to),
                    self.lps.len()
                )));
            }
            if l.min_latency == SimDuration::ZERO {
                return Err(shard_err(format!(
                    "link {:?} has zero min latency; conservative lookahead requires a positive \
                     link latency",
                    l.name
                )));
            }
            if l.capacity == 0 {
                return Err(shard_err(format!("link {:?} has zero capacity", l.name)));
            }
        }
        Ok(())
    }
}

/// How to execute a [`ShardTopology`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Worker threads. `1` runs every LP inline on the calling thread —
    /// the single-threaded oracle the parallel modes are checked against.
    pub shards: usize,
    /// End horizon: every LP runs to exactly this time.
    pub end: SimTime,
    /// Maximum window an LP advances per round. Defaults to the smallest
    /// link latency; also bounds egress outbox growth between barriers.
    pub window: Option<SimDuration>,
    /// Record a [`Simulator::state_hash`] for every LP at every window.
    pub hash_slices: bool,
    /// Explicit LP→shard assignment; defaults to [`partition_lps`] over the
    /// LP weights.
    pub assign: Option<Vec<usize>>,
    /// Structured-trace ring capacity per LP ([`crate::observe`]); `None`
    /// leaves every LP recorder disabled. Recorded events are harvested
    /// into [`LpReport::trace_events`] at the end of the run.
    pub trace_capacity: Option<usize>,
}

impl ShardConfig {
    /// Run to `end` on one shard (the sequential oracle).
    pub fn to(end: SimTime) -> ShardConfig {
        ShardConfig {
            shards: 1,
            end,
            window: None,
            hash_slices: false,
            assign: None,
            trace_capacity: None,
        }
    }

    /// Set the worker-thread count.
    pub fn shards(mut self, n: usize) -> ShardConfig {
        self.shards = n.max(1);
        self
    }

    /// Set the per-round window cap.
    pub fn window(mut self, w: SimDuration) -> ShardConfig {
        self.window = Some(w);
        self
    }

    /// Enable per-slice state hashing.
    pub fn hash_slices(mut self, on: bool) -> ShardConfig {
        self.hash_slices = on;
        self
    }

    /// Enable per-LP structured tracing with the given ring capacity.
    pub fn trace(mut self, capacity: usize) -> ShardConfig {
        self.trace_capacity = Some(capacity);
        self
    }
}

// ---------------------------------------------------------------------------
// Shard profile: per-round observability of the window protocol
// ---------------------------------------------------------------------------

/// Which term of the horizon minimum bound an LP's window:
/// `horizon(i) = min(end, committed(i)+window, min_l committed(src(l))+lat(l))`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HorizonBound {
    /// The global end horizon — the LP is finishing, not stalled.
    End,
    /// The per-round window cap — the LP advanced as far as allowed.
    Window,
    /// An incoming link's `committed(src) + latency` — the LP is waiting
    /// on its neighbor; this link's lookahead is the bottleneck.
    Link(usize),
}

impl HorizonBound {
    /// Stable lowercase label (`"end"`, `"window"`, `"link"`).
    pub fn label(self) -> &'static str {
        match self {
            HorizonBound::End => "end",
            HorizonBound::Window => "window",
            HorizonBound::Link(_) => "link",
        }
    }
}

/// One LP's record of one synchronization round. The simulated-time
/// fields (`start_fs`, `horizon_fs`, `bound`, `sent`, `received`,
/// `last_inject`) are deterministic — identical at any shard count; the
/// wall-clock fields (`busy_ns`, `blocked_ns`) describe this execution
/// only.
#[derive(Debug, Clone, PartialEq)]
pub struct LpWindow {
    /// Round index (0-based).
    pub round: u64,
    /// Committed time entering the round, femtoseconds.
    pub start_fs: u64,
    /// Committed time reached (the horizon), femtoseconds.
    pub horizon_fs: u64,
    /// Which min-term bound the horizon.
    pub bound: HorizonBound,
    /// Cross-shard messages this LP sent during the round.
    pub sent: u64,
    /// Envelopes injected into this LP at the start of the round.
    pub received: u64,
    /// `(link, seq)` of the last envelope injected this round — the
    /// newest cross-shard influence on this LP's state, which is what a
    /// divergence report wants to name.
    pub last_inject: Option<(usize, u64)>,
    /// Wall nanoseconds spent inside `run_until` (simulating).
    pub busy_ns: u64,
    /// Wall nanoseconds the round barrier outlasted this LP's work — an
    /// upper bound on barrier stall (includes coordinator merge time).
    pub blocked_ns: u64,
}

/// Per-LP profile totals plus the per-round records.
#[derive(Debug, Clone, PartialEq)]
pub struct LpProfile {
    /// LP index.
    pub lp: usize,
    /// LP name.
    pub name: String,
    /// Load weight the partitioner balanced with.
    pub weight: u64,
    /// Per-round records, in round order.
    pub windows: Vec<LpWindow>,
    /// Total wall nanoseconds simulating.
    pub busy_ns: u64,
    /// Total wall nanoseconds blocked at round barriers.
    pub blocked_ns: u64,
    /// Total cross-shard messages sent.
    pub sent: u64,
    /// Total envelopes received.
    pub received: u64,
}

impl LpProfile {
    /// Fraction of this LP's wall time spent simulating (0 when no wall
    /// time was recorded).
    pub fn busy_fraction(&self) -> f64 {
        let total = self.busy_ns + self.blocked_ns;
        if total == 0 {
            0.0
        } else {
            self.busy_ns as f64 / total as f64
        }
    }

    /// Fraction of this LP's wall time spent blocked at round barriers.
    pub fn blocked_fraction(&self) -> f64 {
        let total = self.busy_ns + self.blocked_ns;
        if total == 0 {
            0.0
        } else {
            self.blocked_ns as f64 / total as f64
        }
    }
}

/// Per-link profile totals.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkProfile {
    /// Link index in the topology's link table.
    pub link: usize,
    /// Link name.
    pub name: String,
    /// Source LP.
    pub from: usize,
    /// Destination LP.
    pub to: usize,
    /// Declared minimum latency (the lookahead), femtoseconds.
    pub min_latency_fs: u64,
    /// Messages carried over the whole run.
    pub messages: u64,
    /// Merge-queue high water: the most messages this link carried in any
    /// single window (compare against [`LinkInfo::capacity`]).
    pub peak_window_messages: u64,
    /// Rounds in which this link's `committed(src)+latency` term bound
    /// some LP's horizon — how often its lookahead was the bottleneck.
    pub bound_windows: u64,
}

/// Whole-run profile of the window protocol, assembled by the
/// coordinator. Carried on [`ShardRunReport::profile`]; NOT part of
/// [`ShardRunReport::same_outcome`], because the wall-clock fields differ
/// between executions (the simulated-time fields do not).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardProfile {
    /// Per-LP profiles, indexed by LP.
    pub lps: Vec<LpProfile>,
    /// Per-link profiles, indexed by link.
    pub links: Vec<LinkProfile>,
    /// Synchronization rounds executed.
    pub rounds: u64,
    /// Rounds that moved zero cross-shard messages — pure barrier
    /// overhead where the coordinator only re-checked global quiescence.
    pub quiescent_rounds: u64,
    /// Rounds at whose barrier some LP still held open obligations, so
    /// its local deadlock verdict was deferred to the coordinator's
    /// global end-of-run check.
    pub deadlock_deferrals: u64,
}

impl ShardProfile {
    /// The link whose lookahead bound LP horizons most often — the
    /// critical link limiting achievable speedup. Ties resolve to the
    /// lower link index; `None` when no link ever bound a horizon.
    pub fn critical_link(&self) -> Option<&LinkProfile> {
        self.links
            .iter()
            .filter(|l| l.bound_windows > 0)
            .max_by(|a, b| {
                a.bound_windows
                    .cmp(&b.bound_windows)
                    .then(b.link.cmp(&a.link))
            })
    }

    /// Distill the parallel-efficiency report from the per-LP totals.
    pub fn efficiency(&self) -> EfficiencyReport {
        EfficiencyReport::from_lps(&self.lps)
    }

    /// JSON summary (totals only; the per-window records are exported by
    /// the merged trace instead).
    pub fn json(&self) -> Json {
        let lps = self
            .lps
            .iter()
            .map(|l| {
                Json::obj()
                    .with("lp", ju64(l.lp as u64))
                    .with("name", Json::from(l.name.as_str()))
                    .with("weight", ju64(l.weight))
                    .with("busy_ns", ju64(l.busy_ns))
                    .with("blocked_ns", ju64(l.blocked_ns))
                    .with("sent", ju64(l.sent))
                    .with("received", ju64(l.received))
            })
            .collect();
        let links = self
            .links
            .iter()
            .map(|l| {
                Json::obj()
                    .with("link", ju64(l.link as u64))
                    .with("name", Json::from(l.name.as_str()))
                    .with("from", ju64(l.from as u64))
                    .with("to", ju64(l.to as u64))
                    .with("min_latency_fs", ju64(l.min_latency_fs))
                    .with("messages", ju64(l.messages))
                    .with("peak_window_messages", ju64(l.peak_window_messages))
                    .with("bound_windows", ju64(l.bound_windows))
            })
            .collect();
        Json::obj()
            .with("rounds", ju64(self.rounds))
            .with("quiescent_rounds", ju64(self.quiescent_rounds))
            .with("deadlock_deferrals", ju64(self.deadlock_deferrals))
            .with("lps", Json::Arr(lps))
            .with("links", Json::Arr(links))
    }
}

/// One LP's row in the parallel-efficiency report.
#[derive(Debug, Clone, PartialEq)]
pub struct LpEfficiency {
    /// LP index.
    pub lp: usize,
    /// LP name.
    pub name: String,
    /// Load weight the partitioner balanced with.
    pub weight: u64,
    /// Fraction of wall time spent simulating.
    pub busy_fraction: f64,
    /// Fraction of wall time blocked at round barriers.
    pub blocked_fraction: f64,
    /// This LP's share of the total busy time across all LPs — the
    /// *measured* load.
    pub busy_share: f64,
    /// This LP's share of the total declared weight — the *predicted*
    /// load the partitioner balanced with. A large gap between the two
    /// shares means the weight estimate misled the partitioner.
    pub weight_share: f64,
}

/// Parallel-efficiency report: per-LP busy/blocked fractions and the load
/// imbalance of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct EfficiencyReport {
    /// Per-LP rows, indexed by LP.
    pub lps: Vec<LpEfficiency>,
    /// Total busy time over total LP wall time (`1.0` = every LP
    /// simulated the whole run; low values mean barrier stalls dominate).
    pub parallel_efficiency: f64,
    /// Max per-LP busy time over mean per-LP busy time (`1.0` = perfectly
    /// balanced; `n` = one LP did all the work).
    pub load_imbalance: f64,
}

impl EfficiencyReport {
    /// Compute the report from per-LP profile totals (pure math, testable
    /// on hand-built profiles).
    pub fn from_lps(lps: &[LpProfile]) -> EfficiencyReport {
        let total_busy: u64 = lps.iter().map(|l| l.busy_ns).sum();
        let total_wall: u64 = lps.iter().map(|l| l.busy_ns + l.blocked_ns).sum();
        let total_weight: u64 = lps.iter().map(|l| l.weight).sum();
        let max_busy = lps.iter().map(|l| l.busy_ns).max().unwrap_or(0);
        let mean_busy = if lps.is_empty() {
            0.0
        } else {
            total_busy as f64 / lps.len() as f64
        };
        let rows = lps
            .iter()
            .map(|l| LpEfficiency {
                lp: l.lp,
                name: l.name.clone(),
                weight: l.weight,
                busy_fraction: l.busy_fraction(),
                blocked_fraction: l.blocked_fraction(),
                busy_share: if total_busy == 0 {
                    0.0
                } else {
                    l.busy_ns as f64 / total_busy as f64
                },
                weight_share: if total_weight == 0 {
                    0.0
                } else {
                    l.weight as f64 / total_weight as f64
                },
            })
            .collect();
        EfficiencyReport {
            lps: rows,
            parallel_efficiency: if total_wall == 0 {
                0.0
            } else {
                total_busy as f64 / total_wall as f64
            },
            load_imbalance: if mean_busy == 0.0 {
                1.0
            } else {
                max_busy as f64 / mean_busy
            },
        }
    }

    /// JSON rendering (bench artifacts and history records).
    pub fn json(&self) -> Json {
        let lps = self
            .lps
            .iter()
            .map(|l| {
                Json::obj()
                    .with("lp", ju64(l.lp as u64))
                    .with("name", Json::from(l.name.as_str()))
                    .with("weight", ju64(l.weight))
                    .with("busy_fraction", Json::Num(l.busy_fraction))
                    .with("blocked_fraction", Json::Num(l.blocked_fraction))
                    .with("busy_share", Json::Num(l.busy_share))
                    .with("weight_share", Json::Num(l.weight_share))
            })
            .collect();
        Json::obj()
            .with("parallel_efficiency", Json::Num(self.parallel_efficiency))
            .with("load_imbalance", Json::Num(self.load_imbalance))
            .with("lps", Json::Arr(lps))
    }

    /// Human-readable rendering for the experiments CLI.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "parallel efficiency {:.1}% (load imbalance {:.2}x, 1.00x = balanced)",
            100.0 * self.parallel_efficiency,
            self.load_imbalance
        );
        for l in &self.lps {
            let _ = writeln!(
                out,
                "  lp{} {:16} busy {:5.1}%  blocked {:5.1}%  load share {:5.1}% (weight predicted {:5.1}%)",
                l.lp,
                l.name,
                100.0 * l.busy_fraction,
                100.0 * l.blocked_fraction,
                100.0 * l.busy_share,
                100.0 * l.weight_share
            );
        }
        out
    }
}

/// Human-readable description of the first diverging slice between two
/// runs — what [`ShardRunReport::first_divergence`] locates, resolved to
/// names, times and hashes so the CLI can print it without a debugger.
#[derive(Debug, Clone, PartialEq)]
pub struct DivergenceDetail {
    /// Diverging LP index.
    pub lp: usize,
    /// Diverging LP name.
    pub lp_name: String,
    /// Window index of the first mismatching state hash.
    pub window: usize,
    /// Simulated time the window committed to, femtoseconds (from the
    /// profile; `None` when the profile has no record for the window).
    pub time_fs: Option<u64>,
    /// `(link, seq)` of the last envelope injected into the LP during the
    /// diverging window — the newest cross-shard influence on its state.
    pub last_inject: Option<(usize, u64)>,
    /// State hash recorded by `self`.
    pub hash_self: Option<u64>,
    /// State hash recorded by `other`.
    pub hash_other: Option<u64>,
}

impl std::fmt::Display for DivergenceDetail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LP {} ({:?}) diverged at window {}",
            self.lp, self.lp_name, self.window
        )?;
        if let Some(t) = self.time_fs {
            write!(f, ", t={t} fs")?;
        }
        match self.last_inject {
            Some((link, seq)) => write!(f, ", last injected envelope (link {link}, seq {seq})")?,
            None => write!(f, ", no envelope injected that window")?,
        }
        let h = |v: Option<u64>| match v {
            Some(h) => format!("{h:#018x}"),
            None => "<missing>".to_string(),
        };
        write!(f, ": hash {} vs {}", h(self.hash_self), h(self.hash_other))
    }
}

/// Per-LP results of a sharded run. Everything in here is deterministic:
/// equal across any shard count for the same topology and config.
#[derive(Debug, Clone, PartialEq)]
pub struct LpReport {
    /// LP name.
    pub name: String,
    /// Final simulated time in femtoseconds (always the end horizon).
    pub final_time_fs: u64,
    /// Kernel counters for this LP's simulator.
    pub metrics: KernelMetrics,
    /// One state hash per window (empty unless `hash_slices` was set).
    pub slice_hashes: Vec<u64>,
    /// State hash at the end horizon.
    pub state_hash: u64,
    /// Outstanding obligations at the end (nonzero only in error paths).
    pub obligations: u64,
    /// Output of the LP's probe closure, or `Null`.
    pub probe: Json,
    /// Structured-trace events harvested from this LP's [`Recorder`]
    /// (empty unless [`ShardConfig::trace_capacity`] was set). Event
    /// timestamps are simulated time, so the harvest is deterministic and
    /// participates in [`ShardRunReport::same_outcome`].
    ///
    /// [`Recorder`]: crate::observe::Recorder
    pub trace_events: Vec<crate::observe::SimEvent>,
    /// Component names of this LP's simulator, indexed by [`ComponentId`]
    /// (always harvested; the trace merge resolves sources against it).
    pub component_names: Vec<String>,
    /// Ring capacity the recorder ran with (0 = tracing disabled).
    pub trace_capacity: u64,
    /// Events emitted into the recorder over the whole run.
    pub trace_emitted: u64,
    /// Events evicted because the ring wrapped (nonzero means
    /// [`LpReport::trace_events`] is a suffix, not the full history).
    pub trace_dropped: u64,
}

/// Result of [`run_sharded`].
#[derive(Debug, Clone, Default)]
pub struct ShardRunReport {
    /// Per-LP reports, indexed by LP.
    pub lps: Vec<LpReport>,
    /// Synchronization rounds executed.
    pub rounds: u64,
    /// Cross-shard messages delivered.
    pub messages: u64,
    /// Messages still in flight at the end horizon (sent in the final
    /// rounds with delivery at or beyond the end; never delivered, in
    /// every execution mode alike).
    pub in_flight_at_end: u64,
    /// Worker threads actually used (not part of the deterministic outcome).
    pub shards: usize,
    /// Wall-clock run time (not part of the deterministic outcome).
    pub wall_seconds: f64,
    /// Window-protocol profile (not part of the deterministic outcome:
    /// its wall-clock fields differ between executions).
    pub profile: ShardProfile,
}

impl ShardRunReport {
    /// Deterministic-outcome equality: per-LP reports, round count and
    /// message count — everything except the execution-mode fields
    /// (`shards`, `wall_seconds`, `profile`).
    pub fn same_outcome(&self, other: &ShardRunReport) -> bool {
        self.lps == other.lps
            && self.rounds == other.rounds
            && self.messages == other.messages
            && self.in_flight_at_end == other.in_flight_at_end
    }

    /// Locate the first diverging slice between two runs of the same
    /// topology: `(lp index, window index)` of the earliest state-hash
    /// mismatch, window-major so the earliest *time* divergence wins.
    /// `None` when all recorded hashes agree.
    pub fn first_divergence(&self, other: &ShardRunReport) -> Option<(usize, usize)> {
        let windows = self
            .lps
            .iter()
            .chain(other.lps.iter())
            .map(|l| l.slice_hashes.len())
            .max()?;
        for w in 0..windows {
            for (i, (a, b)) in self.lps.iter().zip(other.lps.iter()).enumerate() {
                let (ha, hb) = (a.slice_hashes.get(w), b.slice_hashes.get(w));
                if ha != hb {
                    return Some((i, w));
                }
            }
        }
        None
    }

    /// Resolve [`ShardRunReport::first_divergence`] against this run's
    /// profile into a printable [`DivergenceDetail`] — the window's
    /// committed time, the last envelope injected into the diverging LP
    /// that window, and both state hashes. `None` when the runs agree.
    pub fn divergence_detail(&self, other: &ShardRunReport) -> Option<DivergenceDetail> {
        let (lp, window) = self.first_divergence(other)?;
        let rec = self.profile.lps.get(lp).and_then(|p| p.windows.get(window));
        Some(DivergenceDetail {
            lp,
            lp_name: self.lps.get(lp).map(|l| l.name.clone()).unwrap_or_default(),
            window,
            time_fs: rec.map(|w| w.horizon_fs),
            last_inject: rec.and_then(|w| w.last_inject),
            hash_self: self
                .lps
                .get(lp)
                .and_then(|l| l.slice_hashes.get(window))
                .copied(),
            hash_other: other
                .lps
                .get(lp)
                .and_then(|l| l.slice_hashes.get(window))
                .copied(),
        })
    }

    /// Total kernel dispatches across all LPs.
    pub fn total_dispatched(&self) -> u64 {
        self.lps.iter().map(|l| l.metrics.dispatched).sum()
    }

    /// JSON rendering (for experiment output and bench artifacts).
    pub fn json(&self) -> Json {
        let lps = self
            .lps
            .iter()
            .map(|l| {
                Json::obj()
                    .with("name", Json::from(l.name.as_str()))
                    .with("final_time_fs", ju64(l.final_time_fs))
                    .with("dispatched", ju64(l.metrics.dispatched))
                    .with("state_hash", ju64(l.state_hash))
                    .with("slices", ju64(l.slice_hashes.len() as u64))
                    .with("probe", l.probe.clone())
            })
            .collect();
        Json::obj()
            .with("lps", Json::Arr(lps))
            .with("rounds", ju64(self.rounds))
            .with("messages", ju64(self.messages))
            .with("in_flight_at_end", ju64(self.in_flight_at_end))
            .with("shards", ju64(self.shards as u64))
            .with("total_dispatched", ju64(self.total_dispatched()))
            .with("wall_seconds", Json::Num(self.wall_seconds))
            .with("profile", self.profile.json())
    }
}

/// Longest-processing-time greedy partition: assign each LP (heaviest
/// first, ties by index) to the least-loaded shard (ties by shard index).
/// Deterministic, and within 4/3 of the optimal makespan — good enough for
/// load-balancing event loops whose weights are estimates anyway.
pub fn partition_lps(weights: &[u64], shards: usize) -> Vec<usize> {
    let s = shards.max(1).min(weights.len().max(1));
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(weights[i]), i));
    let mut load = vec![0u128; s];
    let mut assign = vec![0usize; weights.len()];
    for i in order {
        let mut best = 0usize;
        for (k, &l) in load.iter().enumerate() {
            if l < load[best] {
                best = k;
            }
        }
        assign[i] = best;
        load[best] += u128::from(weights[i].max(1));
    }
    assign
}

fn shard_err(msg: impl Into<String>) -> SimError {
    SimError::new(SimErrorKind::Validation, msg)
}

// ---------------------------------------------------------------------------
// Egress plumbing
// ---------------------------------------------------------------------------

type Outbox = Rc<RefCell<Vec<(SimTime, LinkMsg)>>>;

/// Kernel-provided component that collects [`LinkMsg`]s sent to it into a
/// per-link outbox the executor drains at every horizon.
struct LinkEgress {
    outbox: Outbox,
}

impl Component for LinkEgress {
    fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
        if let Ok(m) = msg.user::<LinkMsg>() {
            self.outbox.borrow_mut().push((api.now(), m));
        }
    }

    fn snapshot(&mut self) -> SimResult<Json> {
        // The executor drains the outbox at every horizon and hashes are
        // only taken between windows, so a non-empty outbox here means the
        // protocol broke.
        if self.outbox.borrow().is_empty() {
            Ok(Json::Null)
        } else {
            Err(crate::snapshot::err("link egress outbox not drained"))
        }
    }

    fn restore(&mut self, _state: &Json) -> SimResult<()> {
        Ok(())
    }

    fn decoders(&self) -> &'static [Decoder] {
        LINK_DECODERS
    }
}

/// A [`LinkMsg`] only ever waits a delta for its egress, so a snapshot
/// (taken between run slices) never finds one in flight; the codec exists
/// because every payload has one.
impl Codec for LinkMsg {
    const NAME: &'static str = "drcf-shard-link-msg";
    fn encode(&self) -> Json {
        Json::obj().with("tag", ju64(self.tag)).with(
            "words",
            Json::Arr(self.words.iter().map(|&w| ju64(w)).collect()),
        )
    }
    fn decode(data: &Json) -> Option<LinkMsg> {
        Some(LinkMsg {
            tag: ju64_of(data.get("tag")?)?,
            words: crate::snapshot::u64_list(data, "words").ok()?,
        })
    }
}

/// [`LinkPacket`]s pending in a timed queue survive snapshots and take part
/// in state hashes.
impl Codec for LinkPacket {
    const NAME: &'static str = "drcf-shard-link-packet";
    fn encode(&self) -> Json {
        Json::obj()
            .with("link", ju64(self.link as u64))
            .with("seq", ju64(self.seq))
            .with("tag", ju64(self.msg.tag))
            .with(
                "words",
                Json::Arr(self.msg.words.iter().map(|&w| ju64(w)).collect()),
            )
    }
    fn decode(data: &Json) -> Option<LinkPacket> {
        Some(LinkPacket {
            link: ju64_of(data.get("link")?)? as usize,
            seq: ju64_of(data.get("seq")?)?,
            msg: LinkMsg::decode(data)?,
        })
    }
}

/// Decoders for the link payloads: declared by the egress component and by
/// every model component that receives [`LinkPacket`]s.
pub const LINK_DECODERS: &[Decoder] = &[Decoder::of::<LinkMsg>(), Decoder::of::<LinkPacket>()];

// ---------------------------------------------------------------------------
// Per-LP runtime (lives on exactly one thread)
// ---------------------------------------------------------------------------

struct LpRuntime {
    lp: usize,
    name: String,
    sim: Simulator,
    outboxes: Vec<(usize, Outbox)>,
    ingress: Vec<(usize, ComponentId)>,
    slice_hashes: Vec<u64>,
    probe: Option<LpProbe>,
}

/// A message drained from an egress outbox: `(send time, link, payload)`.
type SentMsg = (SimTime, usize, LinkMsg);

#[derive(Debug)]
struct Envelope {
    deliver_at: SimTime,
    link: usize,
    seq: u64,
    msg: LinkMsg,
}

struct LpRoundCmd {
    lp: usize,
    horizon: SimTime,
    inject: Vec<Envelope>,
    hash: bool,
}

/// What one LP reports back from one window: the drained egress traffic
/// plus the observability payload the coordinator folds into the profile.
struct LpRoundOut {
    lp: usize,
    sent: Vec<SentMsg>,
    /// Wall nanoseconds spent inside `run_until`.
    busy_ns: u64,
    /// Open obligations at the round barrier (deadlock verdict deferred).
    obligations: u64,
}

fn build_lp(
    spec: LpSpec,
    lp: usize,
    links: &[LinkInfo],
    trace_capacity: Option<usize>,
) -> SimResult<LpRuntime> {
    let mut sim = Simulator::new();
    sim.set_defer_deadlock(true);
    if let Some(cap) = trace_capacity {
        sim.enable_observe(cap);
    }

    let touching: Vec<LinkInfo> = links
        .iter()
        .filter(|l| l.from == lp || l.to == lp)
        .cloned()
        .collect();
    let mut outboxes: Vec<(usize, Outbox)> = Vec::new();
    let mut egress: Vec<(usize, ComponentId)> = Vec::new();
    for l in links.iter().filter(|l| l.from == lp) {
        let outbox: Outbox = Rc::new(RefCell::new(Vec::new()));
        let id = sim.add(
            &format!("egress:{}", l.name),
            LinkEgress {
                outbox: Rc::clone(&outbox),
            },
        );
        outboxes.push((l.index, outbox));
        egress.push((l.index, id));
    }
    let mut io = LpIo {
        lp,
        links: touching,
        egress,
        ingress: links
            .iter()
            .filter(|l| l.to == lp)
            .map(|l| (l.index, None))
            .collect(),
    };
    (spec.build)(&mut sim, &mut io)?;

    let mut ingress = Vec::with_capacity(io.ingress.len());
    for (link, target) in io.ingress {
        let target = target.ok_or_else(|| {
            shard_err(format!(
                "LP {:?} did not register an ingress target for link {link}",
                spec.name
            ))
        })?;
        if target >= sim.component_count() {
            return Err(shard_err(format!(
                "LP {:?} ingress target {target} for link {link} is not a component",
                spec.name
            )));
        }
        ingress.push((link, target));
    }
    Ok(LpRuntime {
        lp,
        name: spec.name,
        sim,
        outboxes,
        ingress,
        slice_hashes: Vec::new(),
        probe: spec.probe,
    })
}

fn lp_round(rt: &mut LpRuntime, cmd: LpRoundCmd) -> SimResult<LpRoundOut> {
    let lp = cmd.lp;
    // Inject this window's envelopes, already globally sorted by
    // (deliver_at, link, seq): `post` assigns kernel sequence numbers in
    // call order, so the injection order *is* the dispatch tiebreak and is
    // identical in every execution mode.
    for env in cmd.inject {
        let now = rt.sim.now();
        if env.deliver_at < now {
            return Err(SimError::new(
                SimErrorKind::Internal,
                format!(
                    "conservative lookahead violated: link {} message for t={} arrived at LP \
                     {:?} already at t={}",
                    env.link,
                    env.deliver_at.as_fs(),
                    rt.name,
                    now.as_fs()
                ),
            ));
        }
        let target = rt
            .ingress
            .iter()
            .find(|&&(l, _)| l == env.link)
            .map(|&(_, t)| t)
            .ok_or_else(|| {
                shard_err(format!(
                    "LP {:?} has no ingress for link {}",
                    rt.name, env.link
                ))
            })?;
        let delay = Delay::Time(env.deliver_at.saturating_since(now));
        rt.sim.post(
            target,
            LinkPacket {
                link: env.link,
                seq: env.seq,
                msg: env.msg,
            },
            delay,
        );
    }

    let sim_started = std::time::Instant::now();
    match rt.sim.run_until(cmd.horizon)? {
        StopReason::Quiescent | StopReason::TimeLimit => {}
        StopReason::Stopped => {
            return Err(shard_err(format!(
                "LP {:?} called Api::stop, which sharded runs do not support",
                rt.name
            )));
        }
    }
    let busy_ns = sim_started.elapsed().as_nanos() as u64;

    let mut sent: Vec<SentMsg> = Vec::new();
    for (link, outbox) in &rt.outboxes {
        for (at, msg) in outbox.borrow_mut().drain(..) {
            sent.push((at, *link, msg));
        }
    }
    if cmd.hash {
        rt.slice_hashes.push(rt.sim.state_hash()?);
    }
    Ok(LpRoundOut {
        lp,
        sent,
        busy_ns,
        obligations: rt.sim.obligations(),
    })
}

fn lp_finish(mut rt: LpRuntime) -> SimResult<LpReport> {
    let state_hash = rt.sim.state_hash()?;
    let probe = match rt.probe.take() {
        Some(p) => p(&mut rt.sim)?,
        None => Json::Null,
    };
    let component_names = (0..rt.sim.component_count())
        .map(|id| rt.sim.component_name(id).to_string())
        .collect();
    let recorder = rt.sim.recorder();
    let (trace_capacity, trace_emitted, trace_dropped) = (
        recorder.capacity() as u64,
        recorder.emitted(),
        recorder.dropped(),
    );
    Ok(LpReport {
        name: rt.name,
        final_time_fs: rt.sim.now().as_fs(),
        metrics: rt.sim.metrics(),
        slice_hashes: rt.slice_hashes,
        state_hash,
        obligations: rt.sim.obligations(),
        probe,
        trace_events: rt.sim.observe_events(),
        component_names,
        trace_capacity,
        trace_emitted,
        trace_dropped,
    })
}

// ---------------------------------------------------------------------------
// Execution pools: inline (the oracle) and worker threads
// ---------------------------------------------------------------------------

trait ShardPool {
    /// Run one window on every LP; returns per-LP round outputs sorted by
    /// LP index.
    fn round(&mut self, cmds: Vec<LpRoundCmd>) -> SimResult<Vec<LpRoundOut>>;
    /// Tear down and collect per-LP reports, sorted by LP index.
    fn finish(&mut self) -> SimResult<Vec<LpReport>>;
}

struct InlinePool {
    rts: Vec<LpRuntime>,
}

impl ShardPool for InlinePool {
    fn round(&mut self, cmds: Vec<LpRoundCmd>) -> SimResult<Vec<LpRoundOut>> {
        let mut out = Vec::with_capacity(cmds.len());
        for cmd in cmds {
            let rt = self
                .rts
                .iter_mut()
                .find(|r| r.lp == cmd.lp)
                .ok_or_else(|| shard_err(format!("no runtime for LP {}", cmd.lp)))?;
            out.push(lp_round(rt, cmd)?);
        }
        Ok(out)
    }

    fn finish(&mut self) -> SimResult<Vec<LpReport>> {
        let mut rts = std::mem::take(&mut self.rts);
        rts.sort_by_key(|r| r.lp);
        rts.into_iter().map(lp_finish).collect()
    }
}

enum Cmd {
    Round(Vec<LpRoundCmd>),
    Finish,
}

enum Reply {
    Built(SimResult<()>),
    Round(SimResult<Vec<LpRoundOut>>),
    Finished(SimResult<Vec<(usize, LpReport)>>),
}

fn worker_main(
    specs: Vec<(usize, LpSpec)>,
    links: Vec<LinkInfo>,
    trace_capacity: Option<usize>,
    rx: mpsc::Receiver<Cmd>,
    tx: mpsc::Sender<Reply>,
) {
    let built: SimResult<Vec<LpRuntime>> = specs
        .into_iter()
        .map(|(lp, spec)| build_lp(spec, lp, &links, trace_capacity))
        .collect();
    let mut rts = match built {
        Ok(rts) => {
            let _ = tx.send(Reply::Built(Ok(())));
            rts
        }
        Err(e) => {
            let _ = tx.send(Reply::Built(Err(e)));
            return;
        }
    };
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Round(cmds) => {
                // Panics in component code must not escape the scoped
                // thread (std::thread::scope would re-panic on join);
                // surface them as typed errors like drcf-dse's sweeps do.
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let mut out = Vec::with_capacity(cmds.len());
                    for cmd in cmds {
                        let rt = rts
                            .iter_mut()
                            .find(|r| r.lp == cmd.lp)
                            .ok_or_else(|| shard_err(format!("no runtime for LP {}", cmd.lp)))?;
                        out.push(lp_round(rt, cmd)?);
                    }
                    Ok(out)
                }));
                let reply = match result {
                    Ok(r) => r,
                    Err(p) => Err(SimError::new(
                        SimErrorKind::Internal,
                        format!("shard worker panicked: {}", panic_text(p)),
                    )),
                };
                if tx.send(Reply::Round(reply)).is_err() {
                    return;
                }
            }
            Cmd::Finish => {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    rts.sort_by_key(|r| r.lp);
                    std::mem::take(&mut rts)
                        .into_iter()
                        .map(|rt| {
                            let lp = rt.lp;
                            lp_finish(rt).map(|r| (lp, r))
                        })
                        .collect()
                }));
                let reply = match result {
                    Ok(r) => r,
                    Err(p) => Err(SimError::new(
                        SimErrorKind::Internal,
                        format!("shard worker panicked: {}", panic_text(p)),
                    )),
                };
                let _ = tx.send(Reply::Finished(reply));
                return;
            }
        }
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

struct ThreadPool<'a> {
    txs: Vec<mpsc::Sender<Cmd>>,
    rxs: Vec<mpsc::Receiver<Reply>>,
    shard_of: &'a [usize],
}

impl ThreadPool<'_> {
    fn dead_worker() -> SimError {
        SimError::new(SimErrorKind::Internal, "shard worker disappeared")
    }
}

impl ShardPool for ThreadPool<'_> {
    fn round(&mut self, cmds: Vec<LpRoundCmd>) -> SimResult<Vec<LpRoundOut>> {
        let mut per: Vec<Vec<LpRoundCmd>> = (0..self.txs.len()).map(|_| Vec::new()).collect();
        for cmd in cmds {
            per[self.shard_of[cmd.lp]].push(cmd);
        }
        for (tx, batch) in self.txs.iter().zip(per) {
            tx.send(Cmd::Round(batch))
                .map_err(|_| Self::dead_worker())?;
        }
        let mut out: Vec<LpRoundOut> = Vec::new();
        let mut first_err: Option<SimError> = None;
        for rx in &self.rxs {
            match rx.recv().map_err(|_| Self::dead_worker())? {
                Reply::Round(Ok(v)) => out.extend(v),
                Reply::Round(Err(e)) => {
                    first_err.get_or_insert(e);
                }
                Reply::Built(_) | Reply::Finished(_) => {
                    first_err.get_or_insert(SimError::new(
                        SimErrorKind::Internal,
                        "shard worker protocol violation",
                    ));
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        out.sort_by_key(|o| o.lp);
        Ok(out)
    }

    fn finish(&mut self) -> SimResult<Vec<LpReport>> {
        for tx in &self.txs {
            tx.send(Cmd::Finish).map_err(|_| Self::dead_worker())?;
        }
        let mut reports: Vec<(usize, LpReport)> = Vec::new();
        let mut first_err: Option<SimError> = None;
        for rx in &self.rxs {
            match rx.recv().map_err(|_| Self::dead_worker())? {
                Reply::Finished(Ok(v)) => reports.extend(v),
                Reply::Finished(Err(e)) => {
                    first_err.get_or_insert(e);
                }
                Reply::Built(_) | Reply::Round(_) => {
                    first_err.get_or_insert(SimError::new(
                        SimErrorKind::Internal,
                        "shard worker protocol violation",
                    ));
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        reports.sort_by_key(|&(lp, _)| lp);
        Ok(reports.into_iter().map(|(_, r)| r).collect())
    }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

fn coordinate(
    pool: &mut dyn ShardPool,
    links: &[LinkInfo],
    n: usize,
    cfg: &ShardConfig,
    names: &[String],
    weights: &[u64],
) -> SimResult<(Vec<LpReport>, u64, u64, u64, ShardProfile)> {
    let end = cfg.end;
    let min_lat = links.iter().map(|l| l.min_latency).min();
    let window = match cfg.window.or(min_lat) {
        Some(w) if w > SimDuration::ZERO => w,
        Some(_) => return Err(shard_err("window must be positive")),
        // No links and no explicit window: one round covers the whole run.
        None => SimDuration::fs(end.as_fs().max(1)),
    };
    let incoming: Vec<Vec<(usize, SimDuration, usize)>> = (0..n)
        .map(|i| {
            links
                .iter()
                .filter(|l| l.to == i)
                .map(|l| (l.from, l.min_latency, l.index))
                .collect()
        })
        .collect();

    let mut committed = vec![SimTime::ZERO; n];
    let mut inject_next: Vec<Vec<Envelope>> = (0..n).map(|_| Vec::new()).collect();
    let mut link_seq = vec![0u64; links.len()];
    let mut rounds = 0u64;
    let mut messages = 0u64;

    let mut profile = ShardProfile {
        lps: (0..n)
            .map(|i| LpProfile {
                lp: i,
                name: names.get(i).cloned().unwrap_or_default(),
                weight: weights.get(i).copied().unwrap_or(1),
                windows: Vec::new(),
                busy_ns: 0,
                blocked_ns: 0,
                sent: 0,
                received: 0,
            })
            .collect(),
        links: links
            .iter()
            .map(|l| LinkProfile {
                link: l.index,
                name: l.name.clone(),
                from: l.from,
                to: l.to,
                min_latency_fs: l.min_latency.0,
                messages: 0,
                peak_window_messages: 0,
                bound_windows: 0,
            })
            .collect(),
        rounds: 0,
        quiescent_rounds: 0,
        deadlock_deferrals: 0,
    };

    while committed.iter().any(|&t| t < end) {
        let mut horizons = vec![SimTime::ZERO; n];
        let mut bounds = vec![HorizonBound::Window; n];
        for i in 0..n {
            let mut h = committed[i] + window;
            let mut b = HorizonBound::Window;
            if end < h {
                h = end;
                b = HorizonBound::End;
            }
            for &(from, lat, link) in &incoming[i] {
                let limit = committed[from] + lat;
                if limit < h {
                    h = limit;
                    b = HorizonBound::Link(link);
                }
            }
            horizons[i] = h.max(committed[i]);
            bounds[i] = b;
        }
        // Record the deterministic half of each LP's window record before
        // the inject queues are handed to the round.
        for i in 0..n {
            let received = inject_next[i].len() as u64;
            let last_inject = inject_next[i].last().map(|e| (e.link, e.seq));
            profile.lps[i].received += received;
            if let HorizonBound::Link(l) = bounds[i] {
                profile.links[l].bound_windows += 1;
            }
            profile.lps[i].windows.push(LpWindow {
                round: rounds,
                start_fs: committed[i].as_fs(),
                horizon_fs: horizons[i].as_fs(),
                bound: bounds[i],
                sent: 0,
                received,
                last_inject,
                busy_ns: 0,
                blocked_ns: 0,
            });
        }
        let cmds: Vec<LpRoundCmd> = (0..n)
            .map(|i| LpRoundCmd {
                lp: i,
                horizon: horizons[i],
                inject: std::mem::take(&mut inject_next[i]),
                hash: cfg.hash_slices,
            })
            .collect();
        let round_started = std::time::Instant::now();
        let outs = pool.round(cmds)?;
        let round_wall_ns = round_started.elapsed().as_nanos() as u64;
        rounds += 1;

        // Deterministic merge: stamp per-link sequence numbers in (LP
        // index, send order), enforce the bounded-channel capacity, then
        // deliver globally sorted by (deliver_at, link, seq).
        let mut round_count = vec![0usize; links.len()];
        let mut envs: Vec<Envelope> = Vec::new();
        let mut any_obligations = false;
        for out in outs {
            let lprof = &mut profile.lps[out.lp];
            lprof.sent += out.sent.len() as u64;
            lprof.busy_ns += out.busy_ns;
            // Barrier stall approximation: how long the slowest LP of the
            // round (plus merge overhead) outlasted this LP's own work.
            let blocked = round_wall_ns.saturating_sub(out.busy_ns);
            lprof.blocked_ns += blocked;
            if let Some(w) = lprof.windows.last_mut() {
                w.sent = out.sent.len() as u64;
                w.busy_ns = out.busy_ns;
                w.blocked_ns = blocked;
            }
            any_obligations |= out.obligations > 0;
            for (at, link, msg) in out.sent {
                let l = &links[link];
                round_count[link] += 1;
                if round_count[link] > l.capacity {
                    return Err(shard_err(format!(
                        "link {:?} exceeded its bounded capacity of {} messages per window",
                        l.name, l.capacity
                    )));
                }
                let seq = link_seq[link];
                link_seq[link] += 1;
                envs.push(Envelope {
                    deliver_at: at + l.min_latency,
                    link,
                    seq,
                    msg,
                });
            }
        }
        for (link, &count) in round_count.iter().enumerate() {
            let lprof = &mut profile.links[link];
            lprof.messages += count as u64;
            lprof.peak_window_messages = lprof.peak_window_messages.max(count as u64);
        }
        if envs.is_empty() {
            profile.quiescent_rounds += 1;
        }
        if any_obligations {
            profile.deadlock_deferrals += 1;
        }
        messages += envs.len() as u64;
        envs.sort_by_key(|e| (e.deliver_at, e.link, e.seq));
        for e in envs {
            let to = links[e.link].to;
            inject_next[to].push(e);
        }
        committed.copy_from_slice(&horizons);
    }
    profile.rounds = rounds;

    let in_flight: u64 = inject_next.iter().map(|v| v.len() as u64).sum();
    // Everything still undelivered must lie at or beyond the end horizon;
    // anything earlier would mean the lookahead protocol broke.
    for v in &inject_next {
        for e in v {
            if e.deliver_at < end {
                return Err(SimError::new(
                    SimErrorKind::Internal,
                    format!(
                        "undelivered message on link {} at t={} before the end horizon",
                        e.link,
                        e.deliver_at.as_fs()
                    ),
                ));
            }
        }
    }

    let reports = pool.finish()?;
    let pending: u64 = reports.iter().map(|r| r.obligations).sum();
    if pending > 0 {
        let blocked: Vec<&str> = reports
            .iter()
            .filter(|r| r.obligations > 0)
            .map(|r| r.name.as_str())
            .collect();
        return Err(SimError::deadlock(pending).in_component(blocked.join(",")));
    }
    Ok((reports, rounds, messages, in_flight, profile))
}

/// Execute a sharded topology to its end horizon.
///
/// With `cfg.shards == 1` every LP runs inline on the calling thread — the
/// single-threaded oracle. With more shards, LPs are grouped by the
/// [`partition_lps`] auto-partitioner (or `cfg.assign`) onto worker
/// threads; results are bit-identical to the oracle in either mode (see
/// the module docs for the argument).
pub fn run_sharded(topo: ShardTopology, cfg: &ShardConfig) -> SimResult<ShardRunReport> {
    topo.validate()?;
    let n = topo.lps.len();
    let shards = cfg.shards.max(1).min(n);
    let started = std::time::Instant::now();

    let assign = match &cfg.assign {
        Some(a) => {
            if a.len() != n || a.iter().any(|&s| s >= shards) {
                return Err(shard_err(format!(
                    "assignment must map {n} LPs onto {shards} shards"
                )));
            }
            a.clone()
        }
        None => partition_lps(&topo.weights(), shards),
    };
    let names: Vec<String> = topo.lps.iter().map(|s| s.name.clone()).collect();
    let weights = topo.weights();

    let (reports, rounds, messages, in_flight, profile) = if shards <= 1 {
        let rts: SimResult<Vec<LpRuntime>> = topo
            .lps
            .into_iter()
            .enumerate()
            .map(|(lp, spec)| build_lp(spec, lp, &topo.links, cfg.trace_capacity))
            .collect();
        let mut pool = InlinePool { rts: rts? };
        coordinate(&mut pool, &topo.links, n, cfg, &names, &weights)?
    } else {
        let mut specs: Vec<Vec<(usize, LpSpec)>> = (0..shards).map(|_| Vec::new()).collect();
        for (lp, spec) in topo.lps.into_iter().enumerate() {
            specs[assign[lp]].push((lp, spec));
        }
        let links = topo.links;
        std::thread::scope(|scope| -> SimResult<_> {
            let mut txs = Vec::with_capacity(shards);
            let mut rxs = Vec::with_capacity(shards);
            for shard_specs in specs {
                let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd>();
                let (rep_tx, rep_rx) = mpsc::channel::<Reply>();
                let worker_links = links.clone();
                let trace_capacity = cfg.trace_capacity;
                scope.spawn(move || {
                    worker_main(shard_specs, worker_links, trace_capacity, cmd_rx, rep_tx)
                });
                txs.push(cmd_tx);
                rxs.push(rep_rx);
            }
            // Wait for every worker to build its LPs before round one.
            let mut build_err: Option<SimError> = None;
            for rx in &rxs {
                match rx.recv() {
                    Ok(Reply::Built(Ok(()))) => {}
                    Ok(Reply::Built(Err(e))) => {
                        build_err.get_or_insert(e);
                    }
                    Ok(_) | Err(_) => {
                        build_err.get_or_insert(ThreadPool::dead_worker());
                    }
                }
            }
            if let Some(e) = build_err {
                // Dropping the senders unblocks and terminates workers.
                return Err(e);
            }
            let mut pool = ThreadPool {
                txs,
                rxs,
                shard_of: &assign,
            };
            coordinate(&mut pool, &links, n, cfg, &names, &weights)
        })?
    };

    Ok(ShardRunReport {
        lps: reports,
        rounds,
        messages,
        in_flight_at_end: in_flight,
        shards,
        wall_seconds: started.elapsed().as_secs_f64(),
        profile,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::event::MsgKind;
    use crate::json::ju64;

    /// Snapshot-capable test node: counts ticks on a timer, folds every
    /// received packet into a checksum, and periodically emits on all of
    /// its egress links. Optionally holds an obligation open until it has
    /// received `await_n` packets.
    struct Node {
        id: u64,
        egress: Vec<ComponentId>,
        period: SimDuration,
        emit_every: u64,
        ticks: u64,
        received: u64,
        checksum: u64,
        await_n: u64,
        waiting: bool,
    }

    impl Node {
        fn new(id: u64, egress: Vec<ComponentId>, period_ns: u64, emit_every: u64) -> Node {
            Node {
                id,
                egress,
                period: SimDuration::ns(period_ns),
                emit_every,
                ticks: 0,
                received: 0,
                checksum: 0,
                await_n: 0,
                waiting: false,
            }
        }

        fn mix(&mut self, v: u64) {
            self.checksum = self
                .checksum
                .rotate_left(7)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(v);
        }
    }

    impl Component for Node {
        fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
            match msg.kind {
                MsgKind::Start => {
                    if self.await_n > 0 {
                        api.obligation_begin();
                        self.waiting = true;
                    }
                    api.timer_in(self.period, 0);
                }
                MsgKind::Timer(_) => {
                    self.ticks += 1;
                    self.mix(self.ticks);
                    if self.emit_every > 0 && self.ticks.is_multiple_of(self.emit_every) {
                        for &e in &self.egress {
                            api.send(
                                e,
                                LinkMsg {
                                    tag: self.ticks,
                                    words: vec![self.id, self.checksum],
                                },
                                Delay::Delta,
                            );
                        }
                    }
                    api.timer_in(self.period, 0);
                }
                _ => {
                    if let Ok(p) = msg.user::<LinkPacket>() {
                        self.received += 1;
                        self.mix(p.seq);
                        self.mix(p.msg.tag);
                        for w in &p.msg.words {
                            self.mix(*w);
                        }
                        if self.waiting && self.received >= self.await_n {
                            self.waiting = false;
                            api.obligation_end();
                        }
                    }
                }
            }
        }

        fn snapshot(&mut self) -> SimResult<Json> {
            Ok(Json::obj()
                .with("ticks", ju64(self.ticks))
                .with("received", ju64(self.received))
                .with("checksum", ju64(self.checksum))
                .with("waiting", Json::Bool(self.waiting)))
        }

        fn restore(&mut self, state: &Json) -> SimResult<()> {
            self.ticks = crate::snapshot::u64_field(state, "ticks")?;
            self.received = crate::snapshot::u64_field(state, "received")?;
            self.checksum = crate::snapshot::u64_field(state, "checksum")?;
            self.waiting = crate::snapshot::bool_field(state, "waiting")?;
            Ok(())
        }
    }

    fn node_probe(sim: &mut Simulator, id: ComponentId) -> SimResult<Json> {
        let n = sim.get::<Node>(id);
        Ok(Json::obj()
            .with("ticks", ju64(n.ticks))
            .with("received", ju64(n.received))
            .with("checksum", ju64(n.checksum)))
    }

    /// Ring of `n` nodes, each emitting every few ticks to its successor.
    fn ring(n: usize, latency_ns: u64, await_n: u64) -> ShardTopology {
        let mut topo2 = ShardTopology::new();
        for i in 0..n {
            let lp = topo2.add_lp(&format!("lp{i}"), move |sim, io| {
                let out = io.outgoing();
                let egress: SimResult<Vec<ComponentId>> =
                    out.iter().map(|&l| io.egress(l)).collect();
                let id = sim.add(
                    &format!("node{i}"),
                    Node {
                        await_n,
                        ..Node::new(i as u64, egress?, 100 + 10 * i as u64, 3)
                    },
                );
                for l in io.incoming() {
                    io.set_ingress(l, id)?;
                }
                Ok(())
            });
            topo2.set_probe(lp, move |sim| {
                let id = sim.component_count() - 1;
                node_probe(sim, id)
            });
            topo2.set_weight(lp, 1 + i as u64);
        }
        for i in 0..n {
            topo2.add_link(
                &format!("l{i}"),
                i,
                (i + 1) % n,
                SimDuration::ns(latency_ns),
            );
        }
        topo2
    }

    fn run_ring(shards: usize, latency_ns: u64) -> ShardRunReport {
        let topo = ring(3, latency_ns, 0);
        let cfg = ShardConfig::to(SimTime(SimDuration::us(20).0))
            .shards(shards)
            .hash_slices(true);
        run_sharded(topo, &cfg).expect("run")
    }

    #[test]
    fn sequential_oracle_produces_traffic() {
        let r = run_ring(1, 500);
        assert_eq!(r.shards, 1);
        assert!(r.rounds > 1, "multiple windows: {}", r.rounds);
        assert!(r.messages > 10, "cross-shard traffic: {}", r.messages);
        for lp in &r.lps {
            assert!(lp.metrics.dispatched > 0);
            assert!(lp.probe.get("received").is_some());
            assert_eq!(lp.slice_hashes.len() as u64, r.rounds);
            assert_eq!(lp.final_time_fs, SimDuration::us(20).0);
        }
    }

    #[test]
    fn threaded_matches_oracle_bit_for_bit() {
        let oracle = run_ring(1, 500);
        for shards in [2usize, 3] {
            let par = run_ring(shards, 500);
            assert_eq!(par.shards, shards.min(3));
            assert!(
                oracle.same_outcome(&par),
                "divergence at {:?}",
                oracle.first_divergence(&par)
            );
            assert_eq!(oracle.first_divergence(&par), None);
        }
    }

    #[test]
    fn lookahead_size_changes_rounds_not_results() {
        // A larger link latency means larger windows and fewer rounds, but
        // identical final model state (probes), since delivery times are
        // send + latency in every case... latency differs, so only compare
        // within equal latency; here we compare round counts shrink.
        let fine = run_ring(1, 200);
        let coarse = run_ring(1, 2_000);
        assert!(coarse.rounds < fine.rounds);
    }

    #[test]
    fn obligations_deferred_across_windows_but_deadlock_still_detected() {
        // Node 0 holds an obligation until it has received one packet; the
        // ring delivers within a few windows, so the run must succeed.
        let topo = ring(3, 500, 1);
        let cfg = ShardConfig::to(SimTime(SimDuration::us(20).0));
        let r = run_sharded(topo, &cfg).expect("obligation resolves");
        assert!(r.lps.iter().all(|l| l.obligations == 0));

        // An obligation that can never resolve is a deadlock at the end
        // horizon, attributed to the blocked LPs.
        let topo = ring(3, 500, u64::MAX);
        let err = run_sharded(topo, &cfg).expect_err("unresolvable obligations");
        assert!(err.is_deadlock(), "{err:?}");
    }

    #[test]
    fn bounded_links_reject_overflow() {
        let mut topo = ring(3, 500, 0);
        for l in 0..topo.link_count() {
            topo.set_link_capacity(l, 1);
        }
        let cfg = ShardConfig::to(SimTime(SimDuration::us(20).0));
        let err = run_sharded(topo, &cfg).expect_err("capacity 1 must overflow");
        assert!(err.message.contains("bounded capacity"), "{err:?}");
    }

    #[test]
    fn validation_rejects_bad_topologies() {
        let cfg = ShardConfig::to(SimTime(SimDuration::us(1).0));
        let topo = ShardTopology::new();
        assert!(run_sharded(topo, &cfg).is_err(), "no LPs");

        let mut topo = ShardTopology::new();
        topo.add_lp("a", |_, _| Ok(()));
        topo.add_link("bad", 0, 5, SimDuration::ns(1));
        assert!(run_sharded(topo, &cfg).is_err(), "dangling link");

        let mut topo = ShardTopology::new();
        topo.add_lp("a", |_, _| Ok(()));
        topo.add_link("zero", 0, 0, SimDuration::ZERO);
        assert!(run_sharded(topo, &cfg).is_err(), "zero latency");

        // Missing ingress registration is caught at build time.
        let mut topo = ShardTopology::new();
        topo.add_lp("a", |sim, _| {
            sim.add("n", crate::component::NullComponent);
            Ok(())
        });
        let b = topo.add_lp("b", |sim, _| {
            sim.add("n", crate::component::NullComponent);
            Ok(())
        });
        topo.add_link("l", 0, b, SimDuration::ns(1));
        let err = run_sharded(topo, &cfg).expect_err("missing ingress");
        assert!(err.message.contains("ingress"), "{err:?}");
    }

    #[test]
    fn lp_without_links_runs_to_end_in_one_window() {
        let mut topo = ShardTopology::new();
        topo.add_lp("solo", |sim, _| {
            sim.add("node", Node::new(0, Vec::new(), 100, 0));
            Ok(())
        });
        let cfg = ShardConfig::to(SimTime(SimDuration::us(5).0));
        let r = run_sharded(topo, &cfg).expect("run");
        assert_eq!(r.rounds, 1);
        assert_eq!(r.messages, 0);
        assert_eq!(r.lps[0].final_time_fs, SimDuration::us(5).0);
    }

    #[test]
    fn partition_balances_and_is_deterministic() {
        let w = [10u64, 1, 1, 1, 9, 2, 2, 2];
        let a = partition_lps(&w, 2);
        assert_eq!(a, partition_lps(&w, 2), "deterministic");
        assert_eq!(a.len(), w.len());
        assert!(a.iter().all(|&s| s < 2));
        let load0: u64 = w
            .iter()
            .zip(&a)
            .filter(|&(_, &s)| s == 0)
            .map(|(w, _)| w)
            .sum();
        let load1: u64 = w
            .iter()
            .zip(&a)
            .filter(|&(_, &s)| s == 1)
            .map(|(w, _)| w)
            .sum();
        let (lo, hi) = (load0.min(load1), load0.max(load1));
        assert!(hi - lo <= 2, "balanced: {load0} vs {load1}");
        // More shards than LPs degrades gracefully.
        assert_eq!(partition_lps(&[5], 4), vec![0]);
        assert!(partition_lps(&[], 4).is_empty());
    }

    #[test]
    fn worker_panic_surfaces_as_typed_error_not_a_crash() {
        struct Bomb;
        impl Component for Bomb {
            fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
                match msg.kind {
                    MsgKind::Start => api.timer_in(SimDuration::ns(50), 0),
                    MsgKind::Timer(_) => panic!("component detonated"),
                    _ => {}
                }
            }
            fn snapshot(&mut self) -> SimResult<Json> {
                Ok(Json::Null)
            }
        }
        let mut topo = ShardTopology::new();
        topo.add_lp("a", |sim, _| {
            sim.add("bomb", Bomb);
            Ok(())
        });
        topo.add_lp("idle", |sim, io| {
            let id = sim.add("n", crate::component::NullComponent);
            for l in io.incoming() {
                io.set_ingress(l, id)?;
            }
            Ok(())
        });
        topo.add_link("l", 0, 1, SimDuration::ns(100));
        let cfg = ShardConfig::to(SimTime(SimDuration::us(1).0)).shards(2);
        let err = run_sharded(topo, &cfg).expect_err("panic becomes an error");
        assert_eq!(err.kind, SimErrorKind::Internal);
        assert!(err.message.contains("panicked"), "{err:?}");
    }

    #[test]
    fn profile_counters_reconcile_with_the_report() {
        let r = run_ring(1, 500);
        let p = &r.profile;
        assert_eq!(p.rounds, r.rounds);
        assert_eq!(p.lps.len(), 3);
        assert_eq!(p.links.len(), 3);
        // Every message the run counted was drained from some egress and
        // attributed to its link; deliveries are receipts.
        let link_msgs: u64 = p.links.iter().map(|l| l.messages).sum();
        let sent: u64 = p.lps.iter().map(|l| l.sent).sum();
        let received: u64 = p.lps.iter().map(|l| l.received).sum();
        assert_eq!(link_msgs, r.messages);
        assert_eq!(sent, r.messages);
        assert_eq!(received, r.messages - r.in_flight_at_end);
        for l in &p.links {
            assert!(l.peak_window_messages <= l.messages);
            assert_eq!(l.min_latency_fs, SimDuration::ns(500).0);
        }
        for lp in &p.lps {
            assert_eq!(lp.windows.len() as u64, p.rounds);
            assert_eq!(lp.sent, lp.windows.iter().map(|w| w.sent).sum::<u64>());
            assert_eq!(
                lp.received,
                lp.windows.iter().map(|w| w.received).sum::<u64>()
            );
            assert_eq!(lp.windows.last().unwrap().horizon_fs, SimDuration::us(20).0);
        }
    }

    #[test]
    fn profile_simulated_time_fields_are_shard_count_invariant() {
        let a = run_ring(1, 500);
        let b = run_ring(3, 500);
        type WindowKey = (u64, u64, u64, HorizonBound, u64, u64);
        let det = |r: &ShardRunReport| -> Vec<Vec<WindowKey>> {
            r.profile
                .lps
                .iter()
                .map(|l| {
                    l.windows
                        .iter()
                        .map(|w| {
                            (
                                w.round,
                                w.start_fs,
                                w.horizon_fs,
                                w.bound,
                                w.sent,
                                w.received,
                            )
                        })
                        .collect()
                })
                .collect()
        };
        assert_eq!(det(&a), det(&b));
        assert_eq!(a.profile.quiescent_rounds, b.profile.quiescent_rounds);
        assert_eq!(a.profile.deadlock_deferrals, b.profile.deadlock_deferrals);
    }

    #[test]
    fn link_bound_horizons_surface_the_critical_link() {
        // With the window forced above the link latency, every LP's
        // horizon is bound by its incoming link, not the window cap.
        let topo = ring(3, 500, 0);
        let cfg = ShardConfig::to(SimTime(SimDuration::us(10).0)).window(SimDuration::us(2));
        let r = run_sharded(topo, &cfg).expect("run");
        let p = &r.profile;
        assert!(
            p.lps
                .iter()
                .flat_map(|l| &l.windows)
                .any(|w| matches!(w.bound, HorizonBound::Link(_))),
            "some window must be link-bound"
        );
        let crit = p.critical_link().expect("a link bound some horizon");
        assert!(crit.bound_windows > 0);
        // All three ring links bind symmetrically; the tie resolves to the
        // lowest link index.
        assert_eq!(crit.link, 0);
    }

    #[test]
    fn solo_lp_round_is_quiescent_and_unbound_by_links() {
        let mut topo = ShardTopology::new();
        topo.add_lp("solo", |sim, _| {
            sim.add("node", Node::new(0, Vec::new(), 100, 0));
            Ok(())
        });
        let cfg = ShardConfig::to(SimTime(SimDuration::us(5).0));
        let r = run_sharded(topo, &cfg).expect("run");
        assert_eq!(r.profile.rounds, 1);
        assert_eq!(r.profile.quiescent_rounds, 1);
        assert_eq!(r.profile.deadlock_deferrals, 0);
        assert!(r.profile.critical_link().is_none());
    }

    #[test]
    fn deferred_obligations_count_as_deadlock_deferrals() {
        let topo = ring(3, 500, 1);
        let cfg = ShardConfig::to(SimTime(SimDuration::us(20).0));
        let r = run_sharded(topo, &cfg).expect("obligation resolves");
        assert!(
            r.profile.deadlock_deferrals > 0,
            "the awaiting node holds an obligation across early barriers"
        );
        assert!(r.profile.deadlock_deferrals < r.profile.rounds);
    }

    #[test]
    fn efficiency_report_math_on_hand_built_profiles() {
        let mk = |lp: usize, weight: u64, busy: u64, blocked: u64| LpProfile {
            lp,
            name: format!("lp{lp}"),
            weight,
            windows: Vec::new(),
            busy_ns: busy,
            blocked_ns: blocked,
            sent: 0,
            received: 0,
        };
        let lps = [mk(0, 3, 300, 100), mk(1, 1, 100, 300)];
        let e = EfficiencyReport::from_lps(&lps);
        assert!((e.parallel_efficiency - 0.5).abs() < 1e-12);
        assert!((e.load_imbalance - 1.5).abs() < 1e-12);
        assert!((e.lps[0].busy_fraction - 0.75).abs() < 1e-12);
        assert!((e.lps[1].busy_fraction - 0.25).abs() < 1e-12);
        assert!((e.lps[0].busy_share - 0.75).abs() < 1e-12);
        assert!((e.lps[0].weight_share - 0.75).abs() < 1e-12);
        assert!((e.lps[1].weight_share - 0.25).abs() < 1e-12);

        // Degenerate inputs stay finite.
        let idle = [mk(0, 0, 0, 0)];
        let e = EfficiencyReport::from_lps(&idle);
        assert_eq!(e.parallel_efficiency, 0.0);
        assert_eq!(e.load_imbalance, 1.0);
        assert_eq!(e.lps[0].busy_share, 0.0);
        let empty = EfficiencyReport::from_lps(&[]);
        assert_eq!(empty.parallel_efficiency, 0.0);
        assert_eq!(empty.load_imbalance, 1.0);

        // Rendering mentions every LP by name.
        let text = EfficiencyReport::from_lps(&lps).render();
        assert!(text.contains("lp0") && text.contains("lp1"), "{text}");
    }

    #[test]
    fn divergence_detail_resolves_names_times_and_hashes() {
        let a = run_ring(1, 500);
        assert!(a.divergence_detail(&a).is_none());
        let mut b = a.clone();
        b.lps[1].slice_hashes[2] ^= 1;
        let d = a.divergence_detail(&b).expect("forced divergence");
        assert_eq!((d.lp, d.window), (1, 2));
        assert_eq!(d.lp_name, "lp1");
        assert_eq!(d.time_fs, Some(a.profile.lps[1].windows[2].horizon_fs));
        assert_ne!(d.hash_self, d.hash_other);
        let text = d.to_string();
        assert!(text.contains("lp1") && text.contains("window 2"), "{text}");
    }

    #[test]
    fn trace_harvest_is_deterministic_across_shard_counts() {
        let run = |shards: usize| {
            let topo = ring(3, 500, 0);
            let cfg = ShardConfig::to(SimTime(SimDuration::us(20).0))
                .shards(shards)
                .hash_slices(true)
                .trace(4096);
            run_sharded(topo, &cfg).expect("run")
        };
        let oracle = run(1);
        for lp in &oracle.lps {
            assert_eq!(lp.trace_capacity, 4096);
            assert!(!lp.trace_events.is_empty(), "kernel events recorded");
            assert!(!lp.component_names.is_empty());
            assert_eq!(lp.trace_dropped, 0);
            assert_eq!(lp.trace_emitted, lp.trace_events.len() as u64);
        }
        let par = run(3);
        assert!(
            oracle.same_outcome(&par),
            "tracing must not perturb the outcome: {:?}",
            oracle.first_divergence(&par)
        );
        // Untraced reports carry no events and say so.
        let untraced = run_ring(1, 500);
        assert!(untraced.lps.iter().all(|l| l.trace_capacity == 0));
        assert!(untraced.lps.iter().all(|l| l.trace_events.is_empty()));
    }
}
