//! Automatic partitioning: cut a bus-bridged SoC into shard LPs.
//!
//! The paper's hierarchical architectures (§4: "there is usually need for
//! more complex architectures") are built from bus *segments* joined by
//! [`BusBridge`](drcf_bus::prelude::BusBridge)s. A bridge declares real
//! forwarding latency in each direction, which makes it a natural cut
//! point for conservative parallel simulation: the shard on one side can
//! run ahead of the other by the bridge's latency without ever receiving
//! a message in its past (DESIGN.md §12–§13).
//!
//! This module turns a declarative [`SocGraph`] — segments, the parts on
//! each segment, bridges between segments and raw [`StreamSpec`] channels
//! — into a [`ShardTopology`]:
//!
//! - **cut rule**: every bus segment becomes one LP; each bridge whose
//!   forward *and* return lookahead are positive is cut into a
//!   [`BridgeUpstream`]/[`BridgeDownstream`] stub pair talking over a
//!   request/response link pair; a bridge with a zero lookahead in either
//!   direction cannot be cut, so its two segments are merged into one LP
//!   (recorded in [`PartitionPlan::local`] with a typed reason) and the
//!   ordinary in-process [`BusBridge`] is instantiated instead;
//! - **determinism**: per-LP component ids are laid out by a pure
//!   function of the graph ([`PartitionPlan`] order), and every cut
//!   message travels through the kernel's deterministic merge, so the
//!   same graph produces bit-identical [`ShardRunReport`]s at any shard
//!   count — shards=1 *is* the single-LP oracle.
//!
//! [`run_partitioned`] is the one way to run a sharded SoC: build the
//! graph, then pass an explicit [`ShardConfig`] (end time, shard count,
//! slice hashing, tracing). [`crate::sharded::FabricRing`] describes its
//! ring of fabric tiles as bus-less segments joined by streams.

use std::sync::Arc;

use drcf_bus::prelude::{
    Addr, AddressMap, BridgeConfig, BridgeDownstream, BridgeUpstream, Bus, BusBridge, BusConfig,
    SlaveTiming,
};
use drcf_kernel::json::{ju64, ju64_of, Json};
use drcf_kernel::prelude::*;

use crate::builder::RunMetrics;

/// Builder closure for one part: adds exactly one component to the LP's
/// simulator and returns its id. The [`PartCtx`] carries the segment's
/// bus id and the transmit handles for the part's outgoing streams.
pub type PartBuild = Arc<dyn Fn(&mut Simulator, &PartCtx) -> SimResult<ComponentId> + Send + Sync>;

/// Probe closure for one part: summarizes the finished component as JSON
/// for the LP report.
pub type PartProbe = Arc<dyn Fn(&mut Simulator, ComponentId) -> SimResult<Json> + Send + Sync>;

/// Wiring handed to a [`PartBuild`] closure.
pub struct PartCtx {
    bus: Option<ComponentId>,
    streams: Vec<LinkTx>,
}

impl PartCtx {
    /// The segment's bus component id. Errors on a bus-less segment so
    /// misconfigured graphs fail with a typed message instead of wiring a
    /// master port to a bogus id.
    pub fn bus(&self) -> SimResult<ComponentId> {
        self.bus
            .ok_or_else(|| cfg_err("part requires a bus but its segment has none"))
    }

    /// Transmit handles for this part's outgoing streams, in stream
    /// declaration order.
    pub fn stream_txs(&self) -> &[LinkTx] {
        &self.streams
    }

    /// Egress component ids of the outgoing streams (for models that
    /// address egress components directly).
    pub fn stream_egress(&self) -> Vec<ComponentId> {
        self.streams.iter().map(LinkTx::egress).collect()
    }
}

/// One component on a bus segment.
#[derive(Clone)]
pub struct Part {
    /// Component name (also the key of its probe JSON in the LP report).
    pub name: String,
    /// Address ranges this part claims as a bus slave (may be empty for
    /// pure masters).
    pub claims: Vec<(Addr, Addr)>,
    /// Relative load weight for shard balancing.
    pub weight: u64,
    /// Deterministic service timing, registered with the segment bus so
    /// coalesced configuration trains can be scheduled analytically.
    pub timing: Option<SlaveTiming>,
    /// Constructs the component.
    pub build: PartBuild,
    /// Optional result probe.
    pub probe: Option<PartProbe>,
}

impl Part {
    /// A part with the given name and builder; claims, weight, timing and
    /// probe can be layered on with the `with_*` methods.
    pub fn new(
        name: &str,
        build: impl Fn(&mut Simulator, &PartCtx) -> SimResult<ComponentId> + Send + Sync + 'static,
    ) -> Part {
        Part {
            name: name.to_string(),
            claims: Vec::new(),
            weight: 1,
            timing: None,
            build: Arc::new(build),
            probe: None,
        }
    }

    /// Claim an address range as a bus slave.
    pub fn with_claim(mut self, low: Addr, high: Addr) -> Part {
        self.claims.push((low, high));
        self
    }

    /// Set the load weight.
    pub fn with_weight(mut self, weight: u64) -> Part {
        self.weight = weight;
        self
    }

    /// Register deterministic slave timing with the segment bus.
    pub fn with_timing(mut self, timing: SlaveTiming) -> Part {
        self.timing = Some(timing);
        self
    }

    /// Attach a result probe.
    pub fn with_probe(
        mut self,
        probe: impl Fn(&mut Simulator, ComponentId) -> SimResult<Json> + Send + Sync + 'static,
    ) -> Part {
        self.probe = Some(Arc::new(probe));
        self
    }
}

/// One bus segment: an optional bus plus the parts on it. A segment
/// without a bus hosts self-driven components (fabric tiles, stream
/// endpoints) that talk only over streams.
pub struct Segment {
    /// Segment name (LP names and bus component names derive from it).
    pub name: String,
    /// Bus configuration; `None` for a bus-less segment.
    pub bus: Option<BusConfig>,
    /// Parts in construction order.
    pub parts: Vec<Part>,
}

/// A bus-to-bus bridge between two segments: slave window on the
/// upstream bus, master on the downstream bus.
pub struct BridgeSpec {
    /// Bridge name (stub component names and link names derive from it).
    pub name: String,
    /// Timing and priority.
    pub cfg: BridgeConfig,
    /// Segment whose bus the bridge is a slave on.
    pub upstream: usize,
    /// Segment whose bus the bridge masters.
    pub downstream: usize,
    /// Address window claimed on the upstream bus.
    pub window: (Addr, Addr),
}

/// A raw directed channel between two parts, cut at a declared latency.
/// Streams model non-bus traffic (tile-to-tile packets); unlike bridges
/// they cannot fall back to an in-process component, so a zero latency is
/// a typed refusal.
pub struct StreamSpec {
    /// Channel name (the kernel link name).
    pub name: String,
    /// Producing `(segment, part)`.
    pub from: (usize, usize),
    /// Consuming `(segment, part)`.
    pub to: (usize, usize),
    /// Minimum transport latency — the lookahead. Must be positive.
    pub latency: SimDuration,
    /// Optional bounded per-window capacity override.
    pub capacity: Option<usize>,
}

/// A declarative multi-segment SoC: the input of the partitioner.
#[derive(Default)]
pub struct SocGraph {
    /// Bus segments.
    pub segments: Vec<Segment>,
    /// Bridges between segments.
    pub bridges: Vec<BridgeSpec>,
    /// Raw streams between parts.
    pub streams: Vec<StreamSpec>,
}

impl SocGraph {
    /// Empty graph.
    pub fn new() -> SocGraph {
        SocGraph::default()
    }

    /// Add a segment; returns its index.
    pub fn add_segment(&mut self, name: &str, bus: Option<BusConfig>) -> usize {
        self.segments.push(Segment {
            name: name.to_string(),
            bus,
            parts: Vec::new(),
        });
        self.segments.len() - 1
    }

    /// Add a part to a segment; returns `(segment, part)` for stream
    /// endpoints. Out-of-range segments are caught by [`plan_partition`].
    pub fn add_part(&mut self, segment: usize, part: Part) -> (usize, usize) {
        if let Some(seg) = self.segments.get_mut(segment) {
            seg.parts.push(part);
            (segment, seg.parts.len() - 1)
        } else {
            (segment, usize::MAX)
        }
    }

    /// Add a bridge; returns its index.
    pub fn add_bridge(
        &mut self,
        name: &str,
        cfg: BridgeConfig,
        upstream: usize,
        downstream: usize,
        window: (Addr, Addr),
    ) -> usize {
        self.bridges.push(BridgeSpec {
            name: name.to_string(),
            cfg,
            upstream,
            downstream,
            window,
        });
        self.bridges.len() - 1
    }

    /// Add a stream; returns its index.
    pub fn add_stream(
        &mut self,
        name: &str,
        from: (usize, usize),
        to: (usize, usize),
        latency: SimDuration,
    ) -> usize {
        self.streams.push(StreamSpec {
            name: name.to_string(),
            from,
            to,
            latency,
            capacity: None,
        });
        self.streams.len() - 1
    }

    fn validate(&self) -> SimResult<()> {
        if self.segments.is_empty() {
            return Err(cfg_err("graph has no segments"));
        }
        for b in &self.bridges {
            let up = self
                .segments
                .get(b.upstream)
                .ok_or_else(|| cfg_err(format!("bridge {:?}: no upstream segment", b.name)))?;
            let down = self
                .segments
                .get(b.downstream)
                .ok_or_else(|| cfg_err(format!("bridge {:?}: no downstream segment", b.name)))?;
            if b.upstream == b.downstream {
                return Err(cfg_err(format!(
                    "bridge {:?} connects segment {:?} to itself",
                    b.name, up.name
                )));
            }
            if up.bus.is_none() || down.bus.is_none() {
                return Err(cfg_err(format!(
                    "bridge {:?} requires buses on both segments",
                    b.name
                )));
            }
            if b.window.0 > b.window.1 {
                return Err(cfg_err(format!("bridge {:?}: inverted window", b.name)));
            }
        }
        for s in &self.streams {
            for &(seg, part) in [&s.from, &s.to] {
                if self
                    .segments
                    .get(seg)
                    .is_none_or(|sg| part >= sg.parts.len())
                {
                    return Err(cfg_err(format!(
                        "stream {:?} references missing part ({seg}, {part})",
                        s.name
                    )));
                }
            }
            if s.latency == SimDuration::ZERO {
                return Err(cfg_err(format!(
                    "stream {:?} has zero latency: streams carry no fallback component, declare \
                     a positive transport latency or model the channel as a bridge",
                    s.name
                )));
            }
        }
        Ok(())
    }
}

/// A bridge kept inside one LP instead of being cut, and why.
#[derive(Debug, Clone)]
pub struct MergedBridge {
    /// Bridge index in [`SocGraph::bridges`].
    pub bridge: usize,
    /// Typed reason for the fallback.
    pub reason: String,
}

/// What a planned kernel link carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkKind {
    /// Forwarded requests of a cut bridge (upstream → downstream).
    BridgeRequest(usize),
    /// Returned responses of a cut bridge (downstream → upstream).
    BridgeResponse(usize),
    /// A raw stream.
    Stream(usize),
}

/// One kernel link the partitioner will declare, in declaration order.
#[derive(Debug, Clone)]
pub struct PlannedLink {
    /// Link name.
    pub name: String,
    /// Source LP.
    pub from_lp: usize,
    /// Destination LP.
    pub to_lp: usize,
    /// Conservative lookahead.
    pub latency: SimDuration,
    /// What the link carries.
    pub kind: LinkKind,
    /// Bounded per-window capacity override.
    pub capacity: Option<usize>,
}

/// The cut: which segments share an LP, which bridges were cut, and the
/// exact link table — a pure function of the [`SocGraph`].
#[derive(Debug, Clone, Default)]
pub struct PartitionPlan {
    /// LP index of every segment.
    pub lp_of_segment: Vec<usize>,
    /// Segments of every LP, ascending.
    pub groups: Vec<Vec<usize>>,
    /// Bridges cut into stub pairs, ascending bridge index.
    pub cut: Vec<usize>,
    /// Bridges kept in-process, with typed reasons.
    pub local: Vec<MergedBridge>,
    /// Kernel links in declaration order.
    pub links: Vec<PlannedLink>,
    /// Per bridge: `(request link, response link)` when cut.
    pub bridge_links: Vec<Option<(usize, usize)>>,
    /// Per stream: its link index.
    pub stream_links: Vec<usize>,
}

impl PartitionPlan {
    /// Number of LPs.
    pub fn lp_count(&self) -> usize {
        self.groups.len()
    }
}

fn cfg_err(msg: impl Into<String>) -> SimError {
    SimError::new(SimErrorKind::Validation, msg)
}

fn find(parent: &mut [usize], i: usize) -> usize {
    let mut r = i;
    while parent[r] != r {
        r = parent[r];
    }
    let mut c = i;
    while parent[c] != c {
        let next = parent[c];
        parent[c] = r;
        c = next;
    }
    r
}

/// Compute the cut for a graph: merge segments joined by un-cuttable
/// bridges, number the LPs, and lay out the link table. Fails with a
/// typed [`SimErrorKind::Validation`] error on malformed graphs
/// (dangling indices, inverted windows, zero-latency streams).
pub fn plan_partition(graph: &SocGraph) -> SimResult<PartitionPlan> {
    graph.validate()?;
    let n = graph.segments.len();
    let mut parent: Vec<usize> = (0..n).collect();
    // Typed merge reasons, indexed by bridge.
    let mut merge_reason: Vec<Option<String>> = vec![None; graph.bridges.len()];
    for (b, spec) in graph.bridges.iter().enumerate() {
        let reason = if spec.cfg.min_latency() == SimDuration::ZERO {
            Some("zero forward lookahead (forward_cycles at clock_mhz rounds to zero)")
        } else if spec.cfg.return_latency() == SimDuration::ZERO {
            Some("zero return lookahead (return_cycles at clock_mhz rounds to zero)")
        } else {
            None
        };
        if let Some(r) = reason {
            merge_reason[b] = Some(r.to_string());
            let (ru, rd) = (
                find(&mut parent, spec.upstream),
                find(&mut parent, spec.downstream),
            );
            parent[ru.max(rd)] = ru.min(rd);
        }
    }
    // Number LPs by first appearance so segment 0 is always in LP 0.
    let mut lp_of_root: Vec<Option<usize>> = vec![None; n];
    let mut lp_of_segment = vec![0usize; n];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (s, slot) in lp_of_segment.iter_mut().enumerate() {
        let r = find(&mut parent, s);
        let lp = match lp_of_root[r] {
            Some(lp) => lp,
            None => {
                let lp = groups.len();
                lp_of_root[r] = Some(lp);
                groups.push(Vec::new());
                lp
            }
        };
        *slot = lp;
        groups[lp].push(s);
    }
    // Classify bridges and lay out links: bridge request/response pairs
    // first (bridge order), then streams (stream order).
    let mut cut = Vec::new();
    let mut local = Vec::new();
    let mut links = Vec::new();
    let mut bridge_links = vec![None; graph.bridges.len()];
    for (b, spec) in graph.bridges.iter().enumerate() {
        let (up_lp, down_lp) = (lp_of_segment[spec.upstream], lp_of_segment[spec.downstream]);
        if up_lp == down_lp {
            let reason = merge_reason[b].clone().unwrap_or_else(|| {
                "endpoints already share an LP (merged through another bridge)".to_string()
            });
            local.push(MergedBridge { bridge: b, reason });
            continue;
        }
        let req = links.len();
        links.push(PlannedLink {
            name: format!("{}:req", spec.name),
            from_lp: up_lp,
            to_lp: down_lp,
            latency: spec.cfg.min_latency(),
            kind: LinkKind::BridgeRequest(b),
            capacity: None,
        });
        let rsp = links.len();
        links.push(PlannedLink {
            name: format!("{}:rsp", spec.name),
            from_lp: down_lp,
            to_lp: up_lp,
            latency: spec.cfg.return_latency(),
            kind: LinkKind::BridgeResponse(b),
            capacity: None,
        });
        bridge_links[b] = Some((req, rsp));
        cut.push(b);
    }
    let mut stream_links = Vec::with_capacity(graph.streams.len());
    for (s, spec) in graph.streams.iter().enumerate() {
        stream_links.push(links.len());
        links.push(PlannedLink {
            name: spec.name.clone(),
            from_lp: lp_of_segment[spec.from.0],
            to_lp: lp_of_segment[spec.to.0],
            latency: spec.latency,
            kind: LinkKind::Stream(s),
            capacity: spec.capacity,
        });
    }
    Ok(PartitionPlan {
        lp_of_segment,
        groups,
        cut,
        local,
        links,
        bridge_links,
        stream_links,
    })
}

/// Analytic component-id layout of one LP: egress components occupy the
/// first ids (one per outgoing link, in link declaration order), then per
/// segment (ascending) the bus followed by its parts, then upstream
/// stubs, downstream stubs and in-process bridges (each in bridge order).
/// The build closure asserts this layout as it constructs the LP, so a
/// drifting id is a hard error rather than silent mis-wiring.
struct LpLayout {
    bus_of_segment: Vec<Option<ComponentId>>,
    part_id: Vec<Vec<ComponentId>>,
    up_stub: Vec<Option<ComponentId>>,
    down_stub: Vec<Option<ComponentId>>,
    local_bridge: Vec<Option<ComponentId>>,
}

fn lp_layout(graph: &SocGraph, plan: &PartitionPlan, lp: usize) -> LpLayout {
    let mut next = plan.links.iter().filter(|l| l.from_lp == lp).count();
    let mut lay = LpLayout {
        bus_of_segment: vec![None; graph.segments.len()],
        part_id: graph
            .segments
            .iter()
            .map(|s| vec![0; s.parts.len()])
            .collect(),
        up_stub: vec![None; graph.bridges.len()],
        down_stub: vec![None; graph.bridges.len()],
        local_bridge: vec![None; graph.bridges.len()],
    };
    for &seg in &plan.groups[lp] {
        if graph.segments[seg].bus.is_some() {
            lay.bus_of_segment[seg] = Some(next);
            next += 1;
        }
        for p in 0..graph.segments[seg].parts.len() {
            lay.part_id[seg][p] = next;
            next += 1;
        }
    }
    for &b in &plan.cut {
        if plan.lp_of_segment[graph.bridges[b].upstream] == lp {
            lay.up_stub[b] = Some(next);
            next += 1;
        }
    }
    for &b in &plan.cut {
        if plan.lp_of_segment[graph.bridges[b].downstream] == lp {
            lay.down_stub[b] = Some(next);
            next += 1;
        }
    }
    for m in &plan.local {
        if plan.lp_of_segment[graph.bridges[m.bridge].upstream] == lp {
            lay.local_bridge[m.bridge] = Some(next);
            next += 1;
        }
    }
    lay
}

fn ensure_id(actual: ComponentId, expect: ComponentId, what: &str) -> SimResult<()> {
    if actual == expect {
        Ok(())
    } else {
        Err(SimError::new(
            SimErrorKind::Internal,
            format!("partition layout drift: {what} landed at id {actual}, expected {expect}"),
        ))
    }
}

fn build_lp(
    graph: &SocGraph,
    plan: &PartitionPlan,
    lp: usize,
    sim: &mut Simulator,
    io: &mut LpIo,
) -> SimResult<()> {
    let lay = lp_layout(graph, plan, lp);
    for &seg in &plan.groups[lp] {
        let segment = &graph.segments[seg];
        if let Some(bus_cfg) = &segment.bus {
            let mut map = AddressMap::new();
            for (p, part) in segment.parts.iter().enumerate() {
                for &(low, high) in &part.claims {
                    map.add(low, high, lay.part_id[seg][p]).map_err(|e| {
                        cfg_err(format!(
                            "segment {:?}, part {:?}: {e}",
                            segment.name, part.name
                        ))
                    })?;
                }
            }
            for (b, spec) in graph.bridges.iter().enumerate() {
                if spec.upstream != seg {
                    continue;
                }
                let slave = lay.up_stub[b].or(lay.local_bridge[b]).ok_or_else(|| {
                    cfg_err(format!("bridge {:?} has no home in LP {lp}", spec.name))
                })?;
                map.add(spec.window.0, spec.window.1, slave)
                    .map_err(|e| cfg_err(format!("bridge {:?} window: {e}", spec.name)))?;
            }
            let mut bus = Bus::new(bus_cfg.clone(), map);
            for (p, part) in segment.parts.iter().enumerate() {
                if let Some(t) = part.timing {
                    bus.register_slave_timing(lay.part_id[seg][p], t);
                }
            }
            let id = sim.add(&format!("{}:bus", segment.name), bus);
            let expect = lay.bus_of_segment[seg]
                .ok_or_else(|| cfg_err("bus layout missing for bus segment"))?;
            ensure_id(id, expect, &format!("{}:bus", segment.name))?;
        }
        for (p, part) in segment.parts.iter().enumerate() {
            let streams: SimResult<Vec<LinkTx>> = graph
                .streams
                .iter()
                .enumerate()
                .filter(|(_, s)| s.from == (seg, p))
                .map(|(s, _)| io.tx(plan.stream_links[s]))
                .collect();
            let ctx = PartCtx {
                bus: lay.bus_of_segment[seg],
                streams: streams?,
            };
            let id = (part.build)(sim, &ctx)?;
            ensure_id(id, lay.part_id[seg][p], &part.name)?;
        }
    }
    for &b in &plan.cut {
        let Some(expect) = lay.up_stub[b] else {
            continue;
        };
        let spec = &graph.bridges[b];
        let (req, rsp) = plan.bridge_links[b]
            .ok_or_else(|| cfg_err(format!("cut bridge {:?} has no links", spec.name)))?;
        let mut stub = BridgeUpstream::new();
        stub.attach_tx(io.tx(req)?);
        let id = sim.add(&format!("{}:up", spec.name), stub);
        ensure_id(id, expect, &format!("{}:up", spec.name))?;
        io.set_ingress(rsp, id)?;
    }
    for &b in &plan.cut {
        let Some(expect) = lay.down_stub[b] else {
            continue;
        };
        let spec = &graph.bridges[b];
        let (req, rsp) = plan.bridge_links[b]
            .ok_or_else(|| cfg_err(format!("cut bridge {:?} has no links", spec.name)))?;
        let bus = lay.bus_of_segment[spec.downstream].ok_or_else(|| {
            cfg_err(format!(
                "bridge {:?}: downstream segment has no bus",
                spec.name
            ))
        })?;
        let mut stub = BridgeDownstream::new(&spec.cfg, bus);
        stub.attach_tx(io.tx(rsp)?);
        let id = sim.add(&format!("{}:down", spec.name), stub);
        ensure_id(id, expect, &format!("{}:down", spec.name))?;
        io.set_ingress(req, id)?;
    }
    for m in &plan.local {
        let Some(expect) = lay.local_bridge[m.bridge] else {
            continue;
        };
        let spec = &graph.bridges[m.bridge];
        let bus = lay.bus_of_segment[spec.downstream].ok_or_else(|| {
            cfg_err(format!(
                "bridge {:?}: downstream segment has no bus",
                spec.name
            ))
        })?;
        let id = sim.add(&spec.name, BusBridge::new(spec.cfg.clone(), bus));
        ensure_id(id, expect, &spec.name)?;
    }
    for (s, spec) in graph.streams.iter().enumerate() {
        let (seg, p) = spec.to;
        if plan.lp_of_segment[seg] != lp {
            continue;
        }
        io.set_ingress(plan.stream_links[s], lay.part_id[seg][p])?;
    }
    Ok(())
}

fn probe_lp(
    graph: &SocGraph,
    plan: &PartitionPlan,
    lp: usize,
    sim: &mut Simulator,
) -> SimResult<Json> {
    let lay = lp_layout(graph, plan, lp);
    let mut segments = Json::obj();
    let mut parts = Json::obj();
    let mut bridges = Json::obj();
    for &seg in &plan.groups[lp] {
        let segment = &graph.segments[seg];
        if let Some(bus_id) = lay.bus_of_segment[seg] {
            let stats = &sim.get::<Bus>(bus_id).stats;
            let grants: u64 = stats.grants.iter().map(|&(_, g)| g).sum();
            segments = segments.with(
                &segment.name,
                Json::obj()
                    .with("words", ju64(stats.words))
                    .with("requests", ju64(stats.requests))
                    .with("responses", ju64(stats.responses))
                    .with("grants", ju64(grants))
                    .with("decode_errors", ju64(stats.decode_errors))
                    .with("injected_faults", ju64(stats.injected_faults)),
            );
        }
        for (p, part) in segment.parts.iter().enumerate() {
            if let Some(probe) = &part.probe {
                parts = parts.with(&part.name, probe(sim, lay.part_id[seg][p])?);
            }
        }
    }
    for &b in &plan.cut {
        if let Some(id) = lay.up_stub[b] {
            let stub = sim.get::<BridgeUpstream>(id);
            bridges = bridges.with(
                &graph.bridges[b].name,
                Json::obj()
                    .with("forwarded", ju64(stub.forwarded))
                    .with("returned", ju64(stub.returned))
                    .with("forwarded_words", ju64(stub.forwarded_words))
                    .with("returned_words", ju64(stub.returned_words)),
            );
        }
        if let Some(id) = lay.down_stub[b] {
            let stub = sim.get::<BridgeDownstream>(id);
            bridges = bridges.with(
                &format!("{}:down", graph.bridges[b].name),
                Json::obj()
                    .with("replayed", ju64(stub.replayed))
                    .with("returned", ju64(stub.returned))
                    .with("replayed_words", ju64(stub.replayed_words))
                    .with("returned_words", ju64(stub.returned_words)),
            );
        }
    }
    for m in &plan.local {
        if let Some(id) = lay.local_bridge[m.bridge] {
            let bridge = sim.get::<BusBridge>(id);
            bridges = bridges.with(
                &graph.bridges[m.bridge].name,
                Json::obj()
                    .with("forwarded", ju64(bridge.forwarded))
                    .with("returned", ju64(bridge.returned)),
            );
        }
    }
    Ok(Json::obj()
        .with("segments", segments)
        .with("parts", parts)
        .with("bridges", bridges))
}

/// Cut a graph into a runnable [`ShardTopology`] plus the plan that
/// produced it. LP names join the member segments' names with `+`.
pub fn partition_topology(graph: &Arc<SocGraph>) -> SimResult<(ShardTopology, PartitionPlan)> {
    let plan = plan_partition(graph)?;
    let mut topo = ShardTopology::new();
    for (lp, segs) in plan.groups.iter().enumerate() {
        let name = segs
            .iter()
            .map(|&s| graph.segments[s].name.as_str())
            .collect::<Vec<_>>()
            .join("+");
        let (g, p) = (Arc::clone(graph), plan.clone());
        let idx = topo.add_lp(&name, move |sim, io| build_lp(&g, &p, lp, sim, io));
        let (g, p) = (Arc::clone(graph), plan.clone());
        topo.set_probe(idx, move |sim| probe_lp(&g, &p, lp, sim));
        let weight: u64 = segs
            .iter()
            .flat_map(|&s| graph.segments[s].parts.iter().map(|part| part.weight))
            .sum();
        topo.set_weight(idx, weight.max(1));
    }
    for link in &plan.links {
        let idx = topo.add_link(&link.name, link.from_lp, link.to_lp, link.latency);
        if let Some(cap) = link.capacity {
            topo.set_link_capacity(idx, cap);
        }
    }
    Ok((topo, plan))
}

/// A completed partitioned run.
#[derive(Debug, Clone)]
pub struct PartitionedRun {
    /// Per-LP reports, merge statistics, wall-clock time.
    pub report: ShardRunReport,
    /// The DSE-facing summary (bus words and errors aggregated from every
    /// segment's probe).
    pub metrics: RunMetrics,
    /// The cut that produced the topology.
    pub plan: PartitionPlan,
}

impl PartitionedRun {
    /// Total kernel events dispatched across all LPs.
    pub fn events(&self) -> u64 {
        self.report.total_dispatched()
    }

    /// Distill the critical-link report: per cut bridge, how often each of
    /// its two links' lookahead bound an LP horizon (from the run profile)
    /// and the per-direction traffic its stubs counted (from the probes).
    pub fn critical_links(&self) -> CriticalLinkReport {
        let prof = &self.report.profile;
        let stalled_windows: u64 = prof.links.iter().map(|l| l.bound_windows).sum();
        let mut bridges = Vec::new();
        for (b, links) in self.plan.bridge_links.iter().enumerate() {
            let Some((req, rsp)) = *links else { continue };
            let (Some(req_l), Some(rsp_l)) = (prof.links.get(req), prof.links.get(rsp)) else {
                continue;
            };
            let name = req_l
                .name
                .strip_suffix(":req")
                .unwrap_or(&req_l.name)
                .to_string();
            // The upstream stub lives in exactly one LP; its counters see
            // both directions (requests shipped, responses received).
            let mut traffic = BridgeTraffic {
                bridge: b,
                name: name.clone(),
                forward_lookahead_fs: req_l.min_latency_fs,
                return_lookahead_fs: rsp_l.min_latency_fs,
                forwarded: 0,
                forwarded_words: 0,
                returned: 0,
                returned_words: 0,
                req_bound_windows: req_l.bound_windows,
                rsp_bound_windows: rsp_l.bound_windows,
            };
            for lp in &self.report.lps {
                let Some(stub) = lp.probe.get("bridges").and_then(|bs| bs.get(&name)) else {
                    continue;
                };
                traffic.forwarded += stub.get("forwarded").and_then(ju64_of).unwrap_or(0);
                traffic.forwarded_words +=
                    stub.get("forwarded_words").and_then(ju64_of).unwrap_or(0);
                traffic.returned += stub.get("returned").and_then(ju64_of).unwrap_or(0);
                traffic.returned_words += stub.get("returned_words").and_then(ju64_of).unwrap_or(0);
            }
            bridges.push(traffic);
        }
        bridges.sort_by(|a, b| {
            b.bound_windows()
                .cmp(&a.bound_windows())
                .then(a.bridge.cmp(&b.bridge))
        });
        let streams = prof
            .links
            .iter()
            .enumerate()
            .filter(|&(i, _)| {
                matches!(
                    self.plan.links.get(i).map(|l| l.kind),
                    Some(LinkKind::Stream(_))
                )
            })
            .map(|(_, l)| l.clone())
            .collect();
        CriticalLinkReport {
            bridges,
            streams,
            rounds: self.report.rounds,
            stalled_windows,
        }
    }

    /// The parallel-efficiency report of the run (per-LP busy/blocked
    /// fractions and load imbalance versus the declared [`Part::weight`]s).
    pub fn efficiency(&self) -> EfficiencyReport {
        self.report.profile.efficiency()
    }
}

/// Per-direction traffic and lookahead of one cut bridge, joined from the
/// run profile (which link bound horizons) and the stub probes (message
/// and word counts).
#[derive(Debug, Clone, PartialEq)]
pub struct BridgeTraffic {
    /// Bridge index in [`SocGraph::bridges`].
    pub bridge: usize,
    /// Bridge name.
    pub name: String,
    /// Request-link lookahead (forward latency), femtoseconds.
    pub forward_lookahead_fs: u64,
    /// Response-link lookahead (return latency), femtoseconds.
    pub return_lookahead_fs: u64,
    /// Requests forwarded across the cut (upstream → downstream).
    pub forwarded: u64,
    /// Payload words those requests carried.
    pub forwarded_words: u64,
    /// Responses returned across the cut (downstream → upstream).
    pub returned: u64,
    /// Payload words those responses carried.
    pub returned_words: u64,
    /// Windows in which the request link's lookahead bound a horizon.
    pub req_bound_windows: u64,
    /// Windows in which the response link's lookahead bound a horizon.
    pub rsp_bound_windows: u64,
}

impl BridgeTraffic {
    /// Total windows either direction of this bridge was the bottleneck.
    pub fn bound_windows(&self) -> u64 {
        self.req_bound_windows + self.rsp_bound_windows
    }
}

/// Which cut's lookahead limits the achievable speedup: cut bridges
/// sorted most-binding first, plus stream links with their profile
/// counters, against the run's total round count.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalLinkReport {
    /// Cut bridges, descending by [`BridgeTraffic::bound_windows`] (ties
    /// by bridge index).
    pub bridges: Vec<BridgeTraffic>,
    /// Stream links with their profile counters (in stream order).
    pub streams: Vec<LinkProfile>,
    /// Synchronization rounds in the run.
    pub rounds: u64,
    /// Total link-bound windows across all links — how often any cut's
    /// lookahead (rather than the window cap or end horizon) was the
    /// limit.
    pub stalled_windows: u64,
}

impl CriticalLinkReport {
    /// The bridge that bound horizons most often, if any did.
    pub fn bounding(&self) -> Option<&BridgeTraffic> {
        self.bridges.first().filter(|b| b.bound_windows() > 0)
    }

    /// JSON rendering (bench artifacts and history records).
    pub fn json(&self) -> Json {
        let bridges = self
            .bridges
            .iter()
            .map(|b| {
                Json::obj()
                    .with("bridge", ju64(b.bridge as u64))
                    .with("name", Json::from(b.name.as_str()))
                    .with("forward_lookahead_fs", ju64(b.forward_lookahead_fs))
                    .with("return_lookahead_fs", ju64(b.return_lookahead_fs))
                    .with("forwarded", ju64(b.forwarded))
                    .with("forwarded_words", ju64(b.forwarded_words))
                    .with("returned", ju64(b.returned))
                    .with("returned_words", ju64(b.returned_words))
                    .with("req_bound_windows", ju64(b.req_bound_windows))
                    .with("rsp_bound_windows", ju64(b.rsp_bound_windows))
            })
            .collect();
        let streams = self
            .streams
            .iter()
            .map(|l| {
                Json::obj()
                    .with("name", Json::from(l.name.as_str()))
                    .with("min_latency_fs", ju64(l.min_latency_fs))
                    .with("messages", ju64(l.messages))
                    .with("peak_window_messages", ju64(l.peak_window_messages))
                    .with("bound_windows", ju64(l.bound_windows))
            })
            .collect();
        Json::obj()
            .with("rounds", ju64(self.rounds))
            .with("stalled_windows", ju64(self.stalled_windows))
            .with("bridges", Json::Arr(bridges))
            .with("streams", Json::Arr(streams))
    }

    /// Human-readable rendering for the experiments CLI.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let ns = |fs: u64| fs as f64 / 1e6;
        let mut out = String::new();
        match self.bounding() {
            Some(b) => {
                let _ = writeln!(
                    out,
                    "critical link: bridge {:?} bound {} LP-windows over {} rounds \
                     (fwd lookahead {:.0} ns, rsp {:.0} ns)",
                    b.name,
                    b.bound_windows(),
                    self.rounds,
                    ns(b.forward_lookahead_fs),
                    ns(b.return_lookahead_fs),
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "critical link: none — no cut bridge bound a horizon in {} rounds",
                    self.rounds
                );
            }
        }
        for b in &self.bridges {
            let _ = writeln!(
                out,
                "  bridge {:12} fwd {:6} msgs / {:8} words  rsp {:6} msgs / {:8} words  \
                 bound {:4} windows (req {}, rsp {})",
                b.name,
                b.forwarded,
                b.forwarded_words,
                b.returned,
                b.returned_words,
                b.bound_windows(),
                b.req_bound_windows,
                b.rsp_bound_windows,
            );
        }
        for l in &self.streams {
            let _ = writeln!(
                out,
                "  stream {:12} {:6} msgs (peak {}/window)  lookahead {:.0} ns  bound {:4} windows",
                l.name,
                l.messages,
                l.peak_window_messages,
                ns(l.min_latency_fs),
                l.bound_windows,
            );
        }
        out
    }
}

/// Partition `graph`, run it under `cfg`, and distill [`RunMetrics`] from
/// the per-segment bus probes. `cfg.shards == 1` is the single-LP oracle;
/// any other count is bit-identical to it by construction.
pub fn run_partitioned(graph: &Arc<SocGraph>, cfg: &ShardConfig) -> SimResult<PartitionedRun> {
    let (topo, plan) = partition_topology(graph)?;
    let report = drcf_kernel::prelude::run_sharded(topo, cfg)?;
    let mut bus_words = 0u64;
    let mut errors = 0u64;
    for lp in &report.lps {
        if let Some(segs) = lp.probe.get("segments").map(json_entries) {
            for (_, seg) in segs {
                bus_words += seg.get("words").and_then(ju64_of).unwrap_or(0);
                errors += seg.get("decode_errors").and_then(ju64_of).unwrap_or(0);
                errors += seg.get("injected_faults").and_then(ju64_of).unwrap_or(0);
            }
        }
    }
    let metrics = RunMetrics {
        makespan: SimDuration::fs(cfg.end.as_fs()),
        bus_words,
        errors,
        ok: true,
        ..RunMetrics::default()
    };
    Ok(PartitionedRun {
        report,
        metrics,
        plan,
    })
}

fn json_entries(j: &Json) -> Vec<(String, Json)> {
    j.as_obj().map(<[_]>::to_vec).unwrap_or_default()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use drcf_bus::prelude::{BusOp, MasterPort, Memory, MemoryConfig, Word};
    use drcf_kernel::snapshot::{self as snap, Snapshotable};

    /// Scripted bus master: issues the next access when the previous one
    /// answers. Snapshot-capable so per-slice state hashing covers it.
    struct Pinger {
        port: MasterPort,
        script: Vec<(BusOp, Addr, Word)>,
        pc: usize,
        reads: Vec<Word>,
        ok_replies: u64,
    }

    impl Pinger {
        fn next(&mut self, api: &mut Api<'_>) {
            if let Some(&(op, addr, v)) = self.script.get(self.pc) {
                self.pc += 1;
                match op {
                    BusOp::Read => {
                        self.port.read(api, addr, 1);
                    }
                    BusOp::Write => {
                        self.port.write(api, addr, vec![v]);
                    }
                }
            }
        }
    }

    impl Component for Pinger {
        fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
            match &msg.kind {
                MsgKind::Start => self.next(api),
                _ => {
                    if let Ok(r) = self.port.take_response(api, msg) {
                        if r.is_ok() {
                            self.ok_replies += 1;
                        }
                        if r.op == BusOp::Read && r.is_ok() {
                            self.reads.push(r.data[0]);
                        }
                        self.next(api);
                    }
                }
            }
        }

        fn snapshot(&mut self) -> SimResult<Json> {
            Ok(Json::obj()
                .with("port", self.port.snapshot_json())
                .with("pc", ju64(self.pc as u64))
                .with(
                    "reads",
                    Json::Arr(self.reads.iter().map(|&w| ju64(w)).collect()),
                )
                .with("ok_replies", ju64(self.ok_replies)))
        }

        fn restore(&mut self, state: &Json) -> SimResult<()> {
            self.port.restore_json(snap::field(state, "port")?)?;
            self.pc = snap::usize_field(state, "pc")?;
            self.reads = snap::arr_field(state, "reads")?
                .iter()
                .filter_map(ju64_of)
                .collect();
            self.ok_replies = snap::u64_field(state, "ok_replies")?;
            Ok(())
        }
    }

    fn pinger_part(name: &str, script: Vec<(BusOp, Addr, Word)>) -> Part {
        let owned = name.to_string();
        Part::new(name, move |sim, ctx| {
            let bus = ctx.bus()?;
            Ok(sim.add(
                &owned,
                Pinger {
                    port: MasterPort::new(bus, 1),
                    script: script.clone(),
                    pc: 0,
                    reads: Vec::new(),
                    ok_replies: 0,
                },
            ))
        })
        .with_probe(|sim, id| {
            let p = sim.get::<Pinger>(id);
            Ok(Json::obj().with("ok_replies", ju64(p.ok_replies)).with(
                "reads",
                Json::Arr(p.reads.iter().map(|&w| ju64(w)).collect()),
            ))
        })
        .with_weight(4)
    }

    fn mem_part(name: &str, base: Addr, words: usize) -> Part {
        let cfg = MemoryConfig {
            base,
            size_words: words,
            ..MemoryConfig::default()
        };
        let timing = cfg.slave_timing();
        let owned = name.to_string();
        Part::new(name, move |sim, _ctx| {
            Ok(sim.add(
                &owned,
                Memory::new(MemoryConfig {
                    base,
                    size_words: words,
                    ..MemoryConfig::default()
                }),
            ))
        })
        .with_claim(base, base + words as Addr - 1)
        .with_timing(timing)
    }

    /// Two bus segments joined by one bridge; the upstream master reaches
    /// the downstream memory through the bridge window.
    fn bridged_graph(cfg: BridgeConfig) -> SocGraph {
        let mut g = SocGraph::new();
        let cpu = g.add_segment("cpu", Some(Default::default()));
        let periph = g.add_segment("periph", Some(Default::default()));
        g.add_part(
            cpu,
            pinger_part(
                "pinger",
                vec![
                    (BusOp::Write, 0x1_0040, 777),
                    (BusOp::Read, 0x1_0040, 0),
                    (BusOp::Write, 0x1_0041, 9),
                    (BusOp::Read, 0x1_0041, 0),
                ],
            ),
        );
        g.add_part(cpu, mem_part("local_mem", 0x0000, 0x100));
        g.add_part(periph, mem_part("remote_mem", 0x1_0000, 0x1000));
        g.add_bridge("bridge", cfg, cpu, periph, (0x1_0000, 0x1_FFFF));
        g
    }

    fn run(graph: &Arc<SocGraph>, shards: usize) -> PartitionedRun {
        let cfg = ShardConfig::to(SimTime::ZERO + SimDuration::us(4))
            .shards(shards)
            .hash_slices(true);
        run_partitioned(graph, &cfg).expect("partitioned run")
    }

    fn pinger_reads(r: &PartitionedRun) -> Vec<u64> {
        r.report
            .lps
            .iter()
            .find_map(|lp| {
                lp.probe
                    .get("parts")
                    .and_then(|p| p.get("pinger"))
                    .and_then(|p| p.get("reads"))
                    .and_then(Json::as_arr)
                    .map(|a| a.iter().filter_map(ju64_of).collect())
            })
            .unwrap_or_default()
    }

    #[test]
    fn bridge_cut_is_bit_identical_to_single_lp_oracle() {
        let graph = Arc::new(bridged_graph(BridgeConfig::default()));
        let plan = plan_partition(&graph).expect("plan");
        assert_eq!(plan.lp_count(), 2, "one LP per segment");
        assert_eq!(plan.cut, vec![0]);
        assert!(plan.local.is_empty());
        assert_eq!(plan.links.len(), 2, "request + response links");
        let oracle = run(&graph, 1);
        assert_eq!(oracle.report.shards, 1);
        assert_eq!(
            pinger_reads(&oracle),
            vec![777, 9],
            "writes must read back through the cut bridge"
        );
        assert!(oracle.metrics.bus_words > 0);
        let par = run(&graph, 2);
        assert!(
            oracle.report.same_outcome(&par.report),
            "diverged at {:?}",
            oracle.report.first_divergence(&par.report)
        );
        assert_eq!(oracle.metrics, par.metrics);
    }

    #[test]
    fn zero_latency_bridge_falls_back_to_one_lp_with_typed_reason() {
        // 2 GHz-class bridge clock: one cycle rounds to zero femtoseconds,
        // so the bridge carries no usable lookahead and cannot be cut.
        let cfg = BridgeConfig {
            forward_cycles: 1,
            clock_mhz: 2_000_000_000,
            ..BridgeConfig::default()
        };
        assert_eq!(cfg.min_latency(), SimDuration::ZERO);
        let graph = Arc::new(bridged_graph(cfg));
        let plan = plan_partition(&graph).expect("plan");
        assert_eq!(plan.lp_count(), 1, "segments merged into one LP");
        assert!(plan.cut.is_empty());
        assert_eq!(plan.local.len(), 1);
        assert!(
            plan.local[0].reason.contains("zero forward lookahead"),
            "reason: {}",
            plan.local[0].reason
        );
        // The merged system still runs (with the in-process BusBridge) and
        // still reads back its writes.
        let r = run(&graph, 2);
        assert_eq!(r.report.shards, 1, "a single LP clamps to one shard");
        assert_eq!(pinger_reads(&r), vec![777, 9]);
    }

    #[test]
    fn zero_return_lookahead_also_merges() {
        let cfg = BridgeConfig {
            return_cycles: 0,
            ..BridgeConfig::default()
        };
        assert_eq!(cfg.return_latency(), SimDuration::ZERO);
        let plan = plan_partition(&bridged_graph(cfg)).expect("plan");
        assert_eq!(plan.lp_count(), 1);
        assert!(plan.local[0].reason.contains("zero return lookahead"));
    }

    #[test]
    fn bridge_cycle_cuts_both_directions() {
        let mut g = SocGraph::new();
        let a = g.add_segment("a", Some(Default::default()));
        let b = g.add_segment("b", Some(Default::default()));
        g.add_part(
            a,
            pinger_part(
                "pinger",
                vec![(BusOp::Write, 0x1_0000, 41), (BusOp::Read, 0x1_0000, 0)],
            ),
        );
        g.add_part(a, mem_part("mem_a", 0x0000, 0x100));
        // The reverse pinger lives on b and reaches a's memory through the
        // reverse bridge.
        g.add_part(
            b,
            pinger_part(
                "rev_pinger",
                vec![(BusOp::Write, 0x0010, 42), (BusOp::Read, 0x0010, 0)],
            ),
        );
        g.add_part(b, mem_part("mem_b", 0x1_0000, 0x100));
        g.add_bridge(
            "a_to_b",
            BridgeConfig::default(),
            a,
            b,
            (0x1_0000, 0x1_FFFF),
        );
        g.add_bridge("b_to_a", BridgeConfig::default(), b, a, (0x0000, 0x0FFF));
        let graph = Arc::new(g);
        let plan = plan_partition(&graph).expect("plan");
        assert_eq!(plan.lp_count(), 2);
        assert_eq!(plan.cut, vec![0, 1], "both directions cut");
        assert_eq!(plan.links.len(), 4);
        let oracle = run(&graph, 1);
        let par = run(&graph, 2);
        assert!(
            oracle.report.same_outcome(&par.report),
            "diverged at {:?}",
            oracle.report.first_divergence(&par.report)
        );
        // Each pinger read back what it wrote across its bridge.
        let reads: Vec<Vec<u64>> = oracle
            .report
            .lps
            .iter()
            .flat_map(|lp| {
                ["pinger", "rev_pinger"].into_iter().filter_map(|name| {
                    lp.probe
                        .get("parts")
                        .and_then(|p| p.get(name))
                        .and_then(|p| p.get("reads"))
                        .and_then(Json::as_arr)
                        .map(|a| a.iter().filter_map(ju64_of).collect())
                })
            })
            .collect();
        assert_eq!(reads, vec![vec![41], vec![42]]);
    }

    #[test]
    fn no_bridge_graph_is_one_inline_lp() {
        let mut g = SocGraph::new();
        let seg = g.add_segment("solo", Some(Default::default()));
        g.add_part(
            seg,
            pinger_part(
                "pinger",
                vec![(BusOp::Write, 0x10, 5), (BusOp::Read, 0x10, 0)],
            ),
        );
        g.add_part(seg, mem_part("mem", 0x0000, 0x100));
        let graph = Arc::new(g);
        let plan = plan_partition(&graph).expect("plan");
        assert_eq!(plan.lp_count(), 1);
        assert!(plan.links.is_empty());
        // Asking for 4 shards clamps to the single LP: the inline oracle
        // path, one round, no cross-shard messages.
        let r = run(&graph, 4);
        assert_eq!(r.report.shards, 1);
        assert_eq!(r.report.messages, 0);
        assert_eq!(pinger_reads(&r), vec![5]);
    }

    #[test]
    fn zero_latency_stream_is_a_typed_refusal() {
        let mut g = SocGraph::new();
        let s0 = g.add_segment("t0", None);
        let s1 = g.add_segment("t1", None);
        let p0 = g.add_part(
            s0,
            Part::new("n0", |sim, _| Ok(sim.add("n0", NullComponent))),
        );
        let p1 = g.add_part(
            s1,
            Part::new("n1", |sim, _| Ok(sim.add("n1", NullComponent))),
        );
        g.add_stream("wire", p0, p1, SimDuration::ZERO);
        let err = plan_partition(&g).expect_err("zero-latency stream");
        assert_eq!(err.kind, SimErrorKind::Validation);
        assert!(err.message.contains("zero latency"), "{}", err.message);
    }

    #[test]
    fn critical_link_report_names_the_bounding_bridge_with_traffic() {
        let graph = Arc::new(bridged_graph(BridgeConfig::default()));
        // A window cap far above the bridge's ~20 ns lookahead keeps the
        // cut links the strictly-binding horizon term.
        let cfg = ShardConfig::to(SimTime::ZERO + SimDuration::us(4))
            .shards(2)
            .hash_slices(true)
            .window(SimDuration::us(1));
        let r = run_partitioned(&graph, &cfg).expect("partitioned run");
        let cl = r.critical_links();
        assert_eq!(cl.rounds, r.report.rounds);
        assert_eq!(cl.bridges.len(), 1);
        assert!(cl.streams.is_empty());
        let b = &cl.bridges[0];
        assert_eq!(b.name, "bridge");
        assert_eq!(b.bridge, 0);
        // The 4-op script forwards 4 requests and returns 4 responses.
        assert_eq!(b.forwarded, 4);
        assert_eq!(b.returned, 4);
        // Two writes of one word ([op, addr, burst, prio, w]) and two
        // reads ([op, addr, burst, prio]) forward; every response is
        // [status, op, addr] plus the read payload.
        assert_eq!(b.forwarded_words, 2 * 5 + 2 * 4);
        assert_eq!(b.returned_words, 4 * 3 + 2);
        assert_eq!(
            b.forward_lookahead_fs,
            BridgeConfig::default().min_latency().as_fs()
        );
        assert_eq!(
            b.return_lookahead_fs,
            BridgeConfig::default().return_latency().as_fs()
        );
        // The short default window keeps the cut's lookahead binding.
        let bounding = cl.bounding().expect("a bridge bound some horizon");
        assert_eq!(bounding.name, "bridge");
        assert_eq!(
            cl.stalled_windows,
            b.req_bound_windows + b.rsp_bound_windows
        );
        // Rendering names the bridge and its traffic for the CLI.
        let text = cl.render();
        assert!(text.contains("critical link: bridge \"bridge\""), "{text}");
        assert!(text.contains("fwd      4 msgs"), "{text}");
        // JSON carries the same counts for BENCH_history records.
        let j = cl.json();
        let jb = &j.get("bridges").and_then(Json::as_arr).expect("bridges")[0];
        assert_eq!(jb.get("forwarded").and_then(ju64_of), Some(4));
        assert_eq!(jb.get("returned_words").and_then(ju64_of), Some(14));
    }

    #[test]
    fn critical_link_report_sorts_bridges_most_binding_first() {
        // Hand-built run: two cut bridges whose profile counters disagree
        // about who bound more windows; the report must sort descending
        // and break ties by bridge index.
        let mk_link = |i: usize, name: &str, bound: u64| LinkProfile {
            link: i,
            name: name.to_string(),
            from: 0,
            to: 1,
            min_latency_fs: 1_000_000,
            messages: 10,
            peak_window_messages: 2,
            bound_windows: bound,
        };
        let mk_planned = |name: &str, kind: LinkKind| PlannedLink {
            name: name.to_string(),
            from_lp: 0,
            to_lp: 1,
            latency: SimDuration::ns(1),
            kind,
            capacity: None,
        };
        let profile = ShardProfile {
            links: vec![
                mk_link(0, "a:req", 1),
                mk_link(1, "a:rsp", 2),
                mk_link(2, "b:req", 4),
                mk_link(3, "b:rsp", 0),
                mk_link(4, "wire", 3),
            ],
            rounds: 20,
            ..ShardProfile::default()
        };
        let report = ShardRunReport {
            rounds: 20,
            profile,
            ..ShardRunReport::default()
        };
        let plan = PartitionPlan {
            links: vec![
                mk_planned("a:req", LinkKind::BridgeRequest(0)),
                mk_planned("a:rsp", LinkKind::BridgeResponse(0)),
                mk_planned("b:req", LinkKind::BridgeRequest(1)),
                mk_planned("b:rsp", LinkKind::BridgeResponse(1)),
                mk_planned("wire", LinkKind::Stream(0)),
            ],
            bridge_links: vec![Some((0, 1)), Some((2, 3))],
            cut: vec![0, 1],
            ..PartitionPlan::default()
        };
        let run = PartitionedRun {
            report,
            metrics: RunMetrics::default(),
            plan,
        };
        let cl = run.critical_links();
        assert_eq!(cl.bridges.len(), 2);
        // b bound 4 windows, a bound 3: b first despite higher index.
        assert_eq!(cl.bridges[0].name, "b");
        assert_eq!(cl.bridges[0].bound_windows(), 4);
        assert_eq!(cl.bridges[1].name, "a");
        assert_eq!(cl.streams.len(), 1);
        assert_eq!(cl.streams[0].name, "wire");
        assert_eq!(cl.stalled_windows, 1 + 2 + 4 + 3);
        assert_eq!(cl.bounding().map(|b| b.bridge), Some(1));
    }

    #[test]
    fn efficiency_report_comes_from_the_run_profile() {
        let graph = Arc::new(bridged_graph(BridgeConfig::default()));
        let r = run(&graph, 2);
        let eff = r.efficiency();
        assert_eq!(eff.lps.len(), 2);
        // Segment LPs are named after their segments; weights come from
        // the declared parts (pinger has weight 4, memories default 1).
        assert_eq!(eff.lps[0].name, "cpu");
        assert_eq!(eff.lps[0].weight, 5);
        assert_eq!(eff.lps[1].name, "periph");
        assert_eq!(eff.lps[1].weight, 1);
        for lp in &eff.lps {
            assert!(lp.busy_fraction >= 0.0 && lp.busy_fraction <= 1.0);
            assert!((lp.busy_fraction + lp.blocked_fraction - 1.0).abs() < 1e-9);
        }
        assert!(eff.parallel_efficiency > 0.0 && eff.parallel_efficiency <= 1.0);
        assert!(eff.load_imbalance >= 1.0);
    }

    #[test]
    fn malformed_graphs_fail_with_typed_errors() {
        // Dangling bridge segment.
        let mut g = SocGraph::new();
        g.add_segment("only", Some(Default::default()));
        g.add_bridge("b", BridgeConfig::default(), 0, 7, (0, 10));
        assert_eq!(
            plan_partition(&g).expect_err("dangling").kind,
            SimErrorKind::Validation
        );
        // Bridge between bus-less segments.
        let mut g = SocGraph::new();
        g.add_segment("x", None);
        g.add_segment("y", None);
        g.add_bridge("b", BridgeConfig::default(), 0, 1, (0, 10));
        let err = plan_partition(&g).expect_err("no buses");
        assert!(err.message.contains("requires buses"), "{}", err.message);
        // Self-bridge.
        let mut g = SocGraph::new();
        g.add_segment("x", Some(Default::default()));
        g.add_bridge("b", BridgeConfig::default(), 0, 0, (0, 10));
        assert!(plan_partition(&g).is_err());
        // Empty graph.
        assert!(plan_partition(&SocGraph::new()).is_err());
    }
}
