//! Sharded multi-fabric SoC model.
//!
//! The paper's architectures (Fig. 1) are single-fabric: one CPU, one bus,
//! one DRCF. Scaling the methodology to many reconfigurable fabrics — one
//! per radio standard, say — multiplies simulation work linearly while the
//! single-threaded kernel still occupies one core. This module describes a
//! multi-fabric ring as a [`SocGraph`]: each fabric tile is a bus-less
//! segment, and tiles exchange traffic over bridge-latency streams (the
//! conservative lookahead comes from
//! [`BridgeConfig::min_latency`](drcf_bus::prelude::BridgeConfig)).
//! [`run_partitioned`](crate::partition::run_partitioned) runs the graph
//! under an explicit [`ShardConfig`](drcf_kernel::prelude::ShardConfig),
//! one LP per tile, and results are bit-identical across shard counts by
//! construction.
//!
//! [`FabricRing`] is deliberately parametric rather than a fixed workload:
//! tile count, per-tick work, emission cadence, link latency and a fault
//! window are all knobs, which is what the DSE layer and the `sharded_soc`
//! bench sweep over.

use drcf_bus::prelude::BridgeConfig;
use drcf_kernel::json::{ju64, Json};
use drcf_kernel::prelude::*;
use drcf_kernel::snapshot::u64_field;

use crate::partition::{Part, SocGraph};

/// One reconfigurable fabric tile, modeled as a self-clocked component:
/// every clock tick it performs `work` units of local computation and
/// `fanout` delta-cycle dispatches (standing in for the context scheduler
/// and accelerator activity inside the tile), and every `emit_every`
/// ticks it emits a transaction to the next tile over the bridge link.
/// Packets arriving inside the fault window are dropped, modeling the
/// transient configuration faults of the paper's §5.4 discussion.
///
/// The tile is snapshot-capable, so per-slice `state_hash()` covers it.
pub struct FabricTile {
    id: u64,
    egress: Vec<ComponentId>,
    period: SimDuration,
    work: u64,
    fanout: u64,
    emit_every: u64,
    fault: Option<(SimTime, SimTime)>,
    ticks: u64,
    received: u64,
    dropped: u64,
    checksum: u64,
}

impl FabricTile {
    fn mix(&mut self, v: u64) {
        self.checksum = self
            .checksum
            .rotate_left(13)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(v);
    }
}

const TAG_TICK: u64 = 0;
const TAG_WORK: u64 = 1;

impl Component for FabricTile {
    fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
        match msg.kind {
            MsgKind::Start => api.timer_in(self.period, TAG_TICK),
            MsgKind::Timer(TAG_TICK) => {
                self.ticks += 1;
                for u in 0..self.work {
                    self.mix(self.ticks ^ (u << 32));
                }
                let me = api.me();
                for _ in 0..self.fanout {
                    api.send(me, WorkPulse, Delay::Delta);
                }
                if self.emit_every > 0 && self.ticks.is_multiple_of(self.emit_every) {
                    for &e in &self.egress {
                        api.send(
                            e,
                            LinkMsg {
                                tag: self.ticks,
                                words: vec![self.id, self.checksum & 0xffff_ffff],
                            },
                            Delay::Delta,
                        );
                    }
                }
                api.timer_in(self.period, TAG_TICK);
            }
            MsgKind::Timer(_) => {}
            _ => {
                let msg = match msg.user::<WorkPulse>() {
                    Ok(_) => {
                        self.mix(TAG_WORK);
                        return;
                    }
                    Err(m) => m,
                };
                if let Ok(p) = msg.user::<LinkPacket>() {
                    let now = api.now();
                    if let Some((s, e)) = self.fault {
                        if now >= s && now < e {
                            self.dropped += 1;
                            return;
                        }
                    }
                    self.received += 1;
                    self.mix(p.seq);
                    self.mix(p.msg.tag);
                    for w in &p.msg.words {
                        self.mix(*w);
                    }
                }
            }
        }
    }

    fn snapshot(&mut self) -> SimResult<Json> {
        Ok(Json::obj()
            .with("ticks", ju64(self.ticks))
            .with("received", ju64(self.received))
            .with("dropped", ju64(self.dropped))
            .with("checksum", ju64(self.checksum)))
    }

    fn restore(&mut self, state: &Json) -> SimResult<()> {
        self.ticks = u64_field(state, "ticks")?;
        self.received = u64_field(state, "received")?;
        self.dropped = u64_field(state, "dropped")?;
        self.checksum = u64_field(state, "checksum")?;
        Ok(())
    }

    fn decoders(&self) -> &'static [Decoder] {
        TILE_DECODERS
    }
}

/// Intra-tile delta-cycle work marker. It only ever waits a delta, so no
/// snapshot finds one in flight; the codec exists because every payload
/// has one.
struct WorkPulse;

impl Codec for WorkPulse {
    const NAME: &'static str = "soc.WorkPulse";
    fn encode(&self) -> Json {
        Json::Null
    }
    fn decode(data: &Json) -> Option<WorkPulse> {
        matches!(data, Json::Null).then_some(WorkPulse)
    }
}

/// What a tile receives: its own work pulses and cross-tile packets.
const TILE_DECODERS: &[Decoder] = &[Decoder::of::<WorkPulse>(), Decoder::of::<LinkPacket>()];

/// A parametric multi-fabric topology: `tiles` fabric tiles in a ring,
/// each pair joined by a bridge-latency link.
#[derive(Debug, Clone)]
pub struct FabricRing {
    /// Fabric tiles (logical processes).
    pub tiles: usize,
    /// Tile clock, MHz.
    pub clock_mhz: u64,
    /// Arithmetic work units per tick.
    pub work: u64,
    /// Delta-cycle dispatches per tick (kernel load).
    pub fanout: u64,
    /// Ticks between cross-tile emissions.
    pub emit_every: u64,
    /// Cross-tile link latency — the conservative lookahead. Defaults to
    /// the forwarding latency of a 100-cycle bridge clocked at 50 MHz.
    pub link_latency: SimDuration,
    /// Packets arriving in this window are dropped by the receiving tile.
    pub fault_window: Option<(SimTime, SimTime)>,
}

impl Default for FabricRing {
    fn default() -> Self {
        let bridge = BridgeConfig {
            forward_cycles: 100,
            return_cycles: 100,
            clock_mhz: 50,
            priority: 1,
        };
        FabricRing {
            tiles: 4,
            clock_mhz: 100,
            work: 8,
            fanout: 4,
            emit_every: 4,
            link_latency: bridge.min_latency(),
            fault_window: None,
        }
    }
}

impl FabricRing {
    /// Express the ring as a partitionable [`SocGraph`]: one bus-less
    /// segment per tile, joined by bridge-latency streams.
    pub fn graph(&self) -> SocGraph {
        let mut g = SocGraph::new();
        let period = SimDuration::cycles_at_mhz(1, self.clock_mhz);
        for i in 0..self.tiles {
            let seg = g.add_segment(&format!("tile{i}"), None);
            let (work, fanout, emit_every, fault) =
                (self.work, self.fanout, self.emit_every, self.fault_window);
            g.add_part(
                seg,
                Part::new(&format!("fabric{i}"), move |sim, ctx| {
                    Ok(sim.add(
                        &format!("fabric{i}"),
                        FabricTile {
                            id: i as u64,
                            egress: ctx.stream_egress(),
                            period,
                            work,
                            fanout,
                            emit_every,
                            fault,
                            ticks: 0,
                            received: 0,
                            dropped: 0,
                            checksum: 0,
                        },
                    ))
                })
                .with_probe(|sim, id| {
                    let t = sim.get::<FabricTile>(id);
                    Ok(Json::obj()
                        .with("ticks", ju64(t.ticks))
                        .with("received", ju64(t.received))
                        .with("dropped", ju64(t.dropped))
                        .with("checksum", ju64(t.checksum)))
                }),
            );
        }
        if self.tiles > 1 {
            for i in 0..self.tiles {
                g.add_stream(
                    &format!("bridge{i}"),
                    (i, 0),
                    ((i + 1) % self.tiles, 0),
                    self.link_latency,
                );
            }
        }
        g
    }
}

/// Sum a [`FabricTile`] counter across the tile parts of an LP's probe
/// (the partitioner nests part probes under `"parts"`, keyed by name).
pub fn tile_stat(lp: &LpReport, key: &str) -> u64 {
    let Some(parts) = lp.probe.get("parts").and_then(Json::as_obj) else {
        return 0;
    };
    parts
        .iter()
        .map(|(_, p)| p.get(key).and_then(drcf_kernel::json::ju64_of).unwrap_or(0))
        .sum()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::partition::{run_partitioned, PartitionedRun};

    fn run(ring: &FabricRing, horizon_us: u64, shards: usize) -> PartitionedRun {
        let cfg = ShardConfig::to(SimTime::ZERO + SimDuration::us(horizon_us))
            .shards(shards)
            .hash_slices(true);
        run_partitioned(&Arc::new(ring.graph()), &cfg).expect("sharded run")
    }

    fn received(run: &PartitionedRun) -> u64 {
        run.report
            .lps
            .iter()
            .map(|lp| tile_stat(lp, "received"))
            .sum()
    }

    #[test]
    fn shard_counts_agree_with_oracle() {
        let ring = FabricRing::default();
        let oracle = run(&ring, 40, 1);
        assert!(oracle.events() > 1_000, "events: {}", oracle.events());
        assert!(received(&oracle) > 0);
        for shards in [2usize, 4] {
            let par = run(&ring, 40, shards);
            assert!(
                oracle.report.same_outcome(&par.report),
                "diverged at {:?}",
                oracle.report.first_divergence(&par.report)
            );
            assert_eq!(oracle.metrics, par.metrics, "RunMetrics bit-identical");
            assert_eq!(received(&oracle), received(&par));
        }
    }

    #[test]
    fn fault_window_changes_results_deterministically() {
        let ring = FabricRing {
            fault_window: Some((
                SimTime::ZERO + SimDuration::us(5),
                SimTime::ZERO + SimDuration::us(15),
            )),
            ..FabricRing::default()
        };
        let a = run(&ring, 40, 1);
        let b = run(&ring, 40, 4);
        assert!(a.report.same_outcome(&b.report));
        let dropped: u64 = a.report.lps.iter().map(|lp| tile_stat(lp, "dropped")).sum();
        assert!(dropped > 0, "fault window must drop packets");
        let clean = run(&FabricRing::default(), 40, 1);
        assert_ne!(
            clean.report.lps[0].state_hash, a.report.lps[0].state_hash,
            "faults must perturb tile state"
        );
    }

    #[test]
    fn single_tile_runs_without_links() {
        let ring = FabricRing {
            tiles: 1,
            ..FabricRing::default()
        };
        let r = run(&ring, 10, 1);
        assert_eq!(r.report.messages, 0);
        assert!(r.events() > 0);
    }
}
