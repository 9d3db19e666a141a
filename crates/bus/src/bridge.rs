//! Bus-to-bus bridge.
//!
//! The paper's §4 criticizes partitioning methodologies that "assume that
//! the application is implemented in single reconfigurable block and
//! possibly RISC processor. In real life, there is usually need for more
//! complex architectures." A [`BusBridge`] makes those architectures
//! expressible: it is a slave on an upstream bus, claiming a remote
//! address window, and a master on a downstream bus, forwarding
//! transactions in order and paying a configurable forwarding latency in
//! each direction.
//!
//! Bridges compose: a CPU bus can reach a peripheral bus holding a DRCF
//! whose configuration memory sits on yet another bus — with every hop's
//! contention modeled.

use std::collections::VecDeque;

use drcf_kernel::json::{ju64, Json};
use drcf_kernel::prelude::*;
use drcf_kernel::snapshot::{self as snap, Snapshotable};

use crate::interfaces::MasterPort;
use crate::protocol::{BusResponse, SlaveAccess, SlaveReply, TxnId};

/// Bridge parameters.
#[derive(Debug, Clone)]
pub struct BridgeConfig {
    /// Cycles added when forwarding a request downstream.
    pub forward_cycles: u64,
    /// Cycles added when returning a response upstream.
    pub return_cycles: u64,
    /// Clock of the bridge logic, MHz.
    pub clock_mhz: u64,
    /// Bus priority of forwarded transactions on the downstream bus.
    pub priority: u8,
}

impl BridgeConfig {
    /// Minimum end-to-end latency the bridge adds to a forwarded request:
    /// `forward_cycles` at `clock_mhz`. Any transaction crossing the
    /// bridge is delayed by at least this much, which makes it a safe
    /// *conservative lookahead* for sharded simulation — a shard on one
    /// side of the bridge can run this far ahead of the other side
    /// without risking a message in its past
    /// (see [`drcf_kernel::shard`]).
    pub fn min_latency(&self) -> SimDuration {
        SimDuration::cycles_at_mhz(self.forward_cycles.max(1), self.clock_mhz)
    }

    /// Latency the bridge adds when returning a response upstream:
    /// `return_cycles` at `clock_mhz`, exactly as [`BusBridge`] pays it.
    /// This is the reverse link's lookahead when the bridge is cut across
    /// shards; a zero value means the bridge cannot be cut (the partitioner
    /// falls back to keeping both segments in one LP).
    pub fn return_latency(&self) -> SimDuration {
        SimDuration::cycles_at_mhz(self.return_cycles, self.clock_mhz)
    }
}

impl Default for BridgeConfig {
    fn default() -> Self {
        BridgeConfig {
            forward_cycles: 2,
            return_cycles: 2,
            clock_mhz: 100,
            priority: 1,
        }
    }
}

struct InFlight {
    downstream_txn: TxnId,
    upstream_txn: TxnId,
    upstream_master: ComponentId,
    upstream_bus: ComponentId,
}

const TAG_FORWARD: u64 = 1;

/// The bridge component.
pub struct BusBridge {
    cfg: BridgeConfig,
    port: MasterPort,
    /// Requests waiting out the forward latency.
    pending_forward: VecDeque<SlaveAccess>,
    in_flight: Vec<InFlight>,
    /// Transactions forwarded downstream.
    pub forwarded: u64,
    /// Responses returned upstream.
    pub returned: u64,
}

impl BusBridge {
    /// New bridge mastering `downstream_bus`.
    pub fn new(cfg: BridgeConfig, downstream_bus: ComponentId) -> Self {
        let priority = cfg.priority;
        BusBridge {
            cfg,
            port: MasterPort::new(downstream_bus, priority),
            pending_forward: VecDeque::new(),
            in_flight: Vec::new(),
            forwarded: 0,
            returned: 0,
        }
    }

    /// Transactions currently crossing the bridge.
    pub fn outstanding(&self) -> usize {
        self.in_flight.len() + self.pending_forward.len()
    }

    fn forward_now(&mut self, api: &mut Api<'_>) {
        let Some(access) = self.pending_forward.pop_front() else {
            return;
        };
        let req = access.req;
        let downstream_txn = match req.op {
            crate::protocol::BusOp::Read => self.port.read(api, req.addr, req.burst),
            crate::protocol::BusOp::Write => self.port.write(api, req.addr, req.data.clone()),
        };
        self.in_flight.push(InFlight {
            downstream_txn,
            upstream_txn: req.id,
            upstream_master: req.master,
            upstream_bus: access.bus,
        });
        self.forwarded += 1;
    }

    fn on_downstream_response(&mut self, api: &mut Api<'_>, resp: BusResponse) {
        let Some(pos) = self
            .in_flight
            .iter()
            .position(|f| f.downstream_txn == resp.id)
        else {
            api.log(
                Severity::Warning,
                "bridge got a response for an unknown transaction".to_string(),
            );
            return;
        };
        let f = self.in_flight.swap_remove(pos);
        let upstream_resp = BusResponse {
            id: f.upstream_txn,
            ..resp
        };
        let delay = SimDuration::cycles_at_mhz(self.cfg.return_cycles, self.cfg.clock_mhz);
        api.send_in(
            f.upstream_bus,
            SlaveReply {
                resp: upstream_resp,
                master: f.upstream_master,
            },
            delay,
        );
        self.returned += 1;
    }
}

impl Component for BusBridge {
    fn decoders(&self) -> &'static [drcf_kernel::snapshot::Decoder] {
        crate::snapshot::BUS_DECODERS
    }

    fn snapshot(&mut self) -> SimResult<Json> {
        Ok(Json::obj()
            .with("port", self.port.snapshot_json())
            .with(
                "pending_forward",
                Json::Arr(self.pending_forward.iter().map(Codec::encode).collect()),
            )
            .with(
                "in_flight",
                Json::Arr(
                    self.in_flight
                        .iter()
                        .map(|f| {
                            Json::obj()
                                .with("downstream_txn", ju64(f.downstream_txn))
                                .with("upstream_txn", ju64(f.upstream_txn))
                                .with("upstream_master", ju64(f.upstream_master as u64))
                                .with("upstream_bus", ju64(f.upstream_bus as u64))
                        })
                        .collect(),
                ),
            )
            .with("forwarded", ju64(self.forwarded))
            .with("returned", ju64(self.returned)))
    }

    fn restore(&mut self, state: &Json) -> SimResult<()> {
        self.port.restore_json(snap::field(state, "port")?)?;
        self.pending_forward = snap::arr_field(state, "pending_forward")?
            .iter()
            .map(SlaveAccess::decode)
            .collect::<Option<_>>()
            .ok_or_else(|| snap::err("malformed bridged request"))?;
        self.in_flight.clear();
        for f in snap::arr_field(state, "in_flight")? {
            self.in_flight.push(InFlight {
                downstream_txn: snap::u64_field(f, "downstream_txn")?,
                upstream_txn: snap::u64_field(f, "upstream_txn")?,
                upstream_master: snap::usize_field(f, "upstream_master")?,
                upstream_bus: snap::usize_field(f, "upstream_bus")?,
            });
        }
        self.forwarded = snap::u64_field(state, "forwarded")?;
        self.returned = snap::u64_field(state, "returned")?;
        Ok(())
    }

    fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
        match msg.kind {
            MsgKind::Timer(TAG_FORWARD) => self.forward_now(api),
            MsgKind::Start => {}
            _ => {
                let msg = match self.port.take_response(api, msg) {
                    Ok(resp) => {
                        self.on_downstream_response(api, resp);
                        return;
                    }
                    Err(m) => m,
                };
                if let Ok(access) = msg.user::<SlaveAccess>() {
                    self.pending_forward.push_back(access);
                    let d = SimDuration::cycles_at_mhz(self.cfg.forward_cycles, self.cfg.clock_mhz);
                    api.timer_in(d, TAG_FORWARD);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{Bus, BusConfig, BusMode};
    use crate::interfaces::{RegisterFile, SlaveAdapter};
    use crate::map::AddressMap;
    use crate::memory::{Memory, MemoryConfig};
    use crate::protocol::{Addr, BusOp, Word};
    use drcf_kernel::testing::ok;

    #[test]
    fn min_latency_is_forward_cycles_at_bridge_clock() {
        let cfg = BridgeConfig {
            forward_cycles: 100,
            clock_mhz: 50,
            ..BridgeConfig::default()
        };
        assert_eq!(cfg.min_latency(), SimDuration::cycles_at_mhz(100, 50));
        // Never zero, even for a degenerate combinational bridge: a zero
        // lookahead would stall the sharded executor's progress guarantee.
        let zero = BridgeConfig {
            forward_cycles: 0,
            ..BridgeConfig::default()
        };
        assert!(zero.min_latency() > SimDuration::ZERO);
    }

    /// Scripted master local to the bridge tests.
    struct Master {
        port: MasterPort,
        script: Vec<(BusOp, Addr, Word)>,
        pc: usize,
        pub replies: Vec<BusResponse>,
    }
    impl Component for Master {
        fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
            let next = |s: &mut Self, api: &mut Api<'_>| {
                if let Some(&(op, addr, v)) = s.script.get(s.pc) {
                    s.pc += 1;
                    match op {
                        BusOp::Read => {
                            s.port.read(api, addr, 1);
                        }
                        BusOp::Write => {
                            s.port.write(api, addr, vec![v]);
                        }
                    }
                }
            };
            match &msg.kind {
                MsgKind::Start => next(self, api),
                _ => {
                    if let Ok(r) = self.port.take_response(api, msg) {
                        self.replies.push(r);
                        next(self, api);
                    }
                }
            }
        }
    }

    /// Topology: master(0) -> bus0(1); bridge(2) spans bus0 -> bus1(3);
    /// bus1 hosts memory(4) and a register-file slave(5).
    fn two_bus_system(script: Vec<(BusOp, Addr, Word)>, mode: BusMode) -> Simulator {
        let mut sim = Simulator::new();
        let mut map0 = AddressMap::new();
        ok(map0.add(0x1_0000, 0x1_FFFF, 2)); // remote window -> bridge
        let mut map1 = AddressMap::new();
        ok(map1.add(0x1_0000, 0x1_0FFF, 4)); // memory
        ok(map1.add(0x1_2000, 0x1_20FF, 5)); // peripheral

        sim.add(
            "master",
            Master {
                port: MasterPort::new(1, 1),
                script,
                pc: 0,
                replies: vec![],
            },
        );
        sim.add(
            "bus0",
            Bus::new(
                BusConfig {
                    mode,
                    ..BusConfig::default()
                },
                map0,
            ),
        );
        sim.add("bridge", BusBridge::new(BridgeConfig::default(), 3));
        sim.add(
            "bus1",
            Bus::new(
                BusConfig {
                    mode,
                    ..BusConfig::default()
                },
                map1,
            ),
        );
        sim.add(
            "mem",
            Memory::new(MemoryConfig {
                base: 0x1_0000,
                size_words: 0x1000,
                ..MemoryConfig::default()
            }),
        );
        sim.add(
            "peripheral",
            SlaveAdapter::new(RegisterFile::new("rf", 0x1_2000, 16, 1), 100),
        );
        sim
    }

    #[test]
    fn cross_bridge_write_read_roundtrip() {
        let mut sim = two_bus_system(
            vec![
                (BusOp::Write, 0x1_0042, 777),
                (BusOp::Read, 0x1_0042, 0),
                (BusOp::Write, 0x1_2003, 9),
                (BusOp::Read, 0x1_2003, 0),
            ],
            BusMode::Split,
        );
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        let m = sim.get::<Master>(0);
        assert_eq!(m.replies.len(), 4);
        assert!(m.replies.iter().all(|r| r.is_ok()));
        assert_eq!(m.replies[1].data, vec![777]);
        assert_eq!(m.replies[3].data, vec![9]);
        let bridge = sim.get::<BusBridge>(2);
        assert_eq!(bridge.forwarded, 4);
        assert_eq!(bridge.returned, 4);
        assert_eq!(bridge.outstanding(), 0);
        let mem = sim.get::<Memory>(4);
        assert_eq!(mem.peek(0x1_0042), Some(777));
    }

    #[test]
    fn bridge_works_in_blocking_mode_too() {
        // A one-way bridge chain has no cyclic dependency, so blocking
        // buses still complete.
        let mut sim = two_bus_system(
            vec![(BusOp::Write, 0x1_0000, 5), (BusOp::Read, 0x1_0000, 0)],
            BusMode::Blocking,
        );
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        assert_eq!(sim.get::<Master>(0).replies[1].data, vec![5]);
    }

    #[test]
    fn bridge_adds_latency() {
        let local_time = {
            // Same access but memory directly on bus0.
            let mut sim = Simulator::new();
            let mut map = AddressMap::new();
            ok(map.add(0x1_0000, 0x1_0FFF, 2));
            sim.add(
                "master",
                Master {
                    port: MasterPort::new(1, 1),
                    script: vec![(BusOp::Read, 0x1_0000, 0)],
                    pc: 0,
                    replies: vec![],
                },
            );
            sim.add("bus0", Bus::new(BusConfig::default(), map));
            sim.add(
                "mem",
                Memory::new(MemoryConfig {
                    base: 0x1_0000,
                    size_words: 0x1000,
                    ..MemoryConfig::default()
                }),
            );
            ok(sim.run());
            sim.now().as_fs()
        };
        let remote_time = {
            let mut sim = two_bus_system(vec![(BusOp::Read, 0x1_0000, 0)], BusMode::Split);
            ok(sim.run());
            sim.now().as_fs()
        };
        assert!(
            remote_time > local_time,
            "crossing the bridge must cost time: {remote_time} vs {local_time}"
        );
    }

    #[test]
    fn decode_error_propagates_back_across_the_bridge() {
        let mut sim = two_bus_system(vec![(BusOp::Read, 0x1_9999, 0)], BusMode::Split);
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        let m = sim.get::<Master>(0);
        assert_eq!(m.replies.len(), 1);
        assert_eq!(
            m.replies[0].status,
            crate::protocol::BusStatus::DecodeError,
            "downstream decode error must reach the upstream master"
        );
    }

    #[test]
    fn pipelined_transactions_cross_in_order() {
        // Issue several writes back-to-back (window > 1) — the bridge keeps
        // them ordered.
        struct Pipeliner {
            port: MasterPort,
            issued: bool,
            pub readback: Vec<Word>,
            outstanding_reads: usize,
        }
        impl Component for Pipeliner {
            fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
                match &msg.kind {
                    MsgKind::Start => {
                        for i in 0..6u64 {
                            self.port.write(api, 0x1_0000 + i, vec![100 + i]);
                        }
                        self.issued = true;
                    }
                    _ => {
                        if let Ok(r) = self.port.take_response(api, msg) {
                            assert!(r.is_ok());
                            if r.op == BusOp::Read {
                                self.readback.push(r.data[0]);
                                self.outstanding_reads -= 1;
                            } else if self.port.outstanding() == 0
                                && self.outstanding_reads == 0
                                && self.readback.is_empty()
                            {
                                self.outstanding_reads = 6;
                                for i in 0..6u64 {
                                    self.port.read(api, 0x1_0000 + i, 1);
                                }
                            }
                        }
                    }
                }
            }
        }
        let mut sim = two_bus_system(vec![], BusMode::Split);
        // Replace the scripted master with the pipeliner (component 0).
        *sim.get_mut::<Master>(0) = Master {
            port: MasterPort::new(1, 1),
            script: vec![],
            pc: 0,
            replies: vec![],
        };
        // Add the pipeliner as an extra master.
        let p = sim.add(
            "pipeliner",
            Pipeliner {
                port: MasterPort::new(1, 2),
                issued: false,
                readback: vec![],
                outstanding_reads: 0,
            },
        );
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        let pl = sim.get::<Pipeliner>(p);
        assert_eq!(pl.readback, vec![100, 101, 102, 103, 104, 105]);
    }
}
