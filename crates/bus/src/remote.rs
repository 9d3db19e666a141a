//! Remote bridge stubs: [`BusBridge`](crate::bridge::BusBridge) split in
//! half across a shard boundary.
//!
//! When the partitioner cuts a system at a bus bridge, the bridge's two
//! roles land in different logical processes: the *upstream* LP keeps a
//! slave that claims the bridge's address window, and the *downstream* LP
//! keeps a master that replays forwarded transactions on the remote bus.
//! [`BridgeUpstream`] and [`BridgeDownstream`] are those halves. They talk
//! over a pair of shard links ([`drcf_kernel::shard`]) carrying
//! [`LinkMsg`] envelopes:
//!
//! - **request link** (upstream → downstream), lookahead
//!   [`BridgeConfig::min_latency`] — the forward latency the monolithic
//!   bridge pays with its forwarding timer;
//! - **response link** (downstream → upstream), lookahead
//!   [`BridgeConfig::return_latency`] — the return latency the monolithic
//!   bridge pays when replying upstream.
//!
//! Each forwarded transaction is keyed by a *correlation id* assigned in
//! issue order by the upstream half (the envelope's `tag`); the payload
//! words carry the request or response verbatim. Because the shard
//! executor stamps every envelope with its send time and a per-link
//! sequence number and merges them deterministically, a cut bridge delays
//! every transaction by exactly the cycles the monolithic bridge charges —
//! cross-shard transport is free, the declared latencies are the
//! lookahead.
//!
//! The upstream half holds a kernel *obligation* for every transaction in
//! flight across the cut, so an LP that goes quiescent while waiting on a
//! remote response defers its deadlock verdict to the coordinator's
//! global re-check instead of failing locally.

use drcf_kernel::json::{ju64, ju64_of, Json};
use drcf_kernel::prelude::*;
use drcf_kernel::snapshot::{self as snap, Snapshotable};

use crate::bridge::BridgeConfig;
use crate::interfaces::MasterPort;
use crate::protocol::{BusOp, BusRequest, BusResponse, BusStatus, SlaveAccess, SlaveReply, TxnId};

/// Encode a decoded bus request into link payload words:
/// `[op, addr, burst, priority, data...]`. The transaction id and master
/// are *not* shipped — the upstream stub keeps them, keyed by the
/// envelope's correlation tag.
pub fn encode_request(req: &BusRequest) -> Vec<u64> {
    let mut words = Vec::with_capacity(4 + req.data.len());
    words.push(match req.op {
        BusOp::Read => 0,
        BusOp::Write => 1,
    });
    words.push(req.addr);
    words.push(req.burst as u64);
    words.push(u64::from(req.priority));
    words.extend_from_slice(&req.data);
    words
}

/// Decode link payload words back into the forwarded request. The caller
/// supplies the local transaction id and master (the downstream stub's
/// port identity). Returns `None` on a malformed envelope.
pub fn decode_request(words: &[u64]) -> Option<(BusOp, u64, usize, Vec<u64>)> {
    let (&op, rest) = words.split_first()?;
    let (&addr, rest) = rest.split_first()?;
    let (&burst, rest) = rest.split_first()?;
    let (_priority, data) = rest.split_first()?;
    let op = match op {
        0 => BusOp::Read,
        1 => BusOp::Write,
        _ => return None,
    };
    Some((op, addr, usize::try_from(burst).ok()?, data.to_vec()))
}

/// Encode a downstream response into link payload words:
/// `[status, op, addr, data...]`.
pub fn encode_response(resp: &BusResponse) -> Vec<u64> {
    let mut words = Vec::with_capacity(3 + resp.data.len());
    words.push(match resp.status {
        BusStatus::Ok => 0,
        BusStatus::DecodeError => 1,
        BusStatus::SlaveError => 2,
    });
    words.push(match resp.op {
        BusOp::Read => 0,
        BusOp::Write => 1,
    });
    words.push(resp.addr);
    words.extend_from_slice(&resp.data);
    words
}

/// Decode link payload words into `(status, op, addr, data)`. Returns
/// `None` on a malformed envelope.
pub fn decode_response(words: &[u64]) -> Option<(BusStatus, BusOp, u64, Vec<u64>)> {
    let (&status, rest) = words.split_first()?;
    let (&op, rest) = rest.split_first()?;
    let (&addr, data) = rest.split_first()?;
    let status = match status {
        0 => BusStatus::Ok,
        1 => BusStatus::DecodeError,
        2 => BusStatus::SlaveError,
        _ => return None,
    };
    let op = match op {
        0 => BusOp::Read,
        1 => BusOp::Write,
        _ => return None,
    };
    Some((status, op, addr, data.to_vec()))
}

/// A transaction the upstream half has forwarded and not yet answered.
struct Crossing {
    corr: u64,
    upstream_txn: TxnId,
    upstream_master: ComponentId,
    upstream_bus: ComponentId,
}

/// Upstream half of a cut bridge: a bus slave claiming the bridge's
/// remote address window. Forwards each [`SlaveAccess`] over the request
/// link and answers the originating bus when the matching response
/// envelope returns.
pub struct BridgeUpstream {
    tx: Option<LinkTx>,
    next_corr: u64,
    crossing: Vec<Crossing>,
    /// Transactions forwarded across the cut.
    pub forwarded: u64,
    /// Responses returned upstream.
    pub returned: u64,
    /// Payload words shipped on the request link.
    pub forwarded_words: u64,
    /// Payload words received on the response link.
    pub returned_words: u64,
}

impl BridgeUpstream {
    /// New upstream half. Call [`LinkEndpoint::attach_tx`] with the
    /// request link's handle before adding it to the simulator.
    pub fn new() -> Self {
        BridgeUpstream {
            tx: None,
            next_corr: 0,
            crossing: Vec::new(),
            forwarded: 0,
            returned: 0,
            forwarded_words: 0,
            returned_words: 0,
        }
    }

    /// Transactions currently crossing the cut.
    pub fn outstanding(&self) -> usize {
        self.crossing.len()
    }

    fn on_access(&mut self, api: &mut Api<'_>, access: SlaveAccess) {
        let Some(tx) = self.tx else {
            api.raise(
                SimErrorKind::Internal,
                "bridge upstream stub has no request link attached",
            );
            return;
        };
        let corr = self.next_corr;
        self.next_corr += 1;
        self.crossing.push(Crossing {
            corr,
            upstream_txn: access.req.id,
            upstream_master: access.req.master,
            upstream_bus: access.bus,
        });
        // The response may be many windows away; hold an obligation so a
        // locally-quiescent LP defers its deadlock verdict to the
        // coordinator instead of failing while the transaction is remote.
        api.obligation_begin();
        let words = encode_request(&access.req);
        self.forwarded_words += words.len() as u64;
        tx.send(api, LinkMsg { tag: corr, words });
        self.forwarded += 1;
    }

    fn on_response(&mut self, api: &mut Api<'_>, pkt: LinkPacket) {
        let Some(pos) = self.crossing.iter().position(|c| c.corr == pkt.msg.tag) else {
            api.raise(
                SimErrorKind::Internal,
                format!(
                    "bridge upstream stub got unknown correlation {}",
                    pkt.msg.tag
                ),
            );
            return;
        };
        let c = self.crossing.remove(pos);
        self.returned_words += pkt.msg.words.len() as u64;
        let Some((status, op, addr, data)) = decode_response(&pkt.msg.words) else {
            api.raise(
                SimErrorKind::Decode,
                "bridge upstream stub got a malformed response envelope",
            );
            return;
        };
        api.obligation_end();
        api.send(
            c.upstream_bus,
            SlaveReply {
                resp: BusResponse {
                    id: c.upstream_txn,
                    op,
                    addr,
                    status,
                    data,
                },
                master: c.upstream_master,
            },
            Delay::Delta,
        );
        self.returned += 1;
    }
}

impl Default for BridgeUpstream {
    fn default() -> Self {
        BridgeUpstream::new()
    }
}

impl Component for BridgeUpstream {
    fn decoders(&self) -> &'static [drcf_kernel::snapshot::Decoder] {
        crate::snapshot::BUS_DECODERS
    }

    fn snapshot(&mut self) -> SimResult<Json> {
        Ok(Json::obj()
            .with("next_corr", ju64(self.next_corr))
            .with(
                "crossing",
                Json::Arr(
                    self.crossing
                        .iter()
                        .map(|c| {
                            Json::obj()
                                .with("corr", ju64(c.corr))
                                .with("upstream_txn", ju64(c.upstream_txn))
                                .with("upstream_master", ju64(c.upstream_master as u64))
                                .with("upstream_bus", ju64(c.upstream_bus as u64))
                        })
                        .collect(),
                ),
            )
            .with("forwarded", ju64(self.forwarded))
            .with("returned", ju64(self.returned))
            .with("forwarded_words", ju64(self.forwarded_words))
            .with("returned_words", ju64(self.returned_words)))
    }

    fn restore(&mut self, state: &Json) -> SimResult<()> {
        self.next_corr = snap::u64_field(state, "next_corr")?;
        self.crossing.clear();
        for c in snap::arr_field(state, "crossing")? {
            self.crossing.push(Crossing {
                corr: snap::u64_field(c, "corr")?,
                upstream_txn: snap::u64_field(c, "upstream_txn")?,
                upstream_master: snap::usize_field(c, "upstream_master")?,
                upstream_bus: snap::usize_field(c, "upstream_bus")?,
            });
        }
        self.forwarded = snap::u64_field(state, "forwarded")?;
        self.returned = snap::u64_field(state, "returned")?;
        self.forwarded_words = snap::u64_field(state, "forwarded_words")?;
        self.returned_words = snap::u64_field(state, "returned_words")?;
        Ok(())
    }

    fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
        match msg.kind {
            MsgKind::Start => {}
            _ => match msg.user::<SlaveAccess>() {
                Ok(access) => self.on_access(api, access),
                Err(msg) => {
                    if let Ok(pkt) = msg.user::<LinkPacket>() {
                        self.on_response(api, pkt);
                    }
                }
            },
        }
    }
}

impl LinkEndpoint for BridgeUpstream {
    fn attach_tx(&mut self, tx: LinkTx) {
        self.tx = Some(tx);
    }
}

/// Downstream half of a cut bridge: a master on the remote bus. Replays
/// each request envelope through its [`MasterPort`] (at the bridge's
/// configured priority) and ships the bus response back over the response
/// link.
pub struct BridgeDownstream {
    port: MasterPort,
    tx: Option<LinkTx>,
    /// `(downstream transaction, correlation id)` for replayed requests.
    in_flight: Vec<(TxnId, u64)>,
    /// Requests replayed on the downstream bus.
    pub replayed: u64,
    /// Responses shipped back across the cut.
    pub returned: u64,
    /// Payload words received on the request link.
    pub replayed_words: u64,
    /// Payload words shipped on the response link.
    pub returned_words: u64,
}

impl BridgeDownstream {
    /// New downstream half mastering `downstream_bus` at the bridge's
    /// priority. Call [`LinkEndpoint::attach_tx`] with the response link's
    /// handle before adding it to the simulator.
    pub fn new(cfg: &BridgeConfig, downstream_bus: ComponentId) -> Self {
        BridgeDownstream {
            port: MasterPort::new(downstream_bus, cfg.priority),
            tx: None,
            in_flight: Vec::new(),
            replayed: 0,
            returned: 0,
            replayed_words: 0,
            returned_words: 0,
        }
    }

    /// Transactions outstanding on the downstream bus.
    pub fn outstanding(&self) -> usize {
        self.in_flight.len()
    }

    fn on_request(&mut self, api: &mut Api<'_>, pkt: LinkPacket) {
        self.replayed_words += pkt.msg.words.len() as u64;
        let Some((op, addr, burst, data)) = decode_request(&pkt.msg.words) else {
            api.raise(
                SimErrorKind::Decode,
                "bridge downstream stub got a malformed request envelope",
            );
            return;
        };
        let txn = match op {
            BusOp::Read => self.port.read(api, addr, burst),
            BusOp::Write => self.port.write(api, addr, data),
        };
        self.in_flight.push((txn, pkt.msg.tag));
        self.replayed += 1;
    }

    fn on_local_response(&mut self, api: &mut Api<'_>, resp: BusResponse) {
        let Some(pos) = self.in_flight.iter().position(|&(txn, _)| txn == resp.id) else {
            api.raise(
                SimErrorKind::Internal,
                "bridge downstream stub got a response for an unknown transaction",
            );
            return;
        };
        let (_, corr) = self.in_flight.remove(pos);
        let Some(tx) = self.tx else {
            api.raise(
                SimErrorKind::Internal,
                "bridge downstream stub has no response link attached",
            );
            return;
        };
        let words = encode_response(&resp);
        self.returned_words += words.len() as u64;
        tx.send(api, LinkMsg { tag: corr, words });
        self.returned += 1;
    }
}

impl Component for BridgeDownstream {
    fn decoders(&self) -> &'static [drcf_kernel::snapshot::Decoder] {
        crate::snapshot::BUS_DECODERS
    }

    fn snapshot(&mut self) -> SimResult<Json> {
        Ok(Json::obj()
            .with("port", self.port.snapshot_json())
            .with(
                "in_flight",
                Json::Arr(
                    self.in_flight
                        .iter()
                        .map(|&(txn, corr)| Json::Arr(vec![ju64(txn), ju64(corr)]))
                        .collect(),
                ),
            )
            .with("replayed", ju64(self.replayed))
            .with("returned", ju64(self.returned))
            .with("replayed_words", ju64(self.replayed_words))
            .with("returned_words", ju64(self.returned_words)))
    }

    fn restore(&mut self, state: &Json) -> SimResult<()> {
        self.port.restore_json(snap::field(state, "port")?)?;
        self.in_flight.clear();
        for pair in snap::arr_field(state, "in_flight")? {
            let items = pair
                .as_arr()
                .ok_or_else(|| snap::err("malformed in-flight pair"))?;
            let txn = items
                .first()
                .and_then(ju64_of)
                .ok_or_else(|| snap::err("malformed in-flight txn"))?;
            let corr = items
                .get(1)
                .and_then(ju64_of)
                .ok_or_else(|| snap::err("malformed in-flight corr"))?;
            self.in_flight.push((txn, corr));
        }
        self.replayed = snap::u64_field(state, "replayed")?;
        self.returned = snap::u64_field(state, "returned")?;
        self.replayed_words = snap::u64_field(state, "replayed_words")?;
        self.returned_words = snap::u64_field(state, "returned_words")?;
        Ok(())
    }

    fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
        match msg.kind {
            MsgKind::Start => {}
            _ => {
                let msg = match self.port.take_response(api, msg) {
                    Ok(resp) => {
                        self.on_local_response(api, resp);
                        return;
                    }
                    Err(m) => m,
                };
                if let Ok(pkt) = msg.user::<LinkPacket>() {
                    self.on_request(api, pkt);
                }
            }
        }
    }
}

impl LinkEndpoint for BridgeDownstream {
    fn attach_tx(&mut self, tx: LinkTx) {
        self.tx = Some(tx);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn request_envelope_roundtrip() {
        let req = BusRequest {
            id: 42,
            master: 7,
            op: BusOp::Write,
            addr: 0x1_0040,
            burst: 3,
            data: vec![1, 2, 3],
            priority: 5,
        };
        let words = encode_request(&req);
        let (op, addr, burst, data) = decode_request(&words).unwrap();
        assert_eq!(op, BusOp::Write);
        assert_eq!(addr, 0x1_0040);
        assert_eq!(burst, 3);
        assert_eq!(data, vec![1, 2, 3]);
        // Reads carry no payload but still decode.
        let read = BusRequest {
            op: BusOp::Read,
            data: vec![],
            ..req
        };
        let words = encode_request(&read);
        let (op, _, burst, data) = decode_request(&words).unwrap();
        assert_eq!(op, BusOp::Read);
        assert_eq!(burst, 3);
        assert!(data.is_empty());
    }

    #[test]
    fn response_envelope_roundtrip() {
        for status in [BusStatus::Ok, BusStatus::DecodeError, BusStatus::SlaveError] {
            let resp = BusResponse {
                id: 9,
                op: BusOp::Read,
                addr: 0x8000,
                status,
                data: vec![0xDEAD, 0xBEEF],
            };
            let (s, op, addr, data) = decode_response(&encode_response(&resp)).unwrap();
            assert_eq!(s, status);
            assert_eq!(op, BusOp::Read);
            assert_eq!(addr, 0x8000);
            assert_eq!(data, vec![0xDEAD, 0xBEEF]);
        }
    }

    #[test]
    fn malformed_envelopes_are_rejected() {
        assert!(decode_request(&[]).is_none());
        assert!(decode_request(&[9, 0, 1, 0]).is_none(), "bad opcode");
        assert!(decode_response(&[7, 0, 0]).is_none(), "bad status");
        assert!(decode_response(&[0, 9, 0]).is_none(), "bad opcode");
        assert!(decode_response(&[0, 0]).is_none(), "truncated");
    }
}
