//! Snapshot support for the bus substrate.
//!
//! Two things live here:
//!
//! * JSON encoders/decoders for the protocol payloads
//!   ([`crate::protocol`], [`crate::dma`]) — needed whenever a
//!   `Simulator::snapshot` catches one of them in flight on the timed
//!   queue;
//! * [`register_bus_codecs`], which registers every payload type with the
//!   kernel's codec registry. Component constructors call it, so any system
//!   containing a bus-crate component can be snapshot without further
//!   setup.
//!
//! The `Snapshotable` impls for concrete components live next to their
//! private fields (`bus.rs`, `dma.rs`, ...); this module only holds the
//! shared, payload-level encoding.

use std::sync::Once;

use drcf_kernel::json::{ju64, ju64_of, Json};
use drcf_kernel::prelude::{SimDuration, SimTime};
use drcf_kernel::snapshot::{register_payload_codec, PayloadCodec};

use crate::dma::{DmaAutoRepeat, DmaDone, DmaProgram};
use crate::protocol::{
    BulkAccess, BusOp, BusRequest, BusResponse, BusStatus, ConfigTrain, ConfigTrainDecoalesced,
    ConfigTrainDone, ConfigTrainRejected, DirectReadDone, DirectReadReq, InFlightBurst, ServeBurst,
    SlaveAccess, SlaveReply, TrainBurst, Word,
};

/// Encode a [`BusOp`].
pub fn op_json(op: BusOp) -> Json {
    Json::from(match op {
        BusOp::Read => "read",
        BusOp::Write => "write",
    })
}

/// Decode a [`BusOp`].
pub fn op_of(j: &Json) -> Option<BusOp> {
    match j.as_str()? {
        "read" => Some(BusOp::Read),
        "write" => Some(BusOp::Write),
        _ => None,
    }
}

/// Encode a [`BusStatus`].
pub fn status_json(s: BusStatus) -> Json {
    Json::from(match s {
        BusStatus::Ok => "ok",
        BusStatus::DecodeError => "decode_error",
        BusStatus::SlaveError => "slave_error",
    })
}

/// Decode a [`BusStatus`].
pub fn status_of(j: &Json) -> Option<BusStatus> {
    match j.as_str()? {
        "ok" => Some(BusStatus::Ok),
        "decode_error" => Some(BusStatus::DecodeError),
        "slave_error" => Some(BusStatus::SlaveError),
        _ => None,
    }
}

/// Encode a word list losslessly (words use the full `u64` range).
pub fn words_json(words: &[Word]) -> Json {
    Json::Arr(words.iter().map(|&w| ju64(w)).collect())
}

/// Decode a word list.
pub fn words_of(j: &Json) -> Option<Vec<Word>> {
    j.as_arr()?.iter().map(ju64_of).collect()
}

/// Encode an absolute time.
pub fn time_json(t: SimTime) -> Json {
    ju64(t.as_fs())
}

/// Decode an absolute time.
pub fn time_of(j: &Json) -> Option<SimTime> {
    Some(SimTime(ju64_of(j)?))
}

/// Encode a duration.
pub fn dur_json(d: SimDuration) -> Json {
    ju64(d.as_fs())
}

/// Decode a duration.
pub fn dur_of(j: &Json) -> Option<SimDuration> {
    Some(SimDuration::fs(ju64_of(j)?))
}

/// Encode a [`SlaveAccess`].
pub fn access_json(a: &SlaveAccess) -> Json {
    Json::obj()
        .with("req", req_json(&a.req))
        .with("bus", ju64(a.bus as u64))
}

/// Decode a [`SlaveAccess`].
pub fn access_of(j: &Json) -> Option<SlaveAccess> {
    Some(SlaveAccess {
        req: req_of(j.get("req")?)?,
        bus: usizef(j, "bus")?,
    })
}

fn u64f(j: &Json, key: &str) -> Option<u64> {
    ju64_of(j.get(key)?)
}

fn usizef(j: &Json, key: &str) -> Option<usize> {
    usize::try_from(u64f(j, key)?).ok()
}

/// Encode a [`BusRequest`].
pub fn req_json(req: &BusRequest) -> Json {
    Json::obj()
        .with("id", ju64(req.id))
        .with("master", ju64(req.master as u64))
        .with("op", op_json(req.op))
        .with("addr", ju64(req.addr))
        .with("burst", ju64(req.burst as u64))
        .with("data", words_json(&req.data))
        .with("priority", Json::Num(req.priority as f64))
}

/// Decode a [`BusRequest`].
pub fn req_of(j: &Json) -> Option<BusRequest> {
    Some(BusRequest {
        id: u64f(j, "id")?,
        master: usizef(j, "master")?,
        op: op_of(j.get("op")?)?,
        addr: u64f(j, "addr")?,
        burst: usizef(j, "burst")?,
        data: words_of(j.get("data")?)?,
        priority: u8::try_from(u64f(j, "priority")?).ok()?,
    })
}

/// Encode a [`BusResponse`].
pub fn resp_json(resp: &BusResponse) -> Json {
    Json::obj()
        .with("id", ju64(resp.id))
        .with("op", op_json(resp.op))
        .with("addr", ju64(resp.addr))
        .with("status", status_json(resp.status))
        .with("data", words_json(&resp.data))
}

/// Decode a [`BusResponse`].
pub fn resp_of(j: &Json) -> Option<BusResponse> {
    Some(BusResponse {
        id: u64f(j, "id")?,
        op: op_of(j.get("op")?)?,
        addr: u64f(j, "addr")?,
        status: status_of(j.get("status")?)?,
        data: words_of(j.get("data")?)?,
    })
}

/// Encode a [`SlaveReply`].
pub fn reply_json(r: &SlaveReply) -> Json {
    Json::obj()
        .with("resp", resp_json(&r.resp))
        .with("master", ju64(r.master as u64))
}

/// Decode a [`SlaveReply`].
pub fn reply_of(j: &Json) -> Option<SlaveReply> {
    Some(SlaveReply {
        resp: resp_of(j.get("resp")?)?,
        master: usizef(j, "master")?,
    })
}

/// Encode a burst list as its maximal contiguous runs, one
/// `[op, addr, words, count]` array per run: `count` bursts of the same op
/// and size, each starting where the previous one ended. A configuration
/// train of hundreds of equal bursts over one address range is one or two
/// runs, so the list costs its shape, not its length.
pub fn burst_list_json(bursts: &[TrainBurst]) -> Json {
    let mut runs = Vec::new();
    let mut rest = bursts;
    while let Some(&first) = rest.first() {
        let count = 1 + rest[1..]
            .iter()
            .zip(rest)
            .take_while(|&(b, prev)| {
                b.op == first.op
                    && b.words == first.words
                    && prev.addr.checked_add(prev.words as u64) == Some(b.addr)
            })
            .count();
        runs.push(Json::Arr(vec![
            op_json(first.op),
            ju64(first.addr),
            ju64(first.words as u64),
            ju64(count as u64),
        ]));
        rest = &rest[count..];
    }
    Json::Arr(runs)
}

/// Decode a burst list written by [`burst_list_json`], expanding each run.
/// A run of zero bursts, or one whose addresses overflow, is malformed.
pub fn burst_list_of(j: &Json) -> Option<Vec<TrainBurst>> {
    let mut bursts = Vec::new();
    for run in j.as_arr()? {
        let [op, addr, words, count] = run.as_arr()? else {
            return None;
        };
        let (op, mut addr) = (op_of(op)?, ju64_of(addr)?);
        let words = usize::try_from(ju64_of(words)?).ok()?;
        let count = ju64_of(count)?;
        if count == 0 {
            return None;
        }
        for k in 0..count {
            if k > 0 {
                addr = addr.checked_add(words as u64)?;
            }
            bursts.push(TrainBurst { op, addr, words });
        }
    }
    Some(bursts)
}

fn dma_program_json(p: &DmaProgram) -> Json {
    Json::obj()
        .with("src", ju64(p.src))
        .with("dst", ju64(p.dst))
        .with("words", ju64(p.words))
        .with("notify", ju64(p.notify as u64))
        .with("tag", ju64(p.tag))
}

fn dma_program_of(j: &Json) -> Option<DmaProgram> {
    Some(DmaProgram {
        src: u64f(j, "src")?,
        dst: u64f(j, "dst")?,
        words: u64f(j, "words")?,
        notify: usizef(j, "notify")?,
        tag: u64f(j, "tag")?,
    })
}

/// Register payload codecs for every message type the bus crate can leave
/// in flight across a snapshot point. Idempotent and cheap; called from
/// component constructors.
pub fn register_bus_codecs() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        register_payload_codec(PayloadCodec {
            name: "bus.BusRequest",
            encode: |any| any.downcast_ref::<BusRequest>().map(req_json),
            decode: |j| req_of(j).map(|v| Box::new(v) as _),
        });
        register_payload_codec(PayloadCodec {
            name: "bus.BusResponse",
            encode: |any| any.downcast_ref::<BusResponse>().map(resp_json),
            decode: |j| resp_of(j).map(|v| Box::new(v) as _),
        });
        register_payload_codec(PayloadCodec {
            name: "bus.SlaveAccess",
            encode: |any| {
                any.downcast_ref::<SlaveAccess>().map(|a| {
                    Json::obj()
                        .with("req", req_json(&a.req))
                        .with("bus", ju64(a.bus as u64))
                })
            },
            decode: |j| {
                Some(Box::new(SlaveAccess {
                    req: req_of(j.get("req")?)?,
                    bus: usizef(j, "bus")?,
                }) as _)
            },
        });
        register_payload_codec(PayloadCodec {
            name: "bus.SlaveReply",
            encode: |any| any.downcast_ref::<SlaveReply>().map(reply_json),
            decode: |j| reply_of(j).map(|v| Box::new(v) as _),
        });
        register_payload_codec(PayloadCodec {
            name: "bus.DirectReadReq",
            encode: |any| {
                any.downcast_ref::<DirectReadReq>().map(|r| {
                    Json::obj()
                        .with("requester", ju64(r.requester as u64))
                        .with("addr", ju64(r.addr))
                        .with("words", ju64(r.words as u64))
                        .with("tag", ju64(r.tag))
                })
            },
            decode: |j| {
                Some(Box::new(DirectReadReq {
                    requester: usizef(j, "requester")?,
                    addr: u64f(j, "addr")?,
                    words: usizef(j, "words")?,
                    tag: u64f(j, "tag")?,
                }) as _)
            },
        });
        register_payload_codec(PayloadCodec {
            name: "bus.DirectReadDone",
            encode: |any| {
                any.downcast_ref::<DirectReadDone>().map(|d| {
                    Json::obj()
                        .with("tag", ju64(d.tag))
                        .with("words", ju64(d.words as u64))
                })
            },
            decode: |j| {
                Some(Box::new(DirectReadDone {
                    tag: u64f(j, "tag")?,
                    words: usizef(j, "words")?,
                }) as _)
            },
        });
        register_payload_codec(PayloadCodec {
            name: "bus.ConfigTrain",
            encode: |any| {
                any.downcast_ref::<ConfigTrain>().map(|t| {
                    Json::obj()
                        .with("master", ju64(t.master as u64))
                        .with("priority", Json::Num(t.priority as f64))
                        .with("tag", ju64(t.tag))
                        .with("bursts", burst_list_json(&t.bursts))
                })
            },
            decode: |j| {
                Some(Box::new(ConfigTrain {
                    master: usizef(j, "master")?,
                    priority: u8::try_from(u64f(j, "priority")?).ok()?,
                    tag: u64f(j, "tag")?,
                    bursts: burst_list_of(j.get("bursts")?)?,
                }) as _)
            },
        });
        register_payload_codec(PayloadCodec {
            name: "bus.ConfigTrainDone",
            encode: |any| {
                any.downcast_ref::<ConfigTrainDone>().map(|d| {
                    Json::obj()
                        .with("tag", ju64(d.tag))
                        .with("words", ju64(d.words))
                })
            },
            decode: |j| {
                Some(Box::new(ConfigTrainDone {
                    tag: u64f(j, "tag")?,
                    words: u64f(j, "words")?,
                }) as _)
            },
        });
        register_payload_codec(PayloadCodec {
            name: "bus.ConfigTrainRejected",
            encode: |any| {
                any.downcast_ref::<ConfigTrainRejected>()
                    .map(|r| Json::obj().with("tag", ju64(r.tag)))
            },
            decode: |j| {
                Some(Box::new(ConfigTrainRejected {
                    tag: u64f(j, "tag")?,
                }) as _)
            },
        });
        register_payload_codec(PayloadCodec {
            name: "bus.ConfigTrainDecoalesced",
            encode: |any| {
                any.downcast_ref::<ConfigTrainDecoalesced>().map(|d| {
                    Json::obj()
                        .with("tag", ju64(d.tag))
                        .with("done_bursts", ju64(d.done_bursts as u64))
                        .with(
                            "in_flight",
                            match &d.in_flight {
                                Some(f) => Json::obj()
                                    .with("id", ju64(f.id))
                                    .with("op", op_json(f.op))
                                    .with("addr", ju64(f.addr))
                                    .with("words", ju64(f.words as u64))
                                    .with("issued_at", time_json(f.issued_at)),
                                None => Json::Null,
                            },
                        )
                })
            },
            decode: |j| {
                let in_flight = match j.get("in_flight")? {
                    Json::Null => None,
                    f => Some(InFlightBurst {
                        id: u64f(f, "id")?,
                        op: op_of(f.get("op")?)?,
                        addr: u64f(f, "addr")?,
                        words: usizef(f, "words")?,
                        issued_at: time_of(f.get("issued_at")?)?,
                    }),
                };
                Some(Box::new(ConfigTrainDecoalesced {
                    tag: u64f(j, "tag")?,
                    done_bursts: usizef(j, "done_bursts")?,
                    in_flight,
                }) as _)
            },
        });
        register_payload_codec(PayloadCodec {
            name: "bus.BulkAccess",
            encode: |any| {
                any.downcast_ref::<BulkAccess>().map(|b| {
                    Json::obj()
                        .with("bursts", burst_list_json(&b.bursts))
                        .with("busy_until", time_json(b.busy_until))
                        .with(
                            "serve",
                            match &b.serve {
                                Some(s) => Json::obj()
                                    .with("req", req_json(&s.req))
                                    .with("bus", ju64(s.bus as u64))
                                    .with("reply_at", time_json(s.reply_at)),
                                None => Json::Null,
                            },
                        )
                })
            },
            decode: |j| {
                let serve = match j.get("serve")? {
                    Json::Null => None,
                    s => Some(ServeBurst {
                        req: req_of(s.get("req")?)?,
                        bus: usizef(s, "bus")?,
                        reply_at: time_of(s.get("reply_at")?)?,
                    }),
                };
                Some(Box::new(BulkAccess {
                    bursts: burst_list_of(j.get("bursts")?)?,
                    busy_until: time_of(j.get("busy_until")?)?,
                    serve,
                }) as _)
            },
        });
        register_payload_codec(PayloadCodec {
            name: "bus.DmaProgram",
            encode: |any| any.downcast_ref::<DmaProgram>().map(dma_program_json),
            decode: |j| dma_program_of(j).map(|v| Box::new(v) as _),
        });
        register_payload_codec(PayloadCodec {
            name: "bus.DmaDone",
            encode: |any| {
                any.downcast_ref::<DmaDone>().map(|d| {
                    Json::obj()
                        .with("tag", ju64(d.tag))
                        .with("words", ju64(d.words))
                })
            },
            decode: |j| {
                Some(Box::new(DmaDone {
                    tag: u64f(j, "tag")?,
                    words: u64f(j, "words")?,
                }) as _)
            },
        });
        register_payload_codec(PayloadCodec {
            name: "bus.DmaAutoRepeat",
            encode: |any| {
                any.downcast_ref::<DmaAutoRepeat>().map(|a| {
                    Json::obj()
                        .with("program", dma_program_json(&a.program))
                        .with("period", ju64(a.period.as_fs()))
                        .with("count", ju64(a.count))
                })
            },
            decode: |j| {
                Some(Box::new(DmaAutoRepeat {
                    program: dma_program_of(j.get("program")?)?,
                    period: SimDuration::fs(u64f(j, "period")?),
                    count: u64f(j, "count")?,
                }) as _)
            },
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcf_kernel::snapshot::{decode_payload, encode_payload};

    #[test]
    fn bus_request_payload_round_trips_through_the_registry() {
        register_bus_codecs();
        let req = BusRequest {
            id: (1 << 63) | 5, // train-adopted id: exceeds f64-exact range
            master: 3,
            op: BusOp::Write,
            addr: 0xFFFF_FFFF_FFFF_0000,
            burst: 2,
            data: vec![u64::MAX, 7],
            priority: 9,
        };
        let doc = encode_payload(&req).unwrap_or_else(|e| panic!("encode: {e}"));
        let back = decode_payload(&doc).unwrap_or_else(|e| panic!("decode: {e}"));
        let back = back
            .downcast_ref::<BusRequest>()
            .unwrap_or_else(|| panic!("wrong payload type"));
        assert_eq!(back.id, req.id);
        assert_eq!(back.addr, req.addr);
        assert_eq!(back.data, req.data);
        assert_eq!(back.op, req.op);
        assert_eq!(back.priority, req.priority);
    }

    #[test]
    fn train_outcomes_round_trip() {
        register_bus_codecs();
        let deco = ConfigTrainDecoalesced {
            tag: 42,
            done_bursts: 2,
            in_flight: Some(InFlightBurst {
                id: (1 << 63) | 1,
                op: BusOp::Read,
                addr: 0x208,
                words: 8,
                issued_at: SimTime(123_456_789),
            }),
        };
        let doc = encode_payload(&deco).unwrap_or_else(|e| panic!("encode: {e}"));
        let back = decode_payload(&doc).unwrap_or_else(|e| panic!("decode: {e}"));
        let back = back
            .downcast_ref::<ConfigTrainDecoalesced>()
            .unwrap_or_else(|| panic!("wrong payload type"));
        assert_eq!(back.tag, 42);
        assert_eq!(back.done_bursts, 2);
        let f = back.in_flight.unwrap_or_else(|| panic!("in_flight lost"));
        assert_eq!(f.id, (1 << 63) | 1);
        assert_eq!(f.issued_at, SimTime(123_456_789));
    }
}
