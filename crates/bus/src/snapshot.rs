//! Snapshot support for the bus substrate.
//!
//! Two things live here:
//!
//! * the snapshot [`Codec`] of every protocol payload ([`crate::protocol`],
//!   [`crate::dma`]) — what a `Simulator::snapshot` writes when it catches
//!   one of them in flight on the timed queue — and [`BUS_DECODERS`], the
//!   slice every bus-crate component declares so a restore can decode
//!   them;
//! * the field encoders those codecs share with component state (ops,
//!   statuses, word lists, times, burst lists).
//!
//! The `Snapshotable` impls for concrete components live next to their
//! private fields (`bus.rs`, `dma.rs`, ...); this module only holds the
//! shared, payload-level encoding.

use drcf_kernel::json::{ju64, ju64_of, Json};
use drcf_kernel::prelude::{SimDuration, SimTime};
use drcf_kernel::snapshot::{Codec, Decoder};

use crate::dma::{DmaAutoRepeat, DmaDone, DmaProgram};
use crate::protocol::{
    BulkAccess, BurstRun, BurstRuns, BusOp, BusRequest, BusResponse, BusStatus, ConfigTrain,
    ConfigTrainDecoalesced, ConfigTrainDone, ConfigTrainRejected, DirectReadDone, DirectReadReq,
    InFlightBurst, ServeBurst, SlaveAccess, SlaveReply, Word,
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

fn u64f(j: &Json, key: &str) -> Option<u64> {
    ju64_of(j.get(key)?)
}

fn usizef(j: &Json, key: &str) -> Option<usize> {
    usize::try_from(u64f(j, key)?).ok()
}

/// Encode a train's bursts as their maximal contiguous runs, one
/// `[op, addr, words, count]` array per run: `count` bursts of the same op
/// and size, each starting where the previous one ended. A fixed-address
/// run is written as `count` one-burst runs, and runs that continue one
/// another are merged, so the document is a function of the bursts alone.
pub fn burst_list_json(runs: &BurstRuns) -> Json {
    // Contiguous pieces: a fixed run splits into its single bursts.
    let pieces = runs.runs().iter().flat_map(|r| {
        let (n, count) = if r.fixed { (r.count, 1) } else { (1, r.count) };
        std::iter::repeat_n(
            BurstRun {
                count,
                fixed: false,
                ..*r
            },
            n,
        )
    });
    let mut merged: Vec<BurstRun> = Vec::new();
    for p in pieces {
        match merged.last_mut() {
            Some(m) if m.op == p.op && m.words == p.words && m.next_addr() == Some(p.addr) => {
                m.count += p.count;
            }
            _ => merged.push(p),
        }
    }
    Json::Arr(
        merged
            .iter()
            .map(|r| {
                Json::Arr(vec![
                    op_json(r.op),
                    ju64(r.addr),
                    ju64(r.words as u64),
                    ju64(r.count as u64),
                ])
            })
            .collect(),
    )
}

/// Decode a burst list written by [`burst_list_json`] into its canonical
/// runs. A run of zero bursts, or one whose addresses overflow, is
/// malformed.
pub fn burst_list_of(j: &Json) -> Option<BurstRuns> {
    let mut runs = BurstRuns::default();
    for run in j.as_arr()? {
        let [op, addr, words, count] = run.as_arr()? else {
            return None;
        };
        let (op, addr) = (op_of(op)?, ju64_of(addr)?);
        let words = usize::try_from(ju64_of(words)?).ok()?;
        let count = usize::try_from(ju64_of(count)?).ok()?;
        (count as u64)
            .checked_sub(1)?
            .checked_mul(words as u64)
            .and_then(|span| addr.checked_add(span))?;
        runs.push(BurstRun {
            op,
            addr,
            words,
            count,
            fixed: false,
        });
    }
    Some(runs)
}

/// Decoders for every payload type the bus crate can leave in flight
/// across a snapshot point; every bus-crate component declares it.
pub const BUS_DECODERS: &[Decoder] = &[
    Decoder::of::<BusRequest>(),
    Decoder::of::<BusResponse>(),
    Decoder::of::<SlaveAccess>(),
    Decoder::of::<SlaveReply>(),
    Decoder::of::<DirectReadReq>(),
    Decoder::of::<DirectReadDone>(),
    Decoder::of::<ConfigTrain>(),
    Decoder::of::<ConfigTrainDone>(),
    Decoder::of::<ConfigTrainRejected>(),
    Decoder::of::<ConfigTrainDecoalesced>(),
    Decoder::of::<BulkAccess>(),
    Decoder::of::<DmaProgram>(),
    Decoder::of::<DmaDone>(),
    Decoder::of::<DmaAutoRepeat>(),
];

impl Codec for BusRequest {
    const NAME: &'static str = "bus.BusRequest";
    fn encode(&self) -> Json {
        Json::obj()
            .with("id", ju64(self.id))
            .with("master", ju64(self.master as u64))
            .with("op", op_json(self.op))
            .with("addr", ju64(self.addr))
            .with("burst", ju64(self.burst as u64))
            .with("data", words_json(&self.data))
            .with("priority", Json::Num(self.priority as f64))
    }
    fn decode(j: &Json) -> Option<BusRequest> {
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
}

impl Codec for BusResponse {
    const NAME: &'static str = "bus.BusResponse";
    fn encode(&self) -> Json {
        Json::obj()
            .with("id", ju64(self.id))
            .with("op", op_json(self.op))
            .with("addr", ju64(self.addr))
            .with("status", status_json(self.status))
            .with("data", words_json(&self.data))
    }
    fn decode(j: &Json) -> Option<BusResponse> {
        Some(BusResponse {
            id: u64f(j, "id")?,
            op: op_of(j.get("op")?)?,
            addr: u64f(j, "addr")?,
            status: status_of(j.get("status")?)?,
            data: words_of(j.get("data")?)?,
        })
    }
}

impl Codec for SlaveAccess {
    const NAME: &'static str = "bus.SlaveAccess";
    fn encode(&self) -> Json {
        Json::obj()
            .with("req", self.req.encode())
            .with("bus", ju64(self.bus as u64))
    }
    fn decode(j: &Json) -> Option<SlaveAccess> {
        Some(SlaveAccess {
            req: BusRequest::decode(j.get("req")?)?,
            bus: usizef(j, "bus")?,
        })
    }
}

impl Codec for SlaveReply {
    const NAME: &'static str = "bus.SlaveReply";
    fn encode(&self) -> Json {
        Json::obj()
            .with("resp", self.resp.encode())
            .with("master", ju64(self.master as u64))
    }
    fn decode(j: &Json) -> Option<SlaveReply> {
        Some(SlaveReply {
            resp: BusResponse::decode(j.get("resp")?)?,
            master: usizef(j, "master")?,
        })
    }
}

drcf_kernel::field_codec!(
    DirectReadReq,
    "bus.DirectReadReq",
    requester,
    addr,
    words,
    tag
);

drcf_kernel::field_codec!(DirectReadDone, "bus.DirectReadDone", tag, words);

impl Codec for ConfigTrain {
    const NAME: &'static str = "bus.ConfigTrain";
    fn encode(&self) -> Json {
        Json::obj()
            .with("master", ju64(self.master as u64))
            .with("priority", Json::Num(self.priority as f64))
            .with("tag", ju64(self.tag))
            .with("bursts", burst_list_json(&self.runs))
    }
    fn decode(j: &Json) -> Option<ConfigTrain> {
        Some(ConfigTrain {
            master: usizef(j, "master")?,
            priority: u8::try_from(u64f(j, "priority")?).ok()?,
            tag: u64f(j, "tag")?,
            runs: burst_list_of(j.get("bursts")?)?,
        })
    }
}

drcf_kernel::field_codec!(ConfigTrainDone, "bus.ConfigTrainDone", tag, words);

drcf_kernel::field_codec!(ConfigTrainRejected, "bus.ConfigTrainRejected", tag);

impl Codec for ConfigTrainDecoalesced {
    const NAME: &'static str = "bus.ConfigTrainDecoalesced";
    fn encode(&self) -> Json {
        let in_flight = match &self.in_flight {
            Some(f) => Json::obj()
                .with("id", ju64(f.id))
                .with("op", op_json(f.op))
                .with("addr", ju64(f.addr))
                .with("words", ju64(f.words as u64))
                .with("issued_at", time_json(f.issued_at)),
            None => Json::Null,
        };
        Json::obj()
            .with("tag", ju64(self.tag))
            .with("done_bursts", ju64(self.done_bursts as u64))
            .with("in_flight", in_flight)
    }
    fn decode(j: &Json) -> Option<ConfigTrainDecoalesced> {
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
        Some(ConfigTrainDecoalesced {
            tag: u64f(j, "tag")?,
            done_bursts: usizef(j, "done_bursts")?,
            in_flight,
        })
    }
}

impl Codec for BulkAccess {
    const NAME: &'static str = "bus.BulkAccess";
    fn encode(&self) -> Json {
        let serve = match &self.serve {
            Some(s) => Json::obj()
                .with("req", s.req.encode())
                .with("bus", ju64(s.bus as u64))
                .with("reply_at", time_json(s.reply_at)),
            None => Json::Null,
        };
        Json::obj()
            .with("bursts", burst_list_json(&self.runs))
            .with("busy_until", time_json(self.busy_until))
            .with("serve", serve)
    }
    fn decode(j: &Json) -> Option<BulkAccess> {
        let serve = match j.get("serve")? {
            Json::Null => None,
            s => Some(ServeBurst {
                req: BusRequest::decode(s.get("req")?)?,
                bus: usizef(s, "bus")?,
                reply_at: time_of(s.get("reply_at")?)?,
            }),
        };
        Some(BulkAccess {
            runs: burst_list_of(j.get("bursts")?)?,
            busy_until: time_of(j.get("busy_until")?)?,
            serve,
        })
    }
}

drcf_kernel::field_codec!(DmaProgram, "bus.DmaProgram", src, dst, words, notify, tag);

drcf_kernel::field_codec!(DmaDone, "bus.DmaDone", tag, words);

impl Codec for DmaAutoRepeat {
    const NAME: &'static str = "bus.DmaAutoRepeat";
    fn encode(&self) -> Json {
        Json::obj()
            .with("program", self.program.encode())
            .with("period", dur_json(self.period))
            .with("count", ju64(self.count))
    }
    fn decode(j: &Json) -> Option<DmaAutoRepeat> {
        Some(DmaAutoRepeat {
            program: DmaProgram::decode(j.get("program")?)?,
            period: dur_of(j.get("period")?)?,
            count: u64f(j, "count")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::tests::Lcg;
    use crate::protocol::TrainBurst;
    use drcf_kernel::snapshot::Payload;
    use std::any::Any;
    use std::collections::BTreeSet;

    /// A train-adopted id: above 2^53, so only the lossless `u64` form
    /// survives the round trip.
    const BIG_ID: u64 = (1 << 63) | 5;

    fn req() -> BusRequest {
        BusRequest {
            id: BIG_ID,
            master: 3,
            op: BusOp::Write,
            addr: 0xFFFF_FFFF_FFFF_0000,
            burst: 2,
            data: vec![u64::MAX, 7],
            priority: 9,
        }
    }

    fn resp() -> BusResponse {
        BusResponse {
            id: BIG_ID,
            op: BusOp::Read,
            addr: 0x40,
            status: BusStatus::SlaveError,
            data: vec![1 << 60],
        }
    }

    fn bursts() -> BurstRuns {
        let b = |op, addr, words| TrainBurst { op, addr, words };
        [
            b(BusOp::Write, 0x100, 8),
            b(BusOp::Write, 0x108, 8),
            b(BusOp::Read, 0x200, 4),
            b(BusOp::Read, 0x300, 4),
            b(BusOp::Read, 0x300, 4),
        ]
        .into_iter()
        .collect()
    }

    fn program() -> DmaProgram {
        DmaProgram {
            src: u64::MAX - 1,
            dst: 0x800,
            words: 64,
            notify: 2,
            tag: BIG_ID,
        }
    }

    /// One sample per payload type, with optional fields both set and
    /// unset where a type has them.
    fn samples() -> Vec<Box<dyn Payload>> {
        vec![
            Box::new(req()),
            Box::new(resp()),
            Box::new(SlaveAccess { req: req(), bus: 1 }),
            Box::new(SlaveReply {
                resp: resp(),
                master: 4,
            }),
            Box::new(DirectReadReq {
                requester: 5,
                addr: 0x300,
                words: 16,
                tag: BIG_ID,
            }),
            Box::new(DirectReadDone {
                tag: BIG_ID,
                words: 16,
            }),
            Box::new(ConfigTrain {
                master: 6,
                priority: 255,
                tag: BIG_ID,
                runs: bursts(),
            }),
            Box::new(ConfigTrainDone {
                tag: 7,
                words: u64::MAX,
            }),
            Box::new(ConfigTrainRejected { tag: BIG_ID }),
            Box::new(ConfigTrainDecoalesced {
                tag: 42,
                done_bursts: 2,
                in_flight: Some(InFlightBurst {
                    id: BIG_ID,
                    op: BusOp::Read,
                    addr: 0x208,
                    words: 8,
                    issued_at: SimTime(123_456_789),
                }),
            }),
            Box::new(ConfigTrainDecoalesced {
                tag: 43,
                done_bursts: 0,
                in_flight: None,
            }),
            Box::new(BulkAccess {
                runs: bursts(),
                busy_until: SimTime(u64::MAX),
                serve: Some(ServeBurst {
                    req: req(),
                    bus: 1,
                    reply_at: SimTime(99),
                }),
            }),
            Box::new(BulkAccess {
                runs: BurstRuns::default(),
                busy_until: SimTime(0),
                serve: None,
            }),
            Box::new(program()),
            Box::new(DmaDone {
                tag: BIG_ID,
                words: 64,
            }),
            Box::new(DmaAutoRepeat {
                program: program(),
                period: SimDuration::ns(250),
                count: 3,
            }),
        ]
    }

    /// Encode `p`, parse the text back and decode it through the
    /// `BUS_DECODERS` entry named by its codec.
    fn through_bus_decoders(p: &dyn Payload) -> Box<dyn Payload> {
        let name = p.codec_name();
        let decoder = BUS_DECODERS
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("{name} is not in BUS_DECODERS"));
        let data =
            Json::parse(&p.encode_data().to_string()).unwrap_or_else(|e| panic!("{name}: {e}"));
        (decoder.decode)(&data).unwrap_or_else(|| panic!("{name} rejected its own encoding"))
    }

    #[test]
    fn bus_request_payload_round_trips_through_the_registry() {
        let back = through_bus_decoders(&req());
        let back = (back.as_ref() as &dyn Any)
            .downcast_ref::<BusRequest>()
            .unwrap_or_else(|| panic!("wrong payload type"));
        let req = req();
        assert_eq!(back.id, req.id);
        assert_eq!(back.master, req.master);
        assert_eq!(back.addr, req.addr);
        assert_eq!(back.burst, req.burst);
        assert_eq!(back.data, req.data);
        assert_eq!(back.op, req.op);
        assert_eq!(back.priority, req.priority);
    }

    #[test]
    fn train_outcomes_round_trip() {
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
        let back = through_bus_decoders(&deco);
        let back = (back.as_ref() as &dyn Any)
            .downcast_ref::<ConfigTrainDecoalesced>()
            .unwrap_or_else(|| panic!("wrong payload type"));
        assert_eq!(back.tag, 42);
        assert_eq!(back.done_bursts, 2);
        let f = back.in_flight.unwrap_or_else(|| panic!("in_flight lost"));
        assert_eq!(f.id, (1 << 63) | 1);
        assert_eq!(f.op, BusOp::Read);
        assert_eq!(f.addr, 0x208);
        assert_eq!(f.words, 8);
        assert_eq!(f.issued_at, SimTime(123_456_789));

        let none = ConfigTrainDecoalesced {
            tag: 43,
            done_bursts: 0,
            in_flight: None,
        };
        let back = through_bus_decoders(&none);
        let back = (back.as_ref() as &dyn Any)
            .downcast_ref::<ConfigTrainDecoalesced>()
            .unwrap_or_else(|| panic!("wrong payload type"));
        assert_eq!(back.tag, 43);
        assert!(back.in_flight.is_none());
    }

    /// Every sample encodes, decodes through `BUS_DECODERS` and re-encodes
    /// to the same bytes; the slice's names are unique and each has a
    /// sample.
    #[test]
    fn every_bus_payload_round_trips() {
        let names: BTreeSet<&str> = BUS_DECODERS.iter().map(|d| d.name).collect();
        assert_eq!(names.len(), BUS_DECODERS.len(), "codec names are unique");
        let mut covered = BTreeSet::new();
        for p in samples() {
            let name = p.codec_name();
            let doc = p.encode_data().to_string();
            let back = through_bus_decoders(p.as_ref());
            assert_eq!(back.codec_name(), name);
            assert_eq!(back.encode_data().to_string(), doc, "{name}");
            covered.insert(name);
        }
        assert_eq!(covered, names, "one sample per decoder");
    }

    /// The burst-list encoding as it was written burst by burst: maximal
    /// runs of bursts of one op and size, each starting where the previous
    /// one ended. The reference for [`burst_list_json`].
    fn reference_burst_list_json(bursts: &[TrainBurst]) -> Json {
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

    /// Random burst lists built from contiguous, fixed-address and partial
    /// groups encode exactly as burst by burst, and decode to the runs they
    /// came from: the canonical run list of a burst sequence is unique,
    /// however it was pushed.
    #[test]
    fn burst_runs_encode_as_the_per_burst_list() {
        let mut rng = Lcg(0x656e_636f);
        for case in 0..500 {
            let mut bursts = Vec::new();
            let mut pushed = BurstRuns::default();
            for _ in 0..rng.range(1, 8) {
                let op = if rng.flip() {
                    BusOp::Write
                } else {
                    BusOp::Read
                };
                // Small addresses and sizes, so groups often continue one
                // another.
                let words = rng.range(0, 4) as usize;
                let addr = match bursts.last() {
                    Some(&TrainBurst { addr, words, .. }) if rng.flip() => {
                        addr + [0, words as u64][rng.range(0, 1) as usize]
                    }
                    _ => rng.range(0, 64),
                };
                let run = BurstRun {
                    op,
                    addr,
                    words,
                    count: rng.range(1, 5) as usize,
                    fixed: rng.flip(),
                };
                pushed.push(run);
                bursts.extend((0..run.count).map(|k| TrainBurst {
                    op,
                    addr: run.addr_of(k),
                    words,
                }));
            }
            let one_by_one: BurstRuns = bursts.iter().copied().collect();
            assert_eq!(pushed, one_by_one, "case {case}: {bursts:?}");
            assert_eq!(pushed.bursts().collect::<Vec<_>>(), bursts, "case {case}");
            let doc = burst_list_json(&pushed);
            assert_eq!(
                doc.to_string(),
                reference_burst_list_json(&bursts).to_string(),
                "case {case}"
            );
            assert_eq!(burst_list_of(&doc), Some(pushed), "case {case}");
        }
    }
}
