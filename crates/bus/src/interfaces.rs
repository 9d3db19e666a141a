//! The master/slave interface contracts.
//!
//! [`BusSlaveModel`] is the Rust rendering of the paper's `bus_slv_if`:
//!
//! ```text
//! class bus_slv_if : public virtual sc_interface {
//!   virtual sc_uint<ADDW> get_low_add()=0;
//!   virtual sc_uint<ADDW> get_high_add()=0;
//!   virtual bool read(sc_uint<ADDW> add, sc_int<DATAW> *data)=0;
//!   virtual bool write(sc_uint<ADDW> add, sc_int<DATAW> *data)=0;
//! };
//! ```
//!
//! Anything implementing it can be attached to a bus through
//! [`SlaveAdapter`] — or folded into a DRCF as a context, which is how the
//! transformation of §5.2 preserves functionality. [`MasterPort`] is the
//! master-side helper that issues split transactions and holds a kernel
//! obligation until each response arrives.

use drcf_kernel::json::{ju64, ju64_of, Json};
use drcf_kernel::prelude::*;
use drcf_kernel::snapshot::{self as snap, Snapshotable};

use crate::protocol::{
    Addr, BusOp, BusRequest, BusResponse, BusStatus, SlaveAccess, SlaveReply, TxnId, Word,
};
use crate::snapshot::{time_json, time_of, words_json, words_of};

/// A functional slave model: address range, word read/write, and a timing
/// hook. This is the unit the DRCF methodology moves between "own hardware
/// accelerator" and "context on the reconfigurable fabric".
// read/write mirror the paper's `bool read(...)` contract: the only error
// information a slave reports is success/failure.
#[allow(clippy::result_unit_err)]
pub trait BusSlaveModel: 'static {
    /// `get_low_add()` of the paper: lowest claimed address (word units).
    fn low_addr(&self) -> Addr;
    /// `get_high_add()` of the paper: highest claimed address (inclusive).
    fn high_addr(&self) -> Addr;
    /// Functional read of one word.
    fn read(&mut self, addr: Addr) -> Result<Word, ()>;
    /// Functional write of one word.
    fn write(&mut self, addr: Addr, data: Word) -> Result<(), ()>;
    /// Processing time of an access, in cycles of the slave's clock
    /// (defaults to a single cycle).
    fn access_cycles(&self, _op: BusOp, _addr: Addr, burst: usize) -> u64 {
        burst as u64
    }
    /// Model name for reports.
    fn model_name(&self) -> &str {
        "slave"
    }
    /// Capture the model's dynamic state for `Simulator::snapshot`. The
    /// default fails loudly, like `Component::snapshot`: a stateful model
    /// must opt in, or a restore would silently resurrect stale contents.
    fn snapshot_state(&self) -> Result<Json, String> {
        Err(format!(
            "slave model {:?} does not implement snapshot",
            self.model_name()
        ))
    }
    /// Restore state captured by [`BusSlaveModel::snapshot_state`].
    fn restore_state(&mut self, _state: &Json) -> Result<(), String> {
        Err(format!(
            "slave model {:?} does not implement restore",
            self.model_name()
        ))
    }
    /// Deterministic mutation counter: bumped on every state change, equal
    /// between two points in a run iff the model's state is unchanged
    /// between them. Containers embedding many models (a DRCF holding one
    /// model per context) serialize it next to `snapshot_state` and use it
    /// during *live* restores along a snapshot lineage to skip re-parsing
    /// models whose epoch matches the document. `None` (the default) opts
    /// out: the model is always re-parsed.
    fn change_epoch(&self) -> Option<u64> {
        None
    }
}

/// Apply a whole [`BusRequest`] to a model functionally, producing the
/// response payload. Shared by [`SlaveAdapter`] and the DRCF fabric so both
/// paths produce bit-identical results.
pub fn apply_request<M: BusSlaveModel + ?Sized>(model: &mut M, req: &BusRequest) -> BusResponse {
    let mut data = Vec::new();
    let mut status = BusStatus::Ok;
    match req.op {
        BusOp::Read => {
            data.reserve_exact(req.burst);
            for i in 0..req.burst {
                match model.read(req.addr + i as u64) {
                    Ok(w) => data.push(w),
                    Err(()) => {
                        status = BusStatus::SlaveError;
                        data.clear();
                        break;
                    }
                }
            }
        }
        BusOp::Write => {
            for (i, &w) in req.data.iter().enumerate() {
                if model.write(req.addr + i as u64, w).is_err() {
                    status = BusStatus::SlaveError;
                    break;
                }
            }
        }
    }
    BusResponse {
        id: req.id,
        op: req.op,
        addr: req.addr,
        status,
        data,
    }
}

/// Kernel component that exposes a [`BusSlaveModel`] on a bus: performs the
/// functional access immediately, then replies after the model's processing
/// time, serializing overlapping accesses (a single-ported slave).
pub struct SlaveAdapter<M: BusSlaveModel> {
    model: M,
    clock_mhz: u64,
    busy_until: SimTime,
    /// Accesses served.
    pub accesses: u64,
    /// Accumulated service time.
    pub busy_time: SimDuration,
}

impl<M: BusSlaveModel> SlaveAdapter<M> {
    /// Wrap `model`, timing accesses against a clock of `clock_mhz` MHz.
    pub fn new(model: M, clock_mhz: u64) -> Self {
        SlaveAdapter {
            model,
            clock_mhz,
            busy_until: SimTime::ZERO,
            accesses: 0,
            busy_time: SimDuration::ZERO,
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the wrapped model.
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }
}

impl<M: BusSlaveModel> Component for SlaveAdapter<M> {
    fn decoders(&self) -> &'static [drcf_kernel::snapshot::Decoder] {
        crate::snapshot::BUS_DECODERS
    }

    fn snapshot(&mut self) -> SimResult<Json> {
        Ok(Json::obj()
            .with("model", self.model.snapshot_state().map_err(snap::err)?)
            .with("busy_until", time_json(self.busy_until))
            .with("accesses", ju64(self.accesses))
            .with("busy_time", ju64(self.busy_time.as_fs())))
    }

    fn restore(&mut self, state: &Json) -> SimResult<()> {
        self.model
            .restore_state(snap::field(state, "model")?)
            .map_err(snap::err)?;
        self.busy_until = time_of(snap::field(state, "busy_until")?)
            .ok_or_else(|| snap::err("slave adapter busy_until is not a time"))?;
        self.accesses = snap::u64_field(state, "accesses")?;
        self.busy_time = SimDuration::fs(snap::u64_field(state, "busy_time")?);
        Ok(())
    }

    fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
        let access = match msg.user::<SlaveAccess>() {
            Ok(a) => a,
            Err(_) => return,
        };
        self.accesses += 1;
        let resp = apply_request(&mut self.model, &access.req);
        let cycles = self
            .model
            .access_cycles(access.req.op, access.req.addr, access.req.burst);
        let service = SimDuration::cycles_at_mhz(cycles, self.clock_mhz);
        // Single-ported slave: a new access starts only after the previous
        // one finishes.
        let start = self.busy_until.max(api.now());
        let done = start + service;
        self.busy_until = done;
        self.busy_time += service;
        let delay = done.since(api.now());
        api.send_in(
            access.bus,
            SlaveReply {
                resp,
                master: access.req.master,
            },
            delay,
        );
    }
}

/// Master-side transaction bookkeeping. Embed one per master port; call
/// [`MasterPort::read`]/[`MasterPort::write`] to issue, and
/// [`MasterPort::take_response`] inside `handle` to claim responses.
pub struct MasterPort {
    bus: ComponentId,
    priority: u8,
    next_txn: TxnId,
    in_flight: Vec<(TxnId, SimTime)>,
    /// Transactions issued.
    pub issued: u64,
    /// Responses received.
    pub completed: u64,
    /// Responses that came back with an error status.
    pub errors: u64,
    /// End-to-end transaction latency distribution.
    pub latency: LatencyHistogram,
}

impl MasterPort {
    /// New port talking to `bus`, issuing at `priority`.
    pub fn new(bus: ComponentId, priority: u8) -> Self {
        MasterPort {
            bus,
            priority,
            next_txn: 1,
            in_flight: Vec::new(),
            issued: 0,
            completed: 0,
            errors: 0,
            latency: LatencyHistogram::new(),
        }
    }

    /// The bus this port is bound to.
    pub fn bus(&self) -> ComponentId {
        self.bus
    }

    /// Transactions currently awaiting responses.
    pub fn outstanding(&self) -> usize {
        self.in_flight.len()
    }

    fn issue(
        &mut self,
        api: &mut Api<'_>,
        op: BusOp,
        addr: Addr,
        burst: usize,
        data: Vec<Word>,
    ) -> TxnId {
        let id = self.next_txn;
        self.next_txn += 1;
        let req = BusRequest {
            id,
            master: api.me(),
            op,
            addr,
            burst,
            data,
            priority: self.priority,
        };
        debug_assert!(req.validate().is_ok(), "malformed request");
        self.in_flight.push((id, api.now()));
        self.issued += 1;
        api.obligation_begin();
        api.send(self.bus, req, Delay::Delta);
        id
    }

    /// Issue a burst read of `burst` words starting at `addr`.
    pub fn read(&mut self, api: &mut Api<'_>, addr: Addr, burst: usize) -> TxnId {
        self.issue(api, BusOp::Read, addr, burst, Vec::new())
    }

    /// Issue a burst write.
    pub fn write(&mut self, api: &mut Api<'_>, addr: Addr, data: Vec<Word>) -> TxnId {
        let burst = data.len();
        self.issue(api, BusOp::Write, addr, burst, data)
    }

    /// Adopt an externally-created transaction: the in-flight burst a
    /// de-coalesced configuration train hands back
    /// ([`crate::protocol::InFlightBurst`]). The bus chose `id` from its
    /// own id space and will deliver the [`BusResponse`] to this component;
    /// adopting makes it claimable via [`MasterPort::take_response`] with
    /// the usual obligation accounting, as if this port had issued it at
    /// `issued_at`.
    pub fn adopt(&mut self, api: &mut Api<'_>, id: TxnId, issued_at: SimTime) {
        self.in_flight.push((id, issued_at));
        self.issued += 1;
        api.obligation_begin();
    }

    /// Claim a [`BusResponse`] belonging to this port. Returns the message
    /// untouched when it is not one of ours.
    pub fn take_response(&mut self, api: &mut Api<'_>, msg: Msg) -> Result<BusResponse, Msg> {
        let source = msg.source;
        let resp = msg.user::<BusResponse>()?;
        let Some(pos) = self.in_flight.iter().position(|&(id, _)| id == resp.id) else {
            // A response, but not to one of our transactions: rebox it so
            // another port embedded in the same component can claim it.
            return Err(Msg {
                source,
                kind: MsgKind::User(Box::new(resp)),
            });
        };
        let (_, issued_at) = self.in_flight.swap_remove(pos);
        self.completed += 1;
        if !resp.is_ok() {
            self.errors += 1;
        }
        self.latency.record(api.now().since(issued_at));
        api.obligation_end();
        Ok(resp)
    }
}

impl Snapshotable for MasterPort {
    fn snapshot_json(&self) -> Json {
        Json::obj()
            .with("next_txn", ju64(self.next_txn))
            .with(
                "in_flight",
                Json::Arr(
                    self.in_flight
                        .iter()
                        .map(|&(id, at)| Json::Arr(vec![ju64(id), time_json(at)]))
                        .collect(),
                ),
            )
            .with("issued", ju64(self.issued))
            .with("completed", ju64(self.completed))
            .with("errors", ju64(self.errors))
            .with("latency", self.latency.snapshot_json())
    }

    fn restore_json(&mut self, state: &Json) -> SimResult<()> {
        self.next_txn = snap::u64_field(state, "next_txn")?;
        self.in_flight.clear();
        for e in snap::arr_field(state, "in_flight")? {
            let pair = e.as_arr().filter(|p| p.len() == 2);
            let (id, at) = pair
                .and_then(|p| Some((ju64_of(&p[0])?, time_of(&p[1])?)))
                .ok_or_else(|| snap::err("malformed in-flight transaction entry"))?;
            self.in_flight.push((id, at));
        }
        self.issued = snap::u64_field(state, "issued")?;
        self.completed = snap::u64_field(state, "completed")?;
        self.errors = snap::u64_field(state, "errors")?;
        self.latency.restore_json(snap::field(state, "latency")?)?;
        Ok(())
    }
}

/// A trivially configurable register-file slave used in tests and as the
/// control interface of simple accelerators.
pub struct RegisterFile {
    low: Addr,
    regs: Vec<Word>,
    cycles: u64,
    name: String,
}

impl RegisterFile {
    /// `count` registers starting at `low`, `cycles` per access.
    pub fn new(name: &str, low: Addr, count: usize, cycles: u64) -> Self {
        RegisterFile {
            low,
            regs: vec![0; count],
            cycles,
            name: name.to_string(),
        }
    }

    /// Direct register access (outside the bus).
    pub fn reg(&self, i: usize) -> Word {
        self.regs[i]
    }
}

impl BusSlaveModel for RegisterFile {
    fn low_addr(&self) -> Addr {
        self.low
    }
    fn high_addr(&self) -> Addr {
        self.low + self.regs.len() as u64 - 1
    }
    fn read(&mut self, addr: Addr) -> Result<Word, ()> {
        self.regs.get((addr - self.low) as usize).copied().ok_or(())
    }
    fn write(&mut self, addr: Addr, data: Word) -> Result<(), ()> {
        let i = (addr - self.low) as usize;
        match self.regs.get_mut(i) {
            Some(r) => {
                *r = data;
                Ok(())
            }
            None => Err(()),
        }
    }
    fn access_cycles(&self, _op: BusOp, _addr: Addr, burst: usize) -> u64 {
        self.cycles * burst as u64
    }
    fn model_name(&self) -> &str {
        &self.name
    }
    fn snapshot_state(&self) -> Result<Json, String> {
        Ok(Json::obj().with("regs", words_json(&self.regs)))
    }
    fn restore_state(&mut self, state: &Json) -> Result<(), String> {
        let regs = state
            .get("regs")
            .and_then(words_of)
            .ok_or("register file regs missing")?;
        if regs.len() != self.regs.len() {
            return Err(format!(
                "register file {:?} has {} registers, snapshot has {}",
                self.name,
                self.regs.len(),
                regs.len()
            ));
        }
        self.regs = regs;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcf_kernel::testing::ok;

    #[test]
    fn register_file_roundtrip() {
        let mut rf = RegisterFile::new("rf", 0x100, 4, 1);
        assert_eq!(rf.low_addr(), 0x100);
        assert_eq!(rf.high_addr(), 0x103);
        ok(rf.write(0x102, 77));
        assert_eq!(rf.read(0x102), Ok(77));
        assert_eq!(rf.reg(2), 77);
        assert!(rf.read(0x104).is_err());
        assert!(rf.write(0x104, 1).is_err());
    }

    #[test]
    fn apply_request_read_burst() {
        let mut rf = RegisterFile::new("rf", 0, 4, 1);
        for i in 0..4 {
            ok(rf.write(i, i * 10));
        }
        let req = BusRequest {
            id: 9,
            master: 0,
            op: BusOp::Read,
            addr: 1,
            burst: 3,
            data: vec![],
            priority: 0,
        };
        let resp = apply_request(&mut rf, &req);
        assert!(resp.is_ok());
        assert_eq!(resp.data, vec![10, 20, 30]);
        assert_eq!(resp.id, 9);
    }

    #[test]
    fn apply_request_write_then_read() {
        let mut rf = RegisterFile::new("rf", 0, 4, 1);
        let w = BusRequest {
            id: 1,
            master: 0,
            op: BusOp::Write,
            addr: 0,
            burst: 2,
            data: vec![5, 6],
            priority: 0,
        };
        assert!(apply_request(&mut rf, &w).is_ok());
        assert_eq!(rf.reg(0), 5);
        assert_eq!(rf.reg(1), 6);
    }

    #[test]
    fn apply_request_out_of_range_is_slave_error() {
        let mut rf = RegisterFile::new("rf", 0, 2, 1);
        let r = BusRequest {
            id: 1,
            master: 0,
            op: BusOp::Read,
            addr: 0,
            burst: 4, // runs past the end
            data: vec![],
            priority: 0,
        };
        let resp = apply_request(&mut rf, &r);
        assert_eq!(resp.status, BusStatus::SlaveError);
        assert!(resp.data.is_empty());
    }

    #[test]
    fn default_access_cycles_scale_with_burst() {
        struct Plain;
        impl BusSlaveModel for Plain {
            fn low_addr(&self) -> Addr {
                0
            }
            fn high_addr(&self) -> Addr {
                10
            }
            fn read(&mut self, _: Addr) -> Result<Word, ()> {
                Ok(0)
            }
            fn write(&mut self, _: Addr, _: Word) -> Result<(), ()> {
                Ok(())
            }
        }
        assert_eq!(Plain.access_cycles(BusOp::Read, 0, 8), 8);
        assert_eq!(Plain.model_name(), "slave");
    }
}
