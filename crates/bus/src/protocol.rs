//! Bus transaction records.
//!
//! These are the message payloads exchanged between masters, the shared
//! bus, and slaves. They correspond to the interface-method calls of the
//! paper's `bus_mst_if`/`bus_slv_if`: a blocking `read`/`write` call in
//! SystemC becomes a `BusRequest` → `BusResponse` split transaction here,
//! with the requesting master holding a kernel *obligation* in between (so
//! a never-answered call is a detectable deadlock, not silent quiescence).

use drcf_kernel::prelude::{ComponentId, SimTime};

/// Bus address, in word units (the whole workspace addresses memory at
/// word granularity, matching the `sc_uint<ADDW>` addresses of the paper's
/// listings).
pub type Addr = u64;
/// Bus data word.
pub type Word = u64;
/// Transaction identifier, unique per master port.
pub type TxnId = u64;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusOp {
    /// Transfer from slave to master.
    Read,
    /// Transfer from master to slave.
    Write,
}

/// Completion status of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusStatus {
    /// Completed normally.
    Ok,
    /// No slave claimed the address.
    DecodeError,
    /// The slave rejected the access.
    SlaveError,
}

/// A master's request, sent to the bus component.
#[derive(Debug, Clone)]
pub struct BusRequest {
    /// Transaction id (chosen by the master port).
    pub id: TxnId,
    /// Component to deliver the [`BusResponse`] to.
    pub master: ComponentId,
    /// Operation.
    pub op: BusOp,
    /// Start address.
    pub addr: Addr,
    /// Number of words transferred (burst length, >= 1).
    pub burst: usize,
    /// Write payload (`burst` words) — empty for reads.
    pub data: Vec<Word>,
    /// Arbitration priority (higher wins under the priority arbiter).
    pub priority: u8,
}

impl BusRequest {
    /// Validate internal consistency (burst/data agreement).
    pub fn validate(&self) -> Result<(), String> {
        if self.burst == 0 {
            return Err("burst length must be >= 1".into());
        }
        match self.op {
            BusOp::Read => {
                if !self.data.is_empty() {
                    return Err("read request must not carry data".into());
                }
            }
            BusOp::Write => {
                if self.data.len() != self.burst {
                    return Err(format!(
                        "write burst {} does not match payload length {}",
                        self.burst,
                        self.data.len()
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The bus's answer to a master, delivered when the transaction completes.
#[derive(Debug, Clone)]
pub struct BusResponse {
    /// Transaction id from the request.
    pub id: TxnId,
    /// Operation of the original request.
    pub op: BusOp,
    /// Start address of the original request.
    pub addr: Addr,
    /// Completion status.
    pub status: BusStatus,
    /// Read payload — empty for writes and failed reads.
    pub data: Vec<Word>,
}

impl BusResponse {
    /// True when the transaction completed normally.
    pub fn is_ok(&self) -> bool {
        self.status == BusStatus::Ok
    }
}

/// Bus → slave: an access that has completed its address (and, for writes,
/// data) phase on the bus and is now the slave's to process.
#[derive(Debug, Clone)]
pub struct SlaveAccess {
    /// The transaction, as the bus decoded it.
    pub req: BusRequest,
    /// The bus component expecting the [`SlaveReply`].
    pub bus: ComponentId,
}

/// Slave → bus: the processed result.
#[derive(Debug, Clone)]
pub struct SlaveReply {
    /// The completed (or failed) transaction.
    pub resp: BusResponse,
    /// Master the response must ultimately be routed to.
    pub master: ComponentId,
}

/// Memory → requester on a *direct* (non-bus) port; see
/// [`crate::memory::Memory`]. Used for dedicated configuration-memory ports
/// in the paper's memory-organization study.
#[derive(Debug, Clone)]
pub struct DirectReadReq {
    /// Who to notify on completion.
    pub requester: ComponentId,
    /// Start address.
    pub addr: Addr,
    /// Words to read.
    pub words: usize,
    /// Caller-chosen tag echoed in the reply.
    pub tag: u64,
}

/// Completion of a [`DirectReadReq`]; data content is not carried (direct
/// ports are used for configuration streaming where only timing matters).
#[derive(Debug, Clone)]
pub struct DirectReadDone {
    /// Tag from the request.
    pub tag: u64,
    /// Words transferred.
    pub words: usize,
}

/// One burst of a coalesced configuration train. Trains are timing-only
/// traffic: write payloads are implied zeros and read data is discarded by
/// the fabric, so only `(op, addr, words)` needs to travel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainBurst {
    /// Read (image/state fetch) or write (state save).
    pub op: BusOp,
    /// Start address.
    pub addr: Addr,
    /// Words in this burst (>= 1).
    pub words: usize,
}

/// `count` equal bursts of a train, each moving `words` words with `op`.
/// Burst `k` starts at `addr + k * words`, or at `addr` for every `k` when
/// `fixed` (state save and restore traffic reuses one scratch address).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstRun {
    /// Read or write.
    pub op: BusOp,
    /// Start address of the first burst.
    pub addr: Addr,
    /// Words in each burst.
    pub words: usize,
    /// Number of bursts.
    pub count: usize,
    /// Every burst starts at `addr`.
    pub fixed: bool,
}

impl BurstRun {
    /// Start address of burst `k < count`. A run's addresses never pass
    /// the end of the address space (the decoder refuses such runs).
    pub(crate) fn addr_of(&self, k: usize) -> Addr {
        if self.fixed {
            self.addr
        } else {
            self.addr + k as u64 * self.words as u64
        }
    }

    /// Where a burst continuing the run would start, `None` past the end
    /// of the address space.
    pub(crate) fn next_addr(&self) -> Option<Addr> {
        if self.fixed {
            return Some(self.addr);
        }
        (self.count as u64)
            .checked_mul(self.words as u64)
            .and_then(|span| self.addr.checked_add(span))
    }

    /// Burst `k` of the run.
    fn burst(&self, k: usize) -> TrainBurst {
        TrainBurst {
            op: self.op,
            addr: self.addr_of(k),
            words: self.words,
        }
    }

    /// Words moved by the first `n` bursts.
    pub(crate) fn words_of(&self, n: usize) -> u64 {
        n as u64 * self.words as u64
    }
}

/// A train's bursts in issue order, as runs of equal bursts. The list is
/// canonical: each burst joins the run before it whenever it continues
/// that run, so equal burst sequences have equal run lists however they
/// were pushed, and a controller-shaped load (save, image and restore,
/// each full bursts plus a partial one) has at most six runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BurstRuns(Vec<BurstRun>);

impl BurstRuns {
    /// Append `run`'s bursts, merging into the last run where they continue
    /// it. Equivalent to pushing the bursts one at a time, in O(1).
    pub fn push(&mut self, mut run: BurstRun) {
        if run.count == 0 {
            return;
        }
        // A lone burst, or one that moves nothing, has no address step.
        run.fixed &= run.count > 1 && run.words > 0;
        if let Some(last) = self.0.last_mut() {
            if last.op == run.op && last.words == run.words {
                // The first burst continues `last`, or turns a lone `last`
                // into a fixed run by starting at its address.
                let fixed = if last.next_addr() == Some(run.addr) {
                    Some(last.fixed)
                } else if last.count == 1 && last.addr == run.addr {
                    Some(true)
                } else {
                    None
                };
                if let Some(fixed) = fixed {
                    last.fixed = fixed;
                    if run.count == 1 || run.fixed == fixed {
                        last.count += run.count;
                        return;
                    }
                    // Only the first burst follows `last`'s step.
                    last.count += 1;
                    run.addr = run.addr_of(1);
                    run.count -= 1;
                    run.fixed &= run.count > 1;
                }
            }
        }
        self.0.push(run);
    }

    /// The runs, in issue order.
    pub fn runs(&self) -> &[BurstRun] {
        &self.0
    }

    /// Total bursts.
    pub(crate) fn len(&self) -> usize {
        self.0.iter().map(|r| r.count).sum()
    }

    /// No bursts at all?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Total words moved.
    pub(crate) fn words(&self) -> u64 {
        self.0.iter().map(|r| r.words_of(r.count)).sum()
    }

    /// The first `n` bursts.
    pub(crate) fn prefix(&self, mut n: usize) -> BurstRuns {
        let mut out = BurstRuns::default();
        for &r in &self.0 {
            if n == 0 {
                break;
            }
            let count = r.count.min(n);
            out.push(BurstRun { count, ..r });
            n -= count;
        }
        out
    }

    /// Burst `i`, if the train has that many.
    pub(crate) fn burst(&self, mut i: usize) -> Option<TrainBurst> {
        for r in &self.0 {
            if i < r.count {
                return Some(r.burst(i));
            }
            i -= r.count;
        }
        None
    }

    /// Every burst, in issue order.
    pub fn bursts(&self) -> impl Iterator<Item = TrainBurst> + '_ {
        self.0.iter().flat_map(|r| (0..r.count).map(|k| r.burst(k)))
    }
}

impl FromIterator<TrainBurst> for BurstRuns {
    fn from_iter<I: IntoIterator<Item = TrainBurst>>(bursts: I) -> Self {
        let mut runs = BurstRuns::default();
        for b in bursts {
            runs.push(BurstRun {
                op: b.op,
                addr: b.addr,
                words: b.words,
                count: 1,
                fixed: false,
            });
        }
        runs
    }
}

/// Master → bus: offer to run a whole multi-burst configuration load as a
/// single analytically-timed bus-occupancy window. The bus either accepts
/// (answering later with [`ConfigTrainDone`] or [`ConfigTrainDecoalesced`])
/// or answers [`ConfigTrainRejected`] immediately, in which case the master
/// falls back to per-burst transactions.
#[derive(Debug, Clone)]
pub struct ConfigTrain {
    /// Component to deliver the outcome to.
    pub master: ComponentId,
    /// Arbitration priority the per-burst requests would have used.
    pub priority: u8,
    /// Caller-chosen tag echoed in every outcome message.
    pub tag: u64,
    /// The bursts, in issue order.
    pub runs: BurstRuns,
}

/// Bus → master: the whole train completed without interference; simulated
/// time now equals the instant the last per-burst response would have been
/// delivered.
#[derive(Debug, Clone, Copy)]
pub struct ConfigTrainDone {
    /// Tag from the [`ConfigTrain`].
    pub tag: u64,
    /// Total words transferred.
    pub words: u64,
}

/// Bus → master: the train could not be accepted (wrong bus mode, pending
/// traffic, fault-range overlap, unregistered slave timing, ...).
#[derive(Debug, Clone, Copy)]
pub struct ConfigTrainRejected {
    /// Tag from the [`ConfigTrain`].
    pub tag: u64,
}

/// The single burst that was mid-transaction when a train de-coalesced,
/// rebuilt onto the real bus machinery. The master adopts transaction `id`
/// and receives its [`BusResponse`] through the normal split-transaction
/// path.
#[derive(Debug, Clone, Copy)]
pub struct InFlightBurst {
    /// Bus-chosen transaction id (outside any master port's id space).
    pub id: TxnId,
    /// Operation.
    pub op: BusOp,
    /// Start address.
    pub addr: Addr,
    /// Burst length in words.
    pub words: usize,
    /// When the per-burst request would have been issued (its grant time).
    pub issued_at: SimTime,
}

/// Bus → master: foreign traffic arrived mid-window, so the remainder of
/// the train falls back to per-burst transactions. `done_bursts` bursts
/// completed inside the window exactly as their per-burst counterparts
/// would have; `in_flight`, when present, is the burst currently on the
/// bus/slave, which completes through the real machinery.
#[derive(Debug, Clone, Copy)]
pub struct ConfigTrainDecoalesced {
    /// Tag from the [`ConfigTrain`].
    pub tag: u64,
    /// Fully-completed burst count (prefix of the train's burst list).
    pub done_bursts: usize,
    /// The burst mid-transaction at de-coalesce time, if any.
    pub in_flight: Option<InFlightBurst>,
}

/// Bus → slave: fast-forward the slave over a completed train prefix (stat
/// counters, functional writes of the implied zeros, and port occupancy),
/// plus an optional burst to service for real (its reply is owed at
/// [`ServeBurst::reply_at`]).
#[derive(Debug, Clone)]
pub struct BulkAccess {
    /// Completed bursts to account for.
    pub runs: BurstRuns,
    /// Port occupancy after the last completed burst (ignored when earlier
    /// than the slave's current horizon).
    pub busy_until: SimTime,
    /// A burst the slave was servicing at de-coalesce time.
    pub serve: Option<ServeBurst>,
}

/// The in-service burst carried by a [`BulkAccess`].
#[derive(Debug, Clone)]
pub struct ServeBurst {
    /// The reconstructed request (write payloads are the implied zeros).
    pub req: BusRequest,
    /// Bus expecting the [`SlaveReply`].
    pub bus: ComponentId,
    /// Absolute time the reply must arrive at the bus.
    pub reply_at: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_req() -> BusRequest {
        BusRequest {
            id: 1,
            master: 0,
            op: BusOp::Read,
            addr: 0x100,
            burst: 4,
            data: vec![],
            priority: 0,
        }
    }

    #[test]
    fn valid_read_and_write_pass() {
        assert!(read_req().validate().is_ok());
        let w = BusRequest {
            op: BusOp::Write,
            burst: 2,
            data: vec![5, 6],
            ..read_req()
        };
        assert!(w.validate().is_ok());
    }

    #[test]
    fn zero_burst_rejected() {
        let r = BusRequest {
            burst: 0,
            ..read_req()
        };
        assert!(r.validate().is_err());
    }

    #[test]
    fn read_with_payload_rejected() {
        let r = BusRequest {
            data: vec![1],
            ..read_req()
        };
        assert!(r.validate().is_err());
    }

    #[test]
    fn write_burst_mismatch_rejected() {
        let w = BusRequest {
            op: BusOp::Write,
            burst: 3,
            data: vec![1, 2],
            ..read_req()
        };
        assert!(w.validate().is_err());
    }

    #[test]
    fn response_status_helpers() {
        let ok = BusResponse {
            id: 1,
            op: BusOp::Read,
            addr: 0,
            status: BusStatus::Ok,
            data: vec![0],
        };
        assert!(ok.is_ok());
        let bad = BusResponse {
            status: BusStatus::DecodeError,
            ..ok.clone()
        };
        assert!(!bad.is_ok());
    }
}
