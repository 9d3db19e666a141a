//! # drcf-kernel — deterministic event-driven simulation kernel
//!
//! A from-scratch Rust substrate providing the SystemC 2.0 semantics the
//! ADRIATIC methodology ("System-Level Modeling of Dynamically
//! Reconfigurable Hardware with SystemC", RAW/IPDPS 2003) is built on:
//!
//! * simulated time with delta cycles and a deterministic total event order,
//! * components (≈ `SC_MODULE`) interacting only through kernel-delivered
//!   messages,
//! * two-phase signals (≈ `sc_signal`), clocks (≈ `sc_clock`), bounded FIFOs
//!   (≈ `sc_fifo`),
//! * scripted sequential processes (≈ `SC_THREAD` testbenches),
//! * VCD tracing (≈ `sc_trace`) and severity reporting (≈ `sc_report`),
//! * *obligations*: explicit split-transaction accounting that turns the
//!   blocking-bus deadlock of the paper's §5.4 into a first-class,
//!   detectable run outcome.
//!
//! Each simulator instance is single-threaded and fully deterministic.
//! Parallelism comes in two shapes: `drcf-dse` fans whole simulations out
//! across sweep points, and the [`shard`] module partitions *one* model
//! into logical processes connected by latency-bearing links, runs them on
//! worker threads under a conservative lookahead protocol, and merges
//! cross-shard traffic deterministically — bit-identical to the
//! single-threaded oracle at any shard count.
//!
//! ## Quick example
//!
//! ```
//! use drcf_kernel::prelude::*;
//!
//! struct Blinker { sig: SignalRef<bool>, left: u32 }
//! impl Component for Blinker {
//!     fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
//!         match msg.kind {
//!             MsgKind::Start => api.timer_in(SimDuration::ns(5), 0),
//!             MsgKind::Timer(_) if self.left > 0 => {
//!                 let cur = api.read(self.sig);
//!                 api.write(self.sig, !cur);
//!                 self.left -= 1;
//!                 api.timer_in(SimDuration::ns(5), 0);
//!             }
//!             _ => {}
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new();
//! let sig = sim.add_signal("led", false);
//! sim.add("blinker", Blinker { sig, left: 4 });
//! assert_eq!(sim.run(), Ok(StopReason::Quiescent));
//! assert_eq!(sim.signal_change_count(sig), 4);
//! ```
//!
//! Abnormal outcomes (deadlock, delta overflow, escalated error reports)
//! return `Err(SimError)` from `run`/`run_until` — see the [`error`]
//! module.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod component;
pub mod error;
pub mod event;
pub mod fifo;
pub mod json;
pub mod kernel;
pub mod mempool;
pub mod observe;
pub mod process;
pub mod queue;
pub mod report;
pub mod shard;
pub mod signal;
pub mod snapshot;
pub mod stats;
pub mod sync;
pub mod testing;
pub mod time;
pub mod trace;

/// Everything most models need.
pub mod prelude {
    pub use crate::component::{Component, FnComponent, NullComponent};
    pub use crate::error::{SimError, SimErrorKind, SimResult};
    pub use crate::event::{ComponentId, Delay, Edge, FifoEventKind, Msg, MsgKind, StopReason};
    pub use crate::fifo::FifoRef;
    pub use crate::json::{Fnv1a, Json, JsonError};
    pub use crate::kernel::{Api, ClockRef, KernelMetrics, Simulator, TimerHandle};
    pub use crate::observe::{Recorder, SimEvent, TraceCategory, TraceEventKind, KERNEL_SOURCE};
    pub use crate::process::{Script, ScriptBuilder, Step};
    pub use crate::report::Severity;
    pub use crate::shard::{
        partition_lps, run_sharded, DivergenceDetail, EfficiencyReport, HorizonBound, LinkEndpoint,
        LinkInfo, LinkMsg, LinkPacket, LinkProfile, LinkTx, LpEfficiency, LpIo, LpProfile,
        LpReport, LpWindow, ShardConfig, ShardProfile, ShardRunReport, ShardTopology,
        DEFAULT_LINK_CAPACITY,
    };
    pub use crate::signal::SignalRef;
    pub use crate::snapshot::{
        ChainDoc, Codec, Decoder, Payload, Snapshot, SnapshotChain, SnapshotDelta, Snapshotable,
    };
    pub use crate::stats::{BusyTracker, DispatchProfile, LatencyHistogram, Summary};
    pub use crate::sync::{SemGranted, SemPost, SemWait, Semaphore};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::trace::{TraceValue, Traceable};
}
