//! # drcf-bus — bus, memory and DMA substrate
//!
//! Bus-cycle-level communication fabric for the ADRIATIC reproduction:
//! a shared bus with pluggable arbitration (priority / round-robin / TDMA)
//! and two operating modes (blocking and split transactions), address
//! decoding from `get_low_add`/`get_high_add`-style slave ranges, RAM
//! models with single/dual-port organizations, and a DMA controller.
//!
//! The central design choice mirrors the paper's §5.4 limitation 3: masters
//! issue *split* transactions and hold a kernel obligation until the
//! response arrives. Running the bus in [`bus::BusMode::Blocking`] mode
//! then makes the fabric-reconfiguration deadlock reproducible and
//! detectable, while [`bus::BusMode::Split`] (the paper's required fix)
//! lets configuration traffic interleave with suspended calls.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod arbiter;
pub mod bridge;
pub mod bus;
pub mod dma;
pub mod interfaces;
pub mod map;
pub mod memory;
pub mod monitor;
pub mod protocol;
pub mod remote;
pub mod snapshot;

/// Commonly used items.
pub mod prelude {
    pub use crate::arbiter::{Arbiter, ArbiterKind, Candidate};
    pub use crate::bridge::{BridgeConfig, BusBridge};
    pub use crate::bus::{Bus, BusConfig, BusMode, SlaveTiming};
    pub use crate::dma::{Dma, DmaAutoRepeat, DmaConfig, DmaDone, DmaProgram};
    pub use crate::interfaces::{
        apply_request, BusSlaveModel, MasterPort, RegisterFile, SlaveAdapter,
    };
    pub use crate::map::{AddressMap, Range};
    pub use crate::memory::{Memory, MemoryConfig, MemoryStats};
    pub use crate::monitor::{BusContention, BusStats, ContentionRow};
    pub use crate::protocol::{
        Addr, BulkAccess, BurstRun, BurstRuns, BusOp, BusRequest, BusResponse, BusStatus,
        ConfigTrain, ConfigTrainDecoalesced, ConfigTrainDone, ConfigTrainRejected, DirectReadDone,
        DirectReadReq, InFlightBurst, ServeBurst, SlaveAccess, SlaveReply, TrainBurst, TxnId, Word,
    };
    pub use crate::remote::{BridgeDownstream, BridgeUpstream};
}
