//! # drcf-soc — SoC component library and architecture builders
//!
//! The system-level building blocks around the fabric: an abstract
//! processor ([`cpu`]), a library of timed DSP/crypto/multimedia
//! accelerator models ([`accelerator`]), application task graphs and their
//! compilation to bus traffic ([`tasks`]), the ADRIATIC-flavored workloads
//! ([`workloads`]), builders for the two Fig. 1 architectures
//! ([`builder`]), and the profiling front end of the partitioning phase
//! ([`profile`]).

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod accelerator;

/// DMA register offsets (re-exported from `drcf_bus::dma` for the task
/// compiler's DMA copy mode).
pub use drcf_bus::dma::regs as dma_regs;
/// DMA status codes.
pub use drcf_bus::dma::status as dma_status;
pub mod builder;
pub mod cpu;
pub mod partition;
pub mod profile;
pub mod sharded;
pub mod tasks;
pub mod workloads;

/// Commonly used items.
pub mod prelude {
    pub use crate::accelerator::{regs, status, KernelAccelerator, KernelKind};
    pub use crate::builder::{
        assign_bindings, build_soc, restore_soc, restore_soc_chain, run_soc, run_soc_mut,
        scenario_fingerprint, snapshot_prefix, BuiltSoc, Mapping, RunMetrics, SocConfigPath,
        SocCopyMode, SocSpec,
    };
    pub use crate::cpu::{Cpu, CpuConfig, CpuStats, Instr};
    pub use crate::partition::{
        partition_topology, plan_partition, run_partitioned, BridgeSpec, BridgeTraffic,
        CriticalLinkReport, LinkKind, MergedBridge, Part, PartCtx, PartitionPlan, PartitionedRun,
        PlannedLink, Segment, SocGraph, StreamSpec,
    };
    pub use crate::profile::{asap_profile, estimate_task_cycles, measured_busy_fractions};
    pub use crate::sharded::{tile_stat, FabricRing, FabricTile};
    pub use crate::tasks::{
        compile, compile_with, task_input, AccelBinding, CompileOptions, CopyMode, Task, TaskGraph,
        TaskId, TaskKind,
    };
    pub use crate::workloads::{
        multi_standard, video_pipeline, wireless_receiver, AccelReq, Workload,
    };
}
