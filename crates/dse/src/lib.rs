//! # drcf-dse — design-space exploration
//!
//! "The methodology allows to do true design space exploration at the
//! system-level, without the need to map the design first to an actual
//! technology implementation" (abstract). This crate is that exploration
//! layer: parameter spaces ([`space`]), a thread-parallel deterministic
//! sweep runner ([`runner`]), flattened run records ([`metrics`]) with a
//! std-only JSON codec ([`json`]), Pareto-front extraction ([`pareto`]),
//! partitioning-subset exploration ([`partition`]), table rendering
//! ([`report`]) and structured-trace exporters ([`trace`]).

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod json;
pub mod metrics;
pub mod pareto;
pub mod partition;
pub mod report;
pub mod runner;
pub mod space;
pub mod trace;

/// Commonly used items.
pub mod prelude {
    pub use crate::json::Json;
    pub use crate::metrics::{records_to_json, RunRecord};
    pub use crate::pareto::{dominates, objectives, pareto_front, Objective};
    pub use crate::partition::{explore_partitions, size_fabric, subsets, PartitionOutcome};
    pub use crate::report::{fmt_ns, fmt_pct, Table};
    pub use crate::runner::{sweep, sweep_warm_fork, sweep_with};
    pub use crate::space::{cartesian2, cartesian3, linear_steps, pow2_steps};
    pub use crate::trace::{
        chrome_trace, chrome_trace_events, chrome_trace_sharded, jsonl, jsonl_events,
        jsonl_sharded, write_chrome_trace, write_chrome_trace_sharded, write_jsonl,
    };
}
