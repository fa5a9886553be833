//! # ignem-compute — YARN/Tez-like compute framework model
//!
//! The compute substrate of the Ignem reproduction: job specifications in
//! SWIM-trace vocabulary ([`job::JobSpec`]), the job/task state authority
//! ([`tracker::JobTracker`]) with locality-aware task choice (including the
//! migrated-replica preference Ignem exposes), per-node slot accounting
//! ([`slots::Slots`]) and the scheduler constants that generate lead-time
//! ([`config::ComputeConfig`]: 3 s heartbeats, launch overheads).
//!
//! Timing — how long each task phase takes on disks, memory and network —
//! is driven by `ignem-cluster`, which hosts these components next to the
//! storage and DFS substrates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod job;
pub mod slots;
pub mod tracker;

/// Commonly used items.
pub mod prelude {
    pub use crate::config::ComputeConfig;
    pub use crate::job::{JobInput, JobSpec, SubmitOptions};
    pub use crate::slots::Slots;
    pub use crate::tracker::{
        choose_map_task, choose_reduce_task, JobRuntime, JobTracker, MapInput, TaskId, TaskKind,
        TaskRecord, TaskState,
    };
}

pub use config::ComputeConfig;
pub use job::{JobInput, JobSpec, SubmitOptions};
pub use slots::Slots;
pub use tracker::{JobTracker, MapInput, TaskId, TaskKind, TaskState};
