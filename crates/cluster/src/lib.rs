//! # ignem-cluster — the integrated cluster simulator
//!
//! Wires every substrate (storage, network, DFS, Ignem, compute) into one
//! deterministic discrete-event simulation of the paper's 8-node testbed
//! and runs workloads under the three file-system configurations
//! ([`config::FsMode`]): plain HDFS, HDFS-Inputs-in-RAM (vmtouch upper
//! bound), and Ignem.
//!
//! ```
//! use ignem_cluster::prelude::*;
//! use ignem_compute::job::{JobInput, JobSpec, SubmitOptions};
//! use ignem_simcore::time::SimDuration;
//!
//! let mut spec = JobSpec::new("demo", JobInput::DfsFiles(vec!["/in".into()]));
//! spec.submit = SubmitOptions::with_migration();
//! let files = vec![("/in".to_string(), 256u64 << 20)];
//! let plan = vec![PlannedJob::single("demo", SimDuration::from_secs(1), spec)];
//!
//! let world = World::new(ClusterConfig::default(), FsMode::Ignem, &files, plan, vec![]);
//! let metrics = world.run();
//! assert_eq!(metrics.plans.len(), 1);
//! assert!(metrics.plans[0].duration > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod columns;
pub mod config;
pub mod experiment;
pub mod explain;
pub mod metrics;
pub mod sanitizer;
pub mod sweep;
pub mod world;

/// Commonly used items.
pub mod prelude {
    pub use crate::chaos::{
        minimize_faults, run_chaos, run_chaos_with, ChaosConfig, ChaosReport, MinimizedSchedule,
    };
    pub use crate::config::{ClusterConfig, FsMode};
    pub use crate::explain::{
        BlockVerdict, JobLeadTime, LeakRecord, LossCause, TelemetryReport, Verdict,
    };
    pub use crate::metrics::{
        BlockRead, JobResult, LedgerEntry, PlanResult, ReadKind, ResidencyLedger, RunMetrics,
    };
    pub use crate::sanitizer::{bisect_divergence, Divergence, DoubleRun};
    pub use crate::sweep::{default_jobs, sweep};
    pub use crate::world::{ArrivalSource, Fault, PlannedJob, World};
}

pub use config::{ClusterConfig, FsMode};
pub use metrics::{ReadKind, RunMetrics};
pub use world::{Fault, PlannedJob, World};
