//! # ignem-workloads — workload generators
//!
//! Every workload the paper evaluates, synthesised deterministically:
//!
//! * [`swim`] — the SWIM/Facebook 200-job trace (Tables I–II, Figs. 5–7);
//! * [`google`] — the Google-cluster-trace statistics and the §II
//!   feasibility analysis (Figs. 3–4);
//! * [`jobs`] — standalone sort (Table III) and wordcount (Fig. 8);
//! * [`tpcds`] — the Hive TPC-DS query set (Fig. 9);
//! * [`stream`] — a pull-based unbounded arrival iterator replaying the
//!   Google-trace shape lazily for datacenter-scale runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod google;
pub mod iterative;
pub mod jobs;
pub mod stream;
pub mod swim;
pub mod tpcds;

/// Commonly used items.
pub mod prelude {
    pub use crate::google::{GoogleTrace, MemorySufficiency, UtilizationTimelines};
    pub use crate::iterative::IterativeJob;
    pub use crate::jobs::{sort_job, wordcount_job, SORT_INPUT_BYTES, WORDCOUNT_SWEEP_GB};
    pub use crate::stream::{replay_files, JobArrival, ReplayConfig, ReplayStream};
    pub use crate::swim::{SizeBin, SwimConfig, SwimJob, SwimTrace};
    pub use crate::tpcds::{fig9_queries, HiveQuery};
}
