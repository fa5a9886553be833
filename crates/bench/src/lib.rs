//! # ignem-bench — the paper's evaluation, regenerated
//!
//! One function per table and figure of the Ignem paper (§II motivation
//! figures and the full §IV evaluation), all driven by the deterministic
//! cluster simulator. The `report` binary renders every section and writes
//! the raw series as CSV. Host-time measurement lives in the separate
//! `benchmark/` package, which reads the clock through [`wall_clock`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod report;
pub mod timing;

pub use report::{Report, Section, REPORT_SEED};
pub use timing::wall_clock;
