//! # ignem-bench — the paper's evaluation, regenerated
//!
//! One function per table and figure of the Ignem paper (§II motivation
//! figures, the §II-C2 memory bound and the full §IV evaluation), all
//! driven by the deterministic cluster simulator and listed in
//! [`SECTIONS`]. It is the only code that computes a paper number. The
//! `report` binary renders the sections and writes the raw series as CSV.
//! Host-time measurement lives in the separate `benchmark/` package,
//! which reads the clock through [`wall_clock`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod report;
pub mod timing;

pub use report::{Render, Report, REPORT_SEED, SECTIONS};
pub use timing::wall_clock;
