//! # ignem-simcore — deterministic discrete-event simulation kernel
//!
//! The foundation of the Ignem reproduction: a single-threaded,
//! fully deterministic discrete-event engine plus the shared modelling
//! vocabulary used by every substrate (storage, network, DFS, compute,
//! Ignem itself).
//!
//! * [`time`] — integer-microsecond [`time::SimTime`] / [`time::SimDuration`].
//! * [`event`] — the [`event::Engine`]: time-ordered event queue (a binary
//!   heap keyed by time and insertion order; no cancellation).
//! * [`rng`] — version-stable seeded RNG ([`rng::SimRng`]).
//! * [`dist`] — exponential and log-normal samplers for workloads.
//! * [`flow`] — fluid-flow processor-sharing resources with concurrency
//!   degradation ([`flow::FlowResource`]): the disk/NIC model.
//! * [`stats`] — CDFs, histograms, time-weighted series.
//! * [`trace`] — category-filtered stderr sink ([`trace::StderrSink`]).
//! * [`telemetry`] — typed event stream ([`telemetry::Event`]), flight
//!   recorder with JSONL export.
//! * [`span`] — causal span trees reconstructed from recorded streams,
//!   with a per-category critical-path extractor.
//! * [`metrics`] — sim-time windowed counters/gauges/histograms
//!   ([`metrics::MetricsRegistry`]), integer-only CSV/JSONL export.
//! * [`perfetto`] — Chrome trace-event JSON export of spans and metrics.
//! * [`profile`] — host-time profiling hooks with an injected clock.
//! * [`units`] — byte-size constants and formatting.
//!
//! ## Example
//!
//! ```
//! use ignem_simcore::prelude::*;
//!
//! // Two 64 MB reads contending on a degrading HDD finish much later than
//! // back-to-back reads would.
//! let mut disk = FlowResource::new(140e6, 1.5);
//! disk.add(SimTime::ZERO, FlowId(1), 64e6, SimDuration::from_millis(8));
//! disk.add(SimTime::ZERO, FlowId(2), 64e6, SimDuration::from_millis(8));
//! let done = disk.advance(SimTime::from_secs(60));
//! assert_eq!(done.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod event;
pub mod flow;
pub mod idmap;
pub mod metrics;
pub mod perfetto;
pub mod profile;
pub mod rng;
pub mod span;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod trace;
pub mod units;

/// Convenient glob-import of the most-used types.
pub mod prelude {
    pub use crate::dist::{Distribution, Exponential, LogNormal};
    pub use crate::event::Engine;
    pub use crate::flow::{FlowId, FlowResource};
    pub use crate::idmap::{DenseId, IdMap, IdSet};
    pub use crate::rng::SimRng;
    pub use crate::stats::{Histogram, Samples, TimeWeighted};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::units::{fmt_bytes, GB, GIB, KB, MB, MIB, TB};
}
