//! World builders shared between the golden-stream and observability
//! integration tests. Every builder here is deterministic: two calls
//! produce worlds that replay bit-identical event streams, which is
//! what lets both test files pin hashes over the recorded telemetry.
#![allow(dead_code)]

use ignem_cluster::chaos::{chaos_world, seeded_faults, ChaosConfig};
use ignem_cluster::prelude::*;
use ignem_compute::job::{JobInput, JobSpec, SubmitOptions};
use ignem_simcore::time::SimDuration;
use ignem_simcore::units::MB;

/// Recorder capacity large enough to hold every pinned stream whole.
pub const RECORDER_CAP: usize = 1 << 20;

/// The same fault-free default world the sanitizer double-runs.
pub fn default_world() -> World {
    let files: Vec<(String, u64)> = (0..4)
        .map(|i| (format!("/in/part-{i}"), 512 * MB / 4))
        .collect();
    let mut spec = JobSpec::new(
        "sanitizer-job",
        JobInput::DfsFiles(files.iter().map(|(p, _)| p.clone()).collect()),
    );
    spec.submit = SubmitOptions::with_migration();
    let plan = vec![PlannedJob::single(
        "sanitizer",
        SimDuration::from_secs(1),
        spec,
    )];
    World::new(
        ClusterConfig::default(),
        FsMode::Ignem,
        &files,
        plan,
        vec![],
    )
}

/// `run_chaos`'s world for seed 304, without its recorder and validation.
pub fn chaos_world_304() -> World {
    let cfg = ChaosConfig {
        seed: 304,
        ..ChaosConfig::default()
    };
    chaos_world(&cfg, seeded_faults(&cfg))
}

/// Crash-recovery stream: chaos seed 14 with two `NodeCrash` draws —
/// the pinned-regression schedule (crash wipes a RAM replica mid-use, a
/// read degrades to disk, the job re-ignites after restart; the second
/// crash hits the node while it is already dark and must be a no-op).
pub fn chaos_world_crash_14() -> World {
    let cfg = ChaosConfig {
        seed: 14,
        crashes: 2,
        ..ChaosConfig::default()
    };
    chaos_world(&cfg, seeded_faults(&cfg))
}
