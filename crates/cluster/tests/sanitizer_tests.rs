//! Determinism sanitizer integration tests: double-run real worlds and
//! assert bit-identical event streams (with the snapshot-forked suffix
//! re-check reproducing run A's tail), then prove the bisector pinpoints
//! an injected divergence in a real recorded stream.

use ignem_cluster::chaos::{fingerprint, generate_faults, workload, ChaosConfig};
use ignem_cluster::prelude::*;
use ignem_cluster::sanitizer::{bisect_divergence, double_run_forked};
use ignem_compute::job::{JobInput, JobSpec, SubmitOptions};
use ignem_simcore::rng::SimRng;
use ignem_simcore::time::SimDuration;
use ignem_simcore::units::{MB, MIB};

const RECORDER_CAP: usize = 1 << 20;
/// Emitted events between run A's snapshots.
const SNAPSHOT_STRIDE: usize = 64;

fn default_world() -> World {
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

/// Mirrors `run_chaos_with`'s world construction so the sanitizer can
/// rebuild the same faulted world twice.
fn chaos_world(cfg: &ChaosConfig) -> World {
    let mut fault_rng = SimRng::new(cfg.seed ^ 0xC4A0_5EED);
    let faults = generate_faults(
        &mut fault_rng,
        cfg.nodes,
        ClusterConfig::default().dfs.replication,
        cfg.jobs,
        cfg.faults,
        cfg.crashes,
    );
    let mut cluster = ClusterConfig {
        nodes: cfg.nodes,
        seed: cfg.seed,
        rpc: cfg.rpc,
        ..ClusterConfig::default()
    };
    cluster.ignem.buffer_capacity = 512 * MIB;
    cluster.ignem.lease = cfg.lease;
    let (files, plans) = workload(cfg.jobs);
    World::new(cluster, FsMode::Ignem, &files, plans, faults)
}

#[test]
fn double_run_defaults_is_deterministic() {
    let forked = double_run_forked(default_world, RECORDER_CAP, SNAPSHOT_STRIDE);
    assert!(forked.suffix_consistent, "forked suffix must match run A");
    let result = forked.run;
    assert!(
        !result.events_a.is_empty(),
        "expected a non-empty telemetry stream"
    );
    assert!(result.is_deterministic(), "{}", result.describe());
    assert_eq!(
        fingerprint(&result.metrics_a),
        fingerprint(&result.metrics_b)
    );
}

#[test]
fn double_run_chaos_seed_is_deterministic() {
    // Seed 304 is the schedule that once leaked references (fixed in the
    // epoch/lease PR) — a good stress of the faulted migration paths.
    let cfg = ChaosConfig {
        seed: 304,
        ..ChaosConfig::default()
    };
    let forked = double_run_forked(|| chaos_world(&cfg), RECORDER_CAP, SNAPSHOT_STRIDE);
    assert!(forked.suffix_consistent, "forked suffix must match run A");
    let result = forked.run;
    assert!(
        !result.events_a.is_empty(),
        "expected a non-empty telemetry stream"
    );
    assert!(result.is_deterministic(), "{}", result.describe());
    assert_eq!(
        fingerprint(&result.metrics_a),
        fingerprint(&result.metrics_b)
    );
}

#[test]
fn double_run_crash_seed_is_deterministic() {
    // Seed 14 with crashes enabled exercises the full crash/recovery
    // protocol: wipe, NIC-down, fresh incarnation, lossy re-registration
    // with retries, block report, re-replication, and re-ignition.
    let cfg = ChaosConfig {
        seed: 14,
        crashes: 2,
        ..ChaosConfig::default()
    };
    let forked = double_run_forked(|| chaos_world(&cfg), RECORDER_CAP, SNAPSHOT_STRIDE);
    assert!(forked.suffix_consistent, "forked suffix must match run A");
    let result = forked.run;
    assert!(
        !result.events_a.is_empty(),
        "expected a non-empty telemetry stream"
    );
    assert!(result.is_deterministic(), "{}", result.describe());
    assert_eq!(
        fingerprint(&result.metrics_a),
        fingerprint(&result.metrics_b)
    );
}

#[test]
fn injected_divergence_in_real_stream_bisects_to_exact_seq() {
    let (_, events, dropped) = default_world().run_recorded(RECORDER_CAP);
    assert_eq!(dropped, 0, "recorder must keep the whole run");
    assert!(events.len() > 10, "stream too short to bisect meaningfully");
    let inject_at = events.len() / 2;
    let mut tampered = events.clone();
    // Artificial divergence: shift the event's timestamp by one microsecond.
    tampered[inject_at].at += SimDuration::from_micros(1);
    let d = bisect_divergence(&events, &tampered).expect("tampered stream must diverge");
    assert_eq!(d.index, inject_at);
    assert_eq!(d.seq(), Some(events[inject_at].seq));
    let text = d.describe(&events[..d.common_len]);
    assert!(text.contains("divergence at event index"), "{text}");
}
