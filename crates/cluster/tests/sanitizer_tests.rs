//! Determinism sanitizer integration tests: double-run real worlds and
//! assert bit-identical event streams (with the snapshot-forked suffix
//! re-check reproducing run A's tail), then prove the comparison pinpoints
//! an injected divergence in a real recorded stream.

mod common;

use common::{chaos_world_304, chaos_world_crash_14, default_world, RECORDER_CAP};
use ignem_cluster::chaos::fingerprint;
use ignem_cluster::sanitizer::{double_run_forked, first_divergence};
use ignem_simcore::time::SimDuration;

/// Emitted events between run A's snapshots.
const SNAPSHOT_STRIDE: usize = 64;

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
    let forked = double_run_forked(chaos_world_304, RECORDER_CAP, SNAPSHOT_STRIDE);
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
    let forked = double_run_forked(chaos_world_crash_14, RECORDER_CAP, SNAPSHOT_STRIDE);
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
fn injected_divergence_in_real_stream_is_found_at_its_exact_seq() {
    let (_, events, dropped) = default_world().run_recorded(RECORDER_CAP);
    assert_eq!(dropped, 0, "recorder must keep the whole run");
    assert!(
        events.len() > 10,
        "stream too short to tamper with meaningfully"
    );
    let inject_at = events.len() / 2;
    let mut tampered = events.clone();
    // Artificial divergence: shift the event's timestamp by one microsecond.
    tampered[inject_at].at += SimDuration::from_micros(1);
    let d = first_divergence(&events, &tampered).expect("tampered stream must diverge");
    assert_eq!(d.index, inject_at);
    assert_eq!(d.seq(), Some(events[inject_at].seq));
    let text = d.describe(&events[..d.common_len]);
    assert!(text.contains("divergence at event index"), "{text}");
}
