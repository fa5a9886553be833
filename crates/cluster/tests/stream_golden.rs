//! Golden event-stream hashes: pin the exact telemetry streams of the
//! fault-free default world and chaos seed 304 across refactors.
//!
//! The sanitizer's double-run check proves a *single build* of the
//! simulator is internally deterministic; these constants additionally
//! prove that a refactor (like the BTreeMap → IdMap container overhaul)
//! did not change behavior at all: the FNV-1a hash chain over the
//! canonical event JSON must come out bit-identical to the stream the
//! BTreeMap-based simulator produced. If a PR changes these values it
//! changed simulated behavior, not just performance — that may be
//! intentional (new event types, schedule changes), but it must be a
//! conscious decision: rerun `print_stream_hashes` (`cargo test -p
//! ignem-cluster --test stream_golden -- --ignored --nocapture`) and
//! update the constants in the same commit that explains why.

mod common;

use common::{chaos_world_304, chaos_world_crash_14, default_world, RECORDER_CAP};
use ignem_cluster::prelude::*;
use ignem_cluster::sanitizer::hash_chain;

/// Records a world and reduces its stream to `(events, final chain hash)`.
fn stream_tail(build: fn() -> World) -> (usize, u64) {
    let (_metrics, events, dropped) = build().run_recorded(RECORDER_CAP);
    assert_eq!(dropped, 0, "recorder must hold the whole stream");
    assert!(!events.is_empty(), "non-empty stream");
    (events.len(), hash_chain(&events))
}

/// Captured from the BTreeMap-based simulator before the IdMap container
/// overhaul (PR 5); the overhaul must reproduce them bit-for-bit.
const DEFAULT_WORLD_GOLDEN: (usize, u64) = (111, 0x464c_1a7d_d766_ced1);
const CHAOS_304_GOLDEN: (usize, u64) = (320, 0x2249_a012_16cb_e555);
/// Captured when the crash/recovery protocol landed: the canonical
/// crash-seed stream (crash → wipe → degrade → re-register → re-ignite).
const CHAOS_CRASH_14_GOLDEN: (usize, u64) = (342, 0xa7dd_79d6_004d_5787);

#[test]
fn default_world_stream_is_pinned() {
    assert_eq!(stream_tail(default_world), DEFAULT_WORLD_GOLDEN);
}

#[test]
fn chaos_seed_304_stream_is_pinned() {
    assert_eq!(stream_tail(chaos_world_304), CHAOS_304_GOLDEN);
}

#[test]
fn chaos_crash_seed_14_stream_is_pinned() {
    assert_eq!(stream_tail(chaos_world_crash_14), CHAOS_CRASH_14_GOLDEN);
}

/// Prints the current values for updating the constants above.
#[test]
#[ignore = "manual helper: prints the golden values"]
fn print_stream_hashes() {
    let d = stream_tail(default_world);
    let c = stream_tail(chaos_world_304);
    let k = stream_tail(chaos_world_crash_14);
    println!("DEFAULT_WORLD_GOLDEN: ({}, {:#018x})", d.0, d.1);
    println!("CHAOS_304_GOLDEN: ({}, {:#018x})", c.0, c.1);
    println!("CHAOS_CRASH_14_GOLDEN: ({}, {:#018x})", k.0, k.1);
}
