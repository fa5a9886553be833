//! Observability golden pins: span-tree reconstruction, explainer reports,
//! Perfetto export, zero-cost-when-disabled metrics, and exact
//! critical-path reconciliation.
//!
//! The span forest and the explainer report are derived *purely* from the
//! recorded event stream, so as long as the stream goldens in
//! `stream_golden.rs` hold, the goldens here must hold too — a change in
//! either set means behavior (or the derivation) changed, and the
//! constants must be re-captured with `print_observability_hashes`
//! (`cargo test -p ignem-cluster --test observability -- --ignored
//! --nocapture`) in the same commit.

mod common;

use std::fmt::Write as _;

use common::{chaos_world_304, chaos_world_crash_14, default_world, RECORDER_CAP};
use ignem_cluster::chaos::{chaos_world, seeded_faults, ChaosConfig};
use ignem_cluster::explain::{reconcile_critical_path, LossCause, TelemetryReport, Verdict};
use ignem_cluster::metrics::RunMetrics;
use ignem_cluster::prelude::*;
use ignem_cluster::sanitizer::hash_chain;
use ignem_simcore::metrics::{MetricsRegistry, MetricsReport};
use ignem_simcore::perfetto;
use ignem_simcore::span::SpanForest;
use ignem_simcore::telemetry::{EventRecord, FlightRecorder};
use ignem_simcore::time::SimDuration;

/// FNV-1a over a byte string; the same primitive the sanitizer's chain
/// hash uses, applied here to the canonical span/trace text forms.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Records a world and returns its full untruncated stream plus metrics.
fn record(build: fn() -> World) -> (RunMetrics, Vec<EventRecord>) {
    let (metrics, events, dropped) = build().run_recorded(RECORDER_CAP);
    assert_eq!(dropped, 0, "recorder must hold the whole stream");
    (metrics, events)
}

/// Records a metrics-enabled world: same stream, plus a windowed report.
fn record_observed(
    build: fn() -> World,
    window: SimDuration,
) -> (RunMetrics, Vec<EventRecord>, MetricsReport) {
    let registry = MetricsRegistry::new(window);
    let world = build().with_metrics(registry.clone());
    let recorder = FlightRecorder::new(RECORDER_CAP);
    let metrics = world.with_telemetry(Box::new(recorder.clone())).run();
    assert_eq!(recorder.dropped(), 0, "recorder must hold the whole stream");
    let report = registry.finish(metrics.makespan);
    (metrics, recorder.events(), report)
}

/// Reduces a world's span forest to `(span count, canonical-text hash)`.
fn span_tail(build: fn() -> World) -> (usize, u64) {
    let (_metrics, events) = record(build);
    let forest = SpanForest::build(&events);
    (
        forest.spans.len(),
        fnv1a(forest.canonical_lines().as_bytes()),
    )
}

/// Captured when the span builder landed; pure functions of the pinned
/// event streams in `stream_golden.rs`. Re-captured when the span-id
/// disambiguator widened from two to four bits (the ids — and hence the
/// canonical text — shift, while the event streams themselves are
/// untouched, which is why the `stream_golden.rs` pins did not move).
const DEFAULT_SPAN_GOLDEN: (usize, u64) = (51, 0xb44e_06fe_b262_52ed);
const CHAOS_304_SPAN_GOLDEN: (usize, u64) = (137, 0x2575_6d0c_553c_875c);
const CHAOS_CRASH_14_SPAN_GOLDEN: (usize, u64) = (156, 0x84ac_5bd4_fe27_323e);
/// Perfetto export of the chaos-304 run (spans + metric counter tracks).
const CHAOS_304_PERFETTO_GOLDEN: u64 = 0xc75b_96c7_d850_3037;

#[test]
fn default_world_span_forest_is_pinned() {
    assert_eq!(span_tail(default_world), DEFAULT_SPAN_GOLDEN);
}

#[test]
fn chaos_seed_304_span_forest_is_pinned() {
    assert_eq!(span_tail(chaos_world_304), CHAOS_304_SPAN_GOLDEN);
}

#[test]
fn chaos_crash_seed_14_span_forest_is_pinned() {
    assert_eq!(span_tail(chaos_world_crash_14), CHAOS_CRASH_14_SPAN_GOLDEN);
}

/// The same seed rebuilt from scratch must yield a bit-identical span
/// tree — the acceptance bar for `report --perfetto-out` reproducibility.
#[test]
fn span_trees_are_bit_identical_across_runs() {
    for build in [default_world, chaos_world_304, chaos_world_crash_14] {
        let a = SpanForest::build(&record(build).1).canonical_lines();
        let b = SpanForest::build(&record(build).1).canonical_lines();
        assert_eq!(a, b, "span tree must not vary across runs");
    }
}

#[test]
fn chaos_304_perfetto_export_is_pinned_and_valid() {
    let window = SimDuration::from_secs(10);
    let (_m, events, report) = record_observed(chaos_world_304, window);
    let forest = SpanForest::build(&events);
    let json = perfetto::export(&forest, Some(&report));

    // Shape: Chrome trace-event JSON object, integer-only timestamps.
    assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(json.ends_with("]}\n"));
    assert!(!json.contains('.'), "export must be integer-only");
    let balance = json.bytes().fold(0i64, |n, b| match b {
        b'{' => n + 1,
        b'}' => n - 1,
        _ => n,
    });
    assert_eq!(balance, 0, "braces must balance");

    // Reproducibility: a second run exports byte-identical JSON.
    let (_m2, events2, report2) = record_observed(chaos_world_304, window);
    let json2 = perfetto::export(&SpanForest::build(&events2), Some(&report2));
    assert_eq!(json, json2, "perfetto export must be deterministic");

    assert_eq!(fnv1a(json.as_bytes()), CHAOS_304_PERFETTO_GOLDEN);
}

/// Metrics collection must be an observer, never an actor: enabling the
/// registry must leave the event stream byte-identical and process the
/// same number of engine events as a metrics-off run.
#[test]
fn metrics_are_zero_cost_when_disabled_and_inert_when_enabled() {
    for build in [default_world, chaos_world_304, chaos_world_crash_14] {
        let (off_metrics, off_events) = record(build);
        let (on_metrics, on_events, report) = record_observed(build, SimDuration::from_secs(10));
        assert_eq!(off_events.len(), on_events.len());
        assert_eq!(
            hash_chain(&off_events).last(),
            hash_chain(&on_events).last(),
            "metrics must not perturb the event stream"
        );
        assert_eq!(off_metrics.events_processed, on_metrics.events_processed);
        assert!(
            !report.windows.is_empty(),
            "enabled registry must have observed at least one window"
        );
    }
    // And a disabled registry records nothing at all.
    let reg = MetricsRegistry::disabled();
    assert!(!reg.is_enabled());
    reg.counter_add("rpc_sent", 0, 1);
    let report = reg.finish(ignem_simcore::time::SimTime::ZERO);
    assert!(report.windows.is_empty());
    assert!(report.counter_totals.is_empty());
}

/// The critical path must reconcile with the explainer's lead-time
/// decomposition by integer equality, and with the run metrics, on every
/// pinned seed.
#[test]
fn critical_path_reconciles_exactly_with_explainer() {
    for build in [default_world, chaos_world_304, chaos_world_crash_14] {
        let (metrics, events) = record(build);
        let forest = SpanForest::build(&events);
        let report = TelemetryReport::from_forest(&forest);
        assert!(
            !report.lead_times.is_empty(),
            "explainer must decompose at least one job"
        );
        let path = forest.critical_path();
        reconcile_critical_path(&path, &report, &metrics)
            .expect("critical path must reconcile exactly");
        for lt in &report.lead_times {
            let j = path.job(lt.job).expect("decomposed job on the path");
            assert_eq!(
                (j.queueing, j.master_processing, j.disk_contention),
                (lt.queue_delay, lt.heartbeat_delay, lt.migration_service),
                "job {}",
                lt.job
            );
        }
    }
}

/// The pre-lease cleanup world of seed 304: the only pinned stream whose
/// explainer report carries leak records.
fn chaos_world_304_legacy() -> World {
    let cfg = ChaosConfig {
        seed: 304,
        lease: None,
        ..ChaosConfig::default()
    };
    chaos_world(&cfg, seeded_faults(&cfg))
}

/// A canonical, integer-only rendering of an explainer report: every
/// verdict with its margin or shortfall in µs, every lead time, every
/// leak and every re-ignition, in report order.
fn render_report(report: &TelemetryReport) -> String {
    let mut out = String::new();
    for v in &report.verdicts {
        let (tag, us) = match v.verdict {
            Verdict::WonRace { margin } => ("won", margin.as_micros()),
            Verdict::LostRace { shortfall, cause } => (cause.tag(), shortfall.as_micros()),
        };
        let _ = writeln!(
            out,
            "read task={} job={} block={} node={} bytes={} start={} {tag}={us}",
            v.task,
            v.job,
            v.block,
            v.node,
            v.bytes,
            v.read_start.as_micros(),
        );
    }
    for lt in &report.lead_times {
        let _ = writeln!(
            out,
            "lead job={} queue={} heartbeat={} service={}",
            lt.job,
            lt.queue_delay.as_micros(),
            lt.heartbeat_delay.as_micros(),
            lt.migration_service.as_micros(),
        );
    }
    for l in &report.leaked {
        let _ = writeln!(
            out,
            "leak node={} block={} bytes={} jobs={:?}",
            l.node, l.block, l.bytes, l.jobs
        );
    }
    let us = |d: Option<SimDuration>| d.map(|d| d.as_micros() as i64).unwrap_or(-1);
    for r in &report.reignitions {
        let _ = writeln!(
            out,
            "reignite node={} at={} register={} remigrate={}",
            r.node,
            r.restarted_at.as_micros(),
            us(r.register_lead),
            us(r.remigrate_lead),
        );
    }
    out
}

/// Reduces a world's explainer report to `(verdicts, canonical hash)`.
fn report_tail(build: fn() -> World) -> (usize, u64) {
    let (_metrics, events) = record(build);
    let report = TelemetryReport::from_events(&events);
    (
        report.verdicts.len(),
        fnv1a(render_report(&report).as_bytes()),
    )
}

/// One hash over the span forests and explainer reports of crash-enabled
/// chaos seeds `0..256`. The pinned worlds above only reach the `won`,
/// `rpc_lost`, `evicted` and `lost_to_crash` verdicts; this sweep also
/// reaches `disk_contended` and `queued_behind`, and re-ignitions.
fn crash_sweep_tail() -> (usize, u64) {
    let mut text = String::new();
    let mut reignitions = 0;
    let mut contended = 0;
    let mut queued = 0;
    for seed in 0..256 {
        let cfg = ChaosConfig {
            seed,
            crashes: 1,
            ..ChaosConfig::default()
        };
        let (metrics, events, dropped) =
            chaos_world(&cfg, seeded_faults(&cfg)).run_recorded(RECORDER_CAP);
        assert_eq!(dropped, 0, "recorder must hold the whole stream");
        let report = TelemetryReport::from_events(&events);
        report
            .reconcile(&metrics)
            .expect("verdicts must reconcile with the run metrics");
        reignitions += report.reignitions.len();
        contended += report.lost_with(LossCause::DiskContended);
        queued += report.lost_with(LossCause::QueuedBehind);
        text.push_str(&SpanForest::build(&events).canonical_lines());
        text.push_str(&render_report(&report));
    }
    assert!(
        contended > 0 && queued > 0,
        "sweep must reach every race stage"
    );
    (reignitions, fnv1a(text.as_bytes()))
}

/// Captured from the explainer before it became a query over the span
/// forest; pure functions of the pinned event streams.
const DEFAULT_REPORT_GOLDEN: (usize, u64) = (8, 0x6ac3_3d2e_43bd_5b02);
const CHAOS_304_REPORT_GOLDEN: (usize, u64) = (18, 0xca0a_c88f_6a47_f7a8);
const CHAOS_CRASH_14_REPORT_GOLDEN: (usize, u64) = (18, 0xad39_a402_d36c_9c4a);
const CHAOS_304_LEGACY_REPORT_GOLDEN: (usize, u64) = (18, 0x9062_ffd2_2e8e_e2fe);
/// `(re-ignitions, hash)` over crash-enabled chaos seeds `0..256`.
const CRASH_SWEEP_GOLDEN: (usize, u64) = (248, 0x6a41_364b_9342_d6ee);

#[test]
fn explainer_reports_are_pinned() {
    assert_eq!(report_tail(default_world), DEFAULT_REPORT_GOLDEN);
    assert_eq!(report_tail(chaos_world_304), CHAOS_304_REPORT_GOLDEN);
    assert_eq!(
        report_tail(chaos_world_crash_14),
        CHAOS_CRASH_14_REPORT_GOLDEN
    );
    assert_eq!(
        report_tail(chaos_world_304_legacy),
        CHAOS_304_LEGACY_REPORT_GOLDEN
    );
}

#[test]
fn crash_sweep_spans_and_reports_are_pinned() {
    assert_eq!(crash_sweep_tail(), CRASH_SWEEP_GOLDEN);
}

/// Prints the current values for updating the constants above.
#[test]
#[ignore = "manual helper: prints the golden values"]
fn print_observability_hashes() {
    let d = span_tail(default_world);
    let c = span_tail(chaos_world_304);
    let k = span_tail(chaos_world_crash_14);
    println!("DEFAULT_SPAN_GOLDEN: ({}, {:#018x})", d.0, d.1);
    println!("CHAOS_304_SPAN_GOLDEN: ({}, {:#018x})", c.0, c.1);
    println!("CHAOS_CRASH_14_SPAN_GOLDEN: ({}, {:#018x})", k.0, k.1);
    let window = SimDuration::from_secs(10);
    let (_m, events, report) = record_observed(chaos_world_304, window);
    let json = perfetto::export(&SpanForest::build(&events), Some(&report));
    println!(
        "CHAOS_304_PERFETTO_GOLDEN: {:#018x}",
        fnv1a(json.as_bytes())
    );
    for (name, build) in [
        ("DEFAULT_REPORT_GOLDEN", default_world as fn() -> World),
        ("CHAOS_304_REPORT_GOLDEN", chaos_world_304),
        ("CHAOS_CRASH_14_REPORT_GOLDEN", chaos_world_crash_14),
        ("CHAOS_304_LEGACY_REPORT_GOLDEN", chaos_world_304_legacy),
    ] {
        let (n, h) = report_tail(build);
        println!("{name}: ({n}, {h:#018x})");
    }
    let (n, h) = crash_sweep_tail();
    println!("CRASH_SWEEP_GOLDEN: ({n}, {h:#018x})");
}
