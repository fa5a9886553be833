//! Integration tests for the migration-race explainer and the flight
//! recorder's determinism guarantees.

use ignem_cluster::chaos::workload;
use ignem_cluster::experiment::run_swim_observed;
use ignem_cluster::prelude::*;
use ignem_netsim::NodeId;
use ignem_simcore::rng::SimRng;
use ignem_simcore::telemetry::FlightRecorder;
use ignem_simcore::time::{SimDuration, SimTime};
use ignem_simcore::units::GB;
use ignem_workloads::swim::{SwimConfig, SwimTrace};

/// The metrics window of the observed SWIM runs; the registry it sizes
/// does not change their event streams.
const WINDOW: SimDuration = SimDuration::from_secs(10);

fn small_trace() -> SwimTrace {
    let cfg = SwimConfig {
        jobs: 12,
        total_input: 4 * GB,
        largest: GB,
        ..SwimConfig::default()
    };
    SwimTrace::generate(&cfg, &mut SimRng::new(7))
}

#[test]
fn disk_degrade_on_migrating_nodes_yields_disk_contended_losses() {
    // Degrade every disk to 10% of nominal bandwidth right as the chaos
    // workload's migrating jobs arrive: migrations crawl, tasks catch up
    // with them, and reads lose the race to a disk that was mid-migration.
    let cfg = ClusterConfig {
        nodes: 4,
        ..ClusterConfig::default()
    };
    let (files, plans) = workload(2);
    let faults: Vec<(SimTime, Fault)> = (0..cfg.nodes as u32)
        .map(|n| {
            (
                SimTime::from_secs(1),
                Fault::DiskDegrade(NodeId(n), 10, SimDuration::from_secs(120)),
            )
        })
        .collect();
    let recorder = FlightRecorder::new(1 << 20);
    let metrics = World::new(cfg, FsMode::Ignem, &files, plans, faults)
        .with_telemetry(Box::new(recorder.clone()))
        .run();
    assert_eq!(recorder.dropped(), 0, "flight recorder truncated");
    let report = TelemetryReport::from_events(&recorder.events());
    report.reconcile(&metrics).expect("verdicts must reconcile");
    assert!(
        report.lost_with(LossCause::DiskContended) > 0,
        "a 10%-speed disk must make at least one read lose to an \
         in-flight migration; causes: {:?}",
        LossCause::ALL
            .iter()
            .map(|&c| (c.tag(), report.lost_with(c)))
            .collect::<Vec<_>>()
    );
}

#[test]
fn fault_free_reliable_run_has_no_rpc_lost_and_reconciles() {
    // Over a reliable control plane with no faults, every assigned
    // migration reaches its slave: the RpcLost verdict must never appear,
    // and the verdict counts must reconcile exactly with the metrics.
    let cfg = ClusterConfig::default();
    let trace = small_trace();
    let (metrics, recorder, _) = run_swim_observed(&cfg, FsMode::Ignem, &trace, 1 << 20, WINDOW);
    assert_eq!(recorder.dropped(), 0, "flight recorder truncated");
    let report = TelemetryReport::from_events(&recorder.events());
    report.reconcile(&metrics).expect("verdicts must reconcile");
    assert_eq!(
        report.lost_with(LossCause::RpcLost),
        0,
        "RpcLost on a reliable, fault-free channel"
    );
    assert!(report.won() > 0, "Ignem must win some races on SWIM");
    assert!(
        !report.lead_times.is_empty(),
        "lead-time decomposition must cover the jobs"
    );
}

#[test]
fn seeded_runs_export_bit_identical_jsonl() {
    // The acceptance bar for the JSONL format: two executions of the same
    // seeded experiment serialize to byte-identical traces.
    let cfg = ClusterConfig::default();
    let run = || {
        let trace = small_trace();
        let (_, recorder, _) = run_swim_observed(&cfg, FsMode::Ignem, &trace, 1 << 20, WINDOW);
        recorder.to_jsonl()
    };
    let first = run();
    let second = run();
    assert!(!first.is_empty(), "empty trace");
    assert_eq!(first, second, "seeded runs must produce identical JSONL");
}
