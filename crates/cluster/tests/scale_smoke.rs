//! Datacenter-scale smoke tests: streamed Google-trace arrivals with the
//! heartbeat sweep, one simulated day on a 1024-node cluster and two on
//! the §II datacenter's 12,288 nodes. The replayed worlds are
//! deterministic, so the completed-job and processed-event counts are
//! pinned exactly; any drift means replica placement, the streaming
//! admission path, the heartbeat sweep or the columnar node state changed
//! behaviour. The 1024-node day takes about 1 s optimized and 11 s
//! unoptimized. The 12,288-node days take about 4 s optimized, mostly
//! placing the preloaded namespace's replicas, so they run only in
//! optimized builds (`cargo test --release -p ignem-cluster --test
//! scale_smoke`).

use ignem_cluster::config::{ClusterConfig, FsMode};
use ignem_cluster::experiment::{replay_jobs, run_replay};

#[test]
fn one_day_on_1024_nodes_completes_every_job() {
    let cfg = ClusterConfig {
        nodes: 1024,
        heartbeat_sweep: true,
        ..ClusterConfig::default()
    };
    let metrics = run_replay(&cfg, FsMode::Ignem, 1);
    assert_eq!(replay_jobs(1), 20_000);
    assert_eq!(metrics.jobs.len(), 20_000, "jobs completed");
    assert_eq!(metrics.events_processed, 639_997, "events processed");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "about 4 s optimized; run with --release")]
fn two_days_on_12288_nodes_completes_every_job() {
    let cfg = ClusterConfig {
        nodes: 12_288,
        heartbeat_sweep: true,
        ..ClusterConfig::default()
    };
    let metrics = run_replay(&cfg, FsMode::Ignem, 2);
    assert_eq!(replay_jobs(2), 40_000);
    assert_eq!(metrics.jobs.len(), 40_000, "jobs completed");
    assert_eq!(metrics.events_processed, 1_288_406, "events processed");
}
