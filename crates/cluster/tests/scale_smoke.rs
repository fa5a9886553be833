//! Datacenter-scale smoke test: one simulated day of streamed Google-trace
//! arrivals on a 1024-node cluster with the heartbeat sweep. The replayed
//! world is deterministic, so the completed-job and processed-event counts
//! are pinned exactly; any drift means the streaming admission path, the
//! heartbeat sweep or the columnar node state changed behaviour. It takes
//! about 1 s optimized and 11 s unoptimized.

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
