//! Each failure check can fire: a known-bad input must count as a failed
//! unit, so a `failed` count of 0 means the checks ran, not that they
//! cannot trip.

use ignem_benchmark::trace::Tracer;
use ignem_benchmark::workloads::{arrivals, chaos_unit, replay_config, unfinished_arrivals};
use ignem_cluster::chaos::ChaosConfig;
use ignem_cluster::{ClusterConfig, FsMode, World};
use ignem_simcore::time::SimTime;
use ignem_workloads::stream::replay_files;

fn chaos_unit_fails(cfg: &ChaosConfig) -> bool {
    let clock = Tracer::new(false, None).clock();
    let ((unit, _), _, _) = clock.timed(0, "unit", |t| chaos_unit(cfg, clock, t));
    unit.failed
}

#[test]
fn legacy_seed_304_leak_fails_its_chaos_unit() {
    // Without leases, seed 304's partition leaks a reference (the pinned
    // legacy bug); with the default lease the same seed is clean.
    let legacy = ChaosConfig {
        seed: 304,
        lease: None,
        ..ChaosConfig::default()
    };
    assert!(chaos_unit_fails(&legacy));
    assert!(!chaos_unit_fails(&ChaosConfig {
        seed: 304,
        ..ChaosConfig::default()
    }));
}

#[test]
fn undrained_datacenter_world_counts_its_unfinished_jobs() {
    let (seed, rcfg) = (11, replay_config(1));
    let files = replay_files(&rcfg, rcfg.jobs.expect("bounded"));
    let world = || {
        let cfg = ClusterConfig {
            nodes: 64,
            heartbeat_sweep: true,
            ..ClusterConfig::default()
        };
        World::new(cfg, FsMode::Ignem, &files, vec![], vec![])
            .with_arrivals(Box::new(arrivals(rcfg, seed)))
    };

    // Stopped half-way through the hour: the jobs admitted but still
    // running are exactly the unfinished ones.
    let mut stopped = world();
    while stopped.step() && stopped.now() < SimTime::from_secs(1800) {}
    let now = stopped.now();
    let metrics = stopped.finalize_mut();
    let admitted = arrivals(rcfg, seed)
        .take_while(|p| SimTime::ZERO + p.submit <= now)
        .count();
    let unfinished = unfinished_arrivals(arrivals(rcfg, seed), &metrics, now);
    assert!(!unfinished.is_empty());
    assert_eq!(unfinished.len(), admitted - metrics.plans.len());
    assert!(unfinished.iter().all(|&t| t <= now));

    let mut drained = world();
    drained.run_to_end();
    let now = drained.now();
    let metrics = drained.finalize_mut();
    assert!(unfinished_arrivals(arrivals(rcfg, seed), &metrics, now).is_empty());
}
