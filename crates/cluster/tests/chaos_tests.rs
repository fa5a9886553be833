//! Randomized chaos campaign: many seeded fault plans, seven invariants.
//!
//! Each run executes with per-event slave-consistency validation
//! (do-not-harm) and per-event residency-ledger reconciliation, then
//! checks the end-state invariants (leak-freedom, memory conservation,
//! completion of surviving plans, event-stream consistency from the
//! flight recorder, ledger conservation) and finally re-runs the
//! identical `(seed, fault plan)` to assert bit-identical metrics
//! (determinism).

use ignem_cluster::chaos::{
    minimize_faults, minimize_faults_with_stats, run_chaos, run_chaos_with, ChaosConfig,
};
use ignem_cluster::experiment::{swim_files, swim_plan};
use ignem_cluster::explain::TelemetryReport;
use ignem_cluster::prelude::*;
use ignem_cluster::sanitizer::hash_chain;
use ignem_netsim::rpc::RpcConfig;
use ignem_netsim::NodeId;
use ignem_simcore::rng::SimRng;
use ignem_simcore::time::{SimDuration, SimTime};
use ignem_simcore::units::{GB, MIB};
use ignem_workloads::swim::{SwimConfig, SwimTrace};

/// One full chaos check: run, invariants, then a second run for the
/// determinism fingerprint.
fn check_seed(cfg: ChaosConfig) {
    let first = run_chaos(&cfg);
    first.assert_invariants();
    let second = run_chaos(&cfg);
    assert_eq!(
        first.fingerprint, second.fingerprint,
        "nondeterministic run for seed {} (faults: {:?})",
        cfg.seed, first.faults
    );
}

#[test]
fn chaos_campaign_default_channel() {
    // 20 randomized fault plans over a mildly unreliable channel.
    for seed in 0..20 {
        check_seed(ChaosConfig {
            seed,
            ..ChaosConfig::default()
        });
    }
}

#[test]
fn chaos_campaign_heavy_loss() {
    // The acceptance scenario: 20% drop probability plus duplication, and
    // every surviving plan still completes on every seed.
    for seed in 100..108 {
        let cfg = ChaosConfig {
            seed,
            rpc: RpcConfig {
                drop_p: 0.2,
                dup_p: 0.15,
                jitter: SimDuration::from_millis(50),
            },
            ..ChaosConfig::default()
        };
        let report = run_chaos(&cfg);
        report.assert_invariants();
        // The channel must actually have been hostile, not vacuously clean.
        assert!(report.metrics.rpc.sent > 0, "no control-plane traffic");
    }
}

#[test]
fn heavy_loss_actually_drops_and_duplicates() {
    // Across the heavy-loss campaign the channel must exhibit both failure
    // modes; per-seed counts can be zero by chance, the aggregate cannot.
    let mut dropped = 0;
    let mut duplicated = 0;
    for seed in 100..108 {
        let cfg = ChaosConfig {
            seed,
            rpc: RpcConfig {
                drop_p: 0.2,
                dup_p: 0.15,
                jitter: SimDuration::from_millis(50),
            },
            ..ChaosConfig::default()
        };
        let report = run_chaos(&cfg);
        dropped += report.metrics.rpc.dropped;
        duplicated += report.metrics.rpc.duplicated;
    }
    assert!(dropped > 0, "drop_p=0.2 never dropped a message");
    assert!(duplicated > 0, "dup_p=0.15 never duplicated a message");
}

#[test]
fn swim_completes_under_heavy_loss_and_duplication() {
    // The acceptance scenario on the paper's own workload: a (scaled-down)
    // SWIM trace over a 20%-drop + duplicating control plane. Every job
    // must complete, references and the migration buffer must drain.
    let swim = SwimConfig {
        jobs: 40,
        total_input: 8 * GB,
        ..SwimConfig::default()
    };
    let trace = SwimTrace::generate(&swim, &mut SimRng::new(2018));
    let cfg = ClusterConfig {
        rpc: RpcConfig {
            drop_p: 0.2,
            dup_p: 0.15,
            jitter: SimDuration::from_millis(50),
        },
        ..ClusterConfig::default()
    };
    let files = swim_files(&trace);
    let plans = swim_plan(&trace, true);
    let total = plans.len();
    let m = World::new(cfg, FsMode::Ignem, &files, plans, vec![])
        .with_validation()
        .run();
    assert_eq!(m.plans.len(), total, "a SWIM job failed to complete");
    assert_eq!(m.leaked_job_refs, 0, "reference lists leaked");
    assert_eq!(m.final_migrated_bytes, 0, "migration buffer leaked");
    assert!(m.rpc.dropped > 0, "channel never dropped");
    assert!(m.rpc.duplicated > 0, "channel never duplicated");
    assert!(m.master_stats.retries > 0, "no retransmissions happened");
}

#[test]
fn chaos_without_faults_is_clean() {
    // Zero faults over an unreliable channel: retries mask every loss and
    // all plans complete.
    let cfg = ChaosConfig {
        seed: 42,
        faults: 0,
        rpc: RpcConfig {
            drop_p: 0.2,
            dup_p: 0.15,
            jitter: SimDuration::from_millis(50),
        },
        ..ChaosConfig::default()
    };
    let report = run_chaos(&cfg);
    assert!(report.faults.is_empty());
    report.assert_invariants();
    assert_eq!(report.metrics.plans.len(), report.total_plans);
}

#[test]
fn chaos_reliable_channel_many_faults() {
    // Dense fault plans over a perfectly reliable channel isolate the
    // fault-handling paths from the retry machinery.
    for seed in 200..206 {
        check_seed(ChaosConfig {
            seed,
            faults: 6,
            rpc: RpcConfig::default(),
            ..ChaosConfig::default()
        });
    }
}

#[test]
fn chaos_campaign_with_crashes() {
    // 20 randomized fault plans, each with two extra NodeCrash draws on
    // top of the default palette: the full crash/recovery protocol runs
    // under every other fault class, and all eight invariants (including
    // recovery convergence) plus the determinism fingerprint must hold.
    let mut crashes = 0u64;
    let mut restarts = 0u64;
    let mut reports = 0u64;
    for seed in 0..20 {
        let cfg = ChaosConfig {
            seed,
            crashes: 2,
            ..ChaosConfig::default()
        };
        check_seed(cfg.clone());
        let m = run_chaos(&cfg).metrics;
        crashes += m.crashes;
        restarts += m.restarts;
        reports += m.master_stats.registrations;
        assert_eq!(m.recovery, None, "seed {seed} did not converge");
    }
    // The campaign must have actually crashed machines, not vacuously
    // passed; every crash that landed recovered with a block report.
    assert!(crashes > 0, "no crash landed across the campaign");
    assert_eq!(restarts, crashes);
    assert_eq!(reports, crashes);
}

/// Pinned crash-recovery regression (seed 14, two crash draws): node 2
/// crashes at ~12.4s while holding a migrated RAM replica; the second
/// crash draw hits it while still dark and must be a no-op. The durable
/// block survives on disk, a read degrades to a surviving replica
/// (`LostToCrash` in the explainer), and after restart the node
/// re-registers under a fresh incarnation, reports its blocks, and the
/// still-live job re-ignites its migration.
#[test]
fn crash_recovery_pinned_regression() {
    use ignem_cluster::explain::LossCause;

    let cfg = ChaosConfig {
        seed: 14,
        crashes: 2,
        ..ChaosConfig::default()
    };
    let report = run_chaos(&cfg);
    report.assert_invariants();
    let m = &report.metrics;
    // Two crash faults drawn, one landed: the second found the node dark.
    let drawn = report
        .faults
        .iter()
        .filter(|(_, f)| matches!(f, Fault::NodeCrash(..)))
        .count();
    assert_eq!(drawn, 2);
    assert_eq!(m.crashes, 1);
    // The full recovery loop ran exactly once and converged.
    assert_eq!(m.restarts, 1);
    assert_eq!(m.master_stats.registrations, 1);
    assert_eq!(m.recovery, None);
    // Re-ignition: a job that had migrated blocks on the crashed node got
    // its migration re-issued after the block report.
    assert_eq!(m.reignited_jobs, 1);
    // The crash cost RAM replicas but no durable data: reads mid-crash
    // degraded to disk, witnessed by the explainer's crash verdict.
    assert_eq!(report.events_dropped, 0);
    let explained = TelemetryReport::from_events(&report.events);
    assert_eq!(explained.lost_with(LossCause::LostToCrash), 1);
    // Re-ignition lead times were witnessed end to end: registration
    // accepted and the first migration back on the rebooted node.
    assert_eq!(explained.reignitions.len(), 1);
    let lead = explained.reignitions[0];
    assert_eq!(lead.node, 2);
    assert!(lead.register_lead.is_some(), "registration never witnessed");
    assert!(lead.remigrate_lead.is_some(), "re-ignition never witnessed");
    // No invariant hides behind truncation: the ledger balanced and no
    // reference outlived the crash.
    assert_eq!(m.leaked_job_refs, 0);
    assert_eq!(m.final_migrated_bytes, 0);
}

#[test]
fn chaos_event_stream_is_consistent() {
    // Invariant 6 in isolation, on fresh seeds: every run's flight
    // recorder keeps the whole stream, sequence numbers strictly
    // increase, and every completion/waste/cancellation pairs with an
    // earlier start.
    for seed in 305..311 {
        let report = run_chaos(&ChaosConfig {
            seed,
            ..ChaosConfig::default()
        });
        report.assert_invariants();
        assert_eq!(report.events_dropped, 0, "flight recorder truncated");
        assert!(!report.events.is_empty(), "no events recorded");
        assert!(
            report.events.windows(2).all(|w| w[0].seq < w[1].seq),
            "sequence numbers must strictly increase"
        );
        report
            .check_event_stream_consistent()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// The seed-304 partition race, pre-fix: job 3's migrate batch for block
/// 15 → node 0 is cut by a control-plane partition and keeps retrying
/// with backoff; the job completes and its evict is acked *before* the
/// migrate ever lands. With `unfinished_plans == 0` and no interest the
/// cleanup sweep stops rescheduling, so when the retransmission finally
/// delivers, the reference it creates for the now-dead job is never
/// reclaimed. The epoch/lease lifecycle closes exactly this gap.
#[test]
fn seed_304_is_leak_free_with_leases() {
    let cfg = ChaosConfig {
        seed: 304,
        ..ChaosConfig::default()
    };
    let report = run_chaos(&cfg);
    report.assert_invariants();
    // The fix must have actually exercised the lease path: the orphaned
    // reference expired instead of lingering.
    assert_eq!(report.metrics.slave_stats.lease_expiries, 1);
    assert_eq!(report.metrics.leaked_job_refs, 0);
    assert_eq!(report.metrics.final_migrated_bytes, 0);
    // Determinism with the lease machinery engaged.
    assert_eq!(report.fingerprint, run_chaos(&cfg).fingerprint);
}

/// Regression pin for the pre-fix leak: with leasing disabled the legacy
/// cleanup machinery still loses the seed-304 race, and the minimizer
/// shrinks the three-fault plan to the single partition that causes it.
#[test]
fn minimizer_reproduces_legacy_seed_304_leak() {
    let legacy = ChaosConfig {
        seed: 304,
        lease: None,
        ..ChaosConfig::default()
    };
    let broken = run_chaos(&legacy);
    assert_eq!(broken.metrics.leaked_job_refs, 1, "pre-fix leak vanished");
    assert_eq!(broken.metrics.final_migrated_bytes, 64 * MIB);

    let min = minimize_faults(&legacy).expect("legacy seed 304 must fail");
    assert!(
        min.violation.contains("reference leak: 1 entries"),
        "unexpected violation: {}",
        min.violation
    );
    // 1-minimal: only the control-plane partition is needed.
    assert_eq!(
        min.faults,
        vec![(
            SimTime::from_micros(15_241_402),
            Fault::Partition(
                vec![NodeId(0), NodeId(2)],
                SimDuration::from_micros(9_983_093)
            ),
        )]
    );
    // The explainer names the leaked reference in the describe() output.
    let leaks = TelemetryReport::from_events(&min.report.events).leaked;
    assert_eq!(leaks.len(), 1);
    assert_eq!(leaks[0].node, 0);
    assert_eq!(leaks[0].bytes, 64 * MIB);
    assert_eq!(leaks[0].jobs, vec![3]);
    let desc = min.describe();
    assert!(desc.contains("leaked_reference"), "{desc}");
    assert!(desc.contains("Partition"), "{desc}");

    // Replaying the minimal schedule alone still reproduces the leak.
    let replay = run_chaos_with(&legacy, min.faults.clone());
    assert_eq!(replay.metrics.leaked_job_refs, 1);
}

/// Reference values of the seed-304 shrink, captured from the full-replay
/// minimizer (every candidate schedule re-run from `t = 0`) before it was
/// retired: the violation and fingerprint of the final failing run, the
/// hash chain of its event stream, the probe count, and the
/// events the replay shrink simulated.
const REPLAY_304_VIOLATION: &str = "reference leak: 1 entries survive the run (faults: \
     [(SimTime(15241402), Partition([NodeId(0), NodeId(2)], SimDuration(9983093)))])";
const REPLAY_304_FINGERPRINT: u64 = 0x5fe5_48b6_71ff_bbbf;
const REPLAY_304_STREAM_HASH: u64 = 16_963_464_279_319_102_653;
const REPLAY_304_PROBES: u64 = 6;
const REPLAY_304_SIMULATED_EVENTS: u64 = 1_596;
/// Events the snapshot-forked shrink simulates for the same result.
const FORK_304_SIMULATED_EVENTS: u64 = 688;

/// The snapshot-forked minimizer must reproduce everything a bug report
/// from the full-replay shrink contained — minimal schedule, fingerprint,
/// event stream, probe order — while simulating strictly fewer events.
/// (`RunMetrics::events_processed` is deliberately *not* compared: a
/// suppressed fault's `Inject` still pops inertly on the forked path, so
/// the counter differs by the number of dropped faults.)
#[test]
fn forked_minimizer_matches_replay_minimizer_on_seed_304() {
    let legacy = ChaosConfig {
        seed: 304,
        lease: None,
        ..ChaosConfig::default()
    };
    let (forked, fork_stats) = minimize_faults_with_stats(&legacy);
    let forked = forked.expect("legacy seed 304 must fail");

    assert_eq!(
        forked.faults.len(),
        1,
        "minimal schedule: {:?}",
        forked.faults
    );
    assert_eq!(forked.report.faults, forked.faults);
    assert_eq!(forked.violation, REPLAY_304_VIOLATION);
    assert_eq!(forked.report.fingerprint, REPLAY_304_FINGERPRINT);
    assert!(!forked.report.events.is_empty(), "non-empty stream");
    assert_eq!(
        hash_chain(&forked.report.events),
        REPLAY_304_STREAM_HASH,
        "final failing run must record the reference event stream"
    );
    assert_eq!(fork_stats.probes, REPLAY_304_PROBES, "probe order differs");
    assert_eq!(fork_stats.simulated_events, FORK_304_SIMULATED_EVENTS);
    assert!(
        fork_stats.simulated_events < REPLAY_304_SIMULATED_EVENTS,
        "forking must simulate fewer events than the replay shrink"
    );
}

/// A replayed full schedule is bit-identical to the generated run: the
/// explicit-schedule path shares every code path with the seeded one.
#[test]
fn explicit_schedule_replay_is_bit_identical() {
    let cfg = ChaosConfig {
        seed: 11,
        ..ChaosConfig::default()
    };
    let generated = run_chaos(&cfg);
    let replayed = run_chaos_with(&cfg, generated.faults.clone());
    assert_eq!(generated.fingerprint, replayed.fingerprint);
}

#[test]
fn duplicate_delivery_never_double_applies() {
    // A duplication-only channel (nothing dropped, plenty duplicated):
    // dedup on the slave must absorb every duplicate, so the run stays
    // leak-free, conserves memory and completes everything.
    let cfg = ChaosConfig {
        seed: 7,
        faults: 0,
        rpc: RpcConfig {
            drop_p: 0.0,
            dup_p: 0.5,
            jitter: SimDuration::from_millis(10),
        },
        ..ChaosConfig::default()
    };
    let report = run_chaos(&cfg);
    report.assert_invariants();
    assert!(
        report.metrics.rpc.duplicated > 0,
        "dup_p=0.5 never duplicated"
    );
    assert_eq!(report.metrics.plans.len(), report.total_plans);
}
