//! End-to-end integration tests of the full simulated stack.

use ignem_cluster::prelude::*;
use ignem_compute::job::{JobInput, JobSpec, SubmitOptions};
use ignem_netsim::NodeId;
use ignem_simcore::time::{SimDuration, SimTime};
use ignem_simcore::units::{GB, MB};

fn files_of(total: u64, n: usize, prefix: &str) -> Vec<(String, u64)> {
    (0..n)
        .map(|i| (format!("{prefix}/part-{i}"), total / n as u64))
        .collect()
}

fn job(files: &[(String, u64)], migrate: bool) -> JobSpec {
    let mut spec = JobSpec::new(
        "test-job",
        JobInput::DfsFiles(files.iter().map(|(p, _)| p.clone()).collect()),
    );
    if migrate {
        spec.submit = SubmitOptions::with_migration();
    }
    spec
}

fn run_one(mode: FsMode, migrate: bool, input: u64) -> RunMetrics {
    let files = files_of(input, 4, "/in");
    let plan = vec![PlannedJob::single(
        "test",
        SimDuration::from_secs(1),
        job(&files, migrate),
    )];
    World::new(ClusterConfig::default(), mode, &files, plan, vec![]).run()
}

#[test]
fn ram_beats_ignem_beats_hdfs() {
    let hdfs = run_one(FsMode::Hdfs, false, 2 * GB);
    let ignem = run_one(FsMode::Ignem, true, 2 * GB);
    let ram = run_one(FsMode::HdfsInputsInRam, false, 2 * GB);
    let (h, i, r) = (
        hdfs.mean_plan_duration(),
        ignem.mean_plan_duration(),
        ram.mean_plan_duration(),
    );
    assert!(r < i && i < h, "expected RAM {r} < Ignem {i} < HDFS {h}");
}

#[test]
fn ignem_serves_reads_from_memory() {
    let m = run_one(FsMode::Ignem, true, 2 * GB);
    assert!(
        m.memory_read_fraction() > 0.2,
        "memory fraction {}",
        m.memory_read_fraction()
    );
    assert!(m.slave_stats.migrated > 0);
    assert!(m.master_stats.blocks_assigned > 0);
}

#[test]
fn hdfs_mode_never_touches_memory() {
    let m = run_one(FsMode::Hdfs, false, GB);
    assert_eq!(m.memory_read_fraction(), 0.0);
    assert_eq!(m.slave_stats.migrated, 0);
}

#[test]
fn inputs_in_ram_reads_all_from_memory() {
    let m = run_one(FsMode::HdfsInputsInRam, false, GB);
    assert!((m.memory_read_fraction() - 1.0).abs() < 1e-9);
}

#[test]
fn migration_buffer_is_empty_after_evicts() {
    let m = run_one(FsMode::Ignem, true, 2 * GB);
    // The last sample of every node's occupancy series must be zero.
    for series in &m.mem_series {
        if let Some(&(_, v)) = series.last() {
            assert_eq!(v, 0.0, "leaked migration buffer: {series:?}");
        }
    }
    assert!(m.slave_stats.evicted > 0 || m.slave_stats.discarded > 0);
}

#[test]
fn runs_are_deterministic() {
    let a = run_one(FsMode::Ignem, true, GB);
    let b = run_one(FsMode::Ignem, true, GB);
    assert_eq!(a.plans, b.plans);
    assert_eq!(a.jobs, b.jobs);
    assert_eq!(a.block_reads.len(), b.block_reads.len());
}

#[test]
fn extra_lead_time_migrates_more() {
    let files = files_of(4 * GB, 4, "/in");
    let mk = |extra: u64| {
        let mut spec = job(&files, true);
        spec.submit.extra_lead_time = SimDuration::from_secs(extra);
        let plan = vec![PlannedJob::single("t", SimDuration::from_secs(1), spec)];
        World::new(
            ClusterConfig::default(),
            FsMode::Ignem,
            &files,
            plan,
            vec![],
        )
        .run()
    };
    let plain = mk(0);
    let delayed = mk(20);
    assert!(
        delayed.memory_read_fraction() >= plain.memory_read_fraction(),
        "more lead-time must not migrate less: {} vs {}",
        delayed.memory_read_fraction(),
        plain.memory_read_fraction()
    );
}

#[test]
fn multi_stage_plan_runs_sequentially() {
    let files = files_of(GB, 2, "/tbl");
    let mut s1 = job(&files, true);
    s1.shuffle_bytes = 100 * MB;
    s1.output_bytes = 100 * MB;
    s1.reducers = 2;
    let mut s2 = JobSpec::new("stage2", JobInput::Cached(100 * MB));
    s2.shuffle_bytes = 10 * MB;
    s2.output_bytes = 10 * MB;
    s2.reducers = 1;
    let plan = vec![PlannedJob {
        name: "query".into(),
        submit: SimDuration::from_secs(1),
        stages: vec![s1, s2],
    }];
    let m = World::new(
        ClusterConfig::default(),
        FsMode::Ignem,
        &files,
        plan,
        vec![],
    )
    .run();
    assert_eq!(m.plans.len(), 1);
    assert_eq!(m.jobs.len(), 2, "two stage jobs must have run");
    // Query duration covers both stages.
    let total: f64 = m.jobs.iter().map(|j| j.duration).sum();
    assert!(m.plans[0].duration <= total + 1.0);
    assert!(m.plans[0].duration >= m.jobs.iter().map(|j| j.duration).fold(0.0, f64::max));
}

#[test]
fn reduce_jobs_complete() {
    let files = files_of(GB, 2, "/sort");
    let mut spec = job(&files, false);
    spec.shuffle_bytes = GB;
    spec.output_bytes = GB;
    spec.reducers = 8;
    let plan = vec![PlannedJob::single("sort", SimDuration::from_secs(1), spec)];
    let m = World::new(ClusterConfig::default(), FsMode::Hdfs, &files, plan, vec![]).run();
    assert_eq!(m.plans.len(), 1);
    assert_eq!(m.reduce_task_secs.len(), 8);
}

#[test]
fn master_failure_purges_but_jobs_still_finish() {
    let files = files_of(2 * GB, 4, "/in");
    let plan = vec![PlannedJob::single(
        "t",
        SimDuration::from_secs(1),
        job(&files, true),
    )];
    let faults = vec![(SimTime::from_secs(3), Fault::MasterFail)];
    let m = World::new(
        ClusterConfig::default(),
        FsMode::Ignem,
        &files,
        plan,
        faults,
    )
    .run();
    assert_eq!(m.plans.len(), 1, "job must survive master failure");
    assert!(m.slave_stats.purges >= 1);
    for series in &m.mem_series {
        if let Some(&(_, v)) = series.last() {
            assert_eq!(v, 0.0, "references leaked past master failure");
        }
    }
}

#[test]
fn slave_restart_loses_data_but_jobs_finish() {
    let files = files_of(2 * GB, 4, "/in");
    let plan = vec![PlannedJob::single(
        "t",
        SimDuration::from_secs(1),
        job(&files, true),
    )];
    let faults = vec![
        (SimTime::from_secs(4), Fault::SlaveRestart(NodeId(0))),
        (SimTime::from_secs(4), Fault::SlaveRestart(NodeId(1))),
    ];
    let m = World::new(
        ClusterConfig::default(),
        FsMode::Ignem,
        &files,
        plan,
        faults,
    )
    .run();
    assert_eq!(m.plans.len(), 1);
}

#[test]
fn node_failure_reexecutes_tasks() {
    let files = files_of(2 * GB, 4, "/in");
    let plan = vec![PlannedJob::single(
        "t",
        SimDuration::from_secs(1),
        job(&files, false),
    )];
    let faults = vec![(SimTime::from_secs(6), Fault::NodeFail(NodeId(2)))];
    let m = World::new(ClusterConfig::default(), FsMode::Hdfs, &files, plan, faults).run();
    assert_eq!(m.plans.len(), 1, "job must survive a node failure");
}

#[test]
fn node_failure_triggers_rereplication() {
    let files = files_of(GB, 2, "/in");
    // A long-tail second job keeps the simulation alive while the
    // background re-replication drains.
    let files2 = files_of(GB, 2, "/late");
    let mut all = files.clone();
    all.extend(files2.clone());
    let plan = vec![
        PlannedJob::single("first", SimDuration::from_secs(1), job(&files, false)),
        PlannedJob::single("late", SimDuration::from_secs(60), job(&files2, false)),
    ];
    let faults = vec![(SimTime::from_secs(3), Fault::NodeFail(NodeId(2)))];
    let m = World::new(ClusterConfig::default(), FsMode::Hdfs, &all, plan, faults).run();
    assert_eq!(m.plans.len(), 2);
    assert!(
        m.rereplicated > 0,
        "under-replicated blocks must be re-replicated"
    );
}

#[test]
fn node_failure_under_ignem_still_completes() {
    let files = files_of(2 * GB, 4, "/in");
    let plan = vec![PlannedJob::single(
        "t",
        SimDuration::from_secs(1),
        job(&files, true),
    )];
    let faults = vec![(SimTime::from_secs(5), Fault::NodeFail(NodeId(1)))];
    let m = World::new(
        ClusterConfig::default(),
        FsMode::Ignem,
        &files,
        plan,
        faults,
    )
    .run();
    assert_eq!(m.plans.len(), 1);
}

#[test]
fn killed_job_references_are_reclaimed_by_liveness_cleanup() {
    // A killed job never sends its evict. A follow-up job large enough to
    // hit the occupancy threshold must trigger the liveness query and
    // reclaim the dead job's buffer space. The buffer is sized so a single
    // leftover block (64 MiB) is above the threshold and blocks the
    // follower's migrations on that slave.
    let mut cfg = ClusterConfig::default();
    cfg.ignem.buffer_capacity = 96 * MB;
    cfg.ignem.cleanup_threshold = 0.5;
    let files_a = files_of(512 * MB, 2, "/a");
    let files_b = files_of(2 * GB, 4, "/b");
    let mut all = files_a.clone();
    all.extend(files_b.clone());
    let mut job_a = job(&files_a, true);
    job_a.name = "victim".into();
    let mut job_b = job(&files_b, true);
    job_b.name = "follower".into();
    let plan = vec![
        PlannedJob::single("victim", SimDuration::from_secs(1), job_a),
        PlannedJob::single("follower", SimDuration::from_secs(40), job_b),
    ];
    // Kill the victim shortly after submission, while its blocks migrate.
    let faults = vec![(SimTime::from_secs_f64(1.8), Fault::KillPlan(0))];
    let m = World::new(cfg, FsMode::Ignem, &all, plan, faults).run();
    // Only the follower finishes.
    assert_eq!(m.plans.len(), 1);
    assert_eq!(m.plans[0].name, "follower");
    // Threshold-triggered cleanup fired at least once...
    assert!(
        m.slave_stats.liveness_queries >= 1,
        "liveness cleanup never triggered"
    );
    // ...and nothing leaks at the end.
    for series in &m.mem_series {
        if let Some(&(_, v)) = series.last() {
            assert_eq!(v, 0.0, "dead job's buffer never reclaimed");
        }
    }
}

#[test]
fn hypothetical_scheme_tracks_submissions() {
    let m = run_one(FsMode::Ignem, true, 2 * GB);
    let peak: f64 = m
        .hypothetical_series
        .iter()
        .flat_map(|s| s.iter().map(|&(_, v)| v))
        .fold(0.0, f64::max);
    assert!(peak > 0.0, "hypothetical scheme never held memory");
    for series in &m.hypothetical_series {
        if let Some(&(_, v)) = series.last() {
            assert_eq!(v, 0.0);
        }
    }
}

#[test]
fn compute_jitter_is_deterministic() {
    // Heavy log-normal compute jitter on compute-dominated maps: the run
    // completes, the same seed reproduces it exactly, and the jitter is
    // really drawn (the run differs from one without it).
    use ignem_cluster::chaos::fingerprint;
    let files = files_of(2 * GB, 4, "/in");
    let mut spec = job(&files, false);
    spec.map_cpu_rate = 20e6; // compute-dominated so jitter matters
    let plan = vec![PlannedJob::single(
        "jitter",
        SimDuration::from_secs(1),
        spec,
    )];
    let run = |sigma: f64| {
        let mut cfg = ClusterConfig::default();
        cfg.compute.compute_jitter_sigma = sigma;
        World::new(cfg, FsMode::Hdfs, &files, plan.clone(), vec![]).run()
    };
    let a = run(1.2);
    assert_eq!(a.plans.len(), 1);
    let b = run(1.2);
    assert_eq!(a.plans, b.plans);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    let c = run(0.0);
    assert_ne!(fingerprint(&a), fingerprint(&c));
}

#[test]
fn trace_records_lifecycle() {
    use ignem_simcore::telemetry::{Event, FlightRecorder};
    let files = files_of(256 * MB, 2, "/in");
    let plan = vec![PlannedJob::single(
        "traced",
        SimDuration::from_secs(1),
        job(&files, true),
    )];
    let recorder = FlightRecorder::new(1 << 16);
    let world = World::new(
        ClusterConfig::default(),
        FsMode::Ignem,
        &files,
        plan,
        vec![],
    )
    .with_telemetry(Box::new(recorder.clone()));
    let m = world.run();
    assert_eq!(m.plans.len(), 1);
    assert_eq!(recorder.dropped(), 0);
    let events = recorder.events();
    assert!(!events.is_empty());
    // Times are nondecreasing and the job, task and migration lifecycles
    // all appear.
    for w in events.windows(2) {
        assert!(w[0].at <= w[1].at);
    }
    for kind in ["job_submitted", "task_assigned", "migration_enqueued"] {
        assert!(
            events.iter().any(|e| e.event.kind() == kind),
            "missing kind {kind}"
        );
    }
    // Submission precedes completion.
    let submit = events
        .iter()
        .position(|e| matches!(e.event, Event::JobSubmitted { .. }))
        .expect("submit record");
    let finish = events
        .iter()
        .position(|e| matches!(e.event, Event::JobCompleted { .. }))
        .expect("finish record");
    assert!(submit < finish);
}

#[test]
fn disk_utilization_is_sane() {
    let m = run_one(FsMode::Hdfs, false, 2 * GB);
    assert!(!m.disk_utilization.is_empty());
    for &u in &m.disk_utilization {
        assert!((0.0..=1.0).contains(&u), "utilization {u}");
    }
    assert!(m.disk_utilization.iter().any(|&u| u > 0.0));
}

#[test]
fn read_caching_serves_repeats_only() {
    use ignem_cluster::experiment::run_rereads;
    let cfg = ClusterConfig {
        cache_reads: true,
        ..ClusterConfig::default()
    };
    let (_, first, repeat) = run_rereads(&cfg, FsMode::Hdfs, 4, GB);
    assert!(
        repeat < first * 0.8,
        "cache must speed up repeats: first {first:.2}s repeat {repeat:.2}s"
    );
    // Without the cache, both rounds cost the same.
    let plain = ClusterConfig::default();
    let (_, pf, pr) = run_rereads(&plain, FsMode::Hdfs, 4, GB);
    assert!((pf - pr).abs() < pf * 0.15, "no cache: {pf:.2} vs {pr:.2}");
    // Ignem speeds up both rounds.
    let (_, inf, inr) = run_rereads(&plain, FsMode::Ignem, 4, GB);
    assert!(inf < pf * 0.8 && inr < pr * 0.8, "{inf:.2}/{inr:.2}");
}

#[test]
fn killed_plan_keeps_draining_tasks_through_a_crash() {
    // Kill a plan while its maps are running, then crash a node while a
    // second job still runs. The killed job's running tasks keep reading
    // its spec until they drain; recovery re-ignites only the live job.
    use ignem_simcore::telemetry::{Event, FlightRecorder};
    let files_v = files_of(512 * MB, 2, "/victim");
    let files_f = files_of(4 * GB, 4, "/follower");
    let mut all = files_v.clone();
    all.extend(files_f.clone());
    let mut victim = job(&files_v, true);
    victim.map_cpu_rate = 20e6; // slow maps: still running at the kill
    let mut follower = job(&files_f, true);
    follower.map_cpu_rate = 5e6; // still running when the node restarts
    let plan = vec![
        PlannedJob::single("victim", SimDuration::from_secs(1), victim),
        PlannedJob::single("follower", SimDuration::from_secs(2), follower),
    ];
    let faults = vec![
        (SimTime::from_secs(9), Fault::KillPlan(0)),
        (
            SimTime::from_secs(12),
            Fault::NodeCrash(NodeId(3), SimDuration::from_secs(4)),
        ),
    ];
    let recorder = FlightRecorder::new(1 << 20);
    let m = World::new(ClusterConfig::default(), FsMode::Ignem, &all, plan, faults)
        .with_telemetry(Box::new(recorder.clone()))
        .run();
    let events = recorder.events();
    assert_eq!(recorder.dropped(), 0);
    let victim_job = events
        .iter()
        .find_map(|e| match &e.event {
            Event::JobSubmitted { job, plan: 0, .. } => Some(*job),
            _ => None,
        })
        .expect("victim submitted");
    let kill = events
        .iter()
        .position(|e| matches!(&e.event, Event::FaultInjected { desc } if desc == "KillPlan(0)"))
        .expect("kill injected");
    assert!(
        events[..kill]
            .iter()
            .any(|e| matches!(e.event, Event::TaskStarted { job, .. } if job == victim_job)),
        "no victim task started before the kill"
    );
    assert!(
        events[kill..]
            .iter()
            .any(|e| matches!(e.event, Event::TaskFinished { job, .. } if job == victim_job)),
        "no victim task drained after the kill"
    );
    // The run completes without the victim, and recovery re-ignited only
    // the follower, although the victim had migrated too.
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, Event::MigrationAssigned { job, .. } if job == victim_job)),
        "the victim never migrated"
    );
    assert_eq!(m.plans.len(), 1);
    assert_eq!(m.plans[0].name, "follower");
    assert_eq!(m.crashes, 1);
    assert_eq!(m.reignited_jobs, 1);
    assert_eq!(m.recovery, None);
    // Nothing is left over: no reference, no migrated byte, no
    // hypothetical byte.
    assert_eq!(m.leaked_job_refs, 0);
    assert_eq!(m.final_migrated_bytes, 0);
    for series in &m.hypothetical_series {
        if let Some(&(_, v)) = series.last() {
            assert_eq!(v, 0.0, "hypothetical bytes left over");
        }
    }
}

#[test]
fn node_failure_after_a_kill_does_not_requeue_the_killed_jobs_tasks() {
    // A killed job's running tasks drain on their nodes. When such a node
    // then fails (for good or in a crash), those tasks must not go back
    // to the pending queue: the job is gone, so fair share counts it as
    // running nothing, the stale task would win the next pick, and
    // container reuse would look up the missing job.
    use ignem_simcore::telemetry::{Event, FlightRecorder};
    let files_v = files_of(4 * GB, 4, "/victim");
    let files_f = files_of(8 * GB, 8, "/follower");
    let mut all = files_v.clone();
    all.extend(files_f.clone());
    let mut victim = job(&files_v, false);
    victim.map_cpu_rate = 5e6; // slow maps: still running at the kill
    let plan = vec![
        PlannedJob::single("victim", SimDuration::from_secs(1), victim),
        PlannedJob::single("follower", SimDuration::from_secs(2), job(&files_f, false)),
    ];
    for fault in [
        Fault::NodeFail(NodeId(0)),
        Fault::NodeCrash(NodeId(0), SimDuration::from_secs(5)),
    ] {
        let faults = vec![
            (SimTime::from_secs(12), Fault::KillPlan(0)),
            (SimTime::from_secs(13), fault.clone()),
        ];
        let recorder = FlightRecorder::new(1 << 20);
        let m = World::new(
            ClusterConfig::default(),
            FsMode::Hdfs,
            &all,
            plan.clone(),
            faults,
        )
        .with_telemetry(Box::new(recorder.clone()))
        .run();
        assert_eq!(m.plans.len(), 1, "{fault:?}");
        assert_eq!(m.plans[0].name, "follower", "{fault:?}");
        let events = recorder.events();
        assert_eq!(recorder.dropped(), 0);
        let kill = events
            .iter()
            .position(
                |e| matches!(&e.event, Event::FaultInjected { desc } if desc == "KillPlan(0)"),
            )
            .expect("kill injected");
        assert!(
            events[..kill].iter().any(|e| matches!(
                e.event,
                Event::TaskStarted {
                    job: 0,
                    node: 0,
                    ..
                }
            )),
            "{fault:?}: no victim task ran on node 0 before the kill"
        );
        assert!(
            !events[kill..]
                .iter()
                .any(|e| matches!(e.event, Event::TaskAssigned { job: 0, .. })),
            "{fault:?}: a killed job's task was assigned again"
        );
    }
}

#[test]
fn heartbeat_sweep_recovers_from_node_crashes() {
    // The sweep layout beats the whole cluster as one heartbeat group. A
    // crashed node leaves the group beating; crashing every node stops it,
    // and the first restart must re-arm it, or no task would be assigned
    // again. The run is bounded so that a group left stopped fails here
    // instead of spinning on cleanup sweeps.
    let files = files_of(2 * GB, 4, "/in");
    let plan = vec![
        PlannedJob::single("a", SimDuration::from_secs(1), job(&files, true)),
        PlannedJob::single("b", SimDuration::from_secs(2), job(&files, true)),
    ];
    let cfg = ClusterConfig {
        heartbeat_sweep: true,
        ..ClusterConfig::default()
    };
    let crash = |n| {
        let outage = Fault::NodeCrash(NodeId(n), SimDuration::from_secs(10));
        (SimTime::from_secs(10), outage)
    };
    for faults in [vec![crash(3)], (0..8).map(crash).collect()] {
        let crashed = faults.len() as u64;
        let mut world = World::new(cfg.clone(), FsMode::Ignem, &files, plan.clone(), faults);
        while world.step() && world.now() < SimTime::from_secs(3600) {}
        let m = world.finalize_mut();
        assert_eq!(m.plans.len(), 2, "{crashed} node(s) crashed");
        assert_eq!(m.crashes, crashed);
        assert_eq!(m.restarts, crashed);
        assert_eq!(m.recovery, None, "{crashed} node(s) crashed");
    }
}
