//! Pre-assembled experiments: the paper's workloads turned into workload
//! plans and executed under each file-system configuration.
//!
//! Every table and figure in §IV is regenerated through these functions
//! (the `ignem-bench` crate and the examples call them; `EXPERIMENTS.md`
//! records the outputs).

use ignem_compute::job::{JobInput, JobSpec, SubmitOptions};
use ignem_core::command::EvictionMode;
use ignem_core::policy::Policy;
use ignem_simcore::rng::SimRng;
use ignem_simcore::telemetry::FlightRecorder;
use ignem_simcore::time::SimDuration;
use ignem_simcore::units::GB;
use ignem_workloads::jobs::{sort_job, wordcount_job};
use ignem_workloads::stream::{replay_files, JobArrival, ReplayConfig, ReplayStream};
use ignem_workloads::swim::{SwimJob, SwimTrace};
use ignem_workloads::tpcds::HiveQuery;

use crate::config::{ClusterConfig, FsMode};
use crate::metrics::RunMetrics;
use crate::world::{PlannedJob, World};

/// Converts a SWIM trace entry into a [`JobSpec`] over its dedicated input
/// file, with the given eviction mode (explicit, or implicit for the
/// eviction ablation). SWIM mappers "spend most of their time reading and
/// perform very little computation" (§IV-C3), hence the high map CPU rate.
pub fn swim_spec_with(idx: usize, job: &SwimJob, migrate: bool, mode: EvictionMode) -> JobSpec {
    let mut spec = JobSpec::new(
        format!("swim-{idx}"),
        JobInput::DfsFiles(vec![swim_path(idx)]),
    );
    spec.shuffle_bytes = job.shuffle_bytes;
    spec.output_bytes = job.output_bytes;
    spec.reducers = if job.shuffle_bytes > 0 || job.output_bytes > 0 {
        ((job.shuffle_bytes.max(job.output_bytes) / (128 << 20)) as usize).clamp(1, 16)
    } else {
        0
    };
    spec.map_cpu_rate = 300e6;
    spec.reduce_cpu_rate = 100e6;
    if migrate {
        spec.submit = SubmitOptions {
            migrate: Some(mode),
            ..SubmitOptions::default()
        };
    }
    spec
}

fn swim_path(idx: usize) -> String {
    format!("/swim/job-{idx}")
}

/// The DFS files backing a SWIM trace.
pub fn swim_files(trace: &SwimTrace) -> Vec<(String, u64)> {
    trace
        .jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (swim_path(i), j.input_bytes))
        .collect()
}

/// The workload plan for a SWIM trace.
pub fn swim_plan(trace: &SwimTrace, migrate: bool) -> Vec<PlannedJob> {
    swim_plan_with(trace, migrate, EvictionMode::Explicit)
}

/// [`swim_plan`] with an explicit eviction mode.
pub fn swim_plan_with(trace: &SwimTrace, migrate: bool, mode: EvictionMode) -> Vec<PlannedJob> {
    trace
        .jobs
        .iter()
        .enumerate()
        .map(|(i, j)| {
            PlannedJob::single(
                format!("swim-{i}"),
                j.submit,
                swim_spec_with(i, j, migrate, mode),
            )
        })
        .collect()
}

/// Runs the SWIM workload under one configuration (Tables I–II,
/// Figs. 5–7). `policy_override` switches the §IV-C5 prioritization
/// ablation.
pub fn run_swim(
    cfg: &ClusterConfig,
    mode: FsMode,
    trace: &SwimTrace,
    policy_override: Option<Policy>,
) -> RunMetrics {
    let mut cfg = cfg.clone();
    if let Some(p) = policy_override {
        cfg.ignem.policy = p;
    }
    run_swim_with(&cfg, mode, trace, EvictionMode::Explicit)
}

/// Runs the SWIM workload with full configuration control (ablations:
/// eviction mode, migration concurrency, replica count, heartbeats are all
/// set through `cfg`).
pub fn run_swim_with(
    cfg: &ClusterConfig,
    mode: FsMode,
    trace: &SwimTrace,
    evict_mode: EvictionMode,
) -> RunMetrics {
    let files = swim_files(trace);
    let migrate = mode == FsMode::Ignem;
    World::new(
        cfg.clone(),
        mode,
        &files,
        swim_plan_with(trace, migrate, evict_mode),
        vec![],
    )
    .run()
}

/// Runs the SWIM workload like [`run_swim`], but with a
/// [`FlightRecorder`] of the given capacity installed; returns the
/// metrics together with the recorder, so callers can feed
/// [`FlightRecorder::events`] to the
/// [explainer](crate::explain::TelemetryReport) or export
/// [`FlightRecorder::to_jsonl`].
pub fn run_swim_recorded(
    cfg: &ClusterConfig,
    mode: FsMode,
    trace: &SwimTrace,
    capacity: usize,
) -> (RunMetrics, FlightRecorder) {
    let files = swim_files(trace);
    let migrate = mode == FsMode::Ignem;
    let recorder = FlightRecorder::new(capacity);
    let metrics = World::new(
        cfg.clone(),
        mode,
        &files,
        swim_plan_with(trace, migrate, EvictionMode::Explicit),
        vec![],
    )
    .with_telemetry(Box::new(recorder.clone()))
    .run();
    (metrics, recorder)
}

/// Runs the SWIM workload like [`run_swim_recorded`], but with a sim-time
/// [`MetricsRegistry`](ignem_simcore::metrics::MetricsRegistry) of the
/// given window attached as well; returns the metrics, the recorder, and
/// the windowed metrics report. The registry is purely observational —
/// the event stream and [`RunMetrics`] are bit-identical to an
/// unobserved run.
pub fn run_swim_observed(
    cfg: &ClusterConfig,
    mode: FsMode,
    trace: &SwimTrace,
    capacity: usize,
    window: ignem_simcore::time::SimDuration,
) -> (
    RunMetrics,
    FlightRecorder,
    ignem_simcore::metrics::MetricsReport,
) {
    let files = swim_files(trace);
    let migrate = mode == FsMode::Ignem;
    let recorder = FlightRecorder::new(capacity);
    let registry = ignem_simcore::metrics::MetricsRegistry::new(window);
    let metrics = World::new(
        cfg.clone(),
        mode,
        &files,
        swim_plan_with(trace, migrate, EvictionMode::Explicit),
        vec![],
    )
    .with_telemetry(Box::new(recorder.clone()))
    .with_metrics(registry.clone())
    .run();
    let report = registry.finish(metrics.makespan);
    (metrics, recorder, report)
}

/// Runs the 40 GB sort job (Table III).
pub fn run_sort(cfg: &ClusterConfig, mode: FsMode, input_bytes: u64) -> RunMetrics {
    let parts = 8;
    let files: Vec<(String, u64)> = (0..parts)
        .map(|i| (format!("/sort/part-{i}"), input_bytes / parts as u64))
        .collect();
    let mut spec = sort_job(
        files.iter().map(|(p, _)| p.clone()).collect(),
        input_bytes,
        cfg.nodes * cfg.compute.slots_per_node,
    );
    if mode == FsMode::Ignem {
        spec.submit = SubmitOptions::with_migration();
    }
    let plan = vec![PlannedJob::single("sort", SimDuration::from_secs(1), spec)];
    World::new(cfg.clone(), mode, &files, plan, vec![]).run()
}

/// Runs wordcount over `gb` gigabytes with an optional artificial
/// lead-time (Fig. 8's *Ignem+10s*).
pub fn run_wordcount(
    cfg: &ClusterConfig,
    mode: FsMode,
    gb: u64,
    extra_lead_time: SimDuration,
) -> RunMetrics {
    let input = gb * GB;
    let parts = 4;
    let files: Vec<(String, u64)> = (0..parts)
        .map(|i| (format!("/wc/part-{i}"), input / parts as u64))
        .collect();
    let mut spec = wordcount_job(files.iter().map(|(p, _)| p.clone()).collect(), input);
    if mode == FsMode::Ignem {
        spec.submit = SubmitOptions::with_migration();
    }
    spec.submit.extra_lead_time = extra_lead_time;
    let plan = vec![PlannedJob::single(
        "wordcount",
        SimDuration::from_secs(1),
        spec,
    )];
    World::new(cfg.clone(), mode, &files, plan, vec![]).run()
}

/// Runs the Fig. 9 Hive query set sequentially (each query waits for the
/// previous one, as Hive CLI sessions do). Returns the run metrics; per-
/// query durations are in `metrics.plans`, in query order.
pub fn run_hive(cfg: &ClusterConfig, mode: FsMode, queries: &[HiveQuery]) -> RunMetrics {
    let files: Vec<(String, u64)> = queries
        .iter()
        .map(|q| (q.table_path(), q.input_bytes))
        .collect();
    // Sequential submission: stagger by a generous estimate and let each
    // query's plan carry all its stages. To keep queries strictly
    // sequential without coupling to runtime, submissions are spaced far
    // apart; the report uses per-query durations, not the makespan.
    let mut plans = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let stages = q.jobs(mode == FsMode::Ignem);
        plans.push(PlannedJob {
            name: q.name(),
            submit: SimDuration::from_secs(600 * i as u64),
            stages,
        });
    }
    World::new(cfg.clone(), mode, &files, plans, vec![]).run()
}

/// Seed of [`run_replay`]'s arrival stream — arbitrary but fixed, so a
/// replayed world's job and event counts depend only on the cluster
/// configuration and the simulated span.
const REPLAY_STREAM_SEED: u64 = 0x5CA1_E001;

/// Jobs a [`run_replay`] of `days` simulated days admits: the Google
/// trace's default arrival rate times the span.
pub fn replay_jobs(days: u64) -> u64 {
    (ReplayConfig::default().arrivals_per_sec * (days * 86_400) as f64).round() as u64
}

/// Adapter from a streamed [`JobArrival`] to the world's planned-job
/// shape. A plain `fn` so the mapped stream stays `Clone` (the arrival
/// source is cloned into world snapshots).
fn arrival_plan(a: JobArrival) -> PlannedJob {
    PlannedJob::single(a.name, a.submit, a.spec)
}

/// Replays `days` of Google-trace arrivals (the paper's §II datacenter)
/// over `cfg`'s cluster with the cluster-wide heartbeat sweep
/// ([`ClusterConfig::heartbeat_sweep`]). The DFS namespace is preloaded
/// (file creation draws from the world rng); the jobs themselves are
/// admitted lazily from a [`ReplayStream`], so no full job plan ever
/// materialises. Every one of the [`replay_jobs`] admitted jobs should
/// appear in the returned `jobs`.
pub fn run_replay(cfg: &ClusterConfig, mode: FsMode, days: u64) -> RunMetrics {
    let jobs = replay_jobs(days);
    let rcfg = ReplayConfig {
        jobs: Some(jobs),
        ..ReplayConfig::default()
    };
    let cfg = ClusterConfig {
        heartbeat_sweep: true,
        ..cfg.clone()
    };
    let files = replay_files(&rcfg, jobs);
    let stream = ReplayStream::new(rcfg, REPLAY_STREAM_SEED)
        .map(arrival_plan as fn(JobArrival) -> PlannedJob);
    let world = World::new(cfg, mode, &files, vec![], vec![]).with_arrivals(Box::new(stream));
    drop(files);
    world.run()
}

/// The related-work comparison workload (paper §V): `sets` distinct file
/// sets, each read by **two** jobs (a first cold read and a later repeat).
/// A PACMan-style LRU cache (`cfg.cache_reads`) can only help the repeats;
/// Ignem helps both. Returns `(first_reads_mean, repeat_reads_mean)` job
/// durations.
pub fn run_rereads(
    cfg: &ClusterConfig,
    mode: FsMode,
    sets: usize,
    bytes_per_set: u64,
) -> (RunMetrics, f64, f64) {
    let files: Vec<(String, u64)> = (0..sets)
        .map(|i| (format!("/rr/set-{i}"), bytes_per_set))
        .collect();
    let mut plans = Vec::new();
    // First-read jobs, then repeat jobs over the same files.
    for round in 0..2 {
        for (i, (path, _)) in files.iter().enumerate() {
            let mut spec = JobSpec::new(
                format!("r{round}-{i}"),
                JobInput::DfsFiles(vec![path.clone()]),
            );
            spec.map_cpu_rate = 300e6;
            if mode == FsMode::Ignem {
                spec.submit = SubmitOptions::with_migration();
            }
            plans.push(PlannedJob::single(
                format!("r{round}-{i}"),
                SimDuration::from_secs(5 + (round * sets + i) as u64 * 30),
                spec,
            ));
        }
    }
    let m = World::new(cfg.clone(), mode, &files, plans, vec![]).run();
    let mean_of = |round: &str| -> f64 {
        let v: Vec<f64> = m
            .plans
            .iter()
            .filter(|p| p.name.starts_with(round))
            .map(|p| p.duration)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let first = mean_of("r0-");
    let repeat = mean_of("r1-");
    (m, first, repeat)
}

/// Runs an iterative ML job (paper §I's motivation: cold reads inflate the
/// first iteration). Per-iteration durations land in `metrics.jobs`, in
/// stage order.
pub fn run_iterative(
    cfg: &ClusterConfig,
    mode: FsMode,
    job: &ignem_workloads::iterative::IterativeJob,
) -> RunMetrics {
    let files: Vec<(String, u64)> = job
        .input_files
        .iter()
        .map(|p| (p.clone(), job.input_bytes / job.input_files.len() as u64))
        .collect();
    let plan = vec![PlannedJob {
        name: job.name.clone(),
        submit: SimDuration::from_secs(1),
        stages: job.stages(mode == FsMode::Ignem),
    }];
    World::new(cfg.clone(), mode, &files, plan, vec![]).run()
}

/// A micro-workload of concurrent block-read-heavy mappers used for
/// Figs. 1–2: `jobs` single-wave map-only jobs arriving together, so block
/// reads contend the way the SWIM workload makes them contend.
pub fn run_read_micro(
    cfg: &ClusterConfig,
    mode: FsMode,
    jobs: usize,
    blocks_per_job: u64,
) -> RunMetrics {
    let block = cfg.dfs.block_size;
    let files: Vec<(String, u64)> = (0..jobs)
        .map(|i| (format!("/micro/job-{i}"), block * blocks_per_job))
        .collect();
    let mut rng = SimRng::new(cfg.seed ^ 0xF16);
    let plans: Vec<PlannedJob> = (0..jobs)
        .map(|i| {
            let mut spec = JobSpec::new(
                format!("micro-{i}"),
                JobInput::DfsFiles(vec![files[i].0.clone()]),
            );
            spec.map_cpu_rate = 300e6;
            if mode == FsMode::Ignem {
                spec.submit = SubmitOptions::with_migration();
            }
            // Slight arrival jitter, like trace jobs.
            let jitter = SimDuration::from_secs_f64(rng.uniform_range(0.0, 2.0));
            PlannedJob::single(format!("micro-{i}"), jitter, spec)
        })
        .collect();
    World::new(cfg.clone(), mode, &files, plans, vec![]).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ignem_simcore::units::MB;
    use ignem_workloads::swim::SwimConfig;

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
    fn swim_comparison_orders_correctly() {
        let cfg = ClusterConfig::default();
        let trace = small_trace();
        let hdfs = run_swim(&cfg, FsMode::Hdfs, &trace, None);
        let ignem = run_swim(&cfg, FsMode::Ignem, &trace, None);
        let ram = run_swim(&cfg, FsMode::HdfsInputsInRam, &trace, None);
        assert_eq!(hdfs.plans.len(), 12);
        assert_eq!(ignem.plans.len(), 12);
        let (h, i, r) = (
            hdfs.mean_plan_duration(),
            ignem.mean_plan_duration(),
            ram.mean_plan_duration(),
        );
        assert!(r <= i && i <= h, "RAM {r} <= Ignem {i} <= HDFS {h}");
        assert!(ignem.memory_read_fraction() > 0.0);
    }

    #[test]
    fn sort_experiment_runs() {
        let cfg = ClusterConfig::default();
        let m = run_sort(&cfg, FsMode::Hdfs, 2 * GB);
        assert_eq!(m.plans.len(), 1);
        assert!(!m.reduce_task_secs.is_empty());
    }

    #[test]
    fn wordcount_lead_time_hurts_small_inputs() {
        let cfg = ClusterConfig::default();
        let plain = run_wordcount(&cfg, FsMode::Ignem, 1, SimDuration::ZERO);
        let delayed = run_wordcount(&cfg, FsMode::Ignem, 1, SimDuration::from_secs(10));
        // At 1 GB the sleep dominates (Fig. 8's Ignem+10s < HDFS point).
        assert!(
            delayed.mean_plan_duration() > plain.mean_plan_duration() + 8.0,
            "sleep must count against the job: {} vs {}",
            delayed.mean_plan_duration(),
            plain.mean_plan_duration()
        );
    }

    #[test]
    fn hive_runs_all_queries() {
        let cfg = ClusterConfig::default();
        let queries: Vec<HiveQuery> = ignem_workloads::tpcds::fig9_queries()
            .into_iter()
            .take(3)
            .collect();
        let m = run_hive(&cfg, FsMode::Ignem, &queries);
        assert_eq!(m.plans.len(), 3);
        // Stage jobs exceed query count (multi-stage queries).
        assert!(m.jobs.len() > 3);
    }

    #[test]
    fn read_micro_produces_block_reads() {
        let cfg = ClusterConfig::default();
        let m = run_read_micro(&cfg, FsMode::Hdfs, 6, 4);
        assert_eq!(m.block_reads.len(), 24);
        assert!(m.block_reads.iter().all(|r| r.bytes == 64 * 1024 * 1024));
        let _ = 512 * MB; // keep units import honest
    }
}
