//! Repository-level integration tests: the headline paper claims must hold
//! on every build, end to end, across all crates.

use ignem_repro::cluster::config::{ClusterConfig, FsMode};
use ignem_repro::cluster::experiment::{
    run_hive, run_read_micro, run_sort, run_swim, run_wordcount,
};
use ignem_repro::core::policy::Policy;
use ignem_repro::simcore::rng::SimRng;
use ignem_repro::simcore::time::SimDuration;
use ignem_repro::simcore::units::GB;
use ignem_repro::storage::device::DeviceProfile;
use ignem_repro::workloads::google::GoogleTrace;
use ignem_repro::workloads::swim::{SwimConfig, SwimTrace};
use ignem_repro::workloads::tpcds::fig9_queries;

fn swim_trace(jobs: usize) -> SwimTrace {
    let cfg = SwimConfig {
        jobs,
        total_input: (170 * GB) * jobs as u64 / 200,
        ..SwimConfig::default()
    };
    SwimTrace::generate(&cfg, &mut SimRng::new(20180615))
}

/// Table I's claim: Ignem lands between HDFS and the in-RAM upper bound,
/// realising a substantial fraction of it.
#[test]
fn swim_speedup_ordering_and_fraction() {
    let cfg = ClusterConfig::default();
    let trace = swim_trace(80);
    let hdfs = run_swim(&cfg, FsMode::Hdfs, &trace, None);
    let ignem = run_swim(&cfg, FsMode::Ignem, &trace, None);
    let ram = run_swim(&cfg, FsMode::HdfsInputsInRam, &trace, None);
    let si = ignem.speedup_vs(&hdfs);
    let sr = ram.speedup_vs(&hdfs);
    assert!(si > 0.03, "Ignem speedup too small: {si}");
    assert!(sr > si, "upper bound must beat Ignem: {sr} vs {si}");
    let fraction = si / sr;
    assert!(
        (0.3..1.0).contains(&fraction),
        "Ignem should realise a large fraction of the bound, got {fraction}"
    );
}

/// Table II's claim: mapper tasks accelerate much more than jobs do.
#[test]
fn task_gains_exceed_job_gains() {
    let cfg = ClusterConfig::default();
    let trace = swim_trace(80);
    let hdfs = run_swim(&cfg, FsMode::Hdfs, &trace, None);
    let ignem = run_swim(&cfg, FsMode::Ignem, &trace, None);
    let job_gain = ignem.speedup_vs(&hdfs);
    let task_gain = 1.0 - ignem.mean_map_task_secs() / hdfs.mean_map_task_secs();
    assert!(
        task_gain > 2.0 * job_gain,
        "task gain {task_gain} should dwarf job gain {job_gain}"
    );
}

/// Fig. 6's claim: non-migrated blocks also improve (less contention).
#[test]
fn non_migrated_reads_improve_too() {
    let cfg = ClusterConfig::default();
    let trace = swim_trace(80);
    let hdfs = run_swim(&cfg, FsMode::Hdfs, &trace, None);
    let ignem = run_swim(&cfg, FsMode::Ignem, &trace, None);
    // Mean over DISK reads only, under Ignem, vs all reads under HDFS.
    let disk_reads: Vec<f64> = ignem
        .block_reads
        .iter()
        .filter(|r| r.kind != ignem_repro::cluster::ReadKind::Memory)
        .map(|r| r.secs)
        .collect();
    assert!(!disk_reads.is_empty());
    let mean_disk = disk_reads.iter().sum::<f64>() / disk_reads.len() as f64;
    assert!(
        mean_disk < hdfs.mean_block_read_secs() * 1.05,
        "cold reads under Ignem ({mean_disk:.2}s) should not regress vs HDFS ({:.2}s)",
        hdfs.mean_block_read_secs()
    );
}

/// §IV-C5: smallest-job-first beats FIFO.
#[test]
fn prioritization_helps() {
    let cfg = ClusterConfig::default();
    let trace = swim_trace(120);
    let hdfs = run_swim(&cfg, FsMode::Hdfs, &trace, None);
    let sjf = run_swim(&cfg, FsMode::Ignem, &trace, Some(Policy::SmallestJobFirst));
    let fifo = run_swim(&cfg, FsMode::Ignem, &trace, Some(Policy::Fifo));
    assert!(
        sjf.speedup_vs(&hdfs) >= fifo.speedup_vs(&hdfs) - 1e-9,
        "SJF {} must not lose to FIFO {}",
        sjf.speedup_vs(&hdfs),
        fifo.speedup_vs(&hdfs)
    );
}

/// Table III's ordering for sort.
#[test]
fn sort_ordering() {
    let cfg = ClusterConfig::default();
    let h = run_sort(&cfg, FsMode::Hdfs, 8 * GB).mean_plan_duration();
    let i = run_sort(&cfg, FsMode::Ignem, 8 * GB).mean_plan_duration();
    let r = run_sort(&cfg, FsMode::HdfsInputsInRam, 8 * GB).mean_plan_duration();
    assert!(r < i && i < h, "expected {r} < {i} < {h}");
}

/// Fig. 8's counter-intuitive claim: at a large enough input, *adding 10 s
/// of delay* makes the job faster than not delaying.
#[test]
fn added_delay_can_speed_up_a_job() {
    let cfg = ClusterConfig {
        disk: DeviceProfile::hdd_contended(),
        ..ClusterConfig::default()
    };
    let plain = run_wordcount(&cfg, FsMode::Ignem, 4, SimDuration::ZERO);
    let delayed = run_wordcount(&cfg, FsMode::Ignem, 4, SimDuration::from_secs(10));
    assert!(
        delayed.mean_plan_duration() < plain.mean_plan_duration(),
        "+10s ({:.1}s) should beat plain Ignem ({:.1}s) at 4GB",
        delayed.mean_plan_duration(),
        plain.mean_plan_duration()
    );
    // ...but hurt at 1 GB, where the input fits the natural lead-time.
    let plain1 = run_wordcount(&cfg, FsMode::Ignem, 1, SimDuration::ZERO);
    let delayed1 = run_wordcount(&cfg, FsMode::Ignem, 1, SimDuration::from_secs(10));
    assert!(delayed1.mean_plan_duration() > plain1.mean_plan_duration());
}

/// Fig. 9: every Hive query gains; the biggest inputs gain the least.
#[test]
fn hive_queries_all_gain() {
    let cfg = ClusterConfig::default();
    let queries = fig9_queries();
    let h = run_hive(&cfg, FsMode::Hdfs, &queries);
    let i = run_hive(&cfg, FsMode::Ignem, &queries);
    let speedups: Vec<f64> = h
        .plans
        .iter()
        .zip(&i.plans)
        .map(|(qh, qi)| 1.0 - qi.duration / qh.duration)
        .collect();
    assert!(speedups.iter().all(|&s| s > 0.0), "{speedups:?}");
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    assert!((0.1..0.35).contains(&avg), "avg speedup {avg}");
    // The large-input tail gains less than the best small query.
    let best_small = speedups[..7].iter().cloned().fold(0.0, f64::max);
    let tail_max = speedups[7..].iter().cloned().fold(0.0, f64::max);
    assert!(tail_max < best_small, "{tail_max} vs {best_small}");
}

/// Fig. 1/2: the three media separate cleanly under identical workloads.
#[test]
fn media_ordering_under_concurrency() {
    let cfg = ClusterConfig::default();
    let hdd = run_read_micro(&cfg, FsMode::Hdfs, 24, 8);
    let mut ssd_cfg = cfg.clone();
    ssd_cfg.disk = DeviceProfile::ssd();
    let ssd = run_read_micro(&ssd_cfg, FsMode::Hdfs, 24, 8);
    let ram = run_read_micro(&cfg, FsMode::HdfsInputsInRam, 24, 8);
    let (h, s, r) = (
        hdd.mean_block_read_secs(),
        ssd.mean_block_read_secs(),
        ram.mean_block_read_secs(),
    );
    assert!(h / r > 20.0, "HDD/RAM ratio too small: {}", h / r);
    assert!(s / r > 2.0, "SSD/RAM ratio too small: {}", s / r);
    assert!(h > s && s > r);
}

/// Fig. 3: the synthetic Google trace reproduces the 81% sufficiency.
#[test]
fn google_trace_sufficiency() {
    let t = GoogleTrace::generate(&mut SimRng::new(99));
    let frac = t.lead_time_sufficiency();
    assert!((frac - 0.81).abs() < 0.03, "sufficiency {frac}");
}

/// Determinism across the whole stack: same seed, same everything.
#[test]
fn whole_stack_determinism() {
    let cfg = ClusterConfig::default();
    let trace = swim_trace(40);
    let a = run_swim(&cfg, FsMode::Ignem, &trace, None);
    let b = run_swim(&cfg, FsMode::Ignem, &trace, None);
    assert_eq!(a.plans, b.plans);
    assert_eq!(a.jobs, b.jobs);
    assert_eq!(a.slave_stats, b.slave_stats);
    assert_eq!(a.makespan, b.makespan);
}
