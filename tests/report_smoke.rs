//! Smoke tests for the report harness: sections render, CSVs land on disk,
//! and repeated generation is byte-identical (the reproducibility promise
//! EXPERIMENTS.md makes).

use ignem_repro::bench::{Report, REPORT_SEED};
use ignem_repro::cluster::chaos::fingerprint;
use ignem_repro::cluster::config::FsMode;
use ignem_repro::cluster::experiment::{
    run_hive, run_iterative, run_read_micro, run_rereads, run_sort, run_swim, run_swim_with,
    run_wordcount,
};
use ignem_repro::cluster::metrics::{ReadKind, RunMetrics};
use ignem_repro::core::command::EvictionMode;
use ignem_repro::core::policy::Policy;
use ignem_repro::simcore::rng::SimRng;
use ignem_repro::simcore::time::SimDuration;
use ignem_repro::simcore::units::GB;
use ignem_repro::storage::device::DeviceProfile;
use ignem_repro::workloads::iterative::IterativeJob;
use ignem_repro::workloads::jobs::WORDCOUNT_SWEEP_GB;
use ignem_repro::workloads::swim::{SwimConfig, SwimTrace};
use ignem_repro::workloads::tpcds::fig9_queries;

fn out_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ignem-report-smoke-{tag}"))
}

#[test]
fn table1_renders_and_writes_csv() {
    let dir = out_dir("t1");
    let mut r = Report::new(&dir);
    let s = r.table1();
    assert_eq!(s.id, "table1");
    assert!(s.text.contains("HDFS"));
    assert!(s.text.contains("Ignem"));
    let csv = std::fs::read_to_string(dir.join("table1_swim_job_duration.csv")).unwrap();
    assert!(csv.starts_with("config,mean_job_secs,speedup_vs_hdfs_pct"));
    assert_eq!(csv.lines().count(), 4);
}

#[test]
fn report_generation_is_reproducible() {
    let (da, db) = (out_dir("a"), out_dir("b"));
    let mut a = Report::new(&da);
    let mut b = Report::new(&db);
    assert_eq!(a.table1().text, b.table1().text);
    assert_eq!(a.fig3().text, b.fig3().text);
    let ca = std::fs::read_to_string(da.join("fig3_read_to_lead_cdf.csv")).unwrap();
    let cb = std::fs::read_to_string(db.join("fig3_read_to_lead_cdf.csv")).unwrap();
    assert_eq!(ca, cb);
}

#[test]
fn ablation_sections_render() {
    let mut r = Report::new(out_dir("abl"));
    let s = r.ablation_eviction();
    assert!(s.text.contains("explicit"));
    assert!(s.text.contains("implicit"));
    let s = r.extension_caching();
    assert!(s.text.contains("LRU cache"));
}

/// FNV-1a folded over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hashes what a paper section reads from one SWIM run: the chaos
/// fingerprint (jobs, plans, task means, read sizes and times, slave,
/// master and ledger counters) plus what it leaves out, namely each block
/// read's serving medium (Fig. 6) and every point of the two occupancy
/// series (Fig. 7), as integer microseconds and exact `f64` bits.
fn swim_run_hash(m: &RunMetrics) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.u64(fingerprint(m));
    for r in &m.block_reads {
        h.u64(match r.kind {
            ReadKind::Memory => 0,
            ReadKind::LocalDisk => 1,
            ReadKind::RemoteDisk => 2,
        });
    }
    for series in [&m.mem_series, &m.hypothetical_series] {
        h.u64(series.len() as u64);
        for node in series {
            h.u64(node.len() as u64);
            for &(at, bytes) in node {
                h.u64(at.as_micros());
                h.u64(bytes.to_bits());
            }
        }
    }
    h.0
}

/// The four SWIM runs `Report` shares across Tables I–II, Figs. 5–7 and
/// the §IV-C5 ablation, on the report's own configuration and trace:
/// HDFS, Ignem, HDFS-Inputs-in-RAM and Ignem with FIFO migration queues.
fn report_swim_hashes() -> [u64; 4] {
    let report = Report::new(out_dir("pin"));
    let cfg = report.config();
    let trace = SwimTrace::generate(&SwimConfig::default(), &mut SimRng::new(REPORT_SEED));
    [
        run_swim(cfg, FsMode::Hdfs, &trace, None),
        run_swim(cfg, FsMode::Ignem, &trace, None),
        run_swim(cfg, FsMode::HdfsInputsInRam, &trace, None),
        run_swim(cfg, FsMode::Ignem, &trace, Some(Policy::Fifo)),
    ]
    .map(|m| swim_run_hash(&m))
}

/// Hashes of the report's SWIM runs; a moved paper number in Tables I–II,
/// Figs. 5–7 or the §IV-C5 ablation changes one of them.
const REPORT_SWIM_GOLDEN: [u64; 4] = [
    0x7144_16b7_17e7_eb86,
    0x3973_126b_a528_d6e8,
    0xf5e3_78db_505c_9c78,
    0x0da3_717e_75b8_f276,
];

#[test]
fn report_swim_runs_are_pinned() {
    let got = report_swim_hashes();
    assert_eq!(
        got, REPORT_SWIM_GOLDEN,
        "report SWIM runs moved: {:#018x?}",
        got
    );
}

/// Folds per-run hashes (and any extra words) into one section hash.
fn fold(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for w in words {
        h.u64(w);
    }
    h.0
}

/// Hashes a section that runs no world: its text and its CSV file.
fn section_hash(text: &str, csv: &std::path::Path) -> u64 {
    let csv = std::fs::read(csv).unwrap();
    fold(text.bytes().chain(csv).map(u64::from))
}

/// One hash per report section outside the SWIM pin, each over the world
/// runs that section makes, with the parameters `Report` uses: reduce
/// stages (Table III), multi-stage plans (Fig. 9, the iterative
/// extension), cached inputs and the page cache (the caching extension).
/// Figs. 3–4 run no world, so their text and CSV are hashed instead.
fn report_world_hashes() -> [(&'static str, u64); 8] {
    let dir = out_dir("pin-world");
    let mut report = Report::new(&dir);
    let cfg = report.config().clone();
    let hash = |m: RunMetrics| swim_run_hash(&m);

    let mut ssd = cfg.clone();
    ssd.disk = DeviceProfile::ssd();
    let micro = fold([
        hash(run_read_micro(&cfg, FsMode::Hdfs, 24, 8)),
        hash(run_read_micro(&ssd, FsMode::Hdfs, 24, 8)),
        hash(run_read_micro(&cfg, FsMode::HdfsInputsInRam, 24, 8)),
    ]);

    let modes = [FsMode::Hdfs, FsMode::Ignem, FsMode::HdfsInputsInRam];
    let sort = fold(modes.map(|mode| hash(run_sort(&cfg, mode, 40 * GB))));

    let mut contended = cfg.clone();
    contended.disk = DeviceProfile::hdd_contended();
    let lead = SimDuration::from_secs(10);
    let wordcount = fold(WORDCOUNT_SWEEP_GB.iter().flat_map(|&gb| {
        [
            (FsMode::Hdfs, SimDuration::ZERO),
            (FsMode::Ignem, SimDuration::ZERO),
            (FsMode::Ignem, lead),
            (FsMode::HdfsInputsInRam, SimDuration::ZERO),
        ]
        .map(|(mode, extra)| hash(run_wordcount(&contended, mode, gb, extra)))
    }));

    let queries = fig9_queries();
    let hive = fold([FsMode::Hdfs, FsMode::Ignem].map(|mode| hash(run_hive(&cfg, mode, &queries))));

    let files = |p: &str| -> Vec<String> { (0..4).map(|i| format!("{p}/part-{i}")).collect() };
    let jobs = [
        IterativeJob::logistic_regression(files("/ml/lr"), 8 * GB, 6),
        IterativeJob::kmeans(files("/ml/km"), 8 * GB, 6),
    ];
    let iterative = fold(jobs.iter().flat_map(|job| {
        [FsMode::Hdfs, FsMode::Ignem].map(|mode| hash(run_iterative(&cfg, mode, job)))
    }));

    let mut cache = cfg.clone();
    cache.cache_reads = true;
    let caching = fold(
        [
            (&cfg, FsMode::Hdfs),
            (&cache, FsMode::Hdfs),
            (&cfg, FsMode::Ignem),
        ]
        .into_iter()
        .flat_map(|(c, mode)| {
            let (m, first, repeat) = run_rereads(c, mode, 8, 2 * GB);
            [hash(m), first.to_bits(), repeat.to_bits()]
        }),
    );

    let fig3 = report.fig3();
    let fig3 = section_hash(&fig3.text, &dir.join("fig3_read_to_lead_cdf.csv"));
    let fig4 = report.fig4();
    let fig4 = section_hash(&fig4.text, &dir.join("fig4_disk_utilization.csv"));

    [
        ("fig1-2", micro),
        ("fig3", fig3),
        ("fig4", fig4),
        ("table3", sort),
        ("fig8", wordcount),
        ("fig9", hive),
        ("extension-iterative", iterative),
        ("extension-caching", caching),
    ]
}

/// Hashes of the report's sections outside the SWIM pin; a moved paper
/// number in Figs. 1–4, Table III, Figs. 8–9 or the iterative and caching
/// extensions changes one of them.
const REPORT_WORLD_GOLDEN: [(&str, u64); 8] = [
    ("fig1-2", 0x1cef_e383_be5c_6e4d),
    ("fig3", 0x4a73_7803_38e4_1b1f),
    ("fig4", 0x5bf2_16dd_b59f_194d),
    ("table3", 0xa1e6_a23d_dad4_7338),
    ("fig8", 0xb934_5e35_4782_5449),
    ("fig9", 0xa002_ff13_f72f_3608),
    ("extension-iterative", 0xce36_fbc1_d788_9a79),
    ("extension-caching", 0xf6ae_a388_7fbd_5906),
];

#[test]
fn report_world_runs_are_pinned() {
    let got = report_world_hashes();
    assert_eq!(
        got, REPORT_WORLD_GOLDEN,
        "report world runs moved: {:#018x?}",
        got
    );
}

/// One hash per extended ablation and `extension-benefit`, over the SWIM
/// runs each section makes on the report's configuration and trace. The
/// default-configuration rows are the runs the SWIM pin already covers,
/// so only the varied rows run here. They vary how many blocks sit in
/// memory when a task is picked: migration concurrency and replica count,
/// eviction mode, heartbeat interval, compute jitter and migration order.
fn report_ablation_hashes() -> [(&'static str, u64); 6] {
    let report = Report::new(out_dir("pin-ablation"));
    let cfg = report.config();
    let trace = SwimTrace::generate(&SwimConfig::default(), &mut SimRng::new(REPORT_SEED));
    let ignem = |c: &_, evict| swim_run_hash(&run_swim_with(c, FsMode::Ignem, &trace, evict));
    let both = |c: &_| {
        [FsMode::Hdfs, FsMode::Ignem].map(|mode| swim_run_hash(&run_swim(c, mode, &trace, None)))
    };

    let concurrency = fold([2usize, 4, 8].map(|k| {
        let mut c = cfg.clone();
        c.ignem.max_concurrent_migrations = k;
        ignem(&c, EvictionMode::Explicit)
    }));
    let replicas = fold([2usize, 3].map(|k| {
        let mut c = cfg.clone();
        c.master.replicas_to_migrate = k;
        ignem(&c, EvictionMode::Explicit)
    }));
    let eviction = fold([ignem(cfg, EvictionMode::Implicit)]);
    let heartbeat = fold([1u64, 6].into_iter().flat_map(|secs| {
        let mut c = cfg.clone();
        c.compute.heartbeat = SimDuration::from_secs(secs);
        both(&c)
    }));
    let jitter = fold([0.3f64, 0.6].into_iter().flat_map(|sigma| {
        let mut c = cfg.clone();
        c.compute.compute_jitter_sigma = sigma;
        both(&c)
    }));
    let benefit = fold([1u64, 4, 16].map(|gb| {
        let policy = Policy::BenefitAware {
            sweet_spot_bytes: gb * GB,
        };
        swim_run_hash(&run_swim(cfg, FsMode::Ignem, &trace, Some(policy)))
    }));

    [
        ("ablation-concurrency", concurrency),
        ("ablation-replicas", replicas),
        ("ablation-eviction", eviction),
        ("ablation-heartbeat", heartbeat),
        ("ablation-jitter", jitter),
        ("extension-benefit", benefit),
    ]
}

/// Hashes of the extended ablations' and `extension-benefit`'s varied
/// runs; a moved number in any of those sections changes one of them.
const REPORT_ABLATION_GOLDEN: [(&str, u64); 6] = [
    ("ablation-concurrency", 0x0a1e_79cc_e5c4_a0cb),
    ("ablation-replicas", 0xf48f_5f7a_8542_bb36),
    ("ablation-eviction", 0x00ef_401a_f5a1_4f51),
    ("ablation-heartbeat", 0xe9d3_4dbe_ff5d_3ef2),
    ("ablation-jitter", 0xc270_a45c_8dce_39db),
    ("extension-benefit", 0xa3ea_2a5b_5d44_be47),
];

#[test]
fn report_ablation_runs_are_pinned() {
    let got = report_ablation_hashes();
    assert_eq!(
        got, REPORT_ABLATION_GOLDEN,
        "report ablation runs moved: {:#018x?}",
        got
    );
}
