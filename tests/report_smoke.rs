//! Smoke tests for the report harness: sections render, CSVs land on disk,
//! repeated generation is byte-identical (the reproducibility promise
//! EXPERIMENTS.md makes), and the committed `results/*.csv` and
//! EXPERIMENTS.md's measured cells match a fresh run.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use ignem_repro::bench::{Report, REPORT_SEED, SECTIONS};
use ignem_repro::cluster::chaos::fingerprint;
use ignem_repro::cluster::config::FsMode;
use ignem_repro::cluster::experiment::{
    run_hive, run_iterative, run_read_micro, run_rereads, run_sort, run_swim, run_swim_observed,
    run_swim_with, run_wordcount,
};
use ignem_repro::cluster::explain::TelemetryReport;
use ignem_repro::cluster::metrics::{ReadKind, RunMetrics};
use ignem_repro::core::command::EvictionMode;
use ignem_repro::core::policy::Policy;
use ignem_repro::simcore::perfetto;
use ignem_repro::simcore::rng::SimRng;
use ignem_repro::simcore::span::SpanForest;
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
    assert!(s.contains("HDFS"));
    assert!(s.contains("Ignem"));
    let csv = std::fs::read_to_string(dir.join("table1_swim_job_duration.csv")).unwrap();
    assert!(csv.starts_with("config,mean_job_secs,speedup_vs_hdfs_pct"));
    assert_eq!(csv.lines().count(), 4);
}

#[test]
fn report_generation_is_reproducible() {
    let (da, db) = (out_dir("a"), out_dir("b"));
    let mut a = Report::new(&da);
    let mut b = Report::new(&db);
    assert_eq!(a.table1(), b.table1());
    assert_eq!(a.fig3(), b.fig3());
    let ca = std::fs::read_to_string(da.join("fig3_read_to_lead_cdf.csv")).unwrap();
    let cb = std::fs::read_to_string(db.join("fig3_read_to_lead_cdf.csv")).unwrap();
    assert_eq!(ca, cb);
}

#[test]
fn ablation_sections_render() {
    let mut r = Report::new(out_dir("abl"));
    let s = r.ablation_eviction();
    assert!(s.contains("explicit"));
    assert!(s.contains("implicit"));
    let s = r.extension_caching();
    assert!(s.contains("LRU cache"));
}

/// FNV-1a folded over bytes, or over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
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
    let fig3 = section_hash(&fig3, &dir.join("fig3_read_to_lead_cdf.csv"));
    let fig4 = report.fig4();
    let fig4 = section_hash(&fig4, &dir.join("fig4_disk_utilization.csv"));

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

/// FNV-1a of a text.
fn text_hash(text: &str) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.bytes(text.as_bytes());
    h.0
}

/// What the telemetry section folds out of the Table I Ignem stream, run
/// as `Report::telemetry` runs it, for the whole stream and for the two
/// suffixes that evicting its first third and its first two thirds from
/// the flight recorder's ring would leave. Per stream: the span count and
/// hashes of the canonical span lines, of the Perfetto export with the
/// metric windows, and of the `{:?}` renderings of the explainer's report
/// and of the critical path.
fn report_telemetry_hashes() -> [[u64; 5]; 3] {
    let report = Report::new(out_dir("pin-telemetry"));
    let trace = SwimTrace::generate(&SwimConfig::default(), &mut SimRng::new(REPORT_SEED));
    let window = SimDuration::from_secs(10);
    let (_, recorder, windows) =
        run_swim_observed(report.config(), FsMode::Ignem, &trace, 1 << 22, window);
    assert_eq!(
        recorder.dropped(),
        0,
        "the recorder must hold the whole run"
    );
    let events = recorder.events();
    let n = events.len();
    [0, n / 3, 2 * n / 3].map(|from| {
        let stream = &events[from..];
        let forest = SpanForest::build(stream);
        [
            forest.spans.len() as u64,
            text_hash(&forest.canonical_lines()),
            text_hash(&perfetto::export(&forest, Some(&windows))),
            text_hash(&format!("{:?}", TelemetryReport::from_events(stream))),
            text_hash(&format!("{:?}", forest.critical_path())),
        ]
    })
}

/// Span counts and hashes of the telemetry section's folds and export;
/// a changed span, verdict, lead time, leak, re-ignition, critical-path
/// sum or Perfetto byte changes one of them.
const REPORT_TELEMETRY_GOLDEN: [[u64; 5]; 3] = [
    [
        16055,
        0x3922_f4af_2a2c_93db,
        0x30ff_8b7e_f8aa_f51a,
        0xe548_ccc2_0948_0588,
        0x2f33_9f6c_eb25_e2f4,
    ],
    [
        10730,
        0x733f_e272_4632_0562,
        0x57fa_b51f_52db_aa90,
        0x2629_04b7_7f24_4ffc,
        0xdf94_591c_6996_4632,
    ],
    [
        5261,
        0xc0b4_b443_73de_1d21,
        0xab59_22d8_c389_6cab,
        0x78d0_4588_84ae_cbec,
        0xcaf9_1c78_53a3_2086,
    ],
];

#[test]
fn report_telemetry_folds_are_pinned() {
    let got = report_telemetry_hashes();
    assert_eq!(
        got, REPORT_TELEMETRY_GOLDEN,
        "report telemetry folds moved: {:#018x?}",
        got
    );
}

/// Whether `name` is one of the telemetry section's run artifacts, which
/// `.gitignore` keeps out of the committed `results/`.
fn is_run_artifact(name: &str) -> bool {
    name.starts_with("metrics_windows.")
        || (name.starts_with("telemetry_") && name.ends_with(".csv"))
}

/// The contents of every `.csv` file in `dir` but the run artifacts, by
/// file name.
fn paper_csvs(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?.to_string();
            (name.ends_with(".csv") && !is_run_artifact(&name))
                .then(|| (name, std::fs::read(&path).expect("read csv")))
        })
        .collect()
}

/// The numbers in `text`: its runs of ASCII digits and inner `.`s. Signs
/// and units are not part of a number, so `−16.9%` and `-16.9%` both hold
/// `16.9`, and a sentence's closing `.` is dropped.
fn numbers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_ascii_digit() && c != '.')
        .map(|s| s.trim_matches('.'))
        .filter(|s| !s.is_empty())
}

/// A table row of a Markdown file: its line number, the report section it
/// names and its measured cells.
struct MeasuredRow<'a> {
    line: usize,
    section: &'static str,
    cells: Vec<&'a str>,
}

/// Every table row of `md`, the text of the file `name`. Each row must
/// name exactly one report section by its id in backticks. Its measured cells are those under a
/// `Measured` or `Result` header; in a table with neither (the Fig. 8
/// series), every cell but the one that names the section.
fn measured_rows<'a>(name: &str, md: &'a str) -> Vec<MeasuredRow<'a>> {
    let mut rows = Vec::new();
    let mut header: Option<Vec<&str>> = None;
    for (i, line) in md.lines().enumerate() {
        if !line.starts_with('|') {
            header = None;
            continue;
        }
        let cells: Vec<&str> = line
            .trim()
            .trim_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        let Some(head) = &header else {
            header = Some(cells);
            continue;
        };
        if line.starts_with("|---") {
            continue;
        }
        let named: Vec<(usize, &'static str)> = cells
            .iter()
            .enumerate()
            .flat_map(|(k, cell)| {
                SECTIONS
                    .iter()
                    .filter(move |(id, _)| cell.contains(&format!("`{id}`")))
                    .map(move |&(id, _)| (k, id))
            })
            .collect();
        let [(at, section)] = named[..] else {
            panic!(
                "{name}:{}: a table row must name one report section in backticks, \
                 found {named:?}: {line}",
                i + 1
            );
        };
        let measured_header = |h: &&str| h.starts_with("Measured") || *h == "Result";
        let cells = if head.iter().any(measured_header) {
            cells
                .iter()
                .zip(head)
                .filter(|(_, h)| measured_header(h))
                .map(|(c, _)| *c)
                .collect()
        } else {
            cells
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != at)
                .map(|(_, c)| *c)
                .collect()
        };
        rows.push(MeasuredRow {
            line: i + 1,
            section,
            cells,
        });
    }
    rows
}

/// README.md with every line blanked but the rows of its "Headline
/// results" table, so that the table keeps its line numbers.
fn headline_table(readme: &str) -> String {
    let mut in_section = false;
    readme
        .lines()
        .map(|line| {
            if line.starts_with("## ") {
                in_section = line.starts_with("## Headline results");
            }
            if in_section && line.starts_with('|') {
                line
            } else {
                ""
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The numbers in the measured cells of `md`, the text of the file
/// `name`, that the section their row names does not print.
fn unprinted_numbers(name: &str, md: &str, texts: &BTreeMap<&str, &str>) -> Vec<String> {
    let rows = measured_rows(name, md);
    assert!(!rows.is_empty(), "{name} has no measured rows");
    let mut missing = Vec::new();
    for row in &rows {
        let printed: BTreeSet<&str> = numbers(texts[row.section]).collect();
        let cited: Vec<&str> = row.cells.iter().flat_map(|c| numbers(c)).collect();
        assert!(
            !cited.is_empty(),
            "{name}:{}: measured cells hold no number: {:?}",
            row.line,
            row.cells
        );
        for n in cited {
            if !printed.contains(n) {
                missing.push(format!(
                    "{name}:{}: {n} is not in section `{}`",
                    row.line, row.section
                ));
            }
        }
    }
    missing
}

/// Runs every section once and holds the committed paper numbers to it:
/// each committed `results/*.csv` must equal the fresh run's file byte for
/// byte (and the run may write no CSV that is not committed), and every
/// number in a measured cell of EXPERIMENTS.md, or of README.md's
/// headline table, must appear in the text of the section its row names.
#[test]
fn results_and_experiments_match_a_fresh_report() {
    let dir = out_dir("all");
    let _ = std::fs::remove_dir_all(&dir);
    let sections = Report::new(&dir).all();

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let fresh = paper_csvs(&dir);
    let committed = paper_csvs(&root.join("results"));
    assert_eq!(
        fresh.keys().collect::<Vec<_>>(),
        committed.keys().collect::<Vec<_>>(),
        "the report's CSV files differ from the committed results/"
    );
    let stale: Vec<&String> = fresh
        .iter()
        .filter(|(name, bytes)| committed[*name] != **bytes)
        .map(|(name, _)| name)
        .collect();
    assert!(
        stale.is_empty(),
        "committed results/ differ from a fresh report run: {stale:?}"
    );

    let read = |name: &str| {
        std::fs::read_to_string(root.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"))
    };
    let texts: BTreeMap<&str, &str> = sections
        .iter()
        .map(|(id, text)| (*id, text.as_str()))
        .collect();
    let mut missing = unprinted_numbers("EXPERIMENTS.md", &read("EXPERIMENTS.md"), &texts);
    missing.extend(unprinted_numbers(
        "README.md",
        &headline_table(&read("README.md")),
        &texts,
    ));
    assert!(
        missing.is_empty(),
        "the docs cite numbers the report does not print:\n{}",
        missing.join("\n")
    );
}
