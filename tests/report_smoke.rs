//! Smoke tests for the report harness: sections render, CSVs land on disk,
//! and repeated generation is byte-identical (the reproducibility promise
//! EXPERIMENTS.md makes).

use ignem_repro::bench::{Report, REPORT_SEED};
use ignem_repro::cluster::chaos::fingerprint;
use ignem_repro::cluster::config::FsMode;
use ignem_repro::cluster::experiment::run_swim;
use ignem_repro::cluster::metrics::{ReadKind, RunMetrics};
use ignem_repro::core::policy::Policy;
use ignem_repro::simcore::rng::SimRng;
use ignem_repro::workloads::swim::{SwimConfig, SwimTrace};

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
