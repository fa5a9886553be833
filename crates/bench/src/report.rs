//! Regenerates every table and figure of the paper's evaluation.
//!
//! Each section function runs the corresponding experiment on the
//! simulated cluster, returns a human-readable text block, and writes the
//! figure's raw series, if it has one, as CSV under the output directory.
//! [`SECTIONS`] lists every section by id; [`Report::all`] and the
//! `report` binary read it. This is the only code that computes a paper
//! number: `EXPERIMENTS.md` copies the sections' text, and a test holds it
//! and the committed `results/*.csv` to a fresh run.

use std::path::Path;

use ignem_cluster::chaos::{run_chaos_observed, ChaosConfig};
use ignem_cluster::config::{ClusterConfig, FsMode};
use ignem_cluster::experiment::{
    run_hive, run_read_micro, run_sort, run_swim, run_swim_observed, run_wordcount,
};
use ignem_cluster::explain::{reconcile_critical_path, JobLeadTime, LossCause, TelemetryReport};
use ignem_cluster::metrics::RunMetrics;
use ignem_core::policy::Policy;
use ignem_simcore::metrics::MetricsReport;
use ignem_simcore::perfetto;
use ignem_simcore::rng::SimRng;
use ignem_simcore::span::SpanForest;
use ignem_simcore::stats::{Histogram, Samples};
use ignem_simcore::time::{SimDuration, SimTime};
use ignem_simcore::units::{GB, GIB, MIB};
use ignem_storage::device::DeviceProfile;
use ignem_workloads::google::{GoogleTrace, MemorySufficiency, UtilizationTimelines};
use ignem_workloads::swim::{SizeBin, SwimConfig, SwimTrace};
use ignem_workloads::tpcds::fig9_queries;

use crate::csv::{f, write_csv};

/// The seed every report run uses; results are bit-reproducible.
pub const REPORT_SEED: u64 = 20180615;

/// Renders one report section's text.
pub type Render = fn(&mut Report) -> String;

/// Every report section by id, in the order [`Report::all`] renders them:
/// §II, §IV and its §IV-C5 ablation, the extended ablations and
/// extensions, then the telemetry deep-dive. The `report` binary takes
/// its section names and dispatch from this table.
pub const SECTIONS: &[(&str, Render)] = &[
    ("fig1", Report::fig1),
    ("fig2", Report::fig2),
    ("fig3", Report::fig3),
    ("fig4", Report::fig4),
    ("memory-sufficiency", Report::memory_sufficiency),
    ("table1", Report::table1),
    ("fig5", Report::fig5),
    ("table2", Report::table2),
    ("fig6", Report::fig6),
    ("fig7", Report::fig7),
    ("table3", Report::table3),
    ("fig8", Report::fig8),
    ("fig9", Report::fig9),
    ("ablation-priority", Report::ablation_priority),
    ("ablation-concurrency", Report::ablation_concurrency),
    ("ablation-replicas", Report::ablation_replicas),
    ("ablation-eviction", Report::ablation_eviction),
    ("ablation-heartbeat", Report::ablation_heartbeat),
    ("ablation-jitter", Report::ablation_jitter),
    ("extension-benefit", Report::extension_benefit_aware),
    ("extension-iterative", Report::extension_iterative),
    ("extension-caching", Report::extension_caching),
    ("telemetry", Report::telemetry),
];

/// Shared context: configuration, the SWIM trace and the (lazily run)
/// SWIM results reused across Tables I–II, Figs. 5–7 and the ablation.
pub struct Report {
    cfg: ClusterConfig,
    out: std::path::PathBuf,
    trace: SwimTrace,
    swim: Option<SwimBundle>,
    trace_out: Option<std::path::PathBuf>,
    perfetto_out: Option<std::path::PathBuf>,
    perfetto_chaos: Option<u64>,
}

/// The fixed metric-aggregation window every report run uses.
const METRICS_WINDOW: SimDuration = SimDuration::from_secs(10);

struct SwimBundle {
    hdfs: RunMetrics,
    ignem: RunMetrics,
    ram: RunMetrics,
    ignem_fifo: RunMetrics,
}

impl Report {
    /// Creates a report context writing CSVs under `out`.
    pub fn new(out: impl AsRef<Path>) -> Self {
        let cfg = ClusterConfig {
            seed: REPORT_SEED,
            ..ClusterConfig::default()
        };
        let trace = SwimTrace::generate(&SwimConfig::default(), &mut SimRng::new(REPORT_SEED));
        Report {
            cfg,
            out: out.as_ref().to_path_buf(),
            trace,
            swim: None,
            trace_out: None,
            perfetto_out: None,
            perfetto_chaos: None,
        }
    }

    /// The cluster configuration used for every experiment.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Sets the path where [`telemetry`](Report::telemetry) additionally
    /// writes the raw event stream as JSONL (the `--trace-out` flag).
    pub fn set_trace_out(&mut self, path: impl AsRef<Path>) {
        self.trace_out = Some(path.as_ref().to_path_buf());
    }

    /// Sets the path where [`telemetry`](Report::telemetry) writes the
    /// run's span trees and metric tracks as Chrome trace-event JSON for
    /// <https://ui.perfetto.dev> (the `--perfetto-out` flag).
    pub fn set_perfetto_out(&mut self, path: impl AsRef<Path>) {
        self.perfetto_out = Some(path.as_ref().to_path_buf());
    }

    /// Exports the Perfetto trace from the given chaos seed instead of
    /// the Table I SWIM run (the `--perfetto-chaos SEED` flag).
    pub fn set_perfetto_chaos(&mut self, seed: u64) {
        self.perfetto_chaos = Some(seed);
    }

    fn swim(&mut self) -> &SwimBundle {
        if self.swim.is_none() {
            self.swim = Some(SwimBundle {
                hdfs: run_swim(&self.cfg, FsMode::Hdfs, &self.trace, None),
                ignem: run_swim(&self.cfg, FsMode::Ignem, &self.trace, None),
                ram: run_swim(&self.cfg, FsMode::HdfsInputsInRam, &self.trace, None),
                ignem_fifo: run_swim(&self.cfg, FsMode::Ignem, &self.trace, Some(Policy::Fifo)),
            });
        }
        self.swim.as_ref().expect("just set")
    }

    // ------------------------------------------------------------------
    // Section II figures
    // ------------------------------------------------------------------

    /// Fig. 1: histograms of 64 MB block-read times from HDD, SSD and RAM
    /// under concurrent mappers. Paper: RAM ≈160× HDD, ≈7× SSD.
    pub fn fig1(&mut self) -> String {
        let (hdd, ssd, ram) = self.read_micro_runs();
        let mean = |m: &RunMetrics| m.mean_block_read_secs();
        let (mh, ms, mr) = (mean(&hdd), mean(&ssd), mean(&ram));

        let mut rows = Vec::new();
        for (name, m) in [("hdd", &hdd), ("ssd", &ssd), ("ram", &ram)] {
            let max = m.block_reads.iter().map(|r| r.secs).fold(0.0, f64::max);
            let mut h = Histogram::uniform(0.0, (max * 1.001).max(1e-6), 20);
            for r in &m.block_reads {
                h.record(r.secs);
            }
            let rel = h.relative();
            for (i, freq) in rel.iter().enumerate() {
                rows.push(vec![
                    name.to_string(),
                    f(h.edges()[i], 4),
                    f(h.edges()[i + 1], 4),
                    f(*freq, 4),
                ]);
            }
        }
        write_csv(
            &self.out,
            "fig1_block_read_hist",
            &["medium", "lo_s", "hi_s", "freq"],
            &rows,
        );

        format!(
            "Fig. 1 — 64MB block-read times under concurrent mappers\n\
             mean HDD {mh:.3}s   mean SSD {ms:.3}s   mean RAM {mr:.4}s\n\
             RAM is {:.0}x faster than HDD (paper: ~160x)\n\
             RAM is {:.1}x faster than SSD (paper: ~7x)",
            mh / mr,
            ms / mr
        )
    }

    /// Fig. 2: CDF of mapper task runtimes on the three media.
    /// Paper: RAM average ≈23× smaller than HDD.
    pub fn fig2(&mut self) -> String {
        let (hdd, ssd, ram) = self.read_micro_runs();
        let mut rows = Vec::new();
        let mut means = Vec::new();
        for (name, m) in [("hdd", &hdd), ("ssd", &ssd), ("ram", &ram)] {
            let mut s = m.map_task_secs.clone();
            means.push((name, s.mean()));
            for (v, p) in s.cdf_points(64) {
                rows.push(vec![name.to_string(), f(v, 4), f(p, 4)]);
            }
        }
        write_csv(
            &self.out,
            "fig2_task_runtime_cdf",
            &["medium", "secs", "cdf"],
            &rows,
        );
        let mh = means[0].1;
        let mr = means[2].1;
        format!(
            "Fig. 2 — mapper task runtime CDF\n\
             mean task: HDD {:.2}s  SSD {:.2}s  RAM {:.2}s\n\
             RAM tasks are {:.0}x faster than HDD (paper: ~23x)",
            means[0].1,
            means[1].1,
            means[2].1,
            mh / mr
        )
    }

    fn read_micro_runs(&self) -> (RunMetrics, RunMetrics, RunMetrics) {
        // A SWIM-like level of read concurrency: 24 concurrent map-only
        // jobs of 8 blocks each.
        let hdd = run_read_micro(&self.cfg, FsMode::Hdfs, 24, 8);
        let mut ssd_cfg = self.cfg.clone();
        ssd_cfg.disk = DeviceProfile::ssd();
        let ssd = run_read_micro(&ssd_cfg, FsMode::Hdfs, 24, 8);
        let ram = run_read_micro(&self.cfg, FsMode::HdfsInputsInRam, 24, 8);
        (hdd, ssd, ram)
    }

    /// Fig. 3: lead-time sufficiency in the (synthetic) Google trace.
    /// Paper: 81% of jobs have lead-time ≥ read-time.
    pub fn fig3(&mut self) -> String {
        let trace = GoogleTrace::generate(&mut SimRng::new(REPORT_SEED));
        let sufficiency = trace.lead_time_sufficiency();
        let (mean_lead, median_lead) = trace.lead_time_stats();
        let mut ratios = trace.read_to_lead_ratios();
        let rows: Vec<Vec<String>> = ratios
            .cdf_points(200)
            .into_iter()
            .map(|(v, p)| vec![f(v, 5), f(p, 5)])
            .collect();
        write_csv(
            &self.out,
            "fig3_read_to_lead_cdf",
            &["read_over_lead", "cdf"],
            &rows,
        );
        format!(
            "Fig. 3 — lead-time vs read-time (Google-trace statistics)\n\
             queueing time: mean {mean_lead:.1}s median {median_lead:.1}s (paper: 8.8 / 1.8)\n\
             jobs with lead-time >= read-time: {:.1}% (paper: 81%)",
            sufficiency * 100.0
        )
    }

    /// Fig. 4: per-server disk utilisation over 24 h.
    /// Paper: 40-server mean ≤5% at all times; 3.1% overall daily mean.
    pub fn fig4(&mut self) -> String {
        let u = UtilizationTimelines::generate(&mut SimRng::new(REPORT_SEED));
        let group = u.group_mean_timeline(40);
        let mut rows = Vec::new();
        for (w, &g) in group.iter().enumerate() {
            let t = w as u64 * u.window_secs;
            let mut row = vec![t.to_string(), f(g, 5)];
            for s in 0..10 {
                row.push(f(u.timelines[s][w], 5));
            }
            rows.push(row);
        }
        let mut header: Vec<String> = vec!["t_secs".into(), "mean40".into()];
        header.extend((0..10).map(|s| format!("server{s}")));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        write_csv(&self.out, "fig4_disk_utilization", &header_refs, &rows);
        let peak40 = group.iter().cloned().fold(0.0, f64::max);
        format!(
            "Fig. 4 — disk utilisation over 24h ({} servers)\n\
             overall mean {:.1}% (paper: 3.1%)\n\
             peak of the 40-server mean {:.1}% (paper: <=5%)",
            u.timelines.len(),
            u.overall_mean() * 100.0,
            peak40 * 100.0
        )
    }

    /// §II-C2: the worst-case memory a server needs for migrated inputs,
    /// every concurrent task's block at once. Paper: 50 tasks × 256 MB =
    /// 12.5 GB, in binary units, a small share of server RAM.
    pub fn memory_sufficiency(&mut self) -> String {
        let m = MemorySufficiency::worst_case(50, 256 * MIB, 128 * GIB);
        let gib = |bytes: u64| bytes as f64 / GIB as f64;
        format!(
            "§II-C2 — worst-case memory for migrated inputs\n\
             {} tasks x {} MiB blocks = {:.1} GiB per server (paper: 12.5 GB)\n\
             {:.1}% of a {:.0} GiB server: {}",
            m.tasks_per_server,
            m.block_bytes / MIB,
            gib(m.required_bytes),
            m.ram_fraction() * 100.0,
            gib(m.server_ram_bytes),
            if m.is_sufficient() {
                "sufficient"
            } else {
                "insufficient"
            }
        )
    }

    // ------------------------------------------------------------------
    // SWIM (Tables I–II, Figs. 5–7, ablation)
    // ------------------------------------------------------------------

    /// Table I: mean SWIM job duration per configuration.
    /// Paper: 14.4 / 12.7 (12%) / 11.4 (21%).
    pub fn table1(&mut self) -> String {
        let out = self.out.clone();
        let b = self.swim();
        let (h, i, r) = (
            b.hdfs.mean_plan_duration(),
            b.ignem.mean_plan_duration(),
            b.ram.mean_plan_duration(),
        );
        let si = b.ignem.speedup_vs(&b.hdfs) * 100.0;
        let sr = b.ram.speedup_vs(&b.hdfs) * 100.0;
        write_csv(
            &out,
            "table1_swim_job_duration",
            &["config", "mean_job_secs", "speedup_vs_hdfs_pct"],
            &[
                vec!["HDFS".into(), f(h, 2), "0".into()],
                vec!["Ignem".into(), f(i, 2), f(si, 1)],
                vec!["HDFS-Inputs-in-RAM".into(), f(r, 2), f(sr, 1)],
            ],
        );
        format!(
            "Table I — SWIM mean job duration\n\
             HDFS               {h:.2}s\n\
             Ignem              {i:.2}s  (speedup {si:.1}%, paper 12%)\n\
             HDFS-Inputs-in-RAM {r:.2}s  (speedup {sr:.1}%, paper 21%)\n\
             Ignem realises {:.0}% of the upper bound (paper ~60%)",
            si / sr * 100.0
        )
    }

    /// Fig. 5: mean job-duration reduction by input-size bin.
    /// Paper (Ignem): 8.8% / 7.7% / 25%; RAM large bin ≈60%.
    pub fn fig5(&mut self) -> String {
        let out = self.out.clone();
        let b = self.swim();
        let bins = |m: &RunMetrics| -> [f64; 3] {
            let mut sum = [0.0; 3];
            let mut cnt = [0usize; 3];
            for p in &m.plans {
                let k = match SizeBin::of(p.input_bytes) {
                    SizeBin::Small => 0,
                    SizeBin::Medium => 1,
                    SizeBin::Large => 2,
                };
                sum[k] += p.duration;
                cnt[k] += 1;
            }
            [0, 1, 2].map(|k| {
                if cnt[k] > 0 {
                    sum[k] / cnt[k] as f64
                } else {
                    0.0
                }
            })
        };
        let (bh, bi, br) = (bins(&b.hdfs), bins(&b.ignem), bins(&b.ram));
        let labels = ["<=64MB", "64-512MB", ">512MB"];
        let mut rows = Vec::new();
        for k in 0..3 {
            rows.push(vec![
                labels[k].to_string(),
                f(bh[k], 2),
                f(bi[k], 2),
                f(br[k], 2),
                f((1.0 - bi[k] / bh[k]) * 100.0, 1),
                f((1.0 - br[k] / bh[k]) * 100.0, 1),
            ]);
        }
        write_csv(
            &out,
            "fig5_speedup_by_bin",
            &[
                "bin",
                "hdfs_s",
                "ignem_s",
                "ram_s",
                "ignem_speedup_pct",
                "ram_speedup_pct",
            ],
            &rows,
        );
        format!(
            "Fig. 5 — mean job-duration reduction by input-size bin\n\
             bin        Ignem    RAM      (paper Ignem: 8.8% / 7.7% / 25%)\n\
             <=64MB     {:>5.1}%  {:>5.1}%\n\
             64-512MB   {:>5.1}%  {:>5.1}%\n\
             >512MB     {:>5.1}%  {:>5.1}%   (paper RAM large bin ~60%)",
            (1.0 - bi[0] / bh[0]) * 100.0,
            (1.0 - br[0] / bh[0]) * 100.0,
            (1.0 - bi[1] / bh[1]) * 100.0,
            (1.0 - br[1] / bh[1]) * 100.0,
            (1.0 - bi[2] / bh[2]) * 100.0,
            (1.0 - br[2] / bh[2]) * 100.0,
        )
    }

    /// Table II: mean mapper task duration. Paper: 6.44 / 4.03 (38%) /
    /// 0.28 (96%).
    pub fn table2(&mut self) -> String {
        let out = self.out.clone();
        let b = self.swim();
        let (h, i, r) = (
            b.hdfs.mean_map_task_secs(),
            b.ignem.mean_map_task_secs(),
            b.ram.mean_map_task_secs(),
        );
        write_csv(
            &out,
            "table2_swim_task_duration",
            &["config", "mean_map_task_secs", "speedup_vs_hdfs_pct"],
            &[
                vec!["HDFS".into(), f(h, 3), "0".into()],
                vec!["Ignem".into(), f(i, 3), f((1.0 - i / h) * 100.0, 1)],
                vec![
                    "HDFS-Inputs-in-RAM".into(),
                    f(r, 3),
                    f((1.0 - r / h) * 100.0, 1),
                ],
            ],
        );
        format!(
            "Table II — SWIM mean mapper duration\n\
             HDFS               {h:.2}s   (paper 6.44s)\n\
             Ignem              {i:.2}s   ({:.0}% faster; paper 4.03s, 38%)\n\
             HDFS-Inputs-in-RAM {r:.2}s   ({:.0}% faster; paper 0.28s, 96%)",
            (1.0 - i / h) * 100.0,
            (1.0 - r / h) * 100.0
        )
    }

    /// Fig. 6: block-read duration CDFs under HDFS vs Ignem.
    /// Paper: ~40% mean reduction; ~60% of blocks served from memory.
    pub fn fig6(&mut self) -> String {
        let out = self.out.clone();
        let b = self.swim();
        let mut rows = Vec::new();
        for (name, m) in [("hdfs", &b.hdfs), ("ignem", &b.ignem)] {
            let mut s: Samples = m.block_reads.iter().map(|r| r.secs).collect();
            for (v, p) in s.cdf_points(128) {
                rows.push(vec![name.to_string(), f(v, 4), f(p, 4)]);
            }
        }
        write_csv(
            &out,
            "fig6_block_read_cdf",
            &["config", "secs", "cdf"],
            &rows,
        );
        let reduction = 1.0 - b.ignem.mean_block_read_secs() / b.hdfs.mean_block_read_secs();
        format!(
            "Fig. 6 — SWIM block-read durations\n\
             mean read: HDFS {:.2}s -> Ignem {:.2}s ({:.0}% reduction; paper ~40%)\n\
             blocks served from memory under Ignem: {:.0}% (paper ~60%)",
            b.hdfs.mean_block_read_secs(),
            b.ignem.mean_block_read_secs(),
            reduction * 100.0,
            b.ignem.memory_read_fraction() * 100.0
        )
    }

    /// Fig. 7: per-server migrated-memory footprint, Ignem vs the
    /// hypothetical instantaneous scheme. Paper: Ignem ≈2.6× lower.
    pub fn fig7(&mut self) -> String {
        let out = self.out.clone();
        let b = self.swim();
        let end = b.ignem.makespan;
        let ignem_mean = RunMetrics::mean_nonzero_occupancy(&b.ignem.mem_series, end);
        let hypo_mean = RunMetrics::mean_nonzero_occupancy(&b.ignem.hypothetical_series, end);

        // Histograms of nonzero per-server occupancy, sampled each second.
        let mut rows = Vec::new();
        for (name, series) in [
            ("ignem", &b.ignem.mem_series),
            ("hypothetical", &b.ignem.hypothetical_series),
        ] {
            let samples = sample_nonzero(series, end);
            if samples.is_empty() {
                continue;
            }
            let max = samples.iter().cloned().fold(0.0, f64::max);
            let mut h = Histogram::uniform(0.0, max * 1.001, 24);
            for &v in &samples {
                h.record(v);
            }
            for (i, freq) in h.relative().iter().enumerate() {
                rows.push(vec![
                    name.to_string(),
                    f(h.edges()[i] / 1e9, 4),
                    f(h.edges()[i + 1] / 1e9, 4),
                    f(*freq, 4),
                ]);
            }
        }
        write_csv(
            &out,
            "fig7_memory_usage",
            &["scheme", "lo_gb", "hi_gb", "freq"],
            &rows,
        );
        format!(
            "Fig. 7 — per-server migrated-memory footprint (nonzero samples)\n\
             Ignem mean {:.2} GB   hypothetical-instantaneous mean {:.2} GB\n\
             Ignem uses {:.1}x less memory (paper: 2.6x) while delivering\n\
             {:.0}% of the upper-bound speedup (paper: ~60%)",
            ignem_mean / 1e9,
            hypo_mean / 1e9,
            hypo_mean / ignem_mean.max(1.0),
            b.ignem.speedup_vs(&b.hdfs) / b.ram.speedup_vs(&b.hdfs) * 100.0
        )
    }

    /// §IV-C5 ablation: smallest-job-first vs FIFO migration queues.
    /// Paper: disabling prioritization costs ~2 points of speedup (~15% of
    /// the benefit).
    pub fn ablation_priority(&mut self) -> String {
        let out = self.out.clone();
        let b = self.swim();
        let sjf = b.ignem.speedup_vs(&b.hdfs) * 100.0;
        let fifo = b.ignem_fifo.speedup_vs(&b.hdfs) * 100.0;
        write_csv(
            &out,
            "ablation_priority",
            &["policy", "mean_job_secs", "speedup_pct"],
            &[
                vec![
                    "smallest-job-first".into(),
                    f(b.ignem.mean_plan_duration(), 2),
                    f(sjf, 1),
                ],
                vec![
                    "fifo".into(),
                    f(b.ignem_fifo.mean_plan_duration(), 2),
                    f(fifo, 1),
                ],
            ],
        );
        format!(
            "Ablation (§IV-C5) — migration-queue policy\n\
             smallest-job-first speedup {sjf:.1}%   FIFO speedup {fifo:.1}%\n\
             prioritization contributes {:.1} points ({:.0}% of the benefit; paper ~15%)",
            sjf - fifo,
            (sjf - fifo) / sjf.max(1e-9) * 100.0
        )
    }

    // ------------------------------------------------------------------
    // Standalone jobs and Hive
    // ------------------------------------------------------------------

    /// Table III: the 40 GB sort. Paper: 147 / 114 (22%) / 75 (49%).
    pub fn table3(&mut self) -> String {
        let h = run_sort(&self.cfg, FsMode::Hdfs, 40 * GB);
        let i = run_sort(&self.cfg, FsMode::Ignem, 40 * GB);
        let r = run_sort(&self.cfg, FsMode::HdfsInputsInRam, 40 * GB);
        let (dh, di, dr) = (
            h.mean_plan_duration(),
            i.mean_plan_duration(),
            r.mean_plan_duration(),
        );
        write_csv(
            &self.out,
            "table3_sort",
            &["config", "duration_secs", "speedup_vs_hdfs_pct"],
            &[
                vec!["HDFS".into(), f(dh, 1), "0".into()],
                vec!["Ignem".into(), f(di, 1), f((1.0 - di / dh) * 100.0, 1)],
                vec![
                    "HDFS-Inputs-in-RAM".into(),
                    f(dr, 1),
                    f((1.0 - dr / dh) * 100.0, 1),
                ],
            ],
        );
        format!(
            "Table III — sort (40 GB)\n\
             HDFS               {dh:.0}s\n\
             Ignem              {di:.0}s  ({:.0}% faster; paper 22%)\n\
             HDFS-Inputs-in-RAM {dr:.0}s  ({:.0}% faster; paper 49%)",
            (1.0 - di / dh) * 100.0,
            (1.0 - dr / dh) * 100.0
        )
    }

    /// Fig. 8: wordcount input-size sweep with artificial lead-time. Run on
    /// the **contended** HDD operating point (see `DeviceProfile::
    /// hdd_contended`), where the paper's "adding delay speeds the job up"
    /// effect lives.
    pub fn fig8(&mut self) -> String {
        let mut cfg = self.cfg.clone();
        cfg.disk = DeviceProfile::hdd_contended();
        let mut rows = Vec::new();
        let mut text = String::from(
            "Fig. 8 — wordcount sweep (contended HDD)\n  GB     HDFS    Ignem  Ignem+10s      RAM\n",
        );
        for gb in ignem_workloads::jobs::WORDCOUNT_SWEEP_GB {
            let h = run_wordcount(&cfg, FsMode::Hdfs, gb, SimDuration::ZERO).mean_plan_duration();
            let i = run_wordcount(&cfg, FsMode::Ignem, gb, SimDuration::ZERO).mean_plan_duration();
            let i10 = run_wordcount(&cfg, FsMode::Ignem, gb, SimDuration::from_secs(10))
                .mean_plan_duration();
            let r = run_wordcount(&cfg, FsMode::HdfsInputsInRam, gb, SimDuration::ZERO)
                .mean_plan_duration();
            rows.push(vec![gb.to_string(), f(h, 1), f(i, 1), f(i10, 1), f(r, 1)]);
            text.push_str(&format!("{gb:>4} {h:>8.1} {i:>8.1} {i10:>10.1} {r:>8.1}\n"));
        }
        write_csv(
            &self.out,
            "fig8_wordcount_sweep",
            &["input_gb", "hdfs_s", "ignem_s", "ignem_plus10_s", "ram_s"],
            &rows,
        );
        text.push_str(
            "paper shape: Ignem tracks RAM until ~2GB; Ignem+10s loses at 1GB,\n\
             crosses HDFS by 2GB and beats plain Ignem at 4GB",
        );
        text
    }

    /// Fig. 9: Hive/TPC-DS query durations (a) and input sizes (b).
    /// Paper: up to 34% (q3), 20% average, muted for q82/q25/q29.
    pub fn fig9(&mut self) -> String {
        let queries = fig9_queries();
        let h = run_hive(&self.cfg, FsMode::Hdfs, &queries);
        let i = run_hive(&self.cfg, FsMode::Ignem, &queries);
        let mut rows = Vec::new();
        let mut text = String::from("Fig. 9 — Hive query durations (sorted by input size)\n");
        let mut total = 0.0;
        let mut best = ("", 0.0f64);
        for (qh, qi) in h.plans.iter().zip(&i.plans) {
            let sp = (1.0 - qi.duration / qh.duration) * 100.0;
            total += sp;
            if sp > best.1 {
                best = (&qh.name, sp);
            }
            rows.push(vec![
                qh.name.clone(),
                f(qh.input_bytes as f64 / 1e9, 2),
                f(qh.duration, 1),
                f(qi.duration, 1),
                f(sp, 1),
            ]);
            text.push_str(&format!(
                "  {:<4} in={:>5.1}GB  HDFS {:>6.1}s  Ignem {:>6.1}s  speedup {sp:>5.1}%\n",
                qh.name,
                qh.input_bytes as f64 / 1e9,
                qh.duration,
                qi.duration
            ));
        }
        write_csv(
            &self.out,
            "fig9_hive_queries",
            &["query", "input_gb", "hdfs_s", "ignem_s", "speedup_pct"],
            &rows,
        );
        text.push_str(&format!(
            "average speedup {:.1}% (paper 20%); best {} at {:.1}% (paper: q3, 34%)",
            total / h.plans.len() as f64,
            best.0,
            best.1
        ));
        text
    }

    // ------------------------------------------------------------------
    // Extended design-choice ablations (beyond the paper's §IV-C5)
    // ------------------------------------------------------------------

    /// Ablation: migration concurrency per slave. The paper migrates one
    /// block at a time to preserve disk throughput; this sweep checks how
    /// much that choice matters on this substrate.
    pub fn ablation_concurrency(&mut self) -> String {
        use ignem_cluster::experiment::run_swim_with;
        use ignem_core::command::EvictionMode;
        let hdfs = run_swim(&self.cfg, FsMode::Hdfs, &self.trace, None);
        let mut rows = Vec::new();
        let mut text = String::from("Ablation — concurrent migration reads per slave (paper: 1)\n");
        for k in [1usize, 2, 4, 8] {
            let mut cfg = self.cfg.clone();
            cfg.ignem.max_concurrent_migrations = k;
            let m = run_swim_with(&cfg, FsMode::Ignem, &self.trace, EvictionMode::Explicit);
            let sp = m.speedup_vs(&hdfs) * 100.0;
            rows.push(vec![
                k.to_string(),
                f(m.mean_plan_duration(), 2),
                f(sp, 1),
                f(m.memory_read_fraction() * 100.0, 1),
            ]);
            text.push_str(&format!(
                "  k={k}: mean job {:.2}s  speedup {sp:.1}%  memory reads {:.0}%\n",
                m.mean_plan_duration(),
                m.memory_read_fraction() * 100.0
            ));
        }
        write_csv(
            &self.out,
            "ablation_concurrency",
            &[
                "concurrent_migrations",
                "mean_job_secs",
                "speedup_pct",
                "mem_read_pct",
            ],
            &rows,
        );
        text
    }

    /// Ablation: replicas migrated per block. The paper migrates a single
    /// random replica (§III-A2); extra copies burn disk bandwidth and
    /// memory for little gain because remote memory reads are cheap.
    pub fn ablation_replicas(&mut self) -> String {
        use ignem_cluster::experiment::run_swim_with;
        use ignem_core::command::EvictionMode;
        let hdfs = run_swim(&self.cfg, FsMode::Hdfs, &self.trace, None);
        let mut rows = Vec::new();
        let mut text = String::from("Ablation — replicas migrated per block (paper: 1)\n");
        for k in [1usize, 2, 3] {
            let mut cfg = self.cfg.clone();
            cfg.master.replicas_to_migrate = k;
            let m = run_swim_with(&cfg, FsMode::Ignem, &self.trace, EvictionMode::Explicit);
            let sp = m.speedup_vs(&hdfs) * 100.0;
            let gb = m.slave_stats.migrated_bytes as f64 / 1e9;
            rows.push(vec![
                k.to_string(),
                f(m.mean_plan_duration(), 2),
                f(sp, 1),
                f(gb, 1),
            ]);
            text.push_str(&format!(
                "  replicas={k}: mean job {:.2}s  speedup {sp:.1}%  migrated {gb:.1} GB\n",
                m.mean_plan_duration()
            ));
        }
        write_csv(
            &self.out,
            "ablation_replicas",
            &["replicas", "mean_job_secs", "speedup_pct", "migrated_gb"],
            &rows,
        );
        text.push_str("extra replicas multiply migration IO without matching gains");
        text
    }

    /// Ablation: explicit vs implicit eviction (§III-A4's opt-in mode).
    /// Implicit eviction frees memory as soon as the job reads a block.
    pub fn ablation_eviction(&mut self) -> String {
        use ignem_cluster::experiment::run_swim_with;
        use ignem_core::command::EvictionMode;
        let hdfs = run_swim(&self.cfg, FsMode::Hdfs, &self.trace, None);
        let mut rows = Vec::new();
        let mut text = String::from("Ablation — eviction mode (§III-A4)\n");
        for (name, mode) in [
            ("explicit", EvictionMode::Explicit),
            ("implicit", EvictionMode::Implicit),
        ] {
            let m = run_swim_with(&self.cfg, FsMode::Ignem, &self.trace, mode);
            let sp = m.speedup_vs(&hdfs) * 100.0;
            let mean_occ = RunMetrics::mean_nonzero_occupancy(&m.mem_series, m.makespan) / 1e9;
            rows.push(vec![
                name.to_string(),
                f(m.mean_plan_duration(), 2),
                f(sp, 1),
                f(mean_occ, 2),
            ]);
            text.push_str(&format!(
                "  {name}: mean job {:.2}s  speedup {sp:.1}%  mean nonzero occupancy {mean_occ:.2} GB\n",
                m.mean_plan_duration()
            ));
        }
        write_csv(
            &self.out,
            "ablation_eviction",
            &["mode", "mean_job_secs", "speedup_pct", "mean_occupancy_gb"],
            &rows,
        );
        text.push_str(
            "implicit eviction trades a sliver of re-read safety for a smaller footprint",
        );
        text
    }

    /// Ablation: heartbeat interval — one of the paper's §II-C lead-time
    /// sources. Longer heartbeats give Ignem more runway but slow everyone.
    pub fn ablation_heartbeat(&mut self) -> String {
        let mut rows = Vec::new();
        let mut text = String::from("Ablation — scheduler heartbeat interval (lead-time source)\n");
        for secs in [1u64, 3, 6] {
            let mut cfg = self.cfg.clone();
            cfg.compute.heartbeat = SimDuration::from_secs(secs);
            let hdfs = run_swim(&cfg, FsMode::Hdfs, &self.trace, None);
            let ignem = run_swim(&cfg, FsMode::Ignem, &self.trace, None);
            let sp = ignem.speedup_vs(&hdfs) * 100.0;
            rows.push(vec![
                secs.to_string(),
                f(hdfs.mean_plan_duration(), 2),
                f(ignem.mean_plan_duration(), 2),
                f(sp, 1),
                f(ignem.memory_read_fraction() * 100.0, 1),
            ]);
            text.push_str(&format!(
                "  hb={secs}s: HDFS {:.2}s  Ignem {:.2}s  speedup {sp:.1}%  memory reads {:.0}%\n",
                hdfs.mean_plan_duration(),
                ignem.mean_plan_duration(),
                ignem.memory_read_fraction() * 100.0
            ));
        }
        write_csv(
            &self.out,
            "ablation_heartbeat",
            &[
                "heartbeat_s",
                "hdfs_s",
                "ignem_s",
                "speedup_pct",
                "mem_read_pct",
            ],
            &rows,
        );
        text
    }

    /// Robustness check: does Ignem's benefit survive heterogeneous task
    /// service times (stragglers)? The jitter multiplier is mean-one, so
    /// the workload's expected compute cost is identical across rows.
    pub fn ablation_jitter(&mut self) -> String {
        let mut rows = Vec::new();
        let mut text =
            String::from("Ablation — compute-time heterogeneity (mean-one log-normal jitter)\n");
        for sigma in [0.0f64, 0.3, 0.6] {
            let mut cfg = self.cfg.clone();
            cfg.compute.compute_jitter_sigma = sigma;
            let hdfs = run_swim(&cfg, FsMode::Hdfs, &self.trace, None);
            let ignem = run_swim(&cfg, FsMode::Ignem, &self.trace, None);
            let sp = ignem.speedup_vs(&hdfs) * 100.0;
            rows.push(vec![
                f(sigma, 1),
                f(hdfs.mean_plan_duration(), 2),
                f(ignem.mean_plan_duration(), 2),
                f(sp, 1),
            ]);
            text.push_str(&format!(
                "  sigma={sigma:.1}: HDFS {:.2}s  Ignem {:.2}s  speedup {sp:.1}%\n",
                hdfs.mean_plan_duration(),
                ignem.mean_plan_duration()
            ));
        }
        write_csv(
            &self.out,
            "ablation_jitter",
            &["sigma", "hdfs_s", "ignem_s", "speedup_pct"],
            &rows,
        );
        text.push_str("Ignem's benefit is not an artifact of deterministic task times");
        text
    }

    /// Extension (§IV-E future work): the benefit-aware migration policy —
    /// "a migration scheme that can infer the Ignem speed-up curve … can
    /// prioritize jobs which will benefit more" — swept over its sweet-spot
    /// parameter against the paper's smallest-job-first default.
    pub fn extension_benefit_aware(&mut self) -> String {
        let hdfs = run_swim(&self.cfg, FsMode::Hdfs, &self.trace, None);
        let sjf = run_swim(&self.cfg, FsMode::Ignem, &self.trace, None);
        let mut rows = vec![vec![
            "smallest-job-first".to_string(),
            "-".to_string(),
            f(sjf.mean_plan_duration(), 2),
            f(sjf.speedup_vs(&hdfs) * 100.0, 1),
        ]];
        let mut text = format!(
            "Extension (§IV-E) — benefit-aware migration policy\n\
             smallest-job-first (paper): speedup {:.1}%\n",
            sjf.speedup_vs(&hdfs) * 100.0
        );
        for gb in [1u64, 4, 16] {
            let m = run_swim(
                &self.cfg,
                FsMode::Ignem,
                &self.trace,
                Some(Policy::BenefitAware {
                    sweet_spot_bytes: gb * GB,
                }),
            );
            let sp = m.speedup_vs(&hdfs) * 100.0;
            rows.push(vec![
                "benefit-aware".to_string(),
                gb.to_string(),
                f(m.mean_plan_duration(), 2),
                f(sp, 1),
            ]);
            text.push_str(&format!(
                "  benefit-aware (sweet spot {gb} GB): speedup {sp:.1}%\n"
            ));
        }
        write_csv(
            &self.out,
            "extension_benefit_aware",
            &["policy", "sweet_spot_gb", "mean_job_secs", "speedup_pct"],
            &rows,
        );
        text
    }

    /// Extension (paper §V related work): Ignem vs a PACMan-style LRU read
    /// cache. Caching only helps *repeat* reads; the paper's point is that
    /// 30% of production tasks read singly-accessed data that caching can
    /// never serve — but proactive migration can.
    pub fn extension_caching(&mut self) -> String {
        use ignem_cluster::experiment::run_rereads;
        let sets = 8;
        let bytes = 2 * GB;
        let (_, h_first, h_rep) = run_rereads(&self.cfg, FsMode::Hdfs, sets, bytes);
        let mut cache_cfg = self.cfg.clone();
        cache_cfg.cache_reads = true;
        let (_, c_first, c_rep) = run_rereads(&cache_cfg, FsMode::Hdfs, sets, bytes);
        let (_, i_first, i_rep) = run_rereads(&self.cfg, FsMode::Ignem, sets, bytes);
        let rows = vec![
            vec!["hdfs".into(), f(h_first, 2), f(h_rep, 2)],
            vec!["lru-cache".into(), f(c_first, 2), f(c_rep, 2)],
            vec!["ignem".into(), f(i_first, 2), f(i_rep, 2)],
        ];
        write_csv(
            &self.out,
            "extension_caching",
            &["config", "first_read_mean_s", "repeat_read_mean_s"],
            &rows,
        );
        format!(
            "Extension (§V) — proactive migration vs reactive caching\n\
             {sets} file sets of {} GB, each read twice (cold, then repeat)\n\
             config      first-read  repeat-read\n\
             HDFS        {h_first:>9.2}s {h_rep:>11.2}s\n\
             LRU cache   {c_first:>9.2}s {c_rep:>11.2}s   (helps repeats only)\n\
             Ignem       {i_first:>9.2}s {i_rep:>11.2}s   (helps both)\n\
             caching cannot touch the singly-read cold reads Ignem targets\n\
             (PACMan's own authors: 30% of production tasks read such data)",
            bytes / GB
        )
    }

    /// Extension (paper §I motivation): iterative ML jobs. Cold reads
    /// inflate the first iteration (15× for logistic regression, 2.5× for
    /// k-means on the paper's cited Spark numbers); Ignem flattens the
    /// first-iteration penalty by pre-warming the training set.
    pub fn extension_iterative(&mut self) -> String {
        use ignem_cluster::experiment::run_iterative;
        use ignem_workloads::iterative::IterativeJob;
        let files = |p: &str| -> Vec<String> { (0..4).map(|i| format!("{p}/part-{i}")).collect() };
        let jobs = [
            IterativeJob::logistic_regression(files("/ml/lr"), 8 * GB, 6),
            IterativeJob::kmeans(files("/ml/km"), 8 * GB, 6),
        ];
        let mut rows = Vec::new();
        let mut text = String::from(
            "Extension (§I) — iterative ML: first-iteration inflation from cold reads\n",
        );
        for job in &jobs {
            let mut line = format!("  {:<7}", job.name);
            for (mode_name, mode) in [("HDFS", FsMode::Hdfs), ("Ignem", FsMode::Ignem)] {
                let m = run_iterative(&self.cfg, mode, job);
                let iters: Vec<f64> = m.jobs.iter().map(|j| j.duration).collect();
                assert!(iters.len() >= 2, "need multiple iterations");
                let warm = iters[1..].iter().sum::<f64>() / (iters.len() - 1) as f64;
                let inflation = iters[0] / warm;
                rows.push(vec![
                    job.name.clone(),
                    mode_name.to_string(),
                    f(iters[0], 2),
                    f(warm, 2),
                    f(inflation, 2),
                ]);
                line.push_str(&format!(
                    "  {mode_name}: iter1 {:.1}s, warm {:.1}s ({inflation:.1}x)",
                    iters[0], warm
                ));
            }
            text.push_str(&line);
            text.push('\n');
        }
        write_csv(
            &self.out,
            "extension_iterative",
            &["job", "config", "iter1_s", "warm_iter_s", "inflation"],
            &rows,
        );
        text.push_str(
            "paper's cited Spark numbers: logreg ~15x, k-means ~2.5x inflation;\n\
             Ignem pulls the first iteration toward warm-iteration speed",
        );
        text
    }

    /// Telemetry deep-dive (not a paper figure): replays the Table I
    /// SWIM/Ignem run with the flight recorder and the sim-time metrics
    /// registry installed, and folds the event stream once into causal
    /// span trees. Per-block migration-race verdicts, per-job lead-time
    /// decompositions and per-category critical paths are read from that
    /// one fold and checked against the run's metrics.
    /// When a trace path is set ([`Report::set_trace_out`]), the raw
    /// JSONL stream is written there too; when a Perfetto path is set
    /// ([`Report::set_perfetto_out`]), the span trees and metric tracks
    /// go there as Chrome trace-event JSON.
    pub fn telemetry(&mut self) -> String {
        let (metrics, recorder, mreport) = run_swim_observed(
            &self.cfg,
            FsMode::Ignem,
            &self.trace,
            1 << 22,
            METRICS_WINDOW,
        );
        if let Some(path) = &self.trace_out {
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir).expect("create trace dir");
                }
            }
            std::fs::write(path, recorder.to_jsonl()).expect("write trace JSONL");
        }
        let events = recorder.events();
        let forest = SpanForest::build(&events);
        let report = TelemetryReport::from_forest(&forest);
        report
            .reconcile(&metrics)
            .expect("telemetry verdicts must reconcile with run metrics");

        let mut rows = vec![vec!["won_race".to_string(), report.won().to_string()]];
        for cause in LossCause::ALL {
            rows.push(vec![
                cause.tag().to_string(),
                report.lost_with(cause).to_string(),
            ]);
        }
        write_csv(&self.out, "telemetry_causes", &["verdict", "reads"], &rows);

        let lt_rows: Vec<Vec<String>> = report
            .lead_times
            .iter()
            .map(|lt| {
                vec![
                    lt.job.to_string(),
                    f(lt.queue_delay.as_secs_f64(), 3),
                    f(lt.heartbeat_delay.as_secs_f64(), 3),
                    f(lt.migration_service.as_secs_f64(), 3),
                ]
            })
            .collect();
        write_csv(
            &self.out,
            "telemetry_lead_times",
            &[
                "job",
                "queue_delay_s",
                "heartbeat_delay_s",
                "migration_service_s",
            ],
            &lt_rows,
        );

        // The per-category critical path from the same fold (DESIGN.md
        // §12), checked against the master's retry counter.
        let path = forest.critical_path();
        reconcile_critical_path(&path, &report, &metrics)
            .expect("critical path must reconcile with the explainer and metrics");
        let cp_rows: Vec<Vec<String>> = path
            .jobs
            .iter()
            .map(|j| {
                vec![
                    j.job.to_string(),
                    j.queueing.as_micros().to_string(),
                    j.master_processing.as_micros().to_string(),
                    j.disk_contention.as_micros().to_string(),
                    j.migration_queue.as_micros().to_string(),
                    j.network.as_micros().to_string(),
                    j.retransmission_backoff.as_micros().to_string(),
                ]
            })
            .collect();
        write_csv(
            &self.out,
            "telemetry_critical_path",
            &[
                "job",
                "queueing_us",
                "master_processing_us",
                "disk_contention_us",
                "migration_queue_us",
                "network_us",
                "retransmission_backoff_us",
            ],
            &cp_rows,
        );

        // Windowed sim-time metrics: CSV + JSONL exports.
        write_csv(
            &self.out,
            "metrics_windows",
            &MetricsReport::csv_header(),
            &mreport.to_csv_rows(),
        );
        std::fs::write(self.out.join("metrics_windows.jsonl"), mreport.to_jsonl())
            .expect("write metrics JSONL");

        // Perfetto trace: the chaos world when a seed is set, else this
        // SWIM run.
        let mut perfetto_line = String::new();
        if let Some(p) = &self.perfetto_out {
            let json = match self.perfetto_chaos {
                Some(seed) => {
                    let cfg = ChaosConfig {
                        seed,
                        ..ChaosConfig::default()
                    };
                    let (chaos, cm) = run_chaos_observed(&cfg, METRICS_WINDOW);
                    assert_eq!(
                        chaos.events_dropped, 0,
                        "chaos recorder must hold the whole stream"
                    );
                    perfetto::export(&SpanForest::build(&chaos.events), Some(&cm))
                }
                None => perfetto::export(&forest, Some(&mreport)),
            };
            if let Some(dir) = p.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir).expect("create perfetto dir");
                }
            }
            std::fs::write(p, json).expect("write perfetto trace");
            perfetto_line = format!(
                "\nperfetto trace ({}) written to {}",
                match self.perfetto_chaos {
                    Some(seed) => format!("chaos seed {seed}"),
                    None => "SWIM run".to_string(),
                },
                p.display()
            );
        }

        let n = report.lead_times.len().max(1) as f64;
        let mean = |sel: fn(&JobLeadTime) -> f64| -> f64 {
            report.lead_times.iter().map(sel).sum::<f64>() / n
        };
        let causes = LossCause::ALL
            .iter()
            .map(|&c| format!("{} {}", c.tag(), report.lost_with(c)))
            .collect::<Vec<_>>()
            .join("   ");
        let overflow = if recorder.dropped() > 0 {
            format!(
                "\nWARNING: flight recorder overflowed — {} records dropped; \
                 spans and verdicts below audit a truncated stream",
                recorder.dropped()
            )
        } else {
            String::new()
        };
        format!(
            "Telemetry — migration-race explainer over the Table I SWIM/Ignem run\n\
             {} events recorded ({} dropped), {} block reads explained{overflow}\n\
             won race (memory): {}   lost race (disk): {}\n\
             loss causes: {causes}\n\
             mean lead time: queue {:.2}s + heartbeat {:.2}s; \
             migration service {:.2}s per job\n\
             {} causal spans across {} completed-migration critical paths \
             (reconciled)\n\
             {} metric windows of {}s exported (CSV + JSONL){perfetto_line}",
            events.len(),
            recorder.dropped(),
            report.verdicts.len(),
            report.won(),
            report.lost(),
            mean(|lt| lt.queue_delay.as_secs_f64()),
            mean(|lt| lt.heartbeat_delay.as_secs_f64()),
            mean(|lt| lt.migration_service.as_secs_f64()),
            forest.spans.len(),
            path.jobs.len(),
            mreport.windows.len(),
            METRICS_WINDOW.as_secs_f64() as u64,
        )
    }

    /// Renders every section of [`SECTIONS`], in its order, as `(id,
    /// text)` pairs.
    pub fn all(&mut self) -> Vec<(&'static str, String)> {
        SECTIONS
            .iter()
            .map(|&(id, render)| (id, render(self)))
            .collect()
    }
}

/// Samples step-series at 1 s resolution and keeps nonzero values (Fig. 7's
/// "only samples when memory usage is non-zero").
fn sample_nonzero(series: &[Vec<(SimTime, f64)>], end: SimTime) -> Vec<f64> {
    let mut out = Vec::new();
    for node in series {
        if node.is_empty() {
            continue;
        }
        let mut idx = 0;
        let mut t = SimTime::ZERO;
        let mut current = 0.0;
        while t <= end {
            while idx < node.len() && node[idx].0 <= t {
                current = node[idx].1;
                idx += 1;
            }
            if current > 0.0 {
                out.push(current);
            }
            t += SimDuration::from_secs(1);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp() -> std::path::PathBuf {
        std::env::temp_dir().join("ignem-report-test")
    }

    #[test]
    fn fig3_and_fig4_run() {
        let mut r = Report::new(tmp());
        let s3 = r.fig3();
        assert!(s3.contains("81%"));
        let s4 = r.fig4();
        assert!(s4.contains("3.1%"));
    }

    #[test]
    fn memory_sufficiency_prints_the_papers_bound() {
        let s = Report::new(tmp()).memory_sufficiency();
        assert!(s.contains("= 12.5 GiB per server"), "{s}");
        assert!(s.contains("9.8% of a 128 GiB server: sufficient"));
    }

    #[test]
    fn sample_nonzero_skips_zero_spans() {
        let series = vec![vec![
            (SimTime::ZERO, 0.0),
            (SimTime::from_secs(2), 5.0),
            (SimTime::from_secs(4), 0.0),
        ]];
        let got = sample_nonzero(&series, SimTime::from_secs(6));
        assert_eq!(got, vec![5.0, 5.0]);
    }

    #[test]
    fn swim_sections_share_one_run() {
        let mut r = Report::new(tmp());
        let t1 = r.table1();
        let t2 = r.table2();
        assert!(t1.contains("Table I"));
        assert!(t2.contains("Table II"));
    }
}
