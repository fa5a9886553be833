//! Synthetic Google-cluster-trace generation and the paper's §II analysis.
//!
//! Section II of the paper argues migration is feasible by analysing the
//! public Google cluster trace. The trace itself (≈40 GB of CSV) is not
//! available offline, so this module synthesises a trace calibrated to the
//! **statistics the paper reports**, then re-implements the paper's
//! analysis on top:
//!
//! * job queueing times (= lead-times): mean **8.8 s**, median **1.8 s**
//!   → a log-normal with exactly those moments;
//! * per-job total disk-read time: heavy-tailed, tuned so that the Fig. 3
//!   analysis yields the paper's *"for 81% of jobs the lead-time is greater
//!   than the read-time"*;
//! * per-server disk utilisation (Fig. 4): task IO uniformly spread over
//!   report intervals, tuned to the paper's **3.1%** mean daily utilisation
//!   and ≤ **5%** 40-server mean.

use ignem_simcore::dist::{Distribution, Exponential, LogNormal};
use ignem_simcore::rng::SimRng;
use ignem_simcore::stats::Samples;

/// One synthesised job: its lead-time and its total disk-read demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoogleJob {
    /// Queueing delay between submission and first task start (seconds).
    pub lead_time: f64,
    /// Sum of disk IO time over all the job's tasks, as if served by one
    /// disk (seconds) — the paper's Fig. 3 comparison quantity.
    pub read_time: f64,
}

/// Jobs in the Fig. 3 lead-time analysis.
const JOBS: usize = 20_000;

/// Queueing-time median in seconds (paper: 1.8 s).
const QUEUE_MEDIAN_SECS: f64 = 1.8;

/// Queueing-time mean in seconds (paper: 8.8 s).
const QUEUE_MEAN_SECS: f64 = 8.8;

/// Read-time log-sigma (tail heaviness).
const READ_SIGMA: f64 = 1.5;

/// Servers in the Fig. 4 utilisation timelines.
const SERVERS: usize = 200;

/// Timeline length in seconds (the paper plots 24 h).
const HORIZON_SECS: u64 = 24 * 3600;

/// Target mean disk utilisation over the horizon (paper: 3.1% daily).
const MEAN_UTILIZATION: f64 = 0.031;

/// The trace's queueing delay in seconds, which is a job's lead-time: the
/// log-normal with the paper's 1.8 s median and 8.8 s mean.
pub fn queueing_delay() -> LogNormal {
    LogNormal::from_median_mean(QUEUE_MEDIAN_SECS, QUEUE_MEAN_SECS)
}

/// A job's total disk-read time in seconds: a log-normal with
/// mu = -1.46 and sigma = 1.5, calibrated so that the Fig. 3 analysis
/// yields the paper's 81%: Phi((mu_l - mu_r) / sqrt(sig_l^2 + sig_r^2)) =
/// 0.81 with the [`queueing_delay`] parameters and sigma_r = 1.5 gives
/// mu_r = -1.46.
pub fn read_time() -> LogNormal {
    // mu is the log of the median exp(-1.46), as the calibration states
    // it: -1.46 written directly may differ in the last bit, which would
    // move the Fig. 3 series and every replayed input size.
    LogNormal::new((-1.46f64).exp().ln(), READ_SIGMA)
}

/// A synthesised job population for the Fig. 3 lead-time analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct GoogleTrace {
    /// The jobs.
    pub jobs: Vec<GoogleJob>,
}

impl GoogleTrace {
    /// Synthesises 20,000 jobs (see module docs).
    pub fn generate(rng: &mut SimRng) -> Self {
        let queue = queueing_delay();
        let read = read_time();
        let jobs = (0..JOBS)
            .map(|_| GoogleJob {
                lead_time: queue.sample(rng),
                read_time: read.sample(rng),
            })
            .collect();
        GoogleTrace { jobs }
    }

    /// The paper's Fig. 3 headline number: the fraction of jobs whose
    /// lead-time is at least their read-time ("81% of jobs").
    pub fn lead_time_sufficiency(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs
            .iter()
            .filter(|j| j.lead_time >= j.read_time)
            .count() as f64
            / self.jobs.len() as f64
    }

    /// Fig. 3's x-axis quantity for each job: `read_time / lead_time`
    /// (values ≤ 1 mean the whole input fits in the lead-time).
    pub fn read_to_lead_ratios(&self) -> Samples {
        self.jobs
            .iter()
            .map(|j| j.read_time / j.lead_time.max(1e-9))
            .collect()
    }

    /// Mean and median lead-time (sanity check against the paper's 8.8/1.8).
    pub fn lead_time_stats(&self) -> (f64, f64) {
        let mut s: Samples = self.jobs.iter().map(|j| j.lead_time).collect();
        (s.mean(), s.median())
    }
}

/// Per-server disk-utilisation timelines for Fig. 4, in 5-minute windows
/// (the trace's reporting granularity).
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationTimelines {
    /// `timelines[s][w]` = server `s`'s mean disk utilisation in window `w`.
    pub timelines: Vec<Vec<f64>>,
    /// Window length in seconds.
    pub window_secs: u64,
}

impl UtilizationTimelines {
    /// Synthesises 24 h of per-server utilisation for 200 servers:
    /// servers receive Poisson IO bursts whose rate is tuned to the
    /// paper's 3.1% mean, with a small population of persistently busier
    /// servers (the trace shows occasional servers spiking, which the
    /// paper's Fig. 4 displays).
    pub fn generate(rng: &mut SimRng) -> Self {
        const WINDOW: u64 = 300;
        const BURST_MEAN_SECS: f64 = 20.0;
        let windows = (HORIZON_SECS / WINDOW) as usize;
        let burst_secs = Exponential::from_mean(BURST_MEAN_SECS);
        let mut timelines = Vec::with_capacity(SERVERS);
        for _ in 0..SERVERS {
            // Per-server mean utilisation: mildly skewed around the target
            // (multiplier uniform in [0.5, 1.5], mean 1).
            let server_mean = (MEAN_UTILIZATION * (0.5 + rng.uniform())).clamp(0.001, 0.6);
            let mut busy = vec![0.0f64; windows];
            // Poisson bursts: expected busy = rate * mean_burst.
            let rate_per_sec = server_mean / BURST_MEAN_SECS;
            let mut t = 0.0f64;
            let gap = Exponential::new(rate_per_sec.max(1e-9));
            loop {
                t += gap.sample(rng);
                if t >= HORIZON_SECS as f64 {
                    break;
                }
                let mut len = burst_secs.sample(rng);
                let mut at = t;
                // Spread the burst across the windows it covers.
                while len > 0.0 && at < HORIZON_SECS as f64 {
                    let w = (at / WINDOW as f64) as usize;
                    let window_end = ((w + 1) * WINDOW as usize) as f64;
                    let in_window = len.min(window_end - at);
                    busy[w.min(windows - 1)] += in_window;
                    at += in_window;
                    len -= in_window;
                }
            }
            timelines.push(
                busy.into_iter()
                    .map(|b| (b / WINDOW as f64).min(1.0))
                    .collect(),
            );
        }
        UtilizationTimelines {
            timelines,
            window_secs: WINDOW,
        }
    }

    /// The mean utilisation across all servers and windows.
    pub fn overall_mean(&self) -> f64 {
        let total: f64 = self.timelines.iter().flatten().sum();
        let count: usize = self.timelines.iter().map(|t| t.len()).sum();
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    /// Per-window mean utilisation over the first `n` servers (Fig. 4's
    /// "mean utilization for 40 servers" curve).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` servers exist.
    pub fn group_mean_timeline(&self, n: usize) -> Vec<f64> {
        assert!(n > 0 && n <= self.timelines.len(), "bad group size");
        let windows = self.timelines[0].len();
        (0..windows)
            .map(|w| self.timelines[..n].iter().map(|t| t[w]).sum::<f64>() / n as f64)
            .collect()
    }
}

/// The paper's §II-C2 worst-case memory-sufficiency analysis: "at on
/// average 10 tasks run on a server at a time … the number of tasks on a
/// server at a given time is unlikely to be greater than 50. Further,
/// assume that each of the 50 tasks is a mapper and each mapper reads a
/// large 256MB HDFS block. This means that 12.5GB of RAM is sufficient."
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorySufficiency {
    /// Concurrent tasks assumed per server (worst case).
    pub tasks_per_server: u64,
    /// Block size each task is assumed to read.
    pub block_bytes: u64,
    /// RAM required to hold every concurrent task's migrated input.
    pub required_bytes: u64,
    /// Typical server RAM for comparison.
    pub server_ram_bytes: u64,
}

impl MemorySufficiency {
    /// Computes the worst-case bound; both sizes are in bytes. The paper's
    /// numbers are binary units: 50 tasks × 256 MiB = 12.5 GiB, against
    /// hundreds of GiB of server RAM. Decimal units (`MB`, `GB`) give
    /// 12.8 GB instead.
    pub fn worst_case(tasks_per_server: u64, block_bytes: u64, server_ram_bytes: u64) -> Self {
        MemorySufficiency {
            tasks_per_server,
            block_bytes,
            required_bytes: tasks_per_server * block_bytes,
            server_ram_bytes,
        }
    }

    /// Fraction of server RAM the migration buffer needs in the worst case.
    pub fn ram_fraction(&self) -> f64 {
        self.required_bytes as f64 / self.server_ram_bytes as f64
    }

    /// Whether migration demand fits comfortably (paper's conclusion).
    pub fn is_sufficient(&self) -> bool {
        self.ram_fraction() < 0.25
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> GoogleTrace {
        GoogleTrace::generate(&mut SimRng::new(2011))
    }

    #[test]
    fn lead_time_moments_match_paper() {
        let (mean, median) = trace().lead_time_stats();
        assert!((mean - 8.8).abs() < 0.5, "mean {mean}");
        assert!((median - 1.8).abs() < 0.1, "median {median}");
    }

    #[test]
    fn sufficiency_is_about_81_percent() {
        let frac = trace().lead_time_sufficiency();
        assert!((frac - 0.81).abs() < 0.02, "sufficiency {frac}");
    }

    #[test]
    fn ratios_cdf_crosses_one_at_sufficiency() {
        let t = trace();
        let mut ratios = t.read_to_lead_ratios();
        let below_one = ratios.fraction_below(1.0);
        assert!((below_one - t.lead_time_sufficiency()).abs() < 0.01);
    }

    #[test]
    fn utilization_mean_matches_paper() {
        let u = UtilizationTimelines::generate(&mut SimRng::new(4));
        let mean = u.overall_mean();
        assert!(
            (mean - 0.031).abs() < 0.01,
            "mean utilisation {mean} vs paper 3.1%"
        );
    }

    #[test]
    fn group_mean_stays_low() {
        // Fig. 4: "the mean disk utilization of 40 randomly chosen servers
        // is at most 5%" at any point in the 24 h window.
        let u = UtilizationTimelines::generate(&mut SimRng::new(5));
        let series = u.group_mean_timeline(40);
        let peak = series.iter().cloned().fold(0.0, f64::max);
        assert!(peak <= 0.08, "40-server mean peaked at {peak}");
    }

    #[test]
    fn individual_servers_do_spike() {
        let u = UtilizationTimelines::generate(&mut SimRng::new(6));
        let max_any = u.timelines.iter().flatten().cloned().fold(0.0, f64::max);
        assert!(max_any > 0.10, "no server ever spikes ({max_any})");
    }

    #[test]
    fn paper_memory_sufficiency_numbers() {
        // 50 tasks × 256 MB = 12.8 GB in decimal units (the paper's 12.5
        // is 50 × 256 MiB in GiB), "a small amount" vs 128 GB servers.
        let m = MemorySufficiency::worst_case(50, 256_000_000, 128_000_000_000);
        assert_eq!(m.required_bytes, 12_800_000_000);
        assert!((m.ram_fraction() - 0.1).abs() < 0.01);
        assert!(m.is_sufficient());
        // A hypothetical tiny-RAM server would not be sufficient.
        let small = MemorySufficiency::worst_case(50, 256_000_000, 16_000_000_000);
        assert!(!small.is_sufficient());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = GoogleTrace::generate(&mut SimRng::new(1));
        let b = GoogleTrace::generate(&mut SimRng::new(1));
        assert_eq!(a, b);
    }
}
