//! Streaming trace replay: a pull-based, unbounded job-arrival iterator.
//!
//! The preloaded workloads ([`swim`](crate::swim), [`tpcds`](crate::tpcds))
//! materialise every planned job up front — fine for 200 jobs, hopeless
//! for a month of the Google trace (§II: 12k servers, hundreds of
//! thousands of jobs). This module generates the same statistical shape
//! *lazily*: [`ReplayStream`] is an `Iterator` that synthesises the next
//! arrival on demand from a self-contained RNG, so the simulator can admit
//! jobs one at a time and never holds the whole trace in memory.
//!
//! Determinism contract: a stream is a pure function of its
//! [`ReplayConfig`] and seed, `Clone` forks the exact sequence position
//! (the world snapshot machinery relies on this), and arrivals are emitted
//! in nondecreasing submit order — the order a simulator admits them.
//!
//! Job statistics mirror [`google`](crate::google): Poisson arrivals,
//! log-normal queueing delay (the paper's 8.8 s mean / 1.8 s median
//! lead-time), and a heavy-tailed per-job input size derived from the
//! read-time distribution at a nominal disk bandwidth. Input files are
//! generated alongside ([`replay_files`]) so a driver can preload the DFS
//! namespace while still streaming the jobs themselves.

use ignem_compute::job::{JobInput, JobSpec, SubmitOptions};
use ignem_simcore::dist::{Distribution, Exponential};
use ignem_simcore::rng::SimRng;
use ignem_simcore::time::SimDuration;
use ignem_simcore::units::MIB;

use crate::google::{queueing_delay, read_time};

/// Parameters of a streamed trace replay. Defaults reproduce the Google
/// trace statistics at the paper's scale: ~20k jobs/day. The queueing
/// delay and read time are the trace's own ([`queueing_delay`],
/// [`read_time`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayConfig {
    /// Jobs to emit; `None` streams forever (the caller bounds the run by
    /// simulated time instead). `run_replay` and the benchmark bound their
    /// streams with it.
    pub jobs: Option<u64>,
    /// Mean arrival rate (jobs per second; Poisson process). The default
    /// is the trace's 20 000 jobs / 24 h; callers read it to size a
    /// replay of a given span.
    pub arrivals_per_sec: f64,
    /// Nominal single-disk bandwidth (bytes/s) converting a job's
    /// [`read_time`] draw into an input size. This and the two clamps
    /// below set the tasks per job, which a replay scaled to the node
    /// count varies.
    pub read_bandwidth: f64,
    /// Input-size clamp, low end (degenerate draws still make one block).
    pub min_input_bytes: u64,
    /// Input-size clamp, high end (keeps the tail from dominating a node).
    pub max_input_bytes: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            jobs: None,
            arrivals_per_sec: 20_000.0 / 86_400.0,
            read_bandwidth: 128.0 * MIB as f64,
            min_input_bytes: 4 * MIB,
            max_input_bytes: 1024 * MIB,
        }
    }
}

/// One streamed arrival: when the job is submitted and what it runs.
#[derive(Debug, Clone)]
pub struct JobArrival {
    /// Zero-based arrival index (names and input files derive from it).
    pub index: u64,
    /// Display name (`google-<index>`).
    pub name: String,
    /// Submission offset from the start of the run; nondecreasing across
    /// the stream.
    pub submit: SimDuration,
    /// The job body: a single migrating stage reading this arrival's
    /// input file, with the trace's queueing delay as extra lead-time.
    pub spec: JobSpec,
    /// The input file's size (same value [`replay_files`] assigns it).
    pub input_bytes: u64,
}

/// The DFS path of arrival `index`'s input file.
pub fn replay_file_path(index: u64) -> String {
    format!("/google/in{index}")
}

/// The lazily generated arrival stream. See the module docs for the
/// determinism contract.
#[derive(Debug, Clone)]
pub struct ReplayStream {
    cfg: ReplayConfig,
    rng: SimRng,
    emitted: u64,
    /// Running arrival clock in seconds (gaps accumulate exactly).
    clock_secs: f64,
}

impl ReplayStream {
    /// A stream of arrivals, a pure function of `(cfg, seed)`.
    pub fn new(cfg: ReplayConfig, seed: u64) -> Self {
        ReplayStream {
            cfg,
            rng: SimRng::new(seed),
            emitted: 0,
            clock_secs: 0.0,
        }
    }

    /// One input-size draw: a read-time sample converted to bytes at the
    /// nominal bandwidth, clamped to the configured range.
    fn input_bytes(cfg: &ReplayConfig, rng: &mut SimRng) -> u64 {
        let secs = read_time().sample(rng);
        let bytes = (secs * cfg.read_bandwidth) as u64;
        bytes.clamp(cfg.min_input_bytes, cfg.max_input_bytes)
    }
}

impl Iterator for ReplayStream {
    type Item = JobArrival;

    fn next(&mut self) -> Option<JobArrival> {
        if self.cfg.jobs.is_some_and(|n| self.emitted >= n) {
            return None;
        }
        let index = self.emitted;
        self.emitted += 1;
        // Gap and queueing delay come from the stream rng in a fixed
        // order; the input size comes from the per-index namespace stream
        // (see `FILE_SIZE_SALT`) so it matches the preloaded file.
        let gap = Exponential::new(self.cfg.arrivals_per_sec.max(1e-12));
        self.clock_secs += gap.sample(&mut self.rng);
        let lead = queueing_delay().sample(&mut self.rng);
        let input_bytes = Self::input_bytes(&self.cfg, &mut size_rng(index));

        let name = format!("google-{index}");
        let mut spec = JobSpec::new(
            name.clone(),
            JobInput::DfsFiles(vec![replay_file_path(index)]),
        );
        // Trace jobs are read-dominated: modest shuffle/output, mappers
        // paced like the wordcount model.
        spec.shuffle_bytes = (input_bytes / 100).max(1);
        spec.output_bytes = (input_bytes / 200).max(1);
        spec.reducers = 1;
        spec.map_cpu_rate = 400e6;
        spec.reduce_cpu_rate = 50e6;
        spec.submit = SubmitOptions::with_migration();
        spec.submit.extra_lead_time = SimDuration::from_secs_f64(lead);
        Some(JobArrival {
            index,
            name,
            submit: SimDuration::from_secs_f64(self.clock_secs),
            spec,
            input_bytes,
        })
    }
}

/// Salt for the per-index input-size stream. File sizes are a property of
/// the DFS namespace, not of any particular arrival stream: both
/// [`ReplayStream`] and [`replay_files`] derive the size of file `index`
/// from this salt alone, so a driver can preload the namespace and then
/// stream jobs against it with any seed.
const FILE_SIZE_SALT: u64 = 0xF11E_512E;

/// The size stream of input file `index`.
fn size_rng(index: u64) -> SimRng {
    SimRng::new(FILE_SIZE_SALT ^ index)
}

/// The input-file namespace for the first `count` arrivals — `(path,
/// bytes)` pairs ready for DFS preloading. Sizes are bit-identical to the
/// [`JobArrival::input_bytes`] any stream over `cfg` emits.
pub fn replay_files(cfg: &ReplayConfig, count: u64) -> Vec<(String, u64)> {
    (0..count)
        .map(|i| {
            let mut rng = size_rng(i);
            (
                replay_file_path(i),
                ReplayStream::input_bytes(cfg, &mut rng),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_clone_forks_position() {
        let cfg = ReplayConfig {
            jobs: Some(64),
            ..ReplayConfig::default()
        };
        let a: Vec<_> = ReplayStream::new(cfg, 9).collect();
        let b: Vec<_> = ReplayStream::new(cfg, 9).collect();
        assert_eq!(a.len(), 64);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.submit == y.submit && x.input_bytes == y.input_bytes));

        let mut s = ReplayStream::new(cfg, 9);
        for _ in 0..10 {
            s.next();
        }
        let fork = s.clone();
        let rest_a: Vec<_> = s.map(|j| j.submit).collect();
        let rest_b: Vec<_> = fork.map(|j| j.submit).collect();
        assert_eq!(rest_a, rest_b);
    }

    #[test]
    fn arrivals_are_time_ordered_and_named_by_index() {
        let cfg = ReplayConfig {
            jobs: Some(128),
            ..ReplayConfig::default()
        };
        let jobs: Vec<_> = ReplayStream::new(cfg, 3).collect();
        assert!(jobs.windows(2).all(|w| w[0].submit <= w[1].submit));
        assert_eq!(jobs[5].name, "google-5");
        assert!(jobs[5].spec.submit.migrate.is_some());
    }

    #[test]
    fn files_match_stream_sizes() {
        let cfg = ReplayConfig {
            jobs: Some(32),
            ..ReplayConfig::default()
        };
        let files = replay_files(&cfg, 32);
        let jobs: Vec<_> = ReplayStream::new(cfg, 77).collect();
        for j in &jobs {
            let (path, bytes) = &files[j.index as usize];
            assert_eq!(*path, replay_file_path(j.index));
            assert_eq!(*bytes, j.input_bytes);
        }
    }

    #[test]
    fn arrival_rate_matches_config() {
        let cfg = ReplayConfig {
            jobs: Some(5_000),
            ..ReplayConfig::default()
        };
        let jobs: Vec<_> = ReplayStream::new(cfg, 1).collect();
        let span = jobs.last().unwrap().submit.as_secs_f64();
        let rate = jobs.len() as f64 / span;
        let target = cfg.arrivals_per_sec;
        assert!(
            (rate - target).abs() / target < 0.1,
            "rate {rate} vs target {target}"
        );
    }
}
