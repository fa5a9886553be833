//! Run metrics: everything the paper's tables and figures are computed
//! from.

use ignem_core::master::MasterStats;
use ignem_core::slave::SlaveStats;
use ignem_netsim::rpc::RpcStats;
use ignem_simcore::stats::Samples;
use ignem_simcore::time::SimTime;

/// Where a block read was served from (collapsed from the DFS planner's
/// [`ReadSource`](ignem_dfs::client::ReadSource) for reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadKind {
    /// Local or remote memory.
    Memory,
    /// Local disk.
    LocalDisk,
    /// Remote disk over the network.
    RemoteDisk,
}

impl std::fmt::Display for ReadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadKind::Memory => write!(f, "memory"),
            ReadKind::LocalDisk => write!(f, "local-disk"),
            ReadKind::RemoteDisk => write!(f, "remote-disk"),
        }
    }
}

/// One completed map-input block read (Fig. 1 / Fig. 6 raw data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockRead {
    /// Bytes read.
    pub bytes: u64,
    /// End-to-end read duration in seconds.
    pub secs: f64,
    /// Serving medium.
    pub kind: ReadKind,
}

/// One finished job (a single MapReduce stage).
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Job name.
    pub name: String,
    /// Index of the planned workload entry this job belongs to.
    pub plan: usize,
    /// Stage index within the planned entry.
    pub stage: usize,
    /// Total map-input bytes.
    pub input_bytes: u64,
    /// Submission time.
    pub submitted: SimTime,
    /// Duration (submission → last task completion) in seconds.
    pub duration: f64,
}

/// One finished planned entry (a whole query / multi-stage job).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanResult {
    /// Workload entry name.
    pub name: String,
    /// Plan index.
    pub plan: usize,
    /// Stage-1 input bytes (what Fig. 9b reports for queries).
    pub input_bytes: u64,
    /// End-to-end duration (first submission → last stage completion).
    pub duration: f64,
}

/// One node's double-entry residency account: bytes credited into the
/// migration buffer by completed migrations, bytes debited out by
/// evictions, purges and restarts. The balance is the bytes that must be
/// migrated-resident right now — any drift from the MemStore's own
/// occupancy is an accounting bug, not a policy choice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerEntry {
    /// Bytes admitted as migrated-resident (credit side).
    pub credited: u64,
    /// Bytes removed from migrated residency (debit side).
    pub debited: u64,
}

impl LedgerEntry {
    /// Bytes this account says must currently be resident.
    ///
    /// # Panics
    ///
    /// Panics if more bytes were debited than ever credited — the ledger
    /// went negative, which no legal event sequence can produce.
    pub fn balance(&self) -> u64 {
        self.credited
            .checked_sub(self.debited)
            .expect("residency ledger went negative")
    }
}

/// Per-node resident-bytes ledger for the migration buffers.
///
/// [`World`](crate::world::World) keeps it synchronized with the slaves'
/// own counters and, when per-event validation is on, reconciles every
/// node's balance against its MemStore occupancy after every event. The
/// final state is exported in [`RunMetrics::ledger`] so end-of-run checks
/// (chaos invariants, reports) can audit conservation without replaying
/// the event stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResidencyLedger {
    /// One account per node, indexed by node id.
    pub entries: Vec<LedgerEntry>,
}

impl ResidencyLedger {
    /// An empty ledger with one zeroed account per node.
    pub fn new(nodes: usize) -> Self {
        ResidencyLedger {
            entries: vec![LedgerEntry::default(); nodes],
        }
    }

    /// Overwrites one node's account with the authoritative counters.
    pub fn record(&mut self, node: usize, credited: u64, debited: u64) {
        self.entries[node] = LedgerEntry { credited, debited };
    }

    /// Checks one node's balance against the observed resident bytes.
    ///
    /// # Errors
    ///
    /// Returns a description of the discrepancy when the account and the
    /// observation disagree.
    pub fn reconcile(&self, node: usize, resident: u64) -> Result<(), String> {
        let e = &self.entries[node];
        if e.credited.checked_sub(e.debited) != Some(resident) {
            return Err(format!(
                "node{node} ledger out of balance: credited {} - debited {} != resident {resident}",
                e.credited, e.debited
            ));
        }
        Ok(())
    }

    /// Sum of all node balances: migrated bytes the ledger says are still
    /// resident cluster-wide.
    pub fn total_balance(&self) -> u64 {
        self.entries.iter().map(|e| e.balance()).sum()
    }
}

/// Everything measured during one simulated run.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Per-stage job results, completion order.
    pub jobs: Vec<JobResult>,
    /// Per-planned-entry results, completion order.
    pub plans: Vec<PlanResult>,
    /// Map-task durations (seconds).
    pub map_task_secs: Samples,
    /// Reduce-task durations (seconds).
    pub reduce_task_secs: Samples,
    /// Every map-input block read.
    pub block_reads: Vec<BlockRead>,
    /// Per-node migrated-buffer occupancy series `(time, bytes)` sampled on
    /// change (from the MemStores).
    pub mem_series: Vec<Vec<(SimTime, f64)>>,
    /// Per-node occupancy series of the *hypothetical instantaneous* scheme
    /// (Fig. 7's comparison point).
    pub hypothetical_series: Vec<Vec<(SimTime, f64)>>,
    /// Aggregated Ignem slave counters.
    pub slave_stats: SlaveStats,
    /// Ignem master counters.
    pub master_stats: MasterStats,
    /// Control-plane RPC channel counters (drops, duplicates, cuts).
    pub rpc: RpcStats,
    /// Reference-list entries still held by alive slaves at the end of the
    /// run. Zero in a leak-free run: every migrated block was reclaimed.
    pub leaked_job_refs: u64,
    /// Migrated bytes still resident in slave buffers at the end of the
    /// run. Zero when the reference lists drained.
    pub final_migrated_bytes: u64,
    /// Final per-node residency accounts (see [`ResidencyLedger`]); the
    /// total balance equals `final_migrated_bytes` plus whatever dead
    /// nodes' purges already zeroed out.
    pub ledger: ResidencyLedger,
    /// Per-node disk busy fraction over the makespan.
    pub disk_utilization: Vec<f64>,
    /// Blocks re-replicated after node failures.
    pub rereplicated: u64,
    /// Re-replication attempts deferred because no legal source/target
    /// existed at the time (retried with backoff).
    pub rerep_deferrals: u64,
    /// Deferred re-replications abandoned after exhausting every backoff
    /// retry (the cluster shrank below the replication factor for good).
    pub rerep_gave_up: u64,
    /// Node crashes injected ([`Fault::NodeCrash`](crate::world::Fault)).
    pub crashes: u64,
    /// Crashed nodes that came back up and restarted their slave.
    pub restarts: u64,
    /// Block reports absorbed by the NameNode from re-registering nodes.
    pub block_reports: u64,
    /// Migrate requests re-issued for still-live jobs after a node
    /// re-registered (crash-recovery "re-ignition").
    pub reignited_jobs: u64,
    /// Invariant 8 (recovery convergence) verdict, computed at
    /// finalization when the run injected at least one crash: `None` means
    /// converged — every crashed-and-recovered node re-registered under
    /// its final incarnation with both master and NameNode, the
    /// retransmission outbox drained, and no durably written block was
    /// left without an alive replica. `Some` carries the violation.
    pub recovery: Option<String>,
    /// Time the last job finished.
    pub makespan: SimTime,
    /// Engine events processed over the whole run. Deterministic for a
    /// given seed; the bench harness divides it by wall time to report
    /// events/sec.
    pub events_processed: u64,
}

impl RunMetrics {
    /// Mean job duration in seconds (Table I's headline quantity) over
    /// *planned entries* (queries count once, not per stage).
    pub fn mean_plan_duration(&self) -> f64 {
        if self.plans.is_empty() {
            return 0.0;
        }
        self.plans.iter().map(|p| p.duration).sum::<f64>() / self.plans.len() as f64
    }

    /// Mean map-task duration in seconds (Table II).
    pub fn mean_map_task_secs(&self) -> f64 {
        self.map_task_secs.mean()
    }

    /// Mean block-read duration in seconds (Fig. 6).
    pub fn mean_block_read_secs(&self) -> f64 {
        if self.block_reads.is_empty() {
            return 0.0;
        }
        self.block_reads.iter().map(|r| r.secs).sum::<f64>() / self.block_reads.len() as f64
    }

    /// Fraction of block reads served from memory (Fig. 6's "roughly 60% of
    /// blocks are successfully migrated" under Ignem).
    pub fn memory_read_fraction(&self) -> f64 {
        if self.block_reads.is_empty() {
            return 0.0;
        }
        self.block_reads
            .iter()
            .filter(|r| r.kind == ReadKind::Memory)
            .count() as f64
            / self.block_reads.len() as f64
    }

    /// Mean over nodes of the time-average migrated-buffer occupancy,
    /// considering only nonzero-occupancy samples the way Fig. 7 does.
    ///
    /// Zero-length windows — consecutive samples at the same instant, as
    /// produced when several buffer changes land on one engine tick — carry
    /// no time weight and are skipped defensively (`t1 > t0` guard) so they
    /// can never poison the average with a `0.0 * v` term or, worse, a
    /// negative window from an unsorted series. The tail after the last
    /// sample is extrapolated only when `end > t_last`; a series whose last
    /// sample lies at or beyond `end` contributes no tail, i.e. `end`
    /// values inside the sampled range silently ignore everything sampled
    /// after them.
    pub fn mean_nonzero_occupancy(series: &[Vec<(SimTime, f64)>], end: SimTime) -> f64 {
        let mut weighted = 0.0;
        let mut busy_secs = 0.0;
        for node in series {
            for w in node.windows(2) {
                let (t0, v) = w[0];
                let (t1, _) = w[1];
                if v > 0.0 && t1 > t0 {
                    let dt = t1.duration_since(t0).as_secs_f64();
                    weighted += v * dt;
                    busy_secs += dt;
                }
            }
            if let Some(&(t_last, v)) = node.last() {
                if v > 0.0 && end > t_last {
                    let dt = end.duration_since(t_last).as_secs_f64();
                    weighted += v * dt;
                    busy_secs += dt;
                }
            }
        }
        if busy_secs == 0.0 {
            0.0
        } else {
            weighted / busy_secs
        }
    }

    /// Speedup of this run's mean plan duration versus a baseline run's
    /// (Table I's "Speedup w.r.t HDFS"): `1 − this/baseline`.
    pub fn speedup_vs(&self, baseline: &RunMetrics) -> f64 {
        let base = baseline.mean_plan_duration();
        if base == 0.0 {
            0.0
        } else {
            1.0 - self.mean_plan_duration() / base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(duration: f64) -> PlanResult {
        PlanResult {
            name: "j".into(),
            plan: 0,
            input_bytes: 1,
            duration,
        }
    }

    #[test]
    fn mean_plan_duration_averages() {
        let mut m = RunMetrics::default();
        m.plans.push(plan(10.0));
        m.plans.push(plan(20.0));
        assert_eq!(m.mean_plan_duration(), 15.0);
    }

    #[test]
    fn speedup_vs_baseline() {
        let mut fast = RunMetrics::default();
        fast.plans.push(plan(8.0));
        let mut slow = RunMetrics::default();
        slow.plans.push(plan(10.0));
        assert!((fast.speedup_vs(&slow) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn memory_fraction_counts_kinds() {
        let mut m = RunMetrics::default();
        m.block_reads.push(BlockRead {
            bytes: 1,
            secs: 0.1,
            kind: ReadKind::Memory,
        });
        m.block_reads.push(BlockRead {
            bytes: 1,
            secs: 1.0,
            kind: ReadKind::LocalDisk,
        });
        assert_eq!(m.memory_read_fraction(), 0.5);
        assert!((m.mean_block_read_secs() - 0.55).abs() < 1e-12);
    }

    #[test]
    fn nonzero_occupancy_is_time_weighted() {
        // One node: 0 until t=10, 100 bytes until t=20, 0 afterwards.
        let series = vec![vec![
            (SimTime::ZERO, 0.0),
            (SimTime::from_secs(10), 100.0),
            (SimTime::from_secs(20), 0.0),
        ]];
        let mean = RunMetrics::mean_nonzero_occupancy(&series, SimTime::from_secs(40));
        assert_eq!(mean, 100.0);
    }

    #[test]
    fn nonzero_occupancy_skips_zero_length_windows() {
        // Two samples at the same instant (a burst of buffer changes on one
        // engine tick) must not contribute weight; only the 10s window at
        // 300 bytes and the 5s tail at 50 bytes count.
        let series = vec![vec![
            (SimTime::ZERO, 100.0),
            (SimTime::ZERO, 300.0),
            (SimTime::from_secs(10), 50.0),
        ]];
        let mean = RunMetrics::mean_nonzero_occupancy(&series, SimTime::from_secs(15));
        assert!((mean - (300.0 * 10.0 + 50.0 * 5.0) / 15.0).abs() < 1e-9);

        // A run whose only nonzero sample sits exactly at `end` has no
        // measurable busy time at all.
        let flat = vec![vec![(SimTime::from_secs(5), 42.0)]];
        assert_eq!(
            RunMetrics::mean_nonzero_occupancy(&flat, SimTime::from_secs(5)),
            0.0
        );
    }

    #[test]
    fn ledger_balances_and_reconciles() {
        let mut l = ResidencyLedger::new(2);
        l.record(0, 128, 64);
        l.record(1, 10, 10);
        assert_eq!(l.entries[0].balance(), 64);
        assert_eq!(l.total_balance(), 64);
        assert!(l.reconcile(0, 64).is_ok());
        assert!(l.reconcile(1, 0).is_ok());
        let err = l.reconcile(0, 0).unwrap_err();
        assert!(err.contains("out of balance"), "{err}");
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn ledger_negative_balance_panics() {
        let e = LedgerEntry {
            credited: 1,
            debited: 2,
        };
        let _ = e.balance();
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = RunMetrics::default();
        assert_eq!(m.mean_plan_duration(), 0.0);
        assert_eq!(m.memory_read_fraction(), 0.0);
        assert_eq!(m.mean_block_read_secs(), 0.0);
    }
}
