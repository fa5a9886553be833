//! The Ignem master.
//!
//! Lives inside the NameNode in the paper's implementation. It is the
//! *what* of migration: clients send it file lists, it maps files to blocks
//! using the file system's metadata, chooses **one random replica** per
//! block to migrate (§III-A2 — network bandwidth makes extra copies
//! wasteful), and batches per-slave command lists (§III-A6). Slaves decide
//! *how* and *when*.
//!
//! The master also remembers, per job, which slaves received migration
//! commands so that the job's eventual evict instruction is routed to
//! exactly those slaves. This state is soft: on master failure it is lost,
//! and slaves purge their reference lists to stay consistent with the new
//! master's empty state (§III-A5).

use std::collections::BTreeMap;

use ignem_dfs::error::DfsError;
use ignem_dfs::namenode::NameNode;
use ignem_netsim::rpc::{Epoch, Incarnation};
use ignem_netsim::NodeId;
use ignem_simcore::idmap::IdMap;
use ignem_simcore::metrics::MetricsRegistry;
use ignem_simcore::rng::SimRng;
use ignem_simcore::telemetry::{Event, Telemetry};
use ignem_simcore::time::SimDuration;

#[cfg(test)]
use crate::command::EvictionMode;
use crate::command::{JobId, MigrateCommand, MigrateRequest, RpcPayload, SeqNo, SlaveBatch};

/// Retry policy for unacknowledged master → slave sends: a fixed initial
/// ack timeout, escalated exponentially per attempt and capped, with a
/// bounded number of attempts before the master gives up (the slave is
/// presumed dead; its references will be reclaimed by liveness cleanup).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryConfig {
    /// Time to wait for the first acknowledgement.
    pub ack_timeout: SimDuration,
    /// Multiplier applied to the timeout after each unacknowledged attempt.
    pub backoff: f64,
    /// Upper bound on the escalated timeout.
    pub max_timeout: SimDuration,
    /// Total delivery attempts (first send included) before giving up.
    pub max_attempts: u32,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            ack_timeout: SimDuration::from_secs(1),
            backoff: 2.0,
            max_timeout: SimDuration::from_secs(30),
            max_attempts: 8,
        }
    }
}

impl RetryConfig {
    /// The ack timeout for the given attempt number (1-based), escalated
    /// exponentially and capped at [`max_timeout`](Self::max_timeout).
    pub fn timeout_for(&self, attempt: u32) -> SimDuration {
        let base = self.ack_timeout.as_secs_f64();
        let cap = self.max_timeout.as_secs_f64();
        let secs = (base * self.backoff.powi(attempt.saturating_sub(1) as i32)).min(cap);
        SimDuration::from_secs_f64(secs)
    }
}

/// Master-side configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MasterConfig {
    /// How many replicas of each block to migrate. The paper chooses **1**
    /// (§III-A2): extra copies waste disk bandwidth and memory because the
    /// network is fast enough to read a remote migrated replica. Higher
    /// values exist for the ablation benches.
    pub replicas_to_migrate: usize,
    /// Retransmission policy for sends over the unreliable channel.
    pub retry: RetryConfig,
}

impl Default for MasterConfig {
    fn default() -> Self {
        MasterConfig {
            replicas_to_migrate: 1,
            retry: RetryConfig::default(),
        }
    }
}

/// Counters the master keeps about its own activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MasterStats {
    /// Migrate requests received.
    pub migrate_requests: u64,
    /// Individual block migration commands issued.
    pub blocks_assigned: u64,
    /// Evict requests received.
    pub evict_requests: u64,
    /// Evict requests for jobs the master had no state for (e.g. after a
    /// master failure).
    pub unknown_evicts: u64,
    /// Acknowledgements received for outstanding sends.
    pub acks: u64,
    /// Retransmissions after an ack timeout.
    pub retries: u64,
    /// Sends abandoned after exhausting every attempt.
    pub gave_up: u64,
    /// Slave re-registrations absorbed after crash/restart cycles.
    pub registrations: u64,
}

#[derive(Debug, Clone, Default)]
struct JobRecord {
    /// Slaves that received at least one migrate command for this job.
    slaves: Vec<NodeId>,
}

/// The Ignem master (see module docs).
///
/// ```
/// use ignem_core::command::{EvictionMode, JobId, MigrateRequest};
/// use ignem_core::master::IgnemMaster;
/// use ignem_dfs::namenode::{DfsConfig, NameNode};
/// use ignem_netsim::NodeId;
/// use ignem_simcore::{rng::SimRng, time::SimTime};
///
/// let mut nn = NameNode::new(DfsConfig::default());
/// for n in 0..4 { nn.register_node(NodeId(n)); }
/// let mut rng = SimRng::new(1);
/// nn.create_file("/in", 256 << 20, &mut rng)?;
///
/// let mut master = IgnemMaster::new();
/// let batches = master.handle_migrate(
///     &MigrateRequest {
///         job: JobId(1),
///         files: vec!["/in".into()],
///         mode: EvictionMode::Explicit,
///         submitted: SimTime::ZERO,
///     },
///     &nn,
///     &mut rng,
/// )?;
/// let total: usize = batches.iter().map(|b| b.migrates.len()).sum();
/// assert_eq!(total, 4); // one command per 64 MiB block, one replica each
/// # Ok::<(), ignem_dfs::error::DfsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct IgnemMaster {
    config: MasterConfig,
    jobs: IdMap<JobId, JobRecord>,
    stats: MasterStats,
    /// Current master incarnation, stamped onto every outgoing batch and
    /// liveness reply. Bumped by [`fail`](Self::fail) so commands issued
    /// before a failover are recognizably stale when they finally arrive.
    epoch: Epoch,
    /// Next sequence number; monotonic for the master's whole lifetime,
    /// surviving [`fail`](Self::fail), so a timeout event scheduled for a
    /// pre-failure send can never alias a post-restart send.
    next_seq: u64,
    /// Sends awaiting acknowledgement.
    outbox: IdMap<SeqNo, PendingSend>,
    /// The incarnation the master believes each slave is running, updated
    /// by [`handle_register`](Self::handle_register). Nodes never seen to
    /// restart implicitly run [`Incarnation::FIRST`]. Unlike the job
    /// records this knowledge survives [`fail`](Self::fail): a real
    /// failover recovers it from the slaves' re-registration handshake,
    /// and forgetting it would make the new master stamp every send with
    /// an incarnation the restarted slaves already fenced off.
    incarnations: IdMap<NodeId, Incarnation>,
    /// Typed event emission (disabled by default).
    telemetry: Telemetry,
    /// Sim-time metrics (disabled by default).
    metrics: MetricsRegistry,
}

impl Default for IgnemMaster {
    fn default() -> Self {
        IgnemMaster {
            config: MasterConfig::default(),
            jobs: IdMap::new(),
            stats: MasterStats::default(),
            epoch: Epoch::FIRST,
            next_seq: 0,
            outbox: IdMap::new(),
            incarnations: IdMap::new(),
            telemetry: Telemetry::default(),
            metrics: MetricsRegistry::default(),
        }
    }
}

#[derive(Debug, Clone)]
struct PendingSend {
    to: NodeId,
    payload: RpcPayload,
    /// The epoch the send was registered under. Retransmissions carry the
    /// *original* stamp: a failover clears the outbox, so a pending send
    /// always belongs to the current incarnation, but the stamp is stored
    /// rather than re-read so the invariant is structural.
    epoch: Epoch,
    /// The slave incarnation the send was addressed to. Like the epoch
    /// stamp this travels with retransmissions unchanged: a registration
    /// purges the dead incarnation's outbox entries, so a surviving entry
    /// is always addressed to the believed-current boot, structurally.
    incarnation: Incarnation,
    /// Delivery attempts made so far (1 after the initial send).
    attempt: u32,
}

/// What the master decides when an ack timeout fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetryDecision {
    /// The send was already acknowledged (or the master restarted); the
    /// timeout is stale and nothing happens.
    Settled,
    /// Retransmit `payload` to `to` now and arm a new timeout.
    Retry {
        /// Destination slave.
        to: NodeId,
        /// Payload to retransmit.
        payload: RpcPayload,
        /// The epoch the original send was stamped with.
        epoch: Epoch,
        /// The slave incarnation the original send was addressed to.
        incarnation: Incarnation,
        /// Timeout to arm for this attempt (escalated, capped).
        next_timeout: SimDuration,
    },
    /// Every attempt is exhausted; the slave is presumed unreachable. Any
    /// state it holds for the affected job is reclaimed later by liveness
    /// cleanup, not by further retransmission.
    GiveUp {
        /// The unreachable slave.
        to: NodeId,
    },
}

impl IgnemMaster {
    /// Creates a master with empty state and the paper's defaults.
    pub fn new() -> Self {
        IgnemMaster::default()
    }

    /// Creates a master with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `replicas_to_migrate` is zero.
    pub fn with_config(config: MasterConfig) -> Self {
        assert!(config.replicas_to_migrate > 0, "zero replicas to migrate");
        IgnemMaster {
            config,
            ..IgnemMaster::default()
        }
    }

    /// Installs a telemetry handle; the master then emits
    /// [`Event::MigrationAssigned`] and the retransmission events
    /// ([`Event::RpcRetried`] / [`Event::RpcAcked`] / [`Event::RpcGaveUp`]).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Installs a sim-time metrics handle; the master then counts assigned
    /// migration commands and histograms retransmission attempt depth.
    pub fn set_metrics(&mut self, metrics: MetricsRegistry) {
        self.metrics = metrics;
    }

    /// Activity counters.
    pub fn stats(&self) -> MasterStats {
        self.stats
    }

    /// Number of jobs with live migration state.
    pub fn tracked_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// The current master incarnation (stamped onto every outgoing send).
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The incarnation the master believes `node` is running (and stamps
    /// onto sends addressed there). [`Incarnation::FIRST`] until the node
    /// ever re-registers.
    pub fn slave_incarnation(&self, node: NodeId) -> Incarnation {
        self.incarnations
            .get(&node)
            .copied()
            .unwrap_or(Incarnation::FIRST)
    }

    /// Absorbs a restarted slave's registration: records the fresh
    /// incarnation, purges every outbox entry addressed to the dead one
    /// (their pending timeouts then settle as stale), and forgets the node
    /// in every job record — any reference-list state the dead incarnation
    /// held is gone, so routing that job's eventual evict there would be
    /// pointless. Duplicate or out-of-order deliveries of an
    /// already-absorbed registration are ignored (returns `false`).
    pub fn handle_register(&mut self, node: NodeId, incarnation: Incarnation) -> bool {
        if incarnation <= self.slave_incarnation(node) {
            return false;
        }
        self.incarnations.insert(node, incarnation);
        self.stats.registrations += 1;
        let stale: Vec<SeqNo> = self
            .outbox
            .iter()
            .filter(|(_, p)| p.to == node)
            .map(|(seq, _)| seq)
            .collect();
        for seq in stale {
            self.outbox.remove(&seq);
        }
        for record in self.jobs.values_mut() {
            record.slaves.retain(|&s| s != node);
        }
        self.telemetry.emit(|| Event::SlaveRegistered {
            node: node.0,
            incarnation: incarnation.0,
        });
        true
    }

    /// Handles a client migrate request: resolves files to blocks, picks one
    /// random **alive** replica per block, and returns per-slave batches.
    /// Blocks with no alive replica are skipped (the file system will
    /// re-replicate them eventually; migration is best-effort).
    ///
    /// # Errors
    ///
    /// [`DfsError::FileNotFound`] if any requested file does not exist; no
    /// commands are issued in that case.
    pub fn handle_migrate(
        &mut self,
        req: &MigrateRequest,
        namenode: &NameNode,
        rng: &mut SimRng,
    ) -> Result<Vec<SlaveBatch>, DfsError> {
        self.stats.migrate_requests += 1;
        // Resolve everything first so the request is all-or-nothing.
        let mut blocks = Vec::new();
        for path in &req.files {
            blocks.extend(namenode.file_blocks(path)?);
        }
        let job_input_bytes: u64 = blocks.iter().map(|b| b.bytes).sum();

        // Ordered by node like a dense map, but sized by the targets: a
        // job's replicas are scattered over the cluster, and a dense window
        // would span (and allocate) up to every node id in between.
        let mut batches: BTreeMap<NodeId, SlaveBatch> = BTreeMap::new();
        for info in blocks {
            if info.bytes == 0 {
                continue;
            }
            let mut candidates = namenode.locations(info.id)?;
            if candidates.is_empty() {
                continue;
            }
            rng.shuffle(&mut candidates);
            let k = self.config.replicas_to_migrate.max(1).min(candidates.len());
            let epoch = self.epoch;
            for &target in &candidates[..k] {
                batches
                    .entry(target)
                    .or_insert_with(|| SlaveBatch::new(target, epoch))
                    // lint: allow(Q01, reason = "batch is consumed when the RPC is sent; lives one scheduling round")
                    .migrates
                    .push(MigrateCommand {
                        job: req.job,
                        block: info.id,
                        bytes: info.bytes,
                        mode: req.mode,
                        job_input_bytes,
                        submitted: req.submitted,
                    });
                self.stats.blocks_assigned += 1;
                self.metrics
                    .counter_add("migrations_assigned", target.0 as u64, 1);
                self.telemetry.emit(|| Event::MigrationAssigned {
                    job: req.job.0,
                    block: info.id.0,
                    node: target.0,
                    bytes: info.bytes,
                });
            }
        }

        let record = self.jobs.entry_or_default(req.job);
        for &slave in batches.keys() {
            if !record.slaves.contains(&slave) {
                record.slaves.push(slave);
            }
        }
        Ok(batches.into_values().collect())
    }

    /// Handles a job-completion evict request, returning evict batches for
    /// every slave that ever received a migrate command for the job.
    /// Unknown jobs (e.g. after master failover) produce no batches.
    pub fn handle_evict(&mut self, job: JobId) -> Vec<SlaveBatch> {
        self.stats.evict_requests += 1;
        let Some(record) = self.jobs.remove(&job) else {
            self.stats.unknown_evicts += 1;
            return Vec::new();
        };
        record
            .slaves
            .into_iter()
            .map(|slave| {
                let mut b = SlaveBatch::new(slave, self.epoch);
                b.evicts.push(job);
                b
            })
            .collect()
    }

    /// Registers a send over the unreliable channel in the retransmission
    /// outbox. Returns the sequence number stamped on the message and the
    /// ack timeout the caller must arm for this first attempt.
    pub fn register_send(&mut self, to: NodeId, payload: RpcPayload) -> (SeqNo, SimDuration) {
        let seq = SeqNo(self.next_seq);
        self.next_seq += 1;
        self.outbox.insert(
            seq,
            PendingSend {
                to,
                payload,
                epoch: self.epoch,
                incarnation: self.slave_incarnation(to),
                attempt: 1,
            },
        );
        (seq, self.config.retry.timeout_for(1))
    }

    /// Records an acknowledgement. Duplicate and stale acks (e.g. a
    /// retransmission acked twice, or an ack arriving after a master
    /// restart) are ignored.
    pub fn on_ack(&mut self, seq: SeqNo) {
        if self.outbox.remove(&seq).is_some() {
            self.stats.acks += 1;
            self.telemetry.emit(|| Event::RpcAcked { seq: seq.0 });
        }
    }

    /// Handles an ack-timeout firing for `seq` and decides what to do: the
    /// send may have been settled in the meantime, be retransmitted with an
    /// escalated timeout, or be abandoned after
    /// [`RetryConfig::max_attempts`] attempts.
    pub fn on_timeout(&mut self, seq: SeqNo) -> RetryDecision {
        let Some(pending) = self.outbox.get_mut(&seq) else {
            return RetryDecision::Settled;
        };
        if pending.attempt >= self.config.retry.max_attempts {
            let Some(pending) = self.outbox.remove(&seq) else {
                // Unreachable: the get_mut above proved the entry exists and
                // nothing ran in between. Treat as settled rather than
                // panicking on a fault path (lint rule P01).
                debug_assert!(false, "outbox entry vanished between probe and remove");
                return RetryDecision::Settled;
            };
            self.stats.gave_up += 1;
            self.telemetry.emit(|| Event::RpcGaveUp {
                seq: seq.0,
                node: pending.to.0,
            });
            return RetryDecision::GiveUp { to: pending.to };
        }
        pending.attempt += 1;
        self.stats.retries += 1;
        let (node, attempt) = (pending.to.0, pending.attempt);
        self.metrics
            .observe("rpc_retry_attempt", node as u64, attempt as u64);
        self.telemetry.emit(|| Event::RpcRetried {
            seq: seq.0,
            node,
            attempt,
        });
        RetryDecision::Retry {
            to: pending.to,
            payload: pending.payload.clone(),
            epoch: pending.epoch,
            incarnation: pending.incarnation,
            next_timeout: self.config.retry.timeout_for(pending.attempt),
        }
    }

    /// Number of sends still awaiting acknowledgement.
    pub fn pending_sends(&self) -> usize {
        self.outbox.len()
    }

    /// `(seq, destination, attempts)` of every send awaiting an ack, in
    /// ascending sequence order — the in-flight retransmission state the
    /// time-travel debugger renders.
    pub fn pending_send_summaries(&self) -> Vec<(SeqNo, NodeId, u32)> {
        self.outbox
            .iter()
            .map(|(seq, p)| (seq, p.to, p.attempt))
            .collect()
    }

    /// Simulates a master crash + restart: all soft state is lost. The
    /// cluster layer must subsequently call each slave's
    /// [`on_master_failed`](crate::slave::IgnemSlave::on_master_failed) so
    /// slaves purge reference lists and stay consistent (§III-A5). The
    /// outbox is dropped too (pre-failure timeouts then settle as stale),
    /// but `next_seq` keeps counting so restarted sends never reuse a
    /// sequence number, and the epoch is bumped so in-flight copies of
    /// pre-failure sends are recognizably stale wherever they land. The
    /// per-slave incarnation records survive (see the field docs): they
    /// model knowledge the failover handshake re-establishes.
    pub fn fail(&mut self) {
        self.jobs.clear();
        self.outbox.clear();
        self.epoch = self.epoch.next();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ignem_dfs::namenode::DfsConfig;
    use ignem_simcore::time::SimTime;
    use ignem_simcore::units::MIB;

    fn setup(nodes: u32) -> (NameNode, SimRng) {
        let mut nn = NameNode::new(DfsConfig::default());
        for n in 0..nodes {
            nn.register_node(NodeId(n));
        }
        (nn, SimRng::new(3))
    }

    fn request(job: u64, files: Vec<&str>) -> MigrateRequest {
        MigrateRequest {
            job: JobId(job),
            files: files.into_iter().map(String::from).collect(),
            mode: EvictionMode::Explicit,
            submitted: SimTime::ZERO,
        }
    }

    #[test]
    fn one_replica_per_block() {
        let (mut nn, mut rng) = setup(8);
        nn.create_file("/f", 10 * 64 * MIB, &mut rng).unwrap();
        let mut m = IgnemMaster::new();
        let batches = m
            .handle_migrate(&request(1, vec!["/f"]), &nn, &mut rng)
            .unwrap();
        let total: usize = batches.iter().map(|b| b.migrates.len()).sum();
        assert_eq!(total, 10);
        // Every command targets a node that actually holds the replica.
        for b in &batches {
            for c in &b.migrates {
                assert!(nn.locations(c.block).unwrap().contains(&b.to));
            }
        }
        assert_eq!(m.stats().blocks_assigned, 10);
    }

    #[test]
    fn job_input_bytes_spans_all_files() {
        let (mut nn, mut rng) = setup(4);
        nn.create_file("/a", 64 * MIB, &mut rng).unwrap();
        nn.create_file("/b", 32 * MIB, &mut rng).unwrap();
        let mut m = IgnemMaster::new();
        let batches = m
            .handle_migrate(&request(1, vec!["/a", "/b"]), &nn, &mut rng)
            .unwrap();
        for b in &batches {
            for c in &b.migrates {
                assert_eq!(c.job_input_bytes, 96 * MIB);
            }
        }
    }

    #[test]
    fn missing_file_fails_whole_request() {
        let (mut nn, mut rng) = setup(4);
        nn.create_file("/a", 64 * MIB, &mut rng).unwrap();
        let mut m = IgnemMaster::new();
        let err = m
            .handle_migrate(&request(1, vec!["/a", "/missing"]), &nn, &mut rng)
            .unwrap_err();
        assert_eq!(err, DfsError::FileNotFound("/missing".into()));
        // No state recorded for the failed request.
        assert_eq!(m.tracked_jobs(), 0);
    }

    #[test]
    fn evict_targets_only_involved_slaves() {
        let (mut nn, mut rng) = setup(8);
        nn.create_file("/f", 4 * 64 * MIB, &mut rng).unwrap();
        let mut m = IgnemMaster::new();
        let batches = m
            .handle_migrate(&request(1, vec!["/f"]), &nn, &mut rng)
            .unwrap();
        let migrate_slaves: Vec<NodeId> = batches.iter().map(|b| b.to).collect();
        let evicts = m.handle_evict(JobId(1));
        let evict_slaves: Vec<NodeId> = evicts.iter().map(|b| b.to).collect();
        assert_eq!(migrate_slaves, evict_slaves);
        assert!(evicts.iter().all(|b| b.evicts == vec![JobId(1)]));
        // Second evict is a no-op (job state removed).
        assert!(m.handle_evict(JobId(1)).is_empty());
        assert_eq!(m.stats().unknown_evicts, 1);
    }

    #[test]
    fn failure_clears_state() {
        let (mut nn, mut rng) = setup(4);
        nn.create_file("/f", 64 * MIB, &mut rng).unwrap();
        let mut m = IgnemMaster::new();
        m.handle_migrate(&request(1, vec!["/f"]), &nn, &mut rng)
            .unwrap();
        assert_eq!(m.tracked_jobs(), 1);
        m.fail();
        assert_eq!(m.tracked_jobs(), 0);
        assert!(m.handle_evict(JobId(1)).is_empty());
    }

    #[test]
    fn dead_replica_holders_are_never_chosen() {
        let (mut nn, mut rng) = setup(4);
        nn.create_file("/f", 20 * 64 * MIB, &mut rng).unwrap();
        nn.mark_dead(NodeId(0)).unwrap();
        let mut m = IgnemMaster::new();
        let batches = m
            .handle_migrate(&request(1, vec!["/f"]), &nn, &mut rng)
            .unwrap();
        assert!(batches.iter().all(|b| b.to != NodeId(0)));
    }

    #[test]
    fn retry_timeout_escalates_and_caps() {
        let retry = RetryConfig::default();
        assert_eq!(retry.timeout_for(1), SimDuration::from_secs(1));
        assert_eq!(retry.timeout_for(2), SimDuration::from_secs(2));
        assert_eq!(retry.timeout_for(4), SimDuration::from_secs(8));
        // 2^9 = 512 s would exceed the cap.
        assert_eq!(retry.timeout_for(10), SimDuration::from_secs(30));
    }

    #[test]
    fn ack_settles_and_stale_timeouts_are_ignored() {
        let mut m = IgnemMaster::new();
        let (seq, first) = m.register_send(NodeId(2), RpcPayload::Evict(JobId(7)));
        assert_eq!(first, SimDuration::from_secs(1));
        assert_eq!(m.pending_sends(), 1);
        m.on_ack(seq);
        assert_eq!(m.pending_sends(), 0);
        assert_eq!(m.stats().acks, 1);
        // Duplicate ack and late timeout are both inert.
        m.on_ack(seq);
        assert_eq!(m.stats().acks, 1);
        assert_eq!(m.on_timeout(seq), RetryDecision::Settled);
        assert_eq!(m.stats().retries, 0);
    }

    #[test]
    fn timeouts_retry_then_give_up() {
        let mut m = IgnemMaster::with_config(MasterConfig {
            retry: RetryConfig {
                max_attempts: 3,
                ..RetryConfig::default()
            },
            ..MasterConfig::default()
        });
        let payload = RpcPayload::Evict(JobId(1));
        let (seq, _) = m.register_send(NodeId(5), payload.clone());
        assert_eq!(
            m.on_timeout(seq),
            RetryDecision::Retry {
                to: NodeId(5),
                payload: payload.clone(),
                epoch: Epoch::FIRST,
                incarnation: Incarnation::FIRST,
                next_timeout: SimDuration::from_secs(2),
            }
        );
        assert_eq!(
            m.on_timeout(seq),
            RetryDecision::Retry {
                to: NodeId(5),
                payload,
                epoch: Epoch::FIRST,
                incarnation: Incarnation::FIRST,
                next_timeout: SimDuration::from_secs(4),
            }
        );
        assert_eq!(m.on_timeout(seq), RetryDecision::GiveUp { to: NodeId(5) });
        assert_eq!(m.pending_sends(), 0);
        assert_eq!(m.stats().retries, 2);
        assert_eq!(m.stats().gave_up, 1);
        // Another stray timeout after give-up is stale.
        assert_eq!(m.on_timeout(seq), RetryDecision::Settled);
    }

    #[test]
    fn failure_clears_outbox_but_seq_stays_monotonic() {
        let mut m = IgnemMaster::new();
        let (seq0, _) = m.register_send(NodeId(1), RpcPayload::Evict(JobId(1)));
        m.fail();
        assert_eq!(m.pending_sends(), 0);
        assert_eq!(m.on_timeout(seq0), RetryDecision::Settled);
        let (seq1, _) = m.register_send(NodeId(1), RpcPayload::Evict(JobId(2)));
        assert!(seq1 > seq0, "sequence numbers must never be reused");
    }

    #[test]
    fn failure_bumps_epoch_and_batches_carry_it() {
        let (mut nn, mut rng) = setup(4);
        nn.create_file("/f", 64 * MIB, &mut rng).unwrap();
        let mut m = IgnemMaster::new();
        assert_eq!(m.epoch(), Epoch::FIRST);
        let batches = m
            .handle_migrate(&request(1, vec!["/f"]), &nn, &mut rng)
            .unwrap();
        assert!(batches.iter().all(|b| b.epoch == Epoch::FIRST));
        m.fail();
        assert_eq!(m.epoch(), Epoch(2));
        let batches = m
            .handle_migrate(&request(2, vec!["/f"]), &nn, &mut rng)
            .unwrap();
        assert!(batches.iter().all(|b| b.epoch == Epoch(2)));
        // A retransmission registered before the failure would have carried
        // the old stamp; one registered after carries the new one.
        let (seq, _) = m.register_send(NodeId(1), RpcPayload::Evict(JobId(2)));
        match m.on_timeout(seq) {
            RetryDecision::Retry { epoch, .. } => assert_eq!(epoch, Epoch(2)),
            other => panic!("expected retry, got {other:?}"),
        }
    }

    #[test]
    fn registration_purges_dead_incarnation_state() {
        let (mut nn, mut rng) = setup(4);
        nn.create_file("/f", 4 * 64 * MIB, &mut rng).unwrap();
        let mut m = IgnemMaster::new();
        let batches = m
            .handle_migrate(&request(1, vec!["/f"]), &nn, &mut rng)
            .unwrap();
        let crashed = batches[0].to;
        let (seq, _) = m.register_send(crashed, RpcPayload::Evict(JobId(9)));
        let (other_seq, _) = m.register_send(NodeId(99), RpcPayload::Evict(JobId(9)));
        assert_eq!(m.slave_incarnation(crashed), Incarnation::FIRST);

        assert!(m.handle_register(crashed, Incarnation(2)));
        assert_eq!(m.slave_incarnation(crashed), Incarnation(2));
        assert_eq!(m.stats().registrations, 1);
        // Outbox entries addressed to the dead incarnation are purged;
        // their timeouts settle as stale. Unrelated sends survive.
        assert_eq!(m.on_timeout(seq), RetryDecision::Settled);
        assert!(matches!(
            m.on_timeout(other_seq),
            RetryDecision::Retry { .. }
        ));
        // The job's evict no longer targets the crashed node.
        assert!(m.handle_evict(JobId(1)).iter().all(|b| b.to != crashed));
        // Subsequent sends are stamped with the fresh incarnation.
        let (seq2, _) = m.register_send(crashed, RpcPayload::Evict(JobId(2)));
        match m.on_timeout(seq2) {
            RetryDecision::Retry { incarnation, .. } => {
                assert_eq!(incarnation, Incarnation(2));
            }
            other => panic!("expected retry, got {other:?}"),
        }
        // Duplicate and stale registrations are inert.
        assert!(!m.handle_register(crashed, Incarnation(2)));
        assert!(!m.handle_register(crashed, Incarnation::FIRST));
        assert_eq!(m.stats().registrations, 1);
    }

    #[test]
    fn incarnation_knowledge_survives_master_failure() {
        let mut m = IgnemMaster::new();
        assert!(m.handle_register(NodeId(3), Incarnation(4)));
        m.fail();
        assert_eq!(m.slave_incarnation(NodeId(3)), Incarnation(4));
    }

    #[test]
    fn repeated_migrate_extends_job_record() {
        let (mut nn, mut rng) = setup(4);
        nn.create_file("/a", 64 * MIB, &mut rng).unwrap();
        nn.create_file("/b", 64 * MIB, &mut rng).unwrap();
        let mut m = IgnemMaster::new();
        m.handle_migrate(&request(1, vec!["/a"]), &nn, &mut rng)
            .unwrap();
        m.handle_migrate(&request(1, vec!["/b"]), &nn, &mut rng)
            .unwrap();
        assert_eq!(m.tracked_jobs(), 1);
        assert!(!m.handle_evict(JobId(1)).is_empty());
    }
}
