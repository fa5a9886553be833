//! The integrated cluster simulation.
//!
//! [`World`] wires every substrate into one deterministic discrete-event
//! simulation of the paper's testbed: per-node disks and memory stores, the
//! network fabric, the HDFS-like NameNode, the Ignem master and slaves, and
//! the heartbeat-driven compute framework. A run executes a *workload plan*
//! (a list of [`PlannedJob`]s, each one or more MapReduce stages) under one
//! of the three file-system configurations and produces [`RunMetrics`].
//!
//! ## Where lead-time comes from
//!
//! Exactly the paper's §II-C sources, modelled explicitly: the submitter
//! overhead + optional artificial sleep, the wait for a node heartbeat
//! (3 s interval), task queueing behind busy slots, and per-task launch
//! overhead. Ignem migrates during all of them.
//!
//! ## Failure injection
//!
//! Faults can be scheduled before the run: master failover (slaves purge
//! reference lists), slave process restarts (migrated data discarded, reads
//! cancelled), whole-node failures (tasks re-executed elsewhere, replicas
//! dropped from location queries), **node crashes with recovery** (volatile
//! RAM wiped, NIC dark for the outage, then restart under a fresh
//! incarnation with re-registration, block report and re-ignition — see
//! *Crash and recovery* below), job kills (exercising the
//! threshold-triggered dead-job cleanup), and **gray faults**: degraded
//! disks, paused nodes and control-plane partitions.
//!
//! ## Crash and recovery
//!
//! A [`Fault::NodeCrash`] kills the whole server like [`Fault::NodeFail`]
//! (volatile MemStore wiped — pinned inputs, page cache and migrated blocks
//! alike — in-flight IO and transfers cancelled, tasks re-executed
//! elsewhere, NIC cut) but schedules a restart after the outage. On restart
//! the slave comes back under a fresh [`Incarnation`] and re-registers with
//! the master over the lossy channel (retried with backoff); the
//! registration doubles as a full block report from the node's durable
//! disk, so the NameNode marks its replicas readable again. The master
//! purges every outbox entry and job-routing record addressed to the dead
//! incarnation — incarnations fence stale slave-directed state exactly like
//! epochs fence stale master-issued state — then re-replication retries
//! blocks still short a replica and migration is re-admitted
//! ("re-ignition") for live jobs. Reads degrade to surviving replicas or
//! disk while the node is dark. Invariant 8 (recovery convergence,
//! [`RunMetrics::recovery`]) checks at the end of the run that no dangling
//! dead-incarnation state survived anywhere.
//!
//! ## Unreliable control plane
//!
//! All Ignem master ↔ slave traffic (migrate batches, evicts, liveness
//! queries and replies) is routed through an [`RpcChannel`] that can drop,
//! duplicate and delay messages ([`ClusterConfig::rpc`]). Migrate and evict
//! sends are acknowledged; the master retransmits unacked sends with capped
//! exponential backoff and eventually gives up (slave-side command handling
//! is idempotent, so duplicates are harmless). Liveness traffic is not
//! acked — the slave's query cooldown naturally re-issues lost queries. A
//! periodic cleanup sweep reclaims references a slave acquired from a
//! command delivered *after* a master failover purged its state. With the
//! default (reliable) channel none of this machinery consumes randomness or
//! changes behaviour.
//!
//! ## Epochs, leases, and the residency ledger
//!
//! Every master→slave message carries the master's [`Epoch`], bumped on
//! failover; slaves reject commands stamped older than the newest epoch
//! they have seen (a retransmission from before a failover must not
//! resurrect purged state) and treat a *newer* epoch as a missed failover
//! notification. When
//! [`IgnemConfig::lease`](ignem_core::slave::IgnemConfig) is set, each
//! job's references additionally carry a lease renewed by the job's own
//! control traffic and by liveness replies; lease-check timers expire
//! orphaned references deterministically even when the cleanup sweep has
//! already wound down. Each slave keeps a double-entry residency ledger in
//! its own counters (bytes migrated in, bytes evicted out); under
//! [`with_validation`](World::with_validation) its balance is checked
//! against the node's MemStore occupancy after every event that touches
//! the node, and [`RunMetrics::ledger`] reports the final accounts. All
//! three mechanisms are inert in a fault-free run: no events, no
//! randomness, no behaviour change.

// Deterministic-iteration policy (lint rule D02): every map or set this
// module iterates is an ordered container — a dense `IdMap`/`IdSet`
// (ascending-key iteration by construction) or a BTree container — so two
// runs of the same seed visit entries, and therefore draw randomness and
// schedule events, in one order. Hash containers are only acceptable for
// pure point lookups.
use std::collections::{BTreeSet, HashMap};

use ignem_compute::config::{AM_OVERHEAD, SLOTS_PER_NODE, SUBMIT_OVERHEAD, TASK_LAUNCH_OVERHEAD};
use ignem_compute::job::{JobInput, JobSpec};
use ignem_compute::slots::Slots;
use ignem_compute::tracker::{
    choose_map_task, choose_reduce_task, JobTracker, MapInput, TaskId, TaskKind,
};
use ignem_core::command::{JobId, MigrateCommand, MigrateRequest, RpcPayload, SeqNo};
use ignem_core::master::{timeout_for, IgnemMaster, RetryDecision};
use ignem_core::slave::{IgnemSlave, SlaveAction};
use ignem_dfs::block::{split_into_blocks, BlockId};
use ignem_dfs::client::{plan_read, ReadSource};
use ignem_dfs::namenode::NameNode;
use ignem_netsim::rpc::{Epoch, Incarnation, RpcChannel, RpcPeer};
use ignem_netsim::{Fabric, NodeId, TransferId, LATENCY};
use ignem_simcore::event::Engine;
use ignem_simcore::idmap::IdMap;
use ignem_simcore::metrics::{MetricsRegistry, MetricsState};
use ignem_simcore::profile::HostProfiler;
use ignem_simcore::rng::SimRng;
use ignem_simcore::stats::TimeWeighted;
use ignem_simcore::telemetry::{
    Event as TelemetryEvent, EventRecord, EventSink, FlightRecorder, Telemetry,
};
use ignem_simcore::time::{SimDuration, SimTime};
use ignem_simcore::units::GB;
use ignem_storage::disk::{Completion, Disk, IoKind, RequestId};
use ignem_storage::memstore::{MemStore, Residency};

use crate::columns::BitCol;
use crate::config::{ClusterConfig, FsMode};
use crate::metrics::{BlockRead, JobResult, LedgerEntry, PlanResult, ReadKind, RunMetrics};

/// Interval of the master's reference-list cleanup sweep — the backstop
/// that reclaims references a slave acquired from a command delivered
/// *after* a master failover purged its state.
const CLEANUP_SWEEP: SimDuration = SimDuration::from_secs(30);

/// RAM per server: the testbed's 128 GB, which holds the migration buffer,
/// pinned inputs and the page cache.
const MEM_CAPACITY: u64 = 128 * GB;

/// Nodes per heartbeat group, a contiguous range of nodes that one
/// [`Event::Heartbeat`] chain serves. Paper-scale worlds give every node
/// its own chain; [`ClusterConfig::heartbeat_sweep`] makes the whole
/// cluster one group, so a 12k-node month schedules one beat per interval
/// instead of one per node.
fn heartbeat_group_size(cfg: &ClusterConfig) -> usize {
    if cfg.heartbeat_sweep {
        cfg.nodes
    } else {
        1
    }
}

/// One workload entry: a job (or multi-stage query) with a submission time.
#[derive(Debug, Clone)]
pub struct PlannedJob {
    /// Display name (stage jobs get `-s<k>` suffixes from their specs).
    pub name: String,
    /// Submission offset from the start of the run.
    pub submit: SimDuration,
    /// The MapReduce stages, run sequentially.
    pub stages: Vec<JobSpec>,
}

impl PlannedJob {
    /// A single-stage planned job.
    pub fn single(name: impl Into<String>, submit: SimDuration, spec: JobSpec) -> Self {
        PlannedJob {
            name: name.into(),
            submit,
            stages: vec![spec],
        }
    }
}

/// A pull-based source of planned jobs in nondecreasing submit order — the
/// streaming front-end to [`World`].
///
/// A world built with [`World::with_arrivals`] admits one job at a time:
/// only the *next* pending arrival is materialized, and the source is
/// pulled again when that arrival's event fires. Memory stays proportional
/// to live jobs rather than trace length, which is what makes a
/// month-long, hundreds-of-thousands-of-jobs replay feasible.
///
/// Blanket-implemented for any `Clone + Send` iterator of [`PlannedJob`]s.
/// Cloning must fork the exact sequence position: [`World`] is `Clone` and
/// the snapshot machinery captures the source mid-stream.
pub trait ArrivalSource: Send {
    /// The next arrival, or `None` once the trace is exhausted.
    fn next_arrival(&mut self) -> Option<PlannedJob>;
    /// Forks this source at its current position.
    fn clone_source(&self) -> Box<dyn ArrivalSource>;
}

impl<I> ArrivalSource for I
where
    I: Iterator<Item = PlannedJob> + Clone + Send + 'static,
{
    fn next_arrival(&mut self) -> Option<PlannedJob> {
        self.next()
    }

    fn clone_source(&self) -> Box<dyn ArrivalSource> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn ArrivalSource> {
    fn clone(&self) -> Self {
        self.clone_source()
    }
}

/// A fault to inject at a point in simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// The Ignem master crashes and restarts empty (§III-A5).
    MasterFail,
    /// The slave process on a node restarts; migrated data is discarded.
    SlaveRestart(NodeId),
    /// A whole server fails permanently.
    NodeFail(NodeId),
    /// A planned job is killed before completing (no evict is ever sent —
    /// exercises threshold-triggered dead-job cleanup).
    KillPlan(usize),
    /// Gray fault: the node's disk runs at the given percentage of its
    /// nominal bandwidth for the given duration, then recovers. IO keeps
    /// completing, just slowly.
    DiskDegrade(NodeId, u32, SimDuration),
    /// Gray fault: the node's control plane stops responding for the given
    /// duration (long GC / scheduler stall). Incoming control messages are
    /// deferred until it resumes and no new tasks are assigned to it, but
    /// already-running IO and compute continue.
    NodePause(NodeId, SimDuration),
    /// Gray fault: the given nodes are partitioned from the rest of the
    /// **control plane** (master and other slaves) for the given duration.
    /// Data-plane reads are deliberately unaffected — the paper's 10 GbE
    /// fabric is non-blocking; this models management-network flakiness.
    Partition(Vec<NodeId>, SimDuration),
    /// The whole server crashes and reboots after the given outage:
    /// volatile RAM contents are lost, durable disk blocks survive, and
    /// the restarted slave re-registers under a fresh incarnation (see the
    /// module-level *Crash and recovery* section). Crashing an
    /// already-dead node is a no-op.
    NodeCrash(NodeId, SimDuration),
}

#[derive(Debug, Clone)]
enum Event {
    Submit(usize),
    Queued(JobId),
    /// One beat of a heartbeat group: `(group, round)`, where the round
    /// rotates the node the beat starts from (see [`World::on_heartbeat`]).
    Heartbeat(u32, u64),
    /// Completion timer of one node's storage device (generation-guarded).
    IoTimer(Device, u32, u64),
    NetTimer(u64),
    TaskLaunched(TaskId),
    TaskComputeDone(TaskId),
    DeliverMigrates(u32, SeqNo, Epoch, Incarnation, Vec<MigrateCommand>),
    DeliverEvict(u32, SeqNo, Epoch, Incarnation, JobId),
    DeliverAck(SeqNo),
    RpcTimeout(SeqNo),
    LivenessQuery(u32, Vec<JobId>),
    /// `(slave, master epoch, dead jobs, alive jobs)` — the alive list
    /// renews leases; the dead list releases references.
    LivenessReply(u32, Epoch, Vec<JobId>, Vec<JobId>),
    /// Lease-expiry timer for one node's slave; the generation counter
    /// invalidates timers superseded by a renewal.
    LeaseCheck(u32, u64),
    NodeResume(u32),
    DiskRestore(u32),
    PartitionHeal(usize),
    /// A crashed node's outage ends: the server boots, the slave restarts
    /// under a fresh incarnation and sends its registration.
    NodeRestart(u32),
    /// A restarted slave's registration arriving at the master; it doubles
    /// as the full block report from the node's durable store.
    DeliverRegister(u32, Incarnation),
    /// Registration retransmission timer: `(node, attempt)`. Inert once
    /// the master has absorbed the node's current incarnation.
    RegisterRetry(u32, u32),
    /// Deferred re-replication backoff timer (generation-guarded).
    RerepRetry(u64),
    CleanupSweep,
    /// The next streamed arrival is due: admit it and pull the following
    /// one from the [`ArrivalSource`]. Carries no payload — the pending
    /// plan lives in `World::next_arrival` (exactly one `Arrival` event is
    /// in flight whenever that field is `Some`).
    Arrival,
    Inject(usize),
}

impl Event {
    /// Stable bucket name for host-time profiling.
    fn kind_name(&self) -> &'static str {
        match self {
            Event::Submit(..) => "submit",
            Event::Queued(..) => "queued",
            Event::Heartbeat(..) => "heartbeat",
            Event::IoTimer(Device::Disk, ..) => "disk_timer",
            Event::IoTimer(Device::Ram, ..) => "ram_timer",
            Event::NetTimer(..) => "net_timer",
            Event::TaskLaunched(..) => "task_launched",
            Event::TaskComputeDone(..) => "task_compute_done",
            Event::DeliverMigrates(..) => "deliver_migrates",
            Event::DeliverEvict(..) => "deliver_evict",
            Event::DeliverAck(..) => "deliver_ack",
            Event::RpcTimeout(..) => "rpc_timeout",
            Event::LivenessQuery(..) => "liveness_query",
            Event::LivenessReply(..) => "liveness_reply",
            Event::LeaseCheck(..) => "lease_check",
            Event::NodeResume(..) => "node_resume",
            Event::DiskRestore(..) => "disk_restore",
            Event::PartitionHeal(..) => "partition_heal",
            Event::NodeRestart(..) => "node_restart",
            Event::DeliverRegister(..) => "deliver_register",
            Event::RegisterRetry(..) => "register_retry",
            Event::RerepRetry(..) => "rerep_retry",
            Event::CleanupSweep => "cleanup_sweep",
            Event::Arrival => "arrival",
            Event::Inject(..) => "inject",
        }
    }
}

/// Which of a node's two storage devices an IO runs on. Both are
/// [`Disk`] models; the discriminant orders the device tables (every
/// node's disk, then every node's RAM path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Device {
    /// The data disk.
    Disk,
    /// The memory read path (the mmap/short-circuit pipeline).
    Ram,
}

#[derive(Debug, Clone, Copy)]
enum DiskOwner {
    MapRead {
        task: TaskId,
        kind: ReadKind,
        block: Option<BlockId>,
        serving: u32,
        started: SimTime,
    },
    Migration {
        block: BlockId,
    },
    /// Re-replication read of an under-replicated block (after a node
    /// failure); on completion the bytes are written to `target`.
    Rereplicate {
        block: BlockId,
        target: u32,
    },
}

#[derive(Debug, Clone, Copy)]
enum NetOwner {
    MapRead {
        task: TaskId,
        block: BlockId,
        serving: u32,
        started: SimTime,
    },
    Shuffle {
        task: TaskId,
    },
}

/// Everything the world tracks about one submitted job (one stage of a
/// plan). The spec is not copied: it is `plans[plan].stages[stage]`.
#[derive(Debug, Clone)]
struct JobRecord {
    plan: usize,
    stage: usize,
    submitted: SimTime,
    /// Cleared when the job's plan is killed. A killed job keeps its
    /// record, because its running tasks drain and still read the spec.
    live: bool,
    /// The master accepted the submitter's migrate request: completion
    /// sends the evict, and recovery re-ignites the job while it is live.
    migrated: bool,
    /// The hypothetical scheme's `(node, bytes)` holdings, released when
    /// the job completes or is killed.
    hyp: Vec<(u32, u64)>,
}

#[derive(Debug, Clone)]
struct PlanState {
    current_stage: usize,
    submitted_at: Option<SimTime>,
    finished: bool,
    stage1_input: u64,
}

/// Struct-of-arrays per-node hot state (see [`crate::columns`]): the
/// fields every heartbeat, sweep and cancellation pass scans, kept as
/// dense columns — booleans packed one bit per node, the pause column
/// sentinel-encoded — so a 12k-node world's liveness scan stays in a few
/// cache lines.
#[derive(Debug, Clone)]
struct NodeColumns {
    /// Node is up (not dead, not crashed-dark).
    alive: BitCol,
    /// Nodes currently dark from a [`Fault::NodeCrash`] (restart pending).
    crashed_down: BitCol,
    /// Nodes that crashed at least once; invariant 8 audits exactly these.
    crashed_ever: BitCol,
    /// Whether heartbeat group `g` is still self-rescheduling, indexed by
    /// group (see [`heartbeat_group_size`]); a group stops when a beat
    /// finds all its nodes dead, and a restart re-arms it exactly once
    /// (two chains would double task assignment).
    hb_live: BitCol,
    /// Control-plane pause end (gray fault); `SimTime::MAX` = responsive.
    paused_until: Vec<SimTime>,
    /// Device-completion timer generation per device index (guards stale
    /// [`Event::IoTimer`]s; see [`World::devices`]).
    io_gen: Vec<u64>,
    /// Lease-timer generation; bumped on every reschedule so superseded
    /// [`Event::LeaseCheck`]s are ignored.
    lease_gen: Vec<u64>,
    /// `(slave, mem)` version stamps at the last clean audit; `u64::MAX`
    /// sentinels force the first per-event validation pass.
    validated: Vec<(u64, u64)>,
    /// Per-node IO request counter, shared by the node's two devices.
    /// [`RequestId`]s only ever meet per-device maps (`io_owner`, device
    /// queues), so per-node allocation keeps each [`IdMap`] window as wide
    /// as one device's in-flight IO instead of the whole cluster's — the
    /// difference between kilobytes and megabytes per node at 12k nodes.
    next_req: Vec<u64>,
}

impl NodeColumns {
    fn new(nodes: usize, heartbeat_groups: usize) -> Self {
        NodeColumns {
            alive: BitCol::new(nodes, true),
            crashed_down: BitCol::new(nodes, false),
            crashed_ever: BitCol::new(nodes, false),
            hb_live: BitCol::new(heartbeat_groups, true),
            paused_until: vec![SimTime::MAX; nodes],
            io_gen: vec![0; 2 * nodes],
            lease_gen: vec![0; nodes],
            validated: vec![(u64::MAX, u64::MAX); nodes],
            next_req: vec![0; nodes],
        }
    }

    /// The pause end of node `n`, `None` when responsive.
    fn paused(&self, n: usize) -> Option<SimTime> {
        let t = self.paused_until[n];
        (t != SimTime::MAX).then_some(t)
    }

    fn set_paused(&mut self, n: usize, until: Option<SimTime>) {
        self.paused_until[n] = until.unwrap_or(SimTime::MAX);
    }
}

/// The integrated simulator (see module docs).
///
/// `Clone` copies the *deterministic* state structurally — engine queue
/// (event heap, insertion seq), every component, both RNG streams —
/// while the observability handles ([`Telemetry`], [`MetricsRegistry`],
/// [`HostProfiler`]) clone as shared references.
/// [`World::snapshot`]/[`World::restore`] build on this: see
/// [`WorldSnapshot`] for the exact capture contract.
#[derive(Clone)]
pub struct World {
    cfg: ClusterConfig,
    mode: FsMode,
    engine: Engine<Event>,
    rng: SimRng,

    namenode: NameNode,
    master: IgnemMaster,
    slaves: Vec<IgnemSlave>,
    mems: Vec<MemStore<BlockId>>,
    /// Every node's data disk (device index `n`), then every node's
    /// memory read path (`nodes + n`): see [`World::device_index`]. A
    /// node index is therefore also its disk's device index.
    devices: Vec<Disk>,
    net: Fabric,
    /// Columnar per-node hot state (liveness bitmaps, pause sentinels,
    /// timer generations, request counters); see [`NodeColumns`].
    cols: NodeColumns,
    /// Control-plane channel; its RNG is a dedicated fork so fault
    /// injection never perturbs the main stream.
    rpc: RpcChannel,
    rpc_rng: SimRng,
    /// Check slave/memstore invariants after every event (chaos harness).
    validate: bool,

    net_gen: u64,

    tracker: JobTracker,
    slots: Slots,

    next_job: u64,
    next_xfer: u64,

    /// Owner maps are per-device dense [`IdMap`]s in device-index order:
    /// cancellation sweeps iterate them node 0..N, then ascending
    /// [`RequestId`] within a node, and that order decides the order IO
    /// cancellations (and their randomness draws) happen in.
    io_owner: Vec<IdMap<RequestId, DiskOwner>>,
    net_owner: IdMap<TransferId, NetOwner>,
    migration_req: HashMap<(u32, BlockId), RequestId>,

    plans: Vec<PlannedJob>,
    plan_state: Vec<PlanState>,
    /// Streaming admission (None = fully preloaded workload). The source
    /// yields arrivals lazily; `next_arrival` holds the one whose
    /// [`Event::Arrival`] is currently scheduled.
    arrivals: Option<Box<dyn ArrivalSource>>,
    next_arrival: Option<PlannedJob>,
    /// Submitted jobs, in job-id order (the order recovery and kill
    /// sweeps visit them). A record is dropped when its job completes.
    jobs: IdMap<JobId, JobRecord>,
    task_launched_at: HashMap<TaskId, SimTime>,

    hypothetical: Vec<TimeWeighted>,

    faults: Vec<(SimTime, Fault)>,
    /// Faults whose [`Event::Inject`] has been neutralized: the event
    /// still pops (preserving the engine's seq/tie-break bookkeeping) but
    /// injects nothing and emits nothing. The minimizer uses this to
    /// drop a fault from a snapshot-forked continuation without
    /// rebuilding the world.
    suppressed_faults: Vec<bool>,
    unfinished_plans: usize,
    rerep_queue: Vec<BlockId>,
    rerep_active: bool,
    /// Blocks whose re-replication found no legal source/target; retried
    /// with capped exponential backoff instead of being silently dropped.
    rerep_deferred: Vec<BlockId>,
    /// Consecutive all-deferred rounds (escalates the backoff; reset on
    /// any successful start).
    rerep_attempt: u32,
    /// Guards stale [`Event::RerepRetry`] timers.
    rerep_retry_gen: u64,
    /// Shared typed-event handle (disabled unless a sink is installed);
    /// clones of it live inside the master, every slave and the RPC
    /// channel, all stamping events off the same now-cursor.
    telemetry: Telemetry,
    /// Shared sim-time metrics handle (disabled unless installed); clones
    /// of it live in the master, every slave, the RPC channel and every
    /// disk, all windowed off the same now-cursor.
    mreg: MetricsRegistry,
    /// Host-time profiler charging engine wall-clock to event-kind
    /// buckets; purely observational.
    profiler: HostProfiler,
    metrics: RunMetrics,
}

/// A copy-on-write checkpoint of a [`World`] at an event boundary,
/// captured by [`World::snapshot`] and reinstated (any number of times)
/// by [`World::restore`].
///
/// **Captured:** every bit of deterministic simulation state — the
/// engine's event queue (event heap, insertion sequence, clock,
/// processed count), NameNode, master, slaves, MemStores, storage
/// devices, fabric, RPC channel with its in-flight retransmissions, both
/// RNG streams, accumulated run metrics, fault
/// suppression flags, and the telemetry/metrics *cursors* (emission seq,
/// open metrics window and totals).
///
/// **Deliberately not captured:** the contents of any attached telemetry
/// sink (recorded events are history, not state — a fork appends to
/// whatever sink is installed, gap-free, or swaps in a fresh one via
/// [`World::swap_recorder`]), and the host-time profiler's wall-clock
/// buckets (observational only; charging fork re-runs to the same
/// buckets is the desired behavior).
///
/// The equivalence contract: `run-to-t → snapshot → run-to-end` then
/// `restore → run-to-end` produces a continuation bit-identical — event
/// stream, fingerprint, span forest, metrics report — to the
/// uninterrupted run. Pinned by the `snapshot_equivalence` tests against
/// the three golden streams.
pub struct WorldSnapshot {
    state: Box<World>,
    telemetry_cursor: Option<(SimTime, u64)>,
    metrics_state: MetricsState,
}

impl std::fmt::Debug for WorldSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorldSnapshot")
            .field("at", &self.state.engine.now())
            .field("events_processed", &self.state.engine.processed())
            .finish()
    }
}

impl World {
    /// Builds a world: creates the cluster, loads `files` into the DFS
    /// (path, bytes), pins inputs if the mode is
    /// [`FsMode::HdfsInputsInRam`], and schedules the workload plan and
    /// fault list.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration, an invalid job spec or
    /// duplicate file paths.
    pub fn new(
        cfg: ClusterConfig,
        mode: FsMode,
        files: &[(String, u64)],
        plans: Vec<PlannedJob>,
        faults: Vec<(SimTime, Fault)>,
    ) -> Self {
        cfg.validate();
        let mut engine = Engine::new(cfg.seed);
        let mut rng = engine.rng().fork();
        // A second fork dedicated to the RPC channel: with a reliable
        // channel it is never consumed, and with an unreliable one the main
        // stream's draws are unaffected either way.
        let rpc_rng = engine.rng().fork();

        let mut namenode = NameNode::new(cfg.dfs);
        for n in 0..cfg.nodes {
            namenode.register_node(NodeId(n as u32));
        }
        for (path, bytes) in files {
            namenode
                .create_file(path, *bytes, &mut rng)
                .unwrap_or_else(|e| panic!("loading {path}: {e}"));
        }

        let mut mems: Vec<MemStore<BlockId>> = (0..cfg.nodes)
            .map(|_| MemStore::new(MEM_CAPACITY))
            .collect();
        if mode == FsMode::HdfsInputsInRam {
            // vmtouch: lock every input replica in memory before the run.
            for (n, mem) in mems.iter_mut().enumerate() {
                for info in namenode.blocks_on(NodeId(n as u32)) {
                    if info.bytes > 0 {
                        mem.insert(SimTime::ZERO, info.id, info.bytes, Residency::Pinned)
                            .expect("inputs exceed cluster RAM");
                    }
                }
            }
        }

        let slaves = (0..cfg.nodes)
            .map(|n| IgnemSlave::new(NodeId(n as u32), cfg.ignem))
            .collect();
        let devices = (0..cfg.nodes)
            .map(|_| Disk::new(cfg.disk))
            .chain((0..cfg.nodes).map(|_| Disk::new(cfg.ram)))
            .collect();
        let net = Fabric::new(cfg.nodes);
        let slots = Slots::new(cfg.nodes, SLOTS_PER_NODE);

        // Schedule the plan, heartbeats and faults.
        for (i, p) in plans.iter().enumerate() {
            assert!(!p.stages.is_empty(), "plan {i} has no stages");
            p.stages.iter().for_each(JobSpec::validate);
            engine.schedule_at(SimTime::ZERO + p.submit, Event::Submit(i));
        }
        // Heartbeat groups beat at staggered phases across the interval.
        let hb = cfg.compute.heartbeat;
        let groups = cfg.nodes.div_ceil(heartbeat_group_size(&cfg));
        for g in 0..groups {
            let offset = SimDuration::from_micros(hb.as_micros() * g as u64 / groups as u64);
            engine.schedule_at(SimTime::ZERO + offset, Event::Heartbeat(g as u32, 0));
        }
        for (i, (at, _)) in faults.iter().enumerate() {
            engine.schedule_at(*at, Event::Inject(i));
        }
        if mode == FsMode::Ignem {
            engine.schedule_at(SimTime::ZERO + CLEANUP_SWEEP, Event::CleanupSweep);
        }

        let unfinished = plans.len();
        let plan_state = plans
            .iter()
            .map(|_| PlanState {
                current_stage: 0,
                submitted_at: None,
                finished: false,
                stage1_input: 0,
            })
            .collect();
        World {
            mode,
            engine,
            rng,
            namenode,
            master: IgnemMaster::with_config(cfg.master),
            slaves,
            mems,
            devices,
            net,
            cols: NodeColumns::new(cfg.nodes, groups),
            rpc: RpcChannel::new(cfg.rpc),
            rpc_rng,
            validate: false,
            net_gen: 0,
            tracker: JobTracker::new(),
            slots,
            next_job: 0,
            next_xfer: 0,
            io_owner: (0..2 * cfg.nodes).map(|_| IdMap::new()).collect(),
            net_owner: IdMap::new(),
            migration_req: HashMap::new(),
            plans,
            plan_state,
            arrivals: None,
            next_arrival: None,
            jobs: IdMap::new(),
            task_launched_at: HashMap::new(),
            hypothetical: (0..cfg.nodes)
                .map(|_| TimeWeighted::new(0.0, true))
                .collect(),
            suppressed_faults: vec![false; faults.len()],
            faults,
            unfinished_plans: unfinished,
            rerep_queue: Vec::new(),
            rerep_active: false,
            rerep_deferred: Vec::new(),
            rerep_attempt: 0,
            rerep_retry_gen: 0,
            telemetry: Telemetry::default(),
            mreg: MetricsRegistry::default(),
            profiler: HostProfiler::disabled(),
            metrics: RunMetrics::default(),
            cfg,
        }
    }

    /// Attaches a streaming [`ArrivalSource`]: jobs are admitted lazily,
    /// one arrival event at a time, instead of being preloaded as a
    /// `Vec`. Composable with a preloaded plan list (streamed arrivals are
    /// appended after the preloaded plans as they arrive).
    ///
    /// The source must yield arrivals in nondecreasing submit order
    /// (checked as each is pulled). Input files must still be preloaded
    /// via `files` in [`World::new`] — DFS namespace creation draws from
    /// the main RNG stream, so creating files lazily would perturb every
    /// later draw.
    pub fn with_arrivals(mut self, source: Box<dyn ArrivalSource>) -> Self {
        assert!(
            self.arrivals.is_none() && self.next_arrival.is_none(),
            "arrival source already installed"
        );
        self.arrivals = Some(source);
        self.pull_next_arrival();
        self
    }

    /// Installs a typed event sink (e.g. a [`FlightRecorder`]) and
    /// propagates the shared emission handle into the master, every slave
    /// and the RPC channel. Emission is zero-cost when no sink is
    /// installed, and consumes no randomness either way.
    pub fn with_telemetry(mut self, sink: Box<dyn EventSink>) -> Self {
        let telemetry = Telemetry::new(sink);
        self.master.set_telemetry(telemetry.clone());
        for slave in &mut self.slaves {
            slave.set_telemetry(telemetry.clone());
        }
        self.rpc.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
        self
    }

    /// Installs a sim-time metrics registry and propagates clones into the
    /// master, every slave, the RPC channel and every disk. Recording is
    /// zero-cost when the handle is disabled and consumes no randomness
    /// either way — same-seed runs are bit-identical with metrics on or
    /// off. Call [`MetricsRegistry::finish`] on your own clone after
    /// [`run`](Self::run) to collect the windows.
    pub fn with_metrics(mut self, reg: MetricsRegistry) -> Self {
        self.master.set_metrics(reg.clone());
        for slave in &mut self.slaves {
            slave.set_metrics(reg.clone());
        }
        self.rpc.set_metrics(reg.clone());
        for (n, d) in self.devices[..self.cfg.nodes].iter_mut().enumerate() {
            d.set_metrics(reg.clone(), n as u64);
        }
        self.mreg = reg;
        self
    }

    /// Installs a host-time profiler; [`run`](Self::run) charges each
    /// handled event's wall-clock to its event-kind bucket. Purely
    /// observational — the simulation result is unaffected.
    pub fn with_profiler(mut self, profiler: HostProfiler) -> Self {
        self.profiler = profiler;
        self
    }

    /// Enables per-event invariant checking: after every event, each slave
    /// the event touched, dead or alive, has its reference lists, memory
    /// accounting and residency ledger cross-checked against its MemStore
    /// ([`IgnemSlave::check_consistency`]). Expensive; meant for the chaos
    /// harness.
    pub fn with_validation(mut self) -> Self {
        self.validate = true;
        self
    }

    fn check_invariants(&mut self) {
        for n in 0..self.cfg.nodes {
            // Memoized per node: the checks below are pure functions of
            // (slave state, MemStore state), both of which carry monotone
            // mutation counters. An unchanged stamp means the previous
            // clean verdict still holds, so per-event validation only
            // re-audits the nodes the event actually touched. (Every
            // liveness transition moves the stamp: node death bumps the
            // slave version via `IgnemSlave::fail`, and a crash-restart
            // bumps it again via `IgnemSlave::restart` plus the MemStore
            // version via the crash wipe.) Dead nodes are checked too: a
            // failed slave is empty, and its purge debited everything it
            // held, so its ledger settles at zero residency.
            let stamp = (self.slaves[n].version(), self.mems[n].version());
            if self.cols.validated[n] == stamp {
                continue;
            }
            if let Err(e) = self.slaves[n].check_consistency(&self.mems[n]) {
                panic!(
                    "slave invariant violated on node{n} at {}: {e}",
                    self.engine.now()
                );
            }
            self.cols.validated[n] = stamp;
        }
    }

    /// Runs the simulation to completion and returns the metrics.
    ///
    /// # Panics
    ///
    /// Panics if the event count exceeds a safety bound (a stuck
    /// simulation) or a block becomes unreadable (all replicas dead).
    pub fn run(mut self) -> RunMetrics {
        self.run_to_end();
        self.finalize_mut()
    }

    /// Pops and handles exactly one event, returning `false` when the
    /// queue is exhausted. The single-step core of [`World::run`]; the
    /// snapshot machinery drives it directly so a fork can stop at any
    /// event boundary.
    ///
    /// # Panics
    ///
    /// As [`World::run`].
    pub fn step(&mut self) -> bool {
        const MAX_EVENTS: u64 = 200_000_000;
        let Some(ev) = self.engine.pop() else {
            return false;
        };
        let prof = self.profiler.clone();
        let kind = ev.kind_name();
        prof.measure(kind, || self.handle(ev));
        if self.validate {
            self.check_invariants();
        }
        assert!(
            self.engine.processed() < MAX_EVENTS,
            "simulation exceeded {MAX_EVENTS} events — likely stuck"
        );
        true
    }

    /// Drains the event queue without finalizing, so the caller can
    /// snapshot, inspect or finalize afterwards.
    pub fn run_to_end(&mut self) {
        while self.step() {}
    }

    /// Steps until the next pending event is a fault injection and
    /// returns its index into the fault list *without firing it* — the
    /// caller typically snapshots here, then calls [`World::step`] once
    /// to pop the injection. Returns `None` when the queue drains first.
    pub fn run_until_next_inject(&mut self) -> Option<usize> {
        loop {
            let next = match self.engine.peek() {
                Some((_, Event::Inject(i))) => Some(Some(*i)),
                Some(_) => None,
                None => Some(None),
            };
            match next {
                Some(result) => return result,
                None => {
                    self.step();
                }
            }
        }
    }

    /// Sanitizer mode: runs to completion with a fresh
    /// [`FlightRecorder`] of `capacity` events attached, returning the
    /// metrics, the recorded event stream and the number of records the
    /// ring had to evict. The determinism sanitizer
    /// ([`crate::sanitizer`]) runs two identically-built worlds through
    /// this and finds the first divergence between the two streams.
    ///
    /// # Panics
    ///
    /// As [`World::run`].
    pub fn run_recorded(self, capacity: usize) -> (RunMetrics, Vec<EventRecord>, u64) {
        let recorder = FlightRecorder::new(capacity);
        let metrics = self.with_telemetry(Box::new(recorder.clone())).run();
        (metrics, recorder.events(), recorder.dropped())
    }

    // ------------------------------------------------------------------
    // Snapshots
    // ------------------------------------------------------------------

    /// Captures the full deterministic state at the current event
    /// boundary. See [`WorldSnapshot`] for the capture contract; the
    /// equivalence guarantee (restore + run-to-end is bit-identical to an
    /// uninterrupted run) is pinned by the `snapshot_equivalence` golden
    /// tests.
    pub fn snapshot(&self) -> WorldSnapshot {
        WorldSnapshot {
            state: Box::new(self.clone()),
            telemetry_cursor: self.telemetry.cursor(),
            metrics_state: self.mreg.state_snapshot(),
        }
    }

    /// Rewinds this world to a state captured by [`World::snapshot`].
    /// The snapshot is not consumed: one capture can seed any number of
    /// forked continuations. The telemetry sink is *not* rewound (its
    /// records are history, not simulation state); use
    /// [`World::swap_recorder`] to point the continuation at a fresh
    /// recorder when the forked stream matters.
    pub fn restore(&mut self, snap: &WorldSnapshot) {
        *self = (*snap.state).clone();
        // The cloned components share the telemetry/metrics interiors
        // with the live world, so the cursors are rewound through the
        // shared handles rather than re-propagated.
        if let Some((now, next_seq)) = snap.telemetry_cursor {
            self.telemetry.restore_cursor(now, next_seq);
        }
        self.mreg.restore_state(&snap.metrics_state);
    }

    /// Swaps the event sink every component emits into, returning the
    /// old one. The emission cursor (seq numbering) is untouched, so a
    /// forked continuation's records concatenate gap-free onto the
    /// prefix the previous sink captured.
    pub fn swap_recorder(&self, sink: Box<dyn EventSink>) -> Option<Box<dyn EventSink>> {
        self.telemetry.replace_sink(sink)
    }

    /// Neutralizes fault `idx`: its injection event still pops (the
    /// engine's seq bookkeeping is part of snapshot equivalence) but
    /// injects nothing and emits nothing — behaviorally identical to a
    /// world built without the fault.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds of the fault list.
    pub fn suppress_fault(&mut self, idx: usize) {
        self.suppressed_faults[idx] = true;
    }

    /// Number of events the engine has popped so far (the "simulated
    /// events" cost measure the minimizer bench reports).
    pub fn events_processed(&self) -> u64 {
        self.engine.processed()
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// The shared telemetry `(now, next_seq)` cursor, `None` when no sink
    /// is installed. The time-travel debugger steps until this passes the
    /// requested record seq.
    pub fn telemetry_cursor(&self) -> Option<(SimTime, u64)> {
        self.telemetry.cursor()
    }

    /// Renders the full world state as indented text — the time-travel
    /// debugger's view after reconstructing a run up to a recorded event.
    /// Everything here is read through the same accessors tests use; the
    /// dump mutates nothing.
    pub fn describe_state(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let now = self.engine.now();
        let _ = writeln!(
            out,
            "world @ {now} ({} events processed, {} pending)",
            self.engine.processed(),
            self.engine.pending(),
        );
        let _ = writeln!(
            out,
            "  master: epoch={:?} tracked_jobs={} pending_sends={}",
            self.master.epoch(),
            self.master.tracked_jobs(),
            self.master.pending_sends(),
        );
        for (seq, to, attempts) in self.master.pending_send_summaries() {
            let _ = writeln!(
                out,
                "    in-flight send seq={:?} to=node{} attempts={attempts}",
                seq, to.0
            );
        }
        let jobs: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, r)| r.live)
            .map(|(j, _)| j.0)
            .collect();
        let _ = writeln!(
            out,
            "  jobs: live={jobs:?} unfinished_plans={}",
            self.unfinished_plans
        );
        let rpc = self.rpc.stats();
        let _ = writeln!(
            out,
            "  rpc: sent={} delivered={} dropped={} duplicated={} cut={}",
            rpc.sent, rpc.delivered, rpc.dropped, rpc.duplicated, rpc.cut
        );
        for (id, nodes) in self.rpc.active_partitions() {
            let _ = writeln!(out, "    partition id={id} cut_off={nodes:?}");
        }
        for n in 0..self.cfg.nodes {
            let status = if self.cols.crashed_down.get(n) {
                "crashed"
            } else if !self.cols.alive.get(n) {
                "dead"
            } else if self.cols.paused(n).is_some_and(|t| t > now) {
                "paused"
            } else {
                "alive"
            };
            let mem = &self.mems[n];
            let (mig_n, mig_b) = mem.residency_summary(Residency::Migrated);
            let (pin_n, pin_b) = mem.residency_summary(Residency::Pinned);
            let (cache_n, cache_b) = mem.residency_summary(Residency::Cached);
            let slave = &self.slaves[n];
            let _ = writeln!(
                out,
                "  node{n}: {status} inc={:?} hb={} mem={}/{} \
                 migrated={mig_n}x{mig_b}B pinned={pin_n}x{pin_b}B cached={cache_n}x{cache_b}B",
                slave.incarnation(),
                if self.cols.hb_live.get(n / heartbeat_group_size(&self.cfg)) {
                    "live"
                } else {
                    "down"
                },
                mem.used(),
                mem.capacity(),
            );
            let _ = writeln!(
                out,
                "    slave: queue={} in_flight={} refs={} disk_io={}",
                slave.queue_len(),
                slave.in_flight_migrations(),
                slave.total_references(),
                self.devices[n].in_flight(),
            );
            for (job, expiry) in slave.leases() {
                let _ = writeln!(out, "    lease job={} expires={expiry}", job.0);
            }
        }
        out
    }

    /// Assembles the run's metrics from the final world state. Borrows
    /// rather than consumes so a snapshot-forked continuation can
    /// finalize, be restored, and run again: the accumulated per-run
    /// metrics are *taken* (left default), but everything else is read
    /// non-destructively, and a subsequent [`World::restore`] reinstates
    /// the taken state wholesale.
    pub fn finalize_mut(&mut self) -> RunMetrics {
        let mut metrics = std::mem::take(&mut self.metrics);
        metrics.events_processed = self.engine.processed();
        let end = metrics
            .jobs
            .iter()
            .map(|j| j.submitted + SimDuration::from_secs_f64(j.duration))
            .max()
            .unwrap_or(self.engine.now());
        metrics.makespan = end;
        metrics.mem_series = self.mems.iter().map(|m| m.occupancy_changes()).collect();
        metrics.hypothetical_series = self
            .hypothetical
            .iter()
            .map(|h| h.sample_series_raw().to_vec())
            .collect();
        for s in &self.slaves {
            let st = s.stats();
            metrics.ledger.push(LedgerEntry {
                credited: st.migrated_bytes,
                debited: st.evicted_bytes,
            });
            let agg = &mut metrics.slave_stats;
            agg.commands += st.commands;
            agg.migrated += st.migrated;
            agg.migrated_bytes += st.migrated_bytes;
            agg.deduped += st.deduped;
            agg.discarded += st.discarded;
            agg.wasted_reads += st.wasted_reads;
            agg.evicted += st.evicted;
            agg.evicted_bytes += st.evicted_bytes;
            agg.purges += st.purges;
            agg.liveness_queries += st.liveness_queries;
            agg.stale_epochs += st.stale_epochs;
            agg.lease_expiries += st.lease_expiries;
            agg.stale_incarnations += st.stale_incarnations;
        }
        metrics.master_stats = self.master.stats();
        metrics.rpc = self.rpc.stats();
        for n in 0..self.cfg.nodes {
            if self.cols.alive.get(n) {
                metrics.leaked_job_refs += self.slaves[n].total_references() as u64;
                metrics.final_migrated_bytes += self.mems[n].migrated_used();
            }
        }
        metrics.disk_utilization = self.devices[..self.cfg.nodes]
            .iter()
            .map(|d| d.utilization(end))
            .collect();
        metrics.recovery = self.check_recovery();
        metrics
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: Event) {
        // One cursor update per dispatched event: every component emission
        // below (world, master, slaves, RPC channel) happens inside this
        // call, and the engine clock cannot advance during it.
        self.telemetry.set_now(self.engine.now());
        self.mreg.set_now(self.engine.now());
        match ev {
            Event::Submit(plan) => self.on_submit(plan),
            Event::Queued(job) => self.on_queued(job),
            Event::Heartbeat(group, round) => self.on_heartbeat(group, round),
            Event::IoTimer(device, n, gen) => self.on_io_timer(device, n, gen),
            Event::NetTimer(gen) => self.on_net_timer(gen),
            Event::TaskLaunched(t) => self.on_task_launched(t),
            Event::TaskComputeDone(t) => self.on_task_compute_done(t),
            Event::DeliverMigrates(n, seq, epoch, inc, cmds) => {
                self.on_deliver_migrates(n, seq, epoch, inc, cmds)
            }
            Event::DeliverEvict(n, seq, epoch, inc, job) => {
                self.on_deliver_evict(n, seq, epoch, inc, job)
            }
            Event::DeliverAck(seq) => self.master.on_ack(seq),
            Event::RpcTimeout(seq) => self.on_rpc_timeout(seq),
            Event::LivenessQuery(n, jobs) => self.on_liveness_query(n, jobs),
            Event::LivenessReply(n, epoch, dead, alive) => {
                self.on_liveness_reply(n, epoch, dead, alive)
            }
            Event::LeaseCheck(n, gen) => self.on_lease_check(n, gen),
            Event::NodeResume(n) => self.on_node_resume(n),
            Event::DiskRestore(n) => self.on_disk_restore(n),
            Event::PartitionHeal(id) => self.on_partition_heal(id),
            Event::NodeRestart(n) => self.on_node_restart(n),
            Event::DeliverRegister(n, inc) => self.on_deliver_register(n, inc),
            Event::RegisterRetry(n, attempt) => self.on_register_retry(n, attempt),
            Event::RerepRetry(gen) => self.on_rerep_retry(gen),
            Event::CleanupSweep => self.on_cleanup_sweep(),
            Event::Arrival => self.on_arrival(),
            Event::Inject(i) => self.on_inject(i),
        }
    }

    /// Is there (or might there be) more workload to run? Self-sustaining
    /// timers (heartbeats, cleanup sweeps) re-arm only while this holds:
    /// unfinished admitted plans, or a streamed arrival yet to be admitted.
    fn work_remaining(&self) -> bool {
        self.unfinished_plans > 0 || self.next_arrival.is_some()
    }

    /// Pulls the next arrival from the streaming source (if any) and
    /// schedules its [`Event::Arrival`]; drops the source when exhausted.
    fn pull_next_arrival(&mut self) {
        let Some(src) = self.arrivals.as_mut() else {
            return;
        };
        match src.next_arrival() {
            Some(plan) => {
                let at = SimTime::ZERO + plan.submit;
                assert!(
                    at >= self.engine.now(),
                    "arrival stream out of order: {at:?} < {:?}",
                    self.engine.now()
                );
                self.engine.schedule_at(at, Event::Arrival);
                self.next_arrival = Some(plan);
            }
            None => {
                self.arrivals = None;
                self.next_arrival = None;
            }
        }
    }

    /// Admits the pending streamed arrival as a plan and submits it. The
    /// submission runs inline (not via a separate [`Event::Submit`]) so
    /// the RNG draw order matches a preloaded world exactly.
    fn on_arrival(&mut self) {
        let plan = self
            .next_arrival
            .take()
            .expect("Arrival event with no pending arrival");
        let idx = self.plans.len();
        assert!(!plan.stages.is_empty(), "streamed plan {idx} has no stages");
        plan.stages.iter().for_each(JobSpec::validate);
        self.plans.push(plan);
        self.plan_state.push(PlanState {
            current_stage: 0,
            submitted_at: None,
            finished: false,
            stage1_input: 0,
        });
        self.unfinished_plans += 1;
        // Pull the successor before submitting: if the submission finishes
        // the whole workload synchronously, `work_remaining` must already
        // see the next arrival.
        self.pull_next_arrival();
        self.on_submit(idx);
    }

    fn on_submit(&mut self, plan: usize) {
        if self.plan_state[plan].finished {
            // The plan was killed before this submission fired.
            return;
        }
        let now = self.engine.now();
        let stage = self.plan_state[plan].current_stage;
        let job = JobId(self.next_job);
        self.next_job += 1;
        self.telemetry.emit(|| TelemetryEvent::JobSubmitted {
            job: job.0,
            name: self.plans[plan].name.clone(),
            plan: plan as u64,
            stage: stage as u64,
        });
        let spec = &self.plans[plan].stages[stage];
        if self.plan_state[plan].submitted_at.is_none() {
            self.plan_state[plan].submitted_at = Some(now);
            self.plan_state[plan].stage1_input = self.input_bytes_of(spec);
        }
        // Lead-time sources between submission and schedulability: the
        // submitter itself, any artificial sleep (Fig. 8), and AM startup.
        let delay = SUBMIT_OVERHEAD + spec.submit.extra_lead_time + AM_OVERHEAD;

        // Hypothetical instantaneous scheme: whole input appears in memory
        // (one replica per block) at submission, vanishes at completion.
        let mut hyp: Vec<(u32, u64)> = Vec::new();
        if let JobInput::DfsFiles(files) = &spec.input {
            for f in files {
                for info in self.namenode.file_blocks(f).expect("input file missing") {
                    let locs = self.namenode.locations(info.id).expect("block vanished");
                    if locs.is_empty() || info.bytes == 0 {
                        continue;
                    }
                    let n = self.rng.choose(&locs).0;
                    hyp.push((n, info.bytes));
                }
            }
            for &(n, bytes) in &hyp {
                self.hypothetical[n as usize].add(now, bytes as f64);
            }
        }

        // The job-submitter's Ignem hook.
        let mut migrated = false;
        if let (FsMode::Ignem, Some(mode), JobInput::DfsFiles(files)) =
            (self.mode, spec.submit.migrate, &spec.input)
        {
            let req = MigrateRequest {
                job,
                files: files.clone(),
                mode,
                submitted: now,
            };
            match self
                .master
                .handle_migrate(&req, &self.namenode, &mut self.rng)
            {
                Ok(batches) => {
                    migrated = true;
                    for b in batches {
                        self.master_send(b.to.0, RpcPayload::Migrates(b.migrates));
                    }
                }
                Err(e) => {
                    // Migration is best-effort: a bad request must not
                    // take the simulation down — the job just reads cold.
                    self.telemetry.emit(|| TelemetryEvent::MigrationRejected {
                        job: job.0,
                        reason: e.to_string(),
                    });
                }
            }
        }

        self.jobs.insert(
            job,
            JobRecord {
                plan,
                stage,
                submitted: now,
                live: true,
                migrated,
                hyp,
            },
        );
        self.engine.schedule_in(delay, Event::Queued(job));
    }

    /// Whether `job` is submitted, unfinished and not killed.
    fn job_live(&self, job: JobId) -> bool {
        self.jobs.get(&job).is_some_and(|r| r.live)
    }

    /// The spec of a submitted, unfinished job (killed jobs included:
    /// their draining tasks still read it).
    fn spec(&self, job: JobId) -> &JobSpec {
        // lint: allow(P02, reason = "records live from submission until the job completes; only tasks of unfinished jobs ask")
        let rec = &self.jobs[&job];
        &self.plans[rec.plan].stages[rec.stage]
    }

    fn input_bytes_of(&self, spec: &JobSpec) -> u64 {
        match &spec.input {
            JobInput::DfsFiles(files) => files
                .iter()
                .map(|f| self.namenode.open(f).expect("input file missing").bytes)
                .sum(),
            JobInput::Cached(b) => *b,
        }
    }

    fn on_queued(&mut self, job: JobId) {
        if !self.job_live(job) {
            return; // killed while in the submitter
        }
        self.telemetry
            .emit(|| TelemetryEvent::JobScheduled { job: job.0 });
        let spec = self.spec(job);
        let reducers = spec.reducers;
        let inputs: Vec<MapInput> = match &spec.input {
            JobInput::DfsFiles(files) => {
                let mut v = Vec::new();
                for f in files {
                    for info in self.namenode.file_blocks(f).expect("input file missing") {
                        if info.bytes > 0 {
                            v.push(MapInput {
                                block: Some(info.id),
                                bytes: info.bytes,
                            });
                        }
                    }
                }
                v
            }
            JobInput::Cached(bytes) => split_into_blocks(*bytes, self.cfg.dfs.block_size)
                .into_iter()
                .map(|b| MapInput {
                    block: None,
                    bytes: b,
                })
                .collect(),
        };
        if inputs.is_empty() {
            // Degenerate job (zero-byte input): completes instantly.
            self.finish_job(job);
            return;
        }
        self.tracker.submit(job, reducers, &inputs);
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    /// One beat of heartbeat group `group`: visits the group's live,
    /// unpaused nodes that have a free slot, in rotating order from
    /// `round`, and fills their slots, until no task is pending. The
    /// rotation keeps slot priority fair across rounds the way staggered
    /// chains are fair in expectation; the pending-task check skips the
    /// walk on quiet beats, which at 12k nodes is nearly all of them. A
    /// paused node misses its beat but its group keeps beating; a group
    /// whose nodes are all dead stops, and a crash-restart re-arms it.
    fn on_heartbeat(&mut self, group: u32, round: u64) {
        let size = heartbeat_group_size(&self.cfg);
        let first = group as usize * size;
        let nodes = first..(first + size).min(self.cfg.nodes);
        if !nodes.clone().any(|n| self.cols.alive.get(n)) {
            self.cols.hb_live.set(group as usize, false);
            return;
        }
        let start = (round % nodes.len() as u64) as usize;
        for i in 0..nodes.len() {
            if !self.tracker.has_pending() {
                break; // nothing left for any node's beat to assign
            }
            let n = first + (start + i) % nodes.len();
            if !self.cols.alive.get(n)
                || self.cols.paused(n).is_some()
                || self.slots.free(NodeId(n as u32)) == 0
            {
                continue;
            }
            self.assign_tasks(NodeId(n as u32), false);
        }
        if self.work_remaining() {
            self.engine.schedule_in(
                self.cfg.compute.heartbeat,
                Event::Heartbeat(group, round + 1),
            );
        }
    }

    /// Fills free slots on `node`. At heartbeats any task may be assigned;
    /// on container reuse (`reuse = true`, immediately after a completion)
    /// Tez hands the freed container a new task without waiting for the
    /// next ResourceManager heartbeat — but a *brand-new* job's first tasks
    /// still wait for a heartbeat, preserving that lead-time source.
    fn assign_tasks(&mut self, node: NodeId, reuse: bool) {
        loop {
            if self.slots.free(node) == 0 {
                break;
            }
            let mem = &self.mems[node.0 as usize];
            let up = self.cols.alive.get(node.0 as usize);
            let namenode = &self.namenode;
            // A down node serves nothing from memory; a node that holds
            // nothing there skips the memory walk.
            let pick = choose_map_task(
                &self.tracker,
                (up && !mem.is_empty()).then_some(|b| mem.contains(&b)),
                |b| namenode.has_alive_replica(b, node),
            )
            .or_else(|| choose_reduce_task(&self.tracker));
            let Some(task) = pick else { break };
            if reuse
                && self
                    .tracker
                    .job(self.tracker.task(task).job)
                    .started_tasks()
                    == 0
            {
                // Container reuse only applies to jobs whose AM is already
                // running tasks; fresh jobs wait for a heartbeat.
                break;
            }
            assert!(self.slots.acquire(node), "slot vanished");
            self.telemetry.emit(|| TelemetryEvent::TaskAssigned {
                task: task.0,
                job: self.tracker.task(task).job.0,
                node: node.0,
            });
            self.tracker.assign(task, node);
            self.engine
                .schedule_in(TASK_LAUNCH_OVERHEAD, Event::TaskLaunched(task));
            if reuse {
                break; // one task per freed container
            }
        }
    }

    fn on_task_launched(&mut self, task: TaskId) {
        let rec = *self.tracker.task(task);
        let ignem_compute::tracker::TaskState::Assigned(node) = rec.state else {
            return; // requeued by a node failure while launching
        };
        // Task runtimes are measured from launch (first byte of IO), the
        // way the paper's Table II / Fig. 2 report mapper durations.
        self.task_launched_at.insert(task, self.engine.now());
        self.telemetry.emit(|| TelemetryEvent::TaskStarted {
            task: task.0,
            job: rec.job.0,
            node: node.0,
        });
        match rec.kind {
            TaskKind::Map { block, bytes } => self.start_map_read(task, node, block, bytes),
            TaskKind::Reduce { .. } => self.start_shuffle(task, node, rec.job),
        }
    }

    fn start_map_read(&mut self, task: TaskId, node: NodeId, block: Option<BlockId>, bytes: u64) {
        let now = self.engine.now();
        // A cached intermediate (no backing block) never leaves local
        // memory; handling it up front means every later arm has a real
        // block id in hand, instead of an `expect` tied to a non-local
        // invariant.
        let Some(b) = block else {
            let owner = DiskOwner::MapRead {
                task,
                kind: ReadKind::Memory,
                block: None,
                serving: node.0,
                started: now,
            };
            self.submit_io(Device::Ram, node.0, IoKind::Read, bytes, owner);
            return;
        };
        let source = {
            let mems = &self.mems;
            let alive = &self.cols.alive;
            match plan_read(
                &self.namenode,
                node,
                b,
                |nd, blk| alive.get(nd.0 as usize) && mems[nd.0 as usize].contains(&blk),
                &mut self.rng,
            ) {
                Ok(s) => s,
                Err(_) => {
                    // Every replica is currently dead (mid-failure
                    // window). Retry after a heartbeat instead of
                    // crashing: re-replication may restore a copy.
                    self.engine
                        .schedule_in(self.cfg.compute.heartbeat, Event::TaskLaunched(task));
                    return;
                }
            }
        };
        match source {
            ReadSource::LocalMemory => {
                let owner = DiskOwner::MapRead {
                    task,
                    kind: ReadKind::Memory,
                    block,
                    serving: node.0,
                    started: now,
                };
                self.submit_io(Device::Ram, node.0, IoKind::Read, bytes, owner);
            }
            ReadSource::RemoteMemory(holder) => {
                let id = TransferId(self.next_xfer);
                self.next_xfer += 1;
                self.net_owner.insert(
                    id,
                    NetOwner::MapRead {
                        task,
                        block: b,
                        serving: holder.0,
                        started: now,
                    },
                );
                let done = self.net.start(now, id, holder, node, bytes.max(1));
                self.settle_net(done);
            }
            ReadSource::LocalDisk => {
                let owner = DiskOwner::MapRead {
                    task,
                    kind: ReadKind::LocalDisk,
                    block,
                    serving: node.0,
                    started: now,
                };
                self.submit_io(Device::Disk, node.0, IoKind::Read, bytes, owner);
            }
            ReadSource::RemoteDisk(r) => {
                // Bottlenecked by the remote disk (10 GbE is faster).
                let owner = DiskOwner::MapRead {
                    task,
                    kind: ReadKind::RemoteDisk,
                    block,
                    serving: r.0,
                    started: now,
                };
                self.submit_io(Device::Disk, r.0, IoKind::Read, bytes, owner);
            }
        }
    }

    fn start_shuffle(&mut self, task: TaskId, node: NodeId, job: JobId) {
        let now = self.engine.now();
        let spec = self.spec(job);
        let reducers = spec.reducers.max(1) as u64;
        let share = spec.shuffle_bytes / reducers;
        let remote = share * (self.cfg.nodes as u64 - 1) / self.cfg.nodes as u64;
        if remote == 0 || self.cfg.nodes == 1 {
            self.schedule_reduce_compute(task, job, share);
            return;
        }
        // Pick a random alive source other than the reducer's node: the
        // k-th of them in node order, the draw `rng.choose` would make over
        // that list, without building it.
        let alive = &self.cols.alive;
        let reducer = node.0 as usize;
        let reducer_alive = alive.get(reducer);
        let sources = alive.count_ones() - usize::from(reducer_alive);
        let pick = (sources > 0)
            .then(|| self.rng.index(sources))
            .and_then(|k| match alive.nth_set(k) {
                Some(i) if reducer_alive && i >= reducer => alive.nth_set(k + 1),
                pick => pick,
            });
        let Some(src) = pick else {
            self.schedule_reduce_compute(task, job, share);
            return;
        };
        let src = NodeId(src as u32);
        let id = TransferId(self.next_xfer);
        self.next_xfer += 1;
        self.net_owner.insert(id, NetOwner::Shuffle { task });
        let done = self.net.start(now, id, src, node, remote);
        self.settle_net(done);
    }

    fn schedule_reduce_compute(&mut self, task: TaskId, job: JobId, share: u64) {
        let rate = self.spec(job).reduce_cpu_rate;
        let secs = share as f64 / rate * self.jitter();
        self.engine.schedule_in(
            SimDuration::from_secs_f64(secs),
            Event::TaskComputeDone(task),
        );
    }

    /// A mean-one log-normal compute-time multiplier (1.0 when jitter is
    /// disabled).
    fn jitter(&mut self) -> f64 {
        let sigma = self.cfg.compute.compute_jitter_sigma;
        if sigma == 0.0 {
            return 1.0;
        }
        let mu = -sigma * sigma / 2.0;
        (mu + sigma * ignem_simcore::dist::standard_normal(&mut self.rng)).exp()
    }

    fn on_task_compute_done(&mut self, task: TaskId) {
        let now = self.engine.now();
        let rec = *self.tracker.task(task);
        let ignem_compute::tracker::TaskState::Assigned(node) = rec.state else {
            return; // node failed mid-compute; task requeued
        };
        if let TaskKind::Reduce { .. } = rec.kind {
            // Write this reducer's output share (buffered; flush contends).
            let spec = self.spec(rec.job);
            let share = spec.output_bytes / spec.reducers.max(1) as u64;
            if share > 0 {
                let done = self.devices[node.0 as usize].buffered_write(now, share);
                self.settle_io(Device::Disk, node.0, done);
            }
        }
        let job_finished = self.tracker.complete(task);
        self.slots.release(node);
        self.telemetry.emit(|| TelemetryEvent::TaskFinished {
            task: task.0,
            job: rec.job.0,
            node: node.0,
        });
        if let Some(launched) = self.task_launched_at.remove(&task) {
            let d = now.duration_since(launched).as_secs_f64();
            match rec.kind {
                TaskKind::Map { .. } => self.metrics.map_task_secs.push(d),
                TaskKind::Reduce { .. } => self.metrics.reduce_task_secs.push(d),
            }
        }
        if job_finished {
            self.finish_job(rec.job);
        }
        // Tez container reuse: the freed slot takes another task at once.
        if self.cols.alive.get(node.0 as usize) {
            self.assign_tasks(node, true);
        }
    }

    fn finish_job(&mut self, job: JobId) {
        let now = self.engine.now();
        let Some(JobRecord {
            plan,
            stage,
            submitted,
            migrated,
            hyp,
            ..
        }) = self.jobs.remove(&job)
        else {
            return;
        };
        // Hypothetical scheme evicts at completion.
        for (n, bytes) in hyp {
            self.hypothetical[n as usize].add(now, -(bytes as f64));
        }
        // Job completion evict (paper: the submitter issues it).
        if migrated {
            for b in self.master.handle_evict(job) {
                for j in b.evicts {
                    self.master_send(b.to.0, RpcPayload::Evict(j));
                }
            }
        }
        self.telemetry.emit(|| TelemetryEvent::JobCompleted {
            job: job.0,
            duration_us: now.duration_since(submitted).as_micros(),
        });
        let spec = &self.plans[plan].stages[stage];
        let result = JobResult {
            name: spec.name.clone(),
            plan,
            stage,
            input_bytes: self.input_bytes_of(spec),
            submitted,
            duration: now.duration_since(submitted).as_secs_f64(),
        };
        self.metrics.jobs.push(result);
        // Advance the plan.
        let state = &mut self.plan_state[plan];
        if stage + 1 < self.plans[plan].stages.len() {
            state.current_stage = stage + 1;
            self.engine.schedule_now(Event::Submit(plan));
        } else if !state.finished {
            state.finished = true;
            let started = state.submitted_at.expect("plan finished before submit");
            self.metrics.plans.push(PlanResult {
                name: self.plans[plan].name.clone(),
                plan,
                input_bytes: state.stage1_input,
                duration: now.duration_since(started).as_secs_f64(),
            });
            self.unfinished_plans -= 1;
            // A finished plan is never submitted or killed again (both
            // paths gate on `finished`) and its last job's record is gone;
            // dropping its stage specs keeps a streamed month-long run's
            // footprint proportional to *live* jobs, not total jobs
            // admitted.
            self.plans[plan].stages = Vec::new();
        }
    }

    // ------------------------------------------------------------------
    // Ignem plumbing
    // ------------------------------------------------------------------

    /// Registers an acked send with the master (which stamps its current
    /// epoch, and its belief of the destination's incarnation, on it) and
    /// dispatches the first transmission through the unreliable channel.
    fn master_send(&mut self, to: u32, payload: RpcPayload) {
        let epoch = self.master.epoch();
        let incarnation = self.master.slave_incarnation(NodeId(to));
        let (seq, timeout) = self.master.register_send(NodeId(to), payload.clone());
        self.dispatch_send(seq, to, payload, epoch, incarnation, timeout);
    }

    /// Sends one (re)transmission attempt, plus its ack timeout. The
    /// epoch and incarnation travel with the message — a retransmission
    /// from before a master failover still carries its *original* epoch,
    /// and one from before a slave crash its *original* incarnation; the
    /// receiving side rejects either kind of stale stamp.
    fn dispatch_send(
        &mut self,
        seq: SeqNo,
        to: u32,
        payload: RpcPayload,
        epoch: Epoch,
        incarnation: Incarnation,
        timeout: SimDuration,
    ) {
        let ev = match payload {
            RpcPayload::Migrates(cmds) => Event::DeliverMigrates(to, seq, epoch, incarnation, cmds),
            RpcPayload::Evict(job) => Event::DeliverEvict(to, seq, epoch, incarnation, job),
        };
        self.rpc_send(RpcPeer::Master, RpcPeer::Slave(NodeId(to)), ev);
        self.engine.schedule_in(timeout, Event::RpcTimeout(seq));
    }

    /// Sends one control-plane message through the lossy channel: every
    /// copy the channel lets through (none when it drops or cuts the
    /// message, two when it duplicates it) arrives one network
    /// [`LATENCY`] plus that copy's extra delay later. Every master↔slave message goes
    /// through here.
    fn rpc_send(&mut self, from: RpcPeer, to: RpcPeer, ev: Event) {
        let copies = self.rpc.deliveries(&mut self.rpc_rng, from, to);
        if let Some((last, earlier)) = copies.as_slice().split_last() {
            for &extra in earlier {
                self.engine.schedule_in(LATENCY + extra, ev.clone());
            }
            self.engine.schedule_in(LATENCY + *last, ev);
        }
    }

    /// Routes a slave's acknowledgement back to the master (also lossy: a
    /// lost ack triggers a retransmission the slave absorbs idempotently).
    fn slave_ack(&mut self, n: u32, seq: SeqNo) {
        self.rpc_send(
            RpcPeer::Slave(NodeId(n)),
            RpcPeer::Master,
            Event::DeliverAck(seq),
        );
    }

    fn on_rpc_timeout(&mut self, seq: SeqNo) {
        // The master itself emits RpcRetried / RpcGaveUp.
        match self.master.on_timeout(seq) {
            RetryDecision::Settled => {}
            RetryDecision::Retry {
                to,
                payload,
                epoch,
                incarnation,
                next_timeout,
            } => self.dispatch_send(seq, to.0, payload, epoch, incarnation, next_timeout),
            RetryDecision::GiveUp { .. } => {}
        }
    }

    /// The prologue every master→slave delivery runs before the slave
    /// sees it. Returns the slave's epoch-adoption actions when the
    /// message gets through, `None` when it is dropped or deferred:
    ///
    /// - a dead node drops it (it never acks; the master retries, then
    ///   gives up);
    /// - a paused control plane re-queues `deferred()` for the resume
    ///   instant (the event is only built in that case);
    /// - a stale incarnation drops it *without* an ack: it was addressed
    ///   to a pre-crash boot of this slave, and registration purges it
    ///   from the master's outbox (its pending timeouts settle as stale);
    /// - a stale epoch drops it *without* an ack: it comes from a master
    ///   incarnation that no longer exists, and the live master never
    ///   re-sends it (failover cleared its outbox).
    ///
    /// `inc` is `None` for liveness replies, which are deliberately not
    /// incarnation-fenced: one in flight across a crash reaches a freshly
    /// restarted slave with no references, where both verdicts are no-ops.
    fn accept_delivery(
        &mut self,
        n: u32,
        epoch: Epoch,
        inc: Option<Incarnation>,
        deferred: impl FnOnce() -> Event,
    ) -> Option<Vec<SlaveAction>> {
        let idx = n as usize;
        if !self.cols.alive.get(idx) {
            return None;
        }
        if let Some(until) = self.cols.paused(idx) {
            self.engine.schedule_at(until, deferred());
            return None;
        }
        if inc.is_some_and(|inc| !self.slaves[idx].observe_incarnation(inc)) {
            return None;
        }
        let now = self.engine.now();
        self.slaves[idx].observe_epoch(now, epoch, &mut self.mems[idx])
    }

    fn on_deliver_migrates(
        &mut self,
        n: u32,
        seq: SeqNo,
        epoch: Epoch,
        inc: Incarnation,
        cmds: Vec<MigrateCommand>,
    ) {
        let deferred = || Event::DeliverMigrates(n, seq, epoch, inc, cmds.clone());
        let Some(mut actions) = self.accept_delivery(n, epoch, Some(inc), deferred) else {
            return;
        };
        let now = self.engine.now();
        actions.extend(self.slaves[n as usize].enqueue(now, cmds, &mut self.mems[n as usize]));
        self.process_slave_actions(n, actions);
        self.slave_ack(n, seq);
    }

    fn on_deliver_evict(&mut self, n: u32, seq: SeqNo, epoch: Epoch, inc: Incarnation, job: JobId) {
        let deferred = || Event::DeliverEvict(n, seq, epoch, inc, job);
        let Some(mut actions) = self.accept_delivery(n, epoch, Some(inc), deferred) else {
            return;
        };
        let now = self.engine.now();
        actions.extend(self.slaves[n as usize].on_evict_job(now, job, &mut self.mems[n as usize]));
        self.process_slave_actions(n, actions);
        self.slave_ack(n, seq);
    }

    /// A slave's liveness query arriving at the master: split the named
    /// jobs into dead and alive and route the verdict back through the
    /// channel. The alive list doubles as a lease renewal.
    fn on_liveness_query(&mut self, n: u32, jobs: Vec<JobId>) {
        let (alive, dead): (Vec<JobId>, Vec<JobId>) =
            jobs.into_iter().partition(|&j| self.job_live(j));
        let epoch = self.master.epoch();
        let reply = Event::LivenessReply(n, epoch, dead, alive);
        self.rpc_send(RpcPeer::Master, RpcPeer::Slave(NodeId(n)), reply);
    }

    fn on_liveness_reply(&mut self, n: u32, epoch: Epoch, dead: Vec<JobId>, alive: Vec<JobId>) {
        let deferred = || Event::LivenessReply(n, epoch, dead.clone(), alive.clone());
        let Some(mut actions) = self.accept_delivery(n, epoch, None, deferred) else {
            return;
        };
        let now = self.engine.now();
        actions.extend(self.slaves[n as usize].on_liveness_result(
            now,
            dead,
            alive,
            &mut self.mems[n as usize],
        ));
        self.process_slave_actions(n, actions);
    }

    /// One node's lease timer fired: expire every overdue job lease. A
    /// stale generation means a renewal superseded this timer; a paused
    /// control plane defers expiry the same way it defers deliveries.
    fn on_lease_check(&mut self, n: u32, gen: u64) {
        if gen != self.cols.lease_gen[n as usize] || !self.cols.alive.get(n as usize) {
            return;
        }
        if let Some(until) = self.cols.paused(n as usize) {
            self.engine.schedule_at(until, Event::LeaseCheck(n, gen));
            return;
        }
        let now = self.engine.now();
        let actions = self.slaves[n as usize].expire_leases(now, &mut self.mems[n as usize]);
        self.process_slave_actions(n, actions);
    }

    /// (Re)schedules the lease timer for node `n` at its earliest expiry.
    /// A no-op when leasing is disabled, so reliable runs schedule nothing.
    fn resched_lease(&mut self, n: u32) {
        if self.cfg.ignem.lease.is_none() {
            return;
        }
        self.cols.lease_gen[n as usize] += 1;
        let gen = self.cols.lease_gen[n as usize];
        if let Some(at) = self.slaves[n as usize].next_lease_expiry() {
            self.engine
                .schedule_at(at.max(self.engine.now()), Event::LeaseCheck(n, gen));
        }
    }

    /// The master's periodic reference-cleanup sweep: for every responsive
    /// slave still interested in a job the master knows to be dead, push an
    /// unsolicited liveness verdict. This is the backstop for references
    /// created by a migrate batch delivered *after* a master failover purged
    /// the slave (the master has no job record, so no evict ever comes, and
    /// the slave's own threshold-triggered query may never fire once the
    /// buffer is quiet). In a healthy run every sweep finds nothing and the
    /// sweep neither consumes randomness nor sends anything.
    fn on_cleanup_sweep(&mut self) {
        let epoch = self.master.epoch();
        for n in 0..self.cfg.nodes as u32 {
            if !self.cols.alive.get(n as usize) || self.cols.paused(n as usize).is_some() {
                continue;
            }
            if !self.slaves[n as usize].has_interest() {
                // O(1) skip: at 12k nodes almost every node holds no
                // references on any given sweep, and materializing an
                // empty Vec per node per sweep would dominate the pass.
                continue;
            }
            let (alive, dead): (Vec<JobId>, Vec<JobId>) = self.slaves[n as usize]
                .interested_jobs()
                .into_iter()
                .partition(|&j| self.job_live(j));
            if dead.is_empty() {
                continue;
            }
            let reply = Event::LivenessReply(n, epoch, dead, alive);
            self.rpc_send(RpcPeer::Master, RpcPeer::Slave(NodeId(n)), reply);
        }
        // Keep sweeping while work may still create references, or any
        // alive slave still holds interest (a reply may have been lost).
        let interest =
            (0..self.cfg.nodes).any(|n| self.cols.alive.get(n) && self.slaves[n].has_interest());
        if self.work_remaining() || interest {
            self.engine.schedule_in(CLEANUP_SWEEP, Event::CleanupSweep);
        }
    }

    /// Applies a slave's requested actions and then re-arms its lease
    /// timer. Every world↔slave interaction funnels through here, so the
    /// timer always tracks the earliest outstanding lease.
    fn process_slave_actions(&mut self, n: u32, actions: Vec<SlaveAction>) {
        for a in actions {
            match a {
                SlaveAction::StartRead { block, bytes } => {
                    // The slave emits MigrationStarted when it issues this.
                    let owner = DiskOwner::Migration { block };
                    let req = self.submit_io(Device::Disk, n, IoKind::Migration, bytes, owner);
                    self.migration_req.insert((n, block), req);
                }
                SlaveAction::CancelRead { block } => {
                    if let Some(req) = self.migration_req.remove(&(n, block)) {
                        self.telemetry.emit(|| TelemetryEvent::MigrationCancelled {
                            node: n,
                            block: block.0,
                        });
                        self.cancel_io(Device::Disk, n, req);
                    }
                }
                SlaveAction::QueryJobLiveness { jobs } => {
                    // Routed through the lossy channel both ways (the dead
                    // set is evaluated when the query *arrives* at the
                    // master). Not acked: the slave's cooldown re-issues
                    // lost queries on the next buffer-pressure check.
                    let query = Event::LivenessQuery(n, jobs);
                    self.rpc_send(RpcPeer::Slave(NodeId(n)), RpcPeer::Master, query);
                }
            }
        }
        self.resched_lease(n);
    }

    // ------------------------------------------------------------------
    // IO plumbing
    // ------------------------------------------------------------------

    /// Allocates a [`RequestId`] from node `n`'s counter. Ids only ever
    /// meet per-node structures, so per-node allocation is safe and keeps
    /// each owner map's [`IdMap`] window node-local (see
    /// [`NodeColumns::next_req`]); within a node the allocation order —
    /// and therefore the cancellation-sweep order — is unchanged.
    fn alloc_req(&mut self, n: u32) -> RequestId {
        let id = RequestId(self.cols.next_req[n as usize]);
        self.cols.next_req[n as usize] += 1;
        id
    }

    /// Position of node `n`'s `device` in the device tables
    /// (`devices`, `io_owner`, the `io_gen` column).
    fn device_index(&self, device: Device, n: u32) -> usize {
        device as usize * self.cfg.nodes + n as usize
    }

    fn submit_io(
        &mut self,
        device: Device,
        n: u32,
        kind: IoKind,
        bytes: u64,
        owner: DiskOwner,
    ) -> RequestId {
        let now = self.engine.now();
        let id = self.alloc_req(n);
        let d = self.device_index(device, n);
        self.io_owner[d].insert(id, owner);
        let done = self.devices[d].submit(now, id, kind, bytes.max(1));
        self.settle_io(device, n, done);
        id
    }

    /// Cancels request `req` on node `n`'s `device`. Its owner is dropped
    /// first, so only other requests' completions are handed on.
    fn cancel_io(&mut self, device: Device, n: u32, req: RequestId) {
        let now = self.engine.now();
        let d = self.device_index(device, n);
        self.io_owner[d].remove(&req);
        let done = self.devices[d].cancel(now, req);
        self.settle_io(device, n, done);
    }

    /// Hands a device's completions to their owners, then re-arms its
    /// timer.
    fn settle_io(&mut self, device: Device, n: u32, done: Vec<Completion>) {
        self.complete_io(device, n, done);
        self.resched_io(device, n);
    }

    fn resched_io(&mut self, device: Device, n: u32) {
        let d = self.device_index(device, n);
        self.cols.io_gen[d] += 1;
        let gen = self.cols.io_gen[d];
        if let Some(t) = self.devices[d].next_event() {
            self.engine.schedule_at(t, Event::IoTimer(device, n, gen));
        }
    }

    fn on_io_timer(&mut self, device: Device, n: u32, gen: u64) {
        let d = self.device_index(device, n);
        if gen != self.cols.io_gen[d] {
            return;
        }
        let now = self.engine.now();
        let done = self.devices[d].advance(now);
        self.settle_io(device, n, done);
    }

    fn cancel_net(&mut self, id: TransferId) {
        self.net_owner.remove(&id);
        let now = self.engine.now();
        let done = self.net.cancel(now, id);
        self.settle_net(done);
    }

    fn settle_net(&mut self, done: Vec<ignem_netsim::TransferDone>) {
        self.complete_net(done);
        self.net_gen += 1;
        let gen = self.net_gen;
        if let Some(t) = self.net.next_event() {
            self.engine.schedule_at(t, Event::NetTimer(gen));
        }
    }

    fn on_net_timer(&mut self, gen: u64) {
        if gen != self.net_gen {
            return;
        }
        let now = self.engine.now();
        let done = self.net.advance(now);
        self.settle_net(done);
    }

    fn complete_io(&mut self, device: Device, n: u32, done: Vec<Completion>) {
        let d = self.device_index(device, n);
        for c in done {
            let Some(owner) = self.io_owner[d].remove(&c.id) else {
                continue; // cancelled
            };
            match owner {
                DiskOwner::Migration { block } => {
                    // The slave emits MigrationCompleted / MigrationWasted.
                    self.migration_req.remove(&(n, block));
                    let now = self.engine.now();
                    let actions = self.slaves[n as usize].on_read_done(
                        now,
                        block,
                        &mut self.mems[n as usize],
                    );
                    self.process_slave_actions(n, actions);
                    self.mreg.gauge_set(
                        "mem_migrated_bytes",
                        n as u64,
                        self.mems[n as usize].migrated_used() as i64,
                    );
                }
                DiskOwner::MapRead {
                    task,
                    kind,
                    block,
                    serving,
                    started,
                } => self.finish_map_read(task, kind, block, serving, started, c.bytes),
                DiskOwner::Rereplicate { block, target } => {
                    self.rerep_active = false;
                    if self.cols.alive.get(target as usize) {
                        let now = self.engine.now();
                        let done = self.devices[target as usize].buffered_write(now, c.bytes);
                        self.settle_io(Device::Disk, target, done);
                        // The target may have raced a concurrent failure or
                        // already hold the replica; skip, don't crash.
                        if self.namenode.add_replica(block, NodeId(target)).is_ok() {
                            self.metrics.rereplicated += 1;
                        }
                    }
                    self.start_next_rereplication();
                }
            }
        }
    }

    /// Starts the next queued re-replication (one at a time cluster-wide,
    /// like HDFS's throttled replication monitor). Blocks with no legal
    /// source/target *right now* are deferred and retried with backoff —
    /// a crash outage is temporary, so "no target" is usually transient —
    /// instead of being silently dropped.
    fn start_next_rereplication(&mut self) {
        if self.rerep_active {
            return;
        }
        while let Some(block) = self.rerep_queue.pop() {
            if !self.namenode.is_under_replicated(block) {
                // Recovered while queued (its holder re-registered) or
                // satisfied by the alive-node clamp: nothing to do.
                continue;
            }
            let Ok(locations) = self.namenode.locations(block) else {
                continue;
            };
            if locations.is_empty() {
                continue; // lost block: nothing to copy from
            }
            let holders: Vec<NodeId> = locations;
            let candidates: Vec<NodeId> = (0..self.cfg.nodes as u32)
                .map(NodeId)
                .filter(|n| self.cols.alive.get(n.0 as usize) && !holders.contains(n))
                .collect();
            if candidates.is_empty() {
                self.defer_rereplication(block);
                continue;
            }
            let source = *self.rng.choose(&holders);
            let target = *self.rng.choose(&candidates);
            let Ok(info) = self.namenode.block_info(block) else {
                continue; // block deleted while queued for re-replication
            };
            let bytes = info.bytes;
            let owner = DiskOwner::Rereplicate {
                block,
                target: target.0,
            };
            self.rerep_active = true;
            self.rerep_attempt = 0; // progress resets the backoff
            self.telemetry
                .emit(|| TelemetryEvent::RereplicationStarted {
                    block: block.0,
                    source: source.0,
                    target: target.0,
                    bytes,
                });
            self.submit_io(Device::Disk, source.0, IoKind::Read, bytes, owner);
            return;
        }
        self.arm_rerep_retry();
    }

    fn complete_net(&mut self, done: Vec<ignem_netsim::TransferDone>) {
        for t in done {
            let Some(owner) = self.net_owner.remove(&t.id) else {
                continue;
            };
            match owner {
                NetOwner::MapRead {
                    task,
                    block,
                    serving,
                    started,
                } => self.finish_map_read(
                    task,
                    ReadKind::Memory,
                    Some(block),
                    serving,
                    started,
                    t.bytes,
                ),
                NetOwner::Shuffle { task } => {
                    let rec = *self.tracker.task(task);
                    if let ignem_compute::tracker::TaskState::Assigned(_) = rec.state {
                        let spec = self.spec(rec.job);
                        let share = spec.shuffle_bytes / spec.reducers.max(1) as u64;
                        self.schedule_reduce_compute(task, rec.job, share);
                    }
                }
            }
        }
    }

    fn finish_map_read(
        &mut self,
        task: TaskId,
        kind: ReadKind,
        block: Option<BlockId>,
        serving: u32,
        started: SimTime,
        bytes: u64,
    ) {
        let now = self.engine.now();
        let rec = *self.tracker.task(task);
        let ignem_compute::tracker::TaskState::Assigned(_) = rec.state else {
            return; // requeued meanwhile
        };
        if let Some(b) = block {
            // lint: allow(Q01, reason = "end-of-run metrics accumulator, bounded by the workload's block reads")
            self.metrics.block_reads.push(BlockRead {
                bytes,
                secs: now.duration_since(started).as_secs_f64(),
                kind,
            });
            // Emitted under exactly the guard that records the metric, so
            // the explainer's verdict counts reconcile with RunMetrics.
            self.telemetry.emit(|| TelemetryEvent::BlockRead {
                task: task.0,
                job: rec.job.0,
                block: b.0,
                node: serving,
                bytes,
                class: kind,
                duration_us: now.duration_since(started).as_micros(),
            });
            self.mreg.observe(
                "block_read_us",
                kind as u64,
                now.duration_since(started).as_micros(),
            );
        }
        // Optional PACMan-style page cache on the serving node.
        if self.cfg.cache_reads && self.cols.alive.get(serving as usize) {
            if let Some(b) = block {
                match kind {
                    ReadKind::Memory => self.mems[serving as usize].touch(&b),
                    ReadKind::LocalDisk | ReadKind::RemoteDisk => {
                        self.mems[serving as usize].insert_cached(now, b, bytes);
                    }
                }
            }
        }
        // HDFS reads carry the job id; the serving slave reacts (implicit
        // eviction / missed-read cleanup).
        if self.mode == FsMode::Ignem {
            if let Some(b) = block {
                if self.cols.alive.get(serving as usize) {
                    let actions = self.slaves[serving as usize].on_block_read(
                        now,
                        b,
                        rec.job,
                        &mut self.mems[serving as usize],
                    );
                    self.process_slave_actions(serving, actions);
                }
            }
        }
        let rate = self.spec(rec.job).map_cpu_rate;
        let secs = bytes as f64 / rate * self.jitter();
        self.engine.schedule_in(
            SimDuration::from_secs_f64(secs),
            Event::TaskComputeDone(task),
        );
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    fn on_inject(&mut self, idx: usize) {
        if self.suppressed_faults[idx] {
            // A suppressed fault injects nothing and emits nothing: the
            // continuation behaves exactly like a world built without it
            // (the Inject pop itself only moves the processed counter,
            // which no fingerprinted metric includes).
            return;
        }
        let now = self.engine.now();
        self.telemetry.emit(|| TelemetryEvent::FaultInjected {
            desc: format!("{:?}", self.faults[idx].1),
        });
        match self.faults[idx].1.clone() {
            Fault::MasterFail => {
                self.master.fail();
                let epoch = self.master.epoch();
                for n in 0..self.cfg.nodes {
                    if self.cols.alive.get(n) {
                        let actions =
                            self.slaves[n].on_master_failed(now, epoch, &mut self.mems[n]);
                        self.process_slave_actions(n as u32, actions);
                    }
                }
            }
            Fault::SlaveRestart(node) => {
                let n = node.0 as usize;
                if self.cols.alive.get(n) {
                    let actions = self.slaves[n].fail(now, &mut self.mems[n]);
                    self.process_slave_actions(node.0, actions);
                }
            }
            Fault::NodeFail(node) => self.fail_node(node),
            Fault::KillPlan(p) => self.kill_plan(p),
            Fault::DiskDegrade(node, percent, duration) => {
                let n = node.0 as usize;
                assert!(percent > 0 && percent <= 100, "bad degrade percent");
                if self.cols.alive.get(n) {
                    let factor = percent as f64 / 100.0;
                    let done = self.devices[n].set_speed_factor(now, factor);
                    self.settle_io(Device::Disk, node.0, done);
                    self.engine
                        .schedule_in(duration, Event::DiskRestore(node.0));
                }
            }
            Fault::NodePause(node, duration) => {
                let n = node.0 as usize;
                if self.cols.alive.get(n) {
                    self.cols.set_paused(n, Some(now + duration));
                    self.engine.schedule_in(duration, Event::NodeResume(node.0));
                }
            }
            Fault::Partition(nodes, duration) => {
                // The fault index keys the partition so overlapping
                // partitions heal independently.
                self.rpc.partition(idx, &nodes);
                self.engine.schedule_in(duration, Event::PartitionHeal(idx));
            }
            Fault::NodeCrash(node, down_for) => {
                let n = node.0 as usize;
                if !self.cols.alive.get(n) {
                    return; // already dead (failed or mid-crash): no-op
                }
                // Emitted before the purge so the BlockEvicted events the
                // purge produces at this instant classify as crash losses
                // in the explainer.
                self.telemetry
                    .emit(|| TelemetryEvent::NodeCrashed { node: node.0 });
                self.metrics.crashes += 1;
                self.cols.crashed_down.set(n, true);
                self.cols.crashed_ever.set(n, true);
                // Down is down: the full node-failure machinery (NameNode
                // death mark, slave purge, task re-execution, IO
                // cancellation with read re-issue, re-replication).
                self.fail_node(node);
                // The crash loses *all* volatile RAM — pinned inputs and
                // page cache too, not just the migrated blocks the slave
                // purge already debited. Durable disk blocks survive.
                self.mems[n].wipe(now);
                // A rebooting machine has no GC stall to wait out.
                self.cols.set_paused(n, None);
                // The NIC is dark for the outage. Partition ids at or
                // above `faults.len()` are reserved for crash NIC-downs
                // (fault indices key the injected partitions), and one
                // node has at most one active crash, so `faults.len() + n`
                // is collision-free.
                self.rpc.partition(self.faults.len() + n, &[node]);
                self.engine
                    .schedule_in(down_for, Event::NodeRestart(node.0));
            }
        }
    }

    fn on_disk_restore(&mut self, n: u32) {
        if !self.cols.alive.get(n as usize) {
            return;
        }
        self.telemetry.emit(|| TelemetryEvent::FaultHealed {
            desc: format!("node{n} disk restored to nominal speed"),
        });
        let now = self.engine.now();
        let done = self.devices[n as usize].set_speed_factor(now, 1.0);
        self.settle_io(Device::Disk, n, done);
    }

    fn on_node_resume(&mut self, n: u32) {
        self.telemetry.emit(|| TelemetryEvent::FaultHealed {
            desc: format!("node{n} control plane resumed"),
        });
        self.cols.set_paused(n as usize, None);
    }

    fn on_partition_heal(&mut self, id: usize) {
        self.telemetry.emit(|| TelemetryEvent::FaultHealed {
            desc: format!("partition {id} healed"),
        });
        self.rpc.heal(id);
    }

    // ------------------------------------------------------------------
    // Crash recovery (see the module-level *Crash and recovery* section)
    // ------------------------------------------------------------------

    /// A crashed node's outage ends. The server boots with its durable
    /// disk intact and an empty RAM, the NIC comes back up, the slave
    /// restarts under a fresh incarnation and announces itself to the
    /// master. A [`Fault::NodeFail`] that hit during the outage was a
    /// no-op (the node was already dead), so restart is unconditional for
    /// a dark node.
    fn on_node_restart(&mut self, n: u32) {
        let idx = n as usize;
        if !self.cols.crashed_down.get(idx) {
            return;
        }
        let now = self.engine.now();
        self.cols.crashed_down.set(idx, false);
        self.cols.alive.set(idx, true);
        // NIC up *before* the registration send, or the channel would cut
        // it. A reboot also clears any lingering disk-speed degradation
        // (a later DiskRestore for a healed degrade is idempotent).
        self.rpc.heal(self.faults.len() + idx);
        let done = self.devices[idx].set_speed_factor(now, 1.0);
        self.settle_io(Device::Disk, n, done);
        let incarnation = self.slaves[idx].restart();
        self.telemetry.emit(|| TelemetryEvent::NodeRestarted {
            node: n,
            incarnation: incarnation.0,
        });
        self.metrics.restarts += 1;
        // Heartbeats: the node's group stopped if all its nodes went dark;
        // re-arm it once (guarded so a short outage that never dropped a
        // beat, or a group with a node still up, does not end up with two
        // concurrent chains).
        let group = idx / heartbeat_group_size(&self.cfg);
        if self.work_remaining() && !self.cols.hb_live.get(group) {
            self.cols.hb_live.set(group, true);
            self.engine.schedule_in(
                self.cfg.compute.heartbeat,
                Event::Heartbeat(group as u32, 0),
            );
        }
        self.send_register(n, 1);
    }

    /// Sends (or retransmits) a restarted slave's registration through the
    /// lossy channel and arms the next retry. Registration is idempotent
    /// at the master, so duplicates from generous retries are harmless.
    fn send_register(&mut self, n: u32, attempt: u32) {
        let incarnation = self.slaves[n as usize].incarnation();
        let register = Event::DeliverRegister(n, incarnation);
        self.rpc_send(RpcPeer::Slave(NodeId(n)), RpcPeer::Master, register);
        // The master's ack-retry schedule doubles as the registration
        // backoff. No attempt cap: an unregistered node is useless, so the
        // slave keeps announcing itself (at the capped interval) until the
        // master hears it — under any fault schedule that heals, this
        // terminates, and invariant 8 would flag a node that never got
        // through.
        let timeout = timeout_for(attempt);
        self.engine
            .schedule_in(timeout, Event::RegisterRetry(n, attempt));
    }

    fn on_register_retry(&mut self, n: u32, attempt: u32) {
        let idx = n as usize;
        // Inert once the master has absorbed this (or a newer) boot of the
        // node, or the node died again while the timer was pending.
        if !self.cols.alive.get(idx)
            || self.master.slave_incarnation(NodeId(n)) >= self.slaves[idx].incarnation()
        {
            return;
        }
        self.send_register(n, attempt.saturating_add(1));
    }

    /// A registration arriving at the master. Absorbing it purges every
    /// outbox entry and job-routing record addressed to the dead
    /// incarnation; the registration doubles as the node's full block
    /// report, so the NameNode marks its durable replicas readable again,
    /// re-replication re-examines what is still short, and migration is
    /// re-admitted for live jobs.
    fn on_deliver_register(&mut self, n: u32, incarnation: Incarnation) {
        if !self.cols.alive.get(n as usize) {
            return; // crashed again while the registration was in flight
        }
        if !self.master.handle_register(NodeId(n), incarnation) {
            return; // duplicate or out-of-order copy
        }
        // Block report from the durable store: the node is registered in
        // every normal construction path, so this only errs in exotic
        // test topologies where a no-op is the right answer.
        let _ = self.namenode.mark_alive(NodeId(n));
        let blocks = self.namenode.blocks_on(NodeId(n)).len() as u64;
        self.telemetry
            .emit(|| TelemetryEvent::BlockReportReceived { node: n, blocks });
        // Replicas lost in the crash may still be short (or a pending
        // deferral may have become satisfiable now that this node is back
        // as a target); re-examine.
        self.rerep_queue.extend(self.namenode.under_replicated());
        self.rerep_queue.sort();
        self.rerep_queue.dedup();
        self.rerep_queue.append(&mut self.rerep_deferred);
        self.start_next_rereplication();
        self.reignite();
    }

    /// Re-admits migration after a node recovered: every live migrate-mode
    /// job gets its request re-issued, so blocks whose RAM copy the crash
    /// wiped (and any the job never managed to migrate) heat up again.
    /// Idempotent end to end — slaves dedup commands for blocks they
    /// already hold, and the master stamps its fresh incarnation belief on
    /// every send, so re-ignition cannot resurrect dead state.
    fn reignite(&mut self) {
        if self.mode != FsMode::Ignem {
            return;
        }
        let now = self.engine.now();
        // `jobs` iterates in job-id order: re-ignition visits jobs, and
        // therefore draws randomness, in one order on every run.
        let jobs: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|(_, r)| r.live && r.migrated)
            .map(|(j, _)| j)
            .collect();
        for job in jobs {
            let spec = self.spec(job);
            let (Some(mode), JobInput::DfsFiles(files)) = (spec.submit.migrate, &spec.input) else {
                continue;
            };
            let req = MigrateRequest {
                job,
                files: files.clone(),
                mode,
                // Re-migration lead time is measured from the recovery,
                // not the original submission: the explainer reports how
                // much runway the re-ignited blocks actually had.
                submitted: now,
            };
            if let Ok(batches) = self
                .master
                .handle_migrate(&req, &self.namenode, &mut self.rng)
            {
                self.metrics.reignited_jobs += 1;
                for b in batches {
                    self.master_send(b.to.0, RpcPayload::Migrates(b.migrates));
                }
            }
        }
    }

    /// Queues a block whose re-replication found no legal source/target
    /// right now, to be retried with backoff.
    fn defer_rereplication(&mut self, block: BlockId) {
        if !self.rerep_deferred.contains(&block) {
            self.rerep_deferred.push(block);
        }
        let attempt = self.rerep_attempt;
        self.telemetry
            .emit(|| TelemetryEvent::RereplicationDeferred {
                block: block.0,
                attempt,
            });
        self.metrics.rerep_deferrals += 1;
    }

    /// Arms the deferred-re-replication retry timer: capped exponential
    /// backoff per consecutive all-deferred round, bounded attempts, then
    /// give up (invariant 8 reports any durable block left without an
    /// alive replica, so giving up is visible, not silent).
    fn arm_rerep_retry(&mut self) {
        if self.rerep_active || self.rerep_deferred.is_empty() {
            return;
        }
        const MAX_REREP_ROUNDS: u32 = 10;
        if self.rerep_attempt >= MAX_REREP_ROUNDS {
            self.metrics.rerep_gave_up += self.rerep_deferred.len() as u64;
            self.rerep_deferred.clear();
            return;
        }
        self.rerep_attempt += 1;
        self.rerep_retry_gen += 1;
        let gen = self.rerep_retry_gen;
        let backoff = SimDuration::from_secs(1 << self.rerep_attempt.min(5));
        self.engine.schedule_in(backoff, Event::RerepRetry(gen));
    }

    fn on_rerep_retry(&mut self, gen: u64) {
        if gen != self.rerep_retry_gen {
            return;
        }
        self.rerep_queue.append(&mut self.rerep_deferred);
        self.rerep_queue.sort();
        self.rerep_queue.dedup();
        self.start_next_rereplication();
    }

    /// Invariant 8 — recovery convergence, audited at finalization when
    /// the run injected at least one crash. After the last fault heals: no
    /// node may still be dark, every crashed node that is alive at the end
    /// must have converged (master and slave agree on its incarnation, the
    /// NameNode serves its replicas), the master's retransmission outbox
    /// must have drained, and no durably written block may be left without
    /// an alive replica. Returns a violation description, `None` when
    /// converged.
    fn check_recovery(&self) -> Option<String> {
        if self.metrics.crashes == 0 {
            return None;
        }
        for n in 0..self.cfg.nodes {
            if self.cols.crashed_down.get(n) {
                return Some(format!("node{n} still dark at end of run"));
            }
            if !self.cols.crashed_ever.get(n) || !self.cols.alive.get(n) {
                // Never crashed, or permanently failed after recovering:
                // out of scope for convergence.
                continue;
            }
            let node = NodeId(n as u32);
            let master_inc = self.master.slave_incarnation(node);
            let slave_inc = self.slaves[n].incarnation();
            if master_inc != slave_inc {
                return Some(format!(
                    "node{n}: master believes {master_inc}, slave is {slave_inc} — \
                     registration never converged"
                ));
            }
            if !self.namenode.is_alive(node) {
                return Some(format!(
                    "node{n} re-registered with the master but not the NameNode"
                ));
            }
        }
        if self.master.pending_sends() != 0 {
            return Some(format!(
                "{} unsettled outbox entries at end of run",
                self.master.pending_sends()
            ));
        }
        let lost = self.namenode.blocks_without_alive_replica();
        if !lost.is_empty() {
            return Some(format!(
                "{} durable blocks left without an alive replica (first: {:?})",
                lost.len(),
                lost[0]
            ));
        }
        None
    }

    fn fail_node(&mut self, node: NodeId) {
        let n = node.0 as usize;
        if !self.cols.alive.get(n) {
            return;
        }
        let now = self.engine.now();
        self.cols.alive.set(n, false);
        // The node is registered in every normal construction path; if a
        // test built an exotic topology, dying twice must stay harmless.
        let _ = self.namenode.mark_dead(node);
        // Slave dies with the node; cancel its migration read.
        let actions = self.slaves[n].fail(now, &mut self.mems[n]);
        self.process_slave_actions(node.0, actions);
        // Requeue tasks that were running on the node and drop their slots.
        let requeued = self.tracker.fail_node(node);
        self.slots.clear_node(node);
        let requeued: BTreeSet<TaskId> = requeued.into_iter().collect();
        // Cancel in-flight IO owned by requeued tasks or served by the dead
        // node, re-issuing reads for still-running remote readers. The
        // owner maps iterate in `(node, request id)` order, so two
        // identical runs cancel and re-issue in one order.
        let mut reissue: Vec<(TaskId, Option<BlockId>, u64)> = Vec::new();
        let disk_keys: Vec<(u32, RequestId)> = self.io_owner[..self.cfg.nodes]
            .iter()
            .enumerate()
            .flat_map(|(dn, owners)| owners.keys().map(move |req| (dn as u32, req)))
            .collect();
        for (dn, req) in disk_keys {
            let owner = self.io_owner[dn as usize][&req];
            if let DiskOwner::Rereplicate { block, target } = owner {
                // A re-replication touched by the failure restarts later.
                if dn == node.0 || target == node.0 {
                    self.cancel_io(Device::Disk, dn, req);
                    self.rerep_active = false;
                    self.rerep_queue.push(block);
                }
                continue;
            }
            if let DiskOwner::MapRead {
                task,
                block,
                serving,
                ..
            } = owner
            {
                let dead_reader = requeued.contains(&task);
                let dead_server = serving == node.0 || dn == node.0;
                if dead_reader || dead_server {
                    self.cancel_io(Device::Disk, dn, req);
                    if !dead_reader {
                        let rec = *self.tracker.task(task);
                        if let TaskKind::Map { bytes, .. } = rec.kind {
                            reissue.push((task, block, bytes));
                        }
                    }
                }
            }
        }
        let ram = self.device_index(Device::Ram, node.0);
        let ram_keys: Vec<RequestId> = self.io_owner[ram].keys().collect();
        for req in ram_keys {
            self.cancel_io(Device::Ram, node.0, req);
        }
        let xfers: Vec<TransferId> = self.net_owner.keys().collect();
        for id in xfers {
            // `complete_net` inside this loop can complete and remove
            // *other* snapshotted transfers, so a stale id is possible.
            let Some(&owner) = self.net_owner.get(&id) else {
                continue;
            };
            match owner {
                NetOwner::MapRead {
                    task,
                    block,
                    serving,
                    ..
                } => {
                    let dead_reader = requeued.contains(&task);
                    if dead_reader || serving == node.0 {
                        self.cancel_net(id);
                        if !dead_reader {
                            let rec = *self.tracker.task(task);
                            if let TaskKind::Map { bytes, .. } = rec.kind {
                                reissue.push((task, Some(block), bytes));
                            }
                        }
                    }
                }
                NetOwner::Shuffle { task } => {
                    if requeued.contains(&task) {
                        self.cancel_net(id);
                    }
                }
            }
        }
        for (task, block, bytes) in reissue {
            let rec = *self.tracker.task(task);
            if let ignem_compute::tracker::TaskState::Assigned(reader) = rec.state {
                self.start_map_read(task, reader, block, bytes);
            }
        }
        // HDFS re-replicates the blocks that lost a replica.
        self.rerep_queue.extend(self.namenode.under_replicated());
        self.rerep_queue.sort();
        self.rerep_queue.dedup();
        self.start_next_rereplication();
    }

    fn kill_plan(&mut self, p: usize) {
        if self.plan_state[p].finished {
            return;
        }
        let now = self.engine.now();
        // `jobs` iterates in job-id order, so the kill sweep visits jobs
        // in the same order on every run.
        for (job, rec) in self.jobs.iter_mut() {
            if rec.plan != p {
                continue;
            }
            self.tracker.kill_job(job);
            rec.live = false;
            for (n, bytes) in std::mem::take(&mut rec.hyp) {
                self.hypothetical[n as usize].add(now, -(bytes as f64));
            }
            // Note: deliberately NO evict to Ignem — the paper's dead-job
            // cleanup (threshold + liveness query) must reclaim the refs.
        }
        self.plan_state[p].finished = true;
        self.unfinished_plans -= 1;
    }
}
