//! Structured telemetry: a typed event stream for the whole simulator.
//!
//! Hosts emit typed [`Event`]s through a shared [`Telemetry`] handle, each
//! stamped with the simulated time and a monotonic sequence number
//! ([`EventRecord`]). Sinks implement [`EventSink`]; the built-in one is
//! [`FlightRecorder`], a bounded ring buffer with JSONL export, cheap
//! enough to leave on for a whole run and inspect afterwards.
//!
//! Emission is zero-cost when no sink is installed: a disabled
//! [`Telemetry`] handle is a `None` check and the event constructor
//! closure never runs. Nothing here consumes randomness, so installing a
//! sink cannot perturb a seeded simulation.
//!
//! ## Identifier conventions
//!
//! `Event` lives in `simcore`, below the crates that define the `JobId` /
//! `BlockId` / `TaskId` / `NodeId` newtypes, so it carries their raw
//! integer payloads (`u64` jobs/blocks/tasks, `u32` nodes). Control-plane
//! endpoints use [`Peer`], which serialises the master as `-1`.
//!
//! ## JSONL record format
//!
//! [`EventRecord::to_json`] renders one record per line with a fixed field
//! order: `{"seq":N,"at_us":N,"type":"<tag>",...}` followed by the
//! variant's fields. All values are integers or escaped strings — no
//! floats — so a deterministic simulation produces a bit-identical trace
//! on every run and platform.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use crate::text::{Integer, Text};
use crate::time::SimTime;

/// One end of a control-plane message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Peer {
    /// The master / NameNode side.
    Master,
    /// The slave daemon on the given node.
    Node(u32),
}

impl Peer {
    /// JSON encoding: the master is `-1`, a node is its index.
    pub fn as_i64(self) -> i64 {
        match self {
            Peer::Master => -1,
            Peer::Node(n) => n as i64,
        }
    }
}

impl fmt::Display for Peer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Peer::Master => write!(f, "master"),
            Peer::Node(n) => write!(f, "node{n}"),
        }
    }
}

/// Where a block read was served from: the DFS client's read source
/// collapsed to three kinds, as the run metrics, the `block_read_us`
/// histogram tags (`kind as u64`) and [`Event::BlockRead`] record it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadKind {
    /// Local or remote memory.
    Memory,
    /// The reader's local disk.
    LocalDisk,
    /// A remote disk over the network.
    RemoteDisk,
}

impl ReadKind {
    /// Stable JSON tag for this kind.
    pub fn tag(self) -> &'static str {
        match self {
            ReadKind::Memory => "memory",
            ReadKind::LocalDisk => "local_disk",
            ReadKind::RemoteDisk => "remote_disk",
        }
    }
}

/// A typed simulation event. See the module docs for the identifier
/// conventions; times beyond the record's own timestamp are microseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A planned job was handed to the submitter.
    JobSubmitted {
        /// Job id.
        job: u64,
        /// Workload-plan display name.
        name: String,
        /// Index of the planned workload entry.
        plan: u64,
        /// Stage index within the planned entry.
        stage: u64,
    },
    /// The job cleared submitter + AM overhead and became schedulable.
    JobScheduled {
        /// Job id.
        job: u64,
    },
    /// The job's last task completed.
    JobCompleted {
        /// Job id.
        job: u64,
        /// Submission-to-completion time in microseconds.
        duration_us: u64,
    },
    /// A task was assigned to a node's free slot.
    TaskAssigned {
        /// Task id.
        task: u64,
        /// Owning job.
        job: u64,
        /// Node the task runs on.
        node: u32,
    },
    /// The task cleared its launch overhead and started IO/compute.
    TaskStarted {
        /// Task id.
        task: u64,
        /// Owning job.
        job: u64,
        /// Node the task runs on.
        node: u32,
    },
    /// The task finished.
    TaskFinished {
        /// Task id.
        task: u64,
        /// Owning job.
        job: u64,
        /// Node the task ran on.
        node: u32,
    },
    /// A map task finished reading its input block.
    BlockRead {
        /// Reading task.
        task: u64,
        /// Owning job.
        job: u64,
        /// Block read.
        block: u64,
        /// Node that served the bytes.
        node: u32,
        /// Bytes read.
        bytes: u64,
        /// Serving medium.
        class: ReadKind,
        /// End-to-end read duration in microseconds.
        duration_us: u64,
    },
    /// A migrate request failed at the master (best-effort: the job reads
    /// cold).
    MigrationRejected {
        /// Requesting job.
        job: u64,
        /// Error description.
        reason: String,
    },
    /// The master assigned a block's migration to a slave.
    MigrationAssigned {
        /// Requesting job.
        job: u64,
        /// Block to migrate.
        block: u64,
        /// Chosen replica holder.
        node: u32,
        /// Block size.
        bytes: u64,
    },
    /// A slave accepted new interest in a block (first command for this
    /// `(job, block)` pair; idempotent redeliveries do not re-emit).
    MigrationEnqueued {
        /// The slave's node.
        node: u32,
        /// Interested job.
        job: u64,
        /// Block to migrate.
        block: u64,
        /// Block size.
        bytes: u64,
    },
    /// A slave started the disk read for a queued migration.
    MigrationStarted {
        /// The slave's node.
        node: u32,
        /// Block being read.
        block: u64,
        /// Block size.
        bytes: u64,
    },
    /// A migration read completed and the block entered memory.
    MigrationCompleted {
        /// The slave's node.
        node: u32,
        /// Migrated block.
        block: u64,
        /// Block size.
        bytes: u64,
    },
    /// A migration read completed but the block was dropped (no interested
    /// job left, or memory filled up meanwhile).
    MigrationWasted {
        /// The slave's node.
        node: u32,
        /// Dropped block.
        block: u64,
        /// Block size.
        bytes: u64,
    },
    /// A queued migration was discarded before starting (missed read or
    /// dead job).
    MigrationDiscarded {
        /// The slave's node.
        node: u32,
        /// Discarded block.
        block: u64,
    },
    /// An in-flight migration read was cancelled (purge or restart).
    MigrationCancelled {
        /// The slave's node.
        node: u32,
        /// Cancelled block.
        block: u64,
    },
    /// A migrated block left memory (reference list emptied or purge).
    BlockEvicted {
        /// The slave's node.
        node: u32,
        /// Evicted block.
        block: u64,
        /// Bytes released.
        bytes: u64,
    },
    /// A message was offered to the control-plane channel.
    RpcSent {
        /// Sender.
        from: Peer,
        /// Receiver.
        to: Peer,
    },
    /// The channel dropped a message.
    RpcDropped {
        /// Sender.
        from: Peer,
        /// Receiver.
        to: Peer,
    },
    /// The channel delivered a message twice.
    RpcDuplicated {
        /// Sender.
        from: Peer,
        /// Receiver.
        to: Peer,
    },
    /// An active partition cut the message off.
    RpcCut {
        /// Sender.
        from: Peer,
        /// Receiver.
        to: Peer,
    },
    /// The master retransmitted an unacknowledged send.
    RpcRetried {
        /// Sequence number of the send.
        seq: u64,
        /// Destination slave.
        node: u32,
        /// Delivery attempt number (2 on the first retransmission).
        attempt: u32,
    },
    /// The master received an acknowledgement for an outstanding send.
    RpcAcked {
        /// Sequence number of the send.
        seq: u64,
    },
    /// The master exhausted every retransmission attempt.
    RpcGaveUp {
        /// Sequence number of the send.
        seq: u64,
        /// Unreachable slave.
        node: u32,
    },
    /// A slave's lease on a job's references expired un-renewed; the job's
    /// interest on that node was released (eviction/discard events follow).
    LeaseExpired {
        /// Node whose slave held the lease.
        node: u32,
        /// The job whose references were released.
        job: u64,
    },
    /// A slave rejected a master command stamped with a stale epoch (a
    /// retransmission from a master incarnation that has since failed over).
    EpochRejected {
        /// Rejecting node.
        node: u32,
        /// The stale epoch carried by the command.
        stale: u64,
        /// The epoch the slave currently recognizes.
        current: u64,
    },
    /// A slave rejected a master command stamped with a stale incarnation
    /// (a retransmission addressed to a crashed-and-replaced boot of the
    /// node's daemon).
    IncarnationRejected {
        /// Rejecting node.
        node: u32,
        /// The stale incarnation carried by the command.
        stale: u64,
        /// The incarnation the slave is currently running.
        current: u64,
    },
    /// A node crashed: its volatile memory is gone, its NIC is down, and
    /// every in-flight transfer touching it was dropped. The matching
    /// `BlockEvicted` events for wiped RAM replicas carry the same
    /// timestamp.
    NodeCrashed {
        /// The crashed node.
        node: u32,
    },
    /// A crashed node restarted under a fresh incarnation (durable disk
    /// blocks intact, memory empty, not yet re-registered).
    NodeRestarted {
        /// The restarted node.
        node: u32,
        /// The incarnation the slave now runs under.
        incarnation: u64,
    },
    /// The master processed a restarted slave's registration: stale
    /// outbox state for the dead incarnation was purged.
    SlaveRegistered {
        /// The registering node.
        node: u32,
        /// The incarnation the master now records for the node.
        incarnation: u64,
    },
    /// The master absorbed a re-registered node's full block report; its
    /// durable replicas are visible to reads again.
    BlockReportReceived {
        /// The reporting node.
        node: u32,
        /// Number of block replicas the report restored.
        blocks: u64,
    },
    /// The NameNode started copying an under-replicated block to restore
    /// its replication factor.
    RereplicationStarted {
        /// The block being copied.
        block: u64,
        /// The surviving replica holder serving the read.
        source: u32,
        /// The node receiving the new replica.
        target: u32,
        /// Block size.
        bytes: u64,
    },
    /// Re-replication of a block found no usable source or target and was
    /// deferred to a backoff retry.
    RereplicationDeferred {
        /// The block that could not be copied yet.
        block: u64,
        /// Backoff attempt number (1 on the first deferral).
        attempt: u32,
    },
    /// A fault was injected.
    FaultInjected {
        /// Debug rendering of the fault.
        desc: String,
    },
    /// A transient fault healed (disk restored, node resumed, partition
    /// healed).
    FaultHealed {
        /// What healed.
        desc: String,
    },
}

impl Event {
    /// Stable JSON type tag.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::JobSubmitted { .. } => "job_submitted",
            Event::JobScheduled { .. } => "job_scheduled",
            Event::JobCompleted { .. } => "job_completed",
            Event::TaskAssigned { .. } => "task_assigned",
            Event::TaskStarted { .. } => "task_started",
            Event::TaskFinished { .. } => "task_finished",
            Event::BlockRead { .. } => "block_read",
            Event::MigrationRejected { .. } => "migration_rejected",
            Event::MigrationAssigned { .. } => "migration_assigned",
            Event::MigrationEnqueued { .. } => "migration_enqueued",
            Event::MigrationStarted { .. } => "migration_started",
            Event::MigrationCompleted { .. } => "migration_completed",
            Event::MigrationWasted { .. } => "migration_wasted",
            Event::MigrationDiscarded { .. } => "migration_discarded",
            Event::MigrationCancelled { .. } => "migration_cancelled",
            Event::BlockEvicted { .. } => "block_evicted",
            Event::RpcSent { .. } => "rpc_sent",
            Event::RpcDropped { .. } => "rpc_dropped",
            Event::RpcDuplicated { .. } => "rpc_duplicated",
            Event::RpcCut { .. } => "rpc_cut",
            Event::RpcRetried { .. } => "rpc_retried",
            Event::RpcAcked { .. } => "rpc_acked",
            Event::RpcGaveUp { .. } => "rpc_gave_up",
            Event::LeaseExpired { .. } => "lease_expired",
            Event::EpochRejected { .. } => "epoch_rejected",
            Event::IncarnationRejected { .. } => "incarnation_rejected",
            Event::NodeCrashed { .. } => "node_crashed",
            Event::NodeRestarted { .. } => "node_restarted",
            Event::SlaveRegistered { .. } => "slave_registered",
            Event::BlockReportReceived { .. } => "block_report_received",
            Event::RereplicationStarted { .. } => "rereplication_started",
            Event::RereplicationDeferred { .. } => "rereplication_deferred",
            Event::FaultInjected { .. } => "fault_injected",
            Event::FaultHealed { .. } => "fault_healed",
        }
    }

    fn json_fields(&self, out: &mut String) {
        match self {
            Event::JobSubmitted {
                job,
                name,
                plan,
                stage,
            } => {
                push_int(out, "job", *job);
                push_str(out, "name", name);
                push_int(out, "plan", *plan);
                push_int(out, "stage", *stage);
            }
            Event::JobScheduled { job } => push_int(out, "job", *job),
            Event::JobCompleted { job, duration_us } => {
                push_int(out, "job", *job);
                push_int(out, "duration_us", *duration_us);
            }
            Event::TaskAssigned { task, job, node }
            | Event::TaskStarted { task, job, node }
            | Event::TaskFinished { task, job, node } => {
                push_int(out, "task", *task);
                push_int(out, "job", *job);
                push_int(out, "node", *node);
            }
            Event::BlockRead {
                task,
                job,
                block,
                node,
                bytes,
                class,
                duration_us,
            } => {
                push_int(out, "task", *task);
                push_int(out, "job", *job);
                push_int(out, "block", *block);
                push_int(out, "node", *node);
                push_int(out, "bytes", *bytes);
                push_str(out, "class", class.tag());
                push_int(out, "duration_us", *duration_us);
            }
            Event::MigrationRejected { job, reason } => {
                push_int(out, "job", *job);
                push_str(out, "reason", reason);
            }
            Event::MigrationAssigned {
                job,
                block,
                node,
                bytes,
            } => {
                push_int(out, "job", *job);
                push_int(out, "block", *block);
                push_int(out, "node", *node);
                push_int(out, "bytes", *bytes);
            }
            Event::MigrationEnqueued {
                node,
                job,
                block,
                bytes,
            } => {
                push_int(out, "node", *node);
                push_int(out, "job", *job);
                push_int(out, "block", *block);
                push_int(out, "bytes", *bytes);
            }
            Event::MigrationStarted { node, block, bytes }
            | Event::MigrationCompleted { node, block, bytes }
            | Event::MigrationWasted { node, block, bytes }
            | Event::BlockEvicted { node, block, bytes } => {
                push_int(out, "node", *node);
                push_int(out, "block", *block);
                push_int(out, "bytes", *bytes);
            }
            Event::MigrationDiscarded { node, block }
            | Event::MigrationCancelled { node, block } => {
                push_int(out, "node", *node);
                push_int(out, "block", *block);
            }
            Event::RpcSent { from, to }
            | Event::RpcDropped { from, to }
            | Event::RpcDuplicated { from, to }
            | Event::RpcCut { from, to } => {
                push_int(out, "from", from.as_i64());
                push_int(out, "to", to.as_i64());
            }
            Event::RpcRetried { seq, node, attempt } => {
                push_int(out, "rpc_seq", *seq);
                push_int(out, "node", *node);
                push_int(out, "attempt", *attempt);
            }
            Event::RpcAcked { seq } => push_int(out, "rpc_seq", *seq),
            Event::RpcGaveUp { seq, node } => {
                push_int(out, "rpc_seq", *seq);
                push_int(out, "node", *node);
            }
            Event::LeaseExpired { node, job } => {
                push_int(out, "node", *node);
                push_int(out, "job", *job);
            }
            Event::EpochRejected {
                node,
                stale,
                current,
            }
            | Event::IncarnationRejected {
                node,
                stale,
                current,
            } => {
                push_int(out, "node", *node);
                push_int(out, "stale", *stale);
                push_int(out, "current", *current);
            }
            Event::NodeCrashed { node } => push_int(out, "node", *node),
            Event::NodeRestarted { node, incarnation }
            | Event::SlaveRegistered { node, incarnation } => {
                push_int(out, "node", *node);
                push_int(out, "incarnation", *incarnation);
            }
            Event::BlockReportReceived { node, blocks } => {
                push_int(out, "node", *node);
                push_int(out, "blocks", *blocks);
            }
            Event::RereplicationStarted {
                block,
                source,
                target,
                bytes,
            } => {
                push_int(out, "block", *block);
                push_int(out, "source", *source);
                push_int(out, "target", *target);
                push_int(out, "bytes", *bytes);
            }
            Event::RereplicationDeferred { block, attempt } => {
                push_int(out, "block", *block);
                push_int(out, "attempt", *attempt);
            }
            Event::FaultInjected { desc } | Event::FaultHealed { desc } => {
                push_str(out, "desc", desc);
            }
        }
    }
}

fn push_int(out: &mut String, key: &str, v: impl Integer) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    out.push_int(v);
}

fn push_str(out: &mut String, key: &str, v: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    escape_into(out, v);
}

/// Appends `s` as a JSON string literal (quotes included).
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One emitted event: the payload plus its stamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Monotonic per-run sequence number (emission order).
    pub seq: u64,
    /// Simulated time of the transition.
    pub at: SimTime,
    /// The typed payload.
    pub event: Event,
}

impl EventRecord {
    /// Renders the record as one JSON object (one JSONL line, without the
    /// trailing newline). Field order is fixed and all values are integers
    /// or escaped strings, so deterministic runs yield bit-identical
    /// traces.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        self.write_json(&mut s);
        s
    }

    /// Appends [`to_json`](Self::to_json)'s rendering to `out`.
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"seq\":");
        out.push_int(self.seq);
        out.push_str(",\"at_us\":");
        out.push_int(self.at.as_micros());
        out.push_str(",\"type\":\"");
        out.push_str(self.event.kind());
        out.push('"');
        self.event.json_fields(out);
        out.push('}');
    }
}

/// A consumer of typed event records.
pub trait EventSink {
    /// Receives one record. Records arrive in strictly increasing `seq`
    /// order with nondecreasing timestamps.
    fn record(&mut self, rec: &EventRecord);
}

struct Inner {
    now: SimTime,
    next_seq: u64,
    sink: Box<dyn EventSink>,
}

/// A cheap, cloneable emission handle shared by every instrumented
/// component. A default-constructed handle is **disabled**: emitting
/// through it is a single `Option` check and the event constructor never
/// runs.
///
/// The handle carries a "now cursor" rather than taking a time per
/// emission, so clock-less components (the Ignem master, the RPC channel)
/// can emit correctly stamped events: the simulation loop calls
/// [`set_now`](Telemetry::set_now) once per dispatched event.
///
/// ```
/// use ignem_simcore::telemetry::{Event, FlightRecorder, Telemetry};
/// use ignem_simcore::time::SimTime;
///
/// let recorder = FlightRecorder::new(16);
/// let tele = Telemetry::new(Box::new(recorder.clone()));
/// tele.set_now(SimTime::from_secs(1));
/// tele.emit(|| Event::JobScheduled { job: 7 });
/// assert_eq!(recorder.len(), 1);
/// assert_eq!(recorder.events()[0].at, SimTime::from_secs(1));
/// ```
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Rc<RefCell<Inner>>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Telemetry {
    /// Creates an enabled handle feeding `sink`.
    pub fn new(sink: Box<dyn EventSink>) -> Self {
        Telemetry {
            inner: Some(Rc::new(RefCell::new(Inner {
                now: SimTime::ZERO,
                next_seq: 0,
                sink,
            }))),
        }
    }

    /// Whether a sink is installed.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Advances the shared now-cursor; subsequent emissions are stamped
    /// with `at`. A no-op on a disabled handle.
    pub fn set_now(&self, at: SimTime) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().now = at;
        }
    }

    /// Emits one event. The constructor closure only runs when a sink is
    /// installed, so argument formatting is free when telemetry is off.
    pub fn emit(&self, event: impl FnOnce() -> Event) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.borrow_mut();
            let rec = EventRecord {
                seq: inner.next_seq,
                at: inner.now,
                event: event(),
            };
            inner.next_seq += 1;
            inner.sink.record(&rec);
        }
    }

    /// The shared `(now, next_seq)` cursor, or `None` on a disabled
    /// handle. World snapshots capture this so a restored continuation
    /// keeps stamping records with a gap-free sequence.
    pub fn cursor(&self) -> Option<(SimTime, u64)> {
        self.inner.as_ref().map(|inner| {
            let i = inner.borrow();
            (i.now, i.next_seq)
        })
    }

    /// Rewinds the shared cursor to a value captured by
    /// [`Telemetry::cursor`]. Every component clone hanging off the same
    /// inner sees the rewound cursor — the sink itself is untouched. A
    /// no-op on a disabled handle.
    pub fn restore_cursor(&self, now: SimTime, next_seq: u64) {
        if let Some(inner) = &self.inner {
            let mut i = inner.borrow_mut();
            i.now = now;
            i.next_seq = next_seq;
        }
    }

    /// Swaps the sink behind the shared handle, returning the old one.
    /// Because master, slaves and RPC all clone one `Telemetry`, the swap
    /// redirects every emitter at once — the restore path uses this to
    /// point a forked continuation at a fresh recorder without rebuilding
    /// the world. Returns `None` (and installs nothing) on a disabled
    /// handle.
    pub fn replace_sink(&self, sink: Box<dyn EventSink>) -> Option<Box<dyn EventSink>> {
        self.inner
            .as_ref()
            .map(|inner| std::mem::replace(&mut inner.borrow_mut().sink, sink))
    }
}

struct RecorderState {
    capacity: usize,
    buf: VecDeque<EventRecord>,
    dropped: u64,
}

/// A bounded ring-buffer sink: keeps the most recent `capacity` records
/// and counts the ones it had to drop. Cloning shares the buffer, so the
/// caller keeps a handle while the simulation owns the sink.
#[derive(Clone)]
pub struct FlightRecorder {
    state: Rc<RefCell<RecorderState>>,
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.state.borrow();
        f.debug_struct("FlightRecorder")
            .field("capacity", &s.capacity)
            .field("len", &s.buf.len())
            .field("dropped", &s.dropped)
            .finish()
    }
}

impl FlightRecorder {
    /// Creates a recorder keeping at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity flight recorder");
        FlightRecorder {
            state: Rc::new(RefCell::new(RecorderState {
                capacity,
                buf: VecDeque::new(),
                dropped: 0,
            })),
        }
    }

    /// Records currently buffered.
    pub fn len(&self) -> usize {
        self.state.borrow().buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.state.borrow().buf.is_empty()
    }

    /// Records evicted to respect the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.state.borrow().dropped
    }

    /// Copies the buffered records out, oldest first.
    pub fn events(&self) -> Vec<EventRecord> {
        self.state.borrow().buf.iter().cloned().collect()
    }

    /// Renders the buffered records as JSONL (one record per line,
    /// trailing newline included when nonempty).
    pub fn to_jsonl(&self) -> String {
        let state = self.state.borrow();
        let mut out = String::with_capacity(state.buf.len() * 96);
        for rec in &state.buf {
            rec.write_json(&mut out);
            out.push('\n');
        }
        out
    }
}

impl EventSink for FlightRecorder {
    fn record(&mut self, rec: &EventRecord) {
        let mut s = self.state.borrow_mut();
        if s.buf.len() == s.capacity {
            s.buf.pop_front();
            s.dropped += 1;
        }
        s.buf.push_back(rec.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job_event(job: u64) -> Event {
        Event::JobScheduled { job }
    }

    #[test]
    fn disabled_handle_never_runs_the_constructor() {
        let tele = Telemetry::default();
        assert!(!tele.is_enabled());
        tele.emit(|| panic!("constructor must not run when disabled"));
    }

    #[test]
    fn sequence_numbers_are_monotonic_and_time_stamped() {
        let rec = FlightRecorder::new(8);
        let tele = Telemetry::new(Box::new(rec.clone()));
        tele.set_now(SimTime::from_secs(1));
        tele.emit(|| job_event(1));
        tele.set_now(SimTime::from_secs(2));
        tele.emit(|| job_event(2));
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[0].at, SimTime::from_secs(1));
        assert_eq!(events[1].at, SimTime::from_secs(2));
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let rec = FlightRecorder::new(2);
        let tele = Telemetry::new(Box::new(rec.clone()));
        for j in 0..5 {
            tele.emit(|| job_event(j));
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 3);
        let events = rec.events();
        assert!(matches!(events[0].event, Event::JobScheduled { job: 3 }));
        assert!(matches!(events[1].event, Event::JobScheduled { job: 4 }));
        // Dropped records do not disturb the surviving sequence numbers.
        assert_eq!(events[0].seq, 3);
    }

    #[test]
    fn json_rendering_is_stable_and_escaped() {
        let rec = EventRecord {
            seq: 3,
            at: SimTime::from_micros(1_500_000),
            event: Event::JobSubmitted {
                job: 7,
                name: "a \"quoted\"\nname".into(),
                plan: 1,
                stage: 0,
            },
        };
        assert_eq!(
            rec.to_json(),
            "{\"seq\":3,\"at_us\":1500000,\"type\":\"job_submitted\",\"job\":7,\
             \"name\":\"a \\\"quoted\\\"\\nname\",\"plan\":1,\"stage\":0}"
        );
        let peer = EventRecord {
            seq: 0,
            at: SimTime::ZERO,
            event: Event::RpcDropped {
                from: Peer::Master,
                to: Peer::Node(3),
            },
        };
        assert_eq!(
            peer.to_json(),
            "{\"seq\":0,\"at_us\":0,\"type\":\"rpc_dropped\",\"from\":-1,\"to\":3}"
        );
    }

    #[test]
    fn jsonl_export_is_one_record_per_line() {
        let rec = FlightRecorder::new(8);
        let tele = Telemetry::new(Box::new(rec.clone()));
        tele.emit(|| job_event(1));
        tele.emit(|| job_event(2));
        let jsonl = rec.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn every_variant_has_a_unique_kind_and_json_tag() {
        let samples = vec![
            Event::JobSubmitted {
                job: 0,
                name: String::new(),
                plan: 0,
                stage: 0,
            },
            Event::JobScheduled { job: 0 },
            Event::JobCompleted {
                job: 0,
                duration_us: 0,
            },
            Event::TaskAssigned {
                task: 0,
                job: 0,
                node: 0,
            },
            Event::TaskStarted {
                task: 0,
                job: 0,
                node: 0,
            },
            Event::TaskFinished {
                task: 0,
                job: 0,
                node: 0,
            },
            Event::BlockRead {
                task: 0,
                job: 0,
                block: 0,
                node: 0,
                bytes: 0,
                class: ReadKind::Memory,
                duration_us: 0,
            },
            Event::MigrationRejected {
                job: 0,
                reason: String::new(),
            },
            Event::MigrationAssigned {
                job: 0,
                block: 0,
                node: 0,
                bytes: 0,
            },
            Event::MigrationEnqueued {
                node: 0,
                job: 0,
                block: 0,
                bytes: 0,
            },
            Event::MigrationStarted {
                node: 0,
                block: 0,
                bytes: 0,
            },
            Event::MigrationCompleted {
                node: 0,
                block: 0,
                bytes: 0,
            },
            Event::MigrationWasted {
                node: 0,
                block: 0,
                bytes: 0,
            },
            Event::MigrationDiscarded { node: 0, block: 0 },
            Event::MigrationCancelled { node: 0, block: 0 },
            Event::BlockEvicted {
                node: 0,
                block: 0,
                bytes: 0,
            },
            Event::RpcSent {
                from: Peer::Master,
                to: Peer::Node(0),
            },
            Event::RpcDropped {
                from: Peer::Master,
                to: Peer::Node(0),
            },
            Event::RpcDuplicated {
                from: Peer::Master,
                to: Peer::Node(0),
            },
            Event::RpcCut {
                from: Peer::Master,
                to: Peer::Node(0),
            },
            Event::RpcRetried {
                seq: 0,
                node: 0,
                attempt: 2,
            },
            Event::RpcAcked { seq: 0 },
            Event::RpcGaveUp { seq: 0, node: 0 },
            Event::LeaseExpired { node: 0, job: 0 },
            Event::EpochRejected {
                node: 0,
                stale: 0,
                current: 1,
            },
            Event::IncarnationRejected {
                node: 0,
                stale: 1,
                current: 2,
            },
            Event::NodeCrashed { node: 0 },
            Event::NodeRestarted {
                node: 0,
                incarnation: 2,
            },
            Event::SlaveRegistered {
                node: 0,
                incarnation: 2,
            },
            Event::BlockReportReceived { node: 0, blocks: 0 },
            Event::RereplicationStarted {
                block: 0,
                source: 0,
                target: 1,
                bytes: 0,
            },
            Event::RereplicationDeferred {
                block: 0,
                attempt: 1,
            },
            Event::FaultInjected {
                desc: String::new(),
            },
            Event::FaultHealed {
                desc: String::new(),
            },
        ];
        let mut kinds = std::collections::BTreeSet::new();
        for ev in &samples {
            assert!(kinds.insert(ev.kind()), "duplicate kind {}", ev.kind());
            let json = EventRecord {
                seq: 0,
                at: SimTime::ZERO,
                event: ev.clone(),
            }
            .to_json();
            // Crude structural check: balanced braces, quoted type tag.
            assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
            assert!(json.contains(&format!("\"type\":\"{}\"", ev.kind())));
        }
        assert_eq!(kinds.len(), samples.len());
    }
}
