//! The causal fold: span trees, critical path and race evidence from one
//! pass over a recorded event stream.
//!
//! The telemetry stream is flat; this module folds it back into the causal
//! trees the events describe, without touching the stream itself. Every
//! migration round becomes a tree — `migration` root, `command`
//! (assignment → slave acceptance, with one `retry` child per
//! retransmission), `queued` (acceptance → disk read start), `transfer`
//! (read start → completion) and `resident` (completion → eviction) — and
//! every job and crash-recovery epoch likewise. Span ids are derived from
//! the **seq of the record that opens the span** (shifted by four bits to
//! make room for sibling spans opened by the same record), so trees built
//! from the same stream are identical by construction, and trees built
//! from two same-seed runs are bit-identical because the streams are.
//!
//! The same pass keeps the evidence the migration-race explainer
//! (`ignem_cluster::explain`) ranks its verdicts from: every migration
//! instant per `(node, block)` ([`BlockTimeline`]), the master's
//! assignments per `(job, block)`, crash and restart instants per node,
//! every block read, and one [`JobLead`] per job. Round ownership has one
//! rule set: the first enqueuer owns the round; a completion credits its
//! transfer time only when both owner and start are known; wasted and
//! cancelled rounds are uncredited; a discard dissolves the round only
//! before the read starts. The [`CriticalPath`] extractor and the
//! explainer's lead times both read the same [`JobLead`]s.

use std::collections::BTreeMap;

use crate::telemetry::{Event, EventRecord, ReadClass};
use crate::time::{SimDuration, SimTime};

/// Identifier of a span: the opening record's seq shifted left by four,
/// plus a 0..=15 disambiguator for sibling spans opened by one record.
///
/// The disambiguator bound is a *hard* assert (not `debug_assert!`): a
/// silent wrap in release builds would collide span ids across siblings
/// and corrupt the forest without any diagnostic, which is strictly worse
/// than aborting the fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// Bits reserved below the opening seq for the sibling disambiguator.
const SPAN_DISAMBIGUATOR_BITS: u64 = 4;

impl SpanId {
    fn new(seq: u64, k: u64) -> SpanId {
        assert!(
            k < (1 << SPAN_DISAMBIGUATOR_BITS),
            "per-record span disambiguator overflow: record seq {seq} opened more than {} sibling spans",
            1u64 << SPAN_DISAMBIGUATOR_BITS,
        );
        SpanId(seq << SPAN_DISAMBIGUATOR_BITS | k)
    }

    /// The seq of the event record that opened this span.
    pub fn opening_seq(&self) -> u64 {
        self.0 >> SPAN_DISAMBIGUATOR_BITS
    }
}

/// The cost category a span's exclusive time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    /// Waiting in a queue: job submission → schedulable, and a migration's
    /// wait in the slave's migration queue.
    Queueing,
    /// Master-side processing: schedulable → first task assignment.
    MasterProcessing,
    /// Control-plane network time: command issue → slave acceptance,
    /// excluding retransmission backoff.
    Network,
    /// Time spent waiting out ack-timeout backoff between retransmission
    /// attempts.
    RetransmissionBackoff,
    /// Disk service: the migration read itself, under contention.
    DiskContention,
    /// Structural spans (roots, tasks, residency, recovery phases) whose
    /// exclusive time is not part of the lead-time decomposition.
    Structural,
}

impl Category {
    /// Every category, in a fixed order.
    pub const ALL: [Category; 6] = [
        Category::Queueing,
        Category::MasterProcessing,
        Category::Network,
        Category::RetransmissionBackoff,
        Category::DiskContention,
        Category::Structural,
    ];

    /// Stable machine-readable tag.
    pub fn tag(&self) -> &'static str {
        match self {
            Category::Queueing => "queueing",
            Category::MasterProcessing => "master_processing",
            Category::Network => "network",
            Category::RetransmissionBackoff => "retransmission_backoff",
            Category::DiskContention => "disk_contention",
            Category::Structural => "structural",
        }
    }

    /// The category a span kind's exclusive time is charged to.
    fn of(name: &str) -> Category {
        match name {
            "queue" | "queued" => Category::Queueing,
            "heartbeat_wait" => Category::MasterProcessing,
            "command" => Category::Network,
            "retry" => Category::RetransmissionBackoff,
            "transfer" => Category::DiskContention,
            _ => Category::Structural,
        }
    }
}

/// One reconstructed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Identifier (derived from the opening record's seq).
    pub id: SpanId,
    /// Parent span, `None` for tree roots.
    pub parent: Option<SpanId>,
    /// Span kind: `job`, `queue`, `heartbeat_wait`, `task`, `migration`,
    /// `command`, `retry`, `queued`, `transfer`, `resident`, `recovery`,
    /// `register`, `block_report`, `reignite`.
    pub name: &'static str,
    /// Category the span's exclusive time belongs to.
    pub category: Category,
    /// Node track the span renders on (`-1` = cluster/master track).
    pub node: i64,
    /// Owning job id, `-1` when not job-scoped.
    pub job: i64,
    /// Block id, `-1` when not block-scoped.
    pub block: i64,
    /// Open time.
    pub start: SimTime,
    /// Close time (open spans are closed at the last record's time).
    pub end: SimTime,
}

impl Span {
    /// The span's wall duration in sim time.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_duration_since(self.start)
    }
}

/// Every migration instant the stream recorded for one `(node, block)`,
/// in stream order, plus the block's leak account.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockTimeline {
    /// Every `MigrationEnqueued`, not only the one that opened a round.
    pub enqueued: Vec<SimTime>,
    /// Every `MigrationStarted`.
    pub started: Vec<SimTime>,
    /// Every `MigrationCompleted`.
    pub completed: Vec<SimTime>,
    /// Every `BlockEvicted`.
    pub evicted: Vec<SimTime>,
    /// Bytes of the latest completed migration.
    pub bytes: u64,
    /// Jobs that enqueued migrations for the block since its last
    /// eviction: the owners of references an eviction has not drained.
    pub owners: Vec<u64>,
}

/// One node restart and the recovery milestones witnessed after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Restart {
    /// The node that restarted.
    pub node: u32,
    /// When it restarted.
    pub at: SimTime,
    /// When the master accepted the new incarnation's registration.
    pub registered: Option<SimTime>,
    /// When the first migration completed on the node afterwards.
    pub remigrated: Option<SimTime>,
}

/// One `BlockRead` record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadRecord {
    /// Reading task.
    pub task: u64,
    /// Owning job.
    pub job: u64,
    /// Block read.
    pub block: u64,
    /// Node that served the bytes.
    pub node: u32,
    /// Bytes read.
    pub bytes: u64,
    /// Where the bytes came from.
    pub class: ReadClass,
    /// When the read started (the record is stamped at its completion).
    pub start: SimTime,
}

/// What the stream says about one job's lead time (§II: the head start its
/// migrations get from the job's own startup latencies).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobLead {
    /// The job's submission; `None` for a job the stream names only as a
    /// migration owner.
    pub submitted: Option<SimTime>,
    /// The first `JobScheduled` after submission and before completion.
    pub scheduled: Option<SimTime>,
    /// The first `TaskAssigned` after scheduling and before completion.
    pub first_assigned: Option<SimTime>,
    /// Transfer time of the rounds the job owned that completed with a
    /// known start.
    pub migration_service: SimDuration,
    // The first `JobCompleted` after submission, and the critical-path
    // totals of the rounds the job owned (command time net of backoff is
    // summed per round).
    completed: Option<SimTime>,
    migration_queue: SimDuration,
    network: SimDuration,
    retransmission_backoff: SimDuration,
}

/// The one fold over a recorded stream: its span forest plus the race
/// evidence the explainer queries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanForest {
    /// Every span, sorted by id (i.e. by opening seq).
    pub spans: Vec<Span>,
    /// Retransmissions observed (`RpcRetried` records).
    pub retries_observed: u64,
    /// Migration instants per `(node, block)`.
    pub blocks: BTreeMap<(u32, u64), BlockTimeline>,
    /// The master's migration assignments per `(job, block)`, as
    /// `(node, at)` in stream order.
    pub assignments: BTreeMap<(u64, u64), Vec<(u32, SimTime)>>,
    /// Crash instants per node.
    pub crashes: BTreeMap<u32, Vec<SimTime>>,
    /// Node restarts, in stream order.
    pub restarts: Vec<Restart>,
    /// Every block read, in stream order.
    pub reads: Vec<ReadRecord>,
    /// Lead facts per job id.
    pub jobs: BTreeMap<u64, JobLead>,
    /// The last record's time, where spans still open were closed.
    end: SimTime,
}

impl SpanForest {
    /// Folds a recorded stream. Spans still open when the stream ends are
    /// closed at the last record's timestamp.
    pub fn build(events: &[EventRecord]) -> SpanForest {
        Builder::default().run(events)
    }

    /// The span with the given id, if present.
    pub fn span(&self, id: SpanId) -> Option<&Span> {
        self.spans
            .binary_search_by(|s| s.id.cmp(&id))
            .ok()
            .map(|i| &self.spans[i])
    }

    /// Direct children of `id`, in id order.
    pub fn children(&self, id: SpanId) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.parent == Some(id)).collect()
    }

    /// A span's exclusive time: its duration minus the summed durations of
    /// its direct children (saturating; overlapping children may overcount
    /// coverage, which only ever shrinks the exclusive share).
    pub fn exclusive(&self, id: SpanId) -> SimDuration {
        let Some(span) = self.span(id) else {
            return SimDuration::ZERO;
        };
        let covered: u64 = self
            .children(id)
            .iter()
            .map(|c| c.duration().as_micros())
            .sum();
        SimDuration::from_micros(span.duration().as_micros().saturating_sub(covered))
    }

    /// Charges every job's lead phases and owned rounds to their
    /// categories (see [`CriticalPath`]). A phase the stream never closed
    /// ends at the job's completion, or else at the last record.
    pub fn critical_path(&self) -> CriticalPath {
        let jobs = self
            .jobs
            .iter()
            .map(|(&job, l)| {
                let phase = |from: Option<SimTime>, to: Option<SimTime>| {
                    let end = to.or(l.completed).unwrap_or(self.end);
                    from.map(|s| end.saturating_duration_since(s))
                        .unwrap_or(SimDuration::ZERO)
                };
                JobCriticalPath {
                    job,
                    queueing: phase(l.submitted, l.scheduled),
                    master_processing: phase(l.scheduled, l.first_assigned),
                    disk_contention: l.migration_service,
                    migration_queue: l.migration_queue,
                    network: l.network,
                    retransmission_backoff: l.retransmission_backoff,
                }
            })
            .collect();
        CriticalPath {
            jobs,
            retries: self.retries_observed,
        }
    }

    /// A canonical single-line rendering of every span, for hashing and
    /// golden pins. Integer-only and ordered by span id.
    pub fn canonical_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{} id={} parent={} cat={} node={} job={} block={} start={} end={}\n",
                s.name,
                s.id.0,
                s.parent.map(|p| p.0 as i64).unwrap_or(-1),
                s.category.tag(),
                s.node,
                s.job,
                s.block,
                s.start.as_micros(),
                s.end.as_micros(),
            ));
        }
        out
    }
}

/// Per-job critical-path decomposition: each field is an exact sum of span
/// (exclusive) durations of that category, attributed to the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobCriticalPath {
    /// Job id.
    pub job: u64,
    /// Submission → schedulable.
    pub queueing: SimDuration,
    /// Schedulable → first task assignment.
    pub master_processing: SimDuration,
    /// Credited migration read service ([`JobLead::migration_service`]).
    pub disk_contention: SimDuration,
    /// Time the job's migration rounds waited in slave queues.
    pub migration_queue: SimDuration,
    /// Command network time (issue → acceptance, minus backoff).
    pub network: SimDuration,
    /// Retransmission backoff inside the job's commands.
    pub retransmission_backoff: SimDuration,
}

/// The critical-path extraction over a whole stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Per-job sums, ordered by job id.
    pub jobs: Vec<JobCriticalPath>,
    /// Retransmissions observed in the stream (reconciles against the
    /// master's `retries` counter on an untruncated stream).
    pub retries: u64,
}

impl CriticalPath {
    /// The entry for one job, if the stream mentioned it.
    pub fn job(&self, job: u64) -> Option<&JobCriticalPath> {
        self.jobs.iter().find(|j| j.job == job)
    }
}

/// A span's `(node, job, block)` scope; `-1` marks an absent coordinate.
type Scope = (i64, i64, i64);

/// Spans under construction. Each is pushed open (`end == start`) and
/// closed later through the index [`Spans::open`] returned.
#[derive(Default)]
struct Spans(Vec<Span>);

impl Spans {
    fn open(
        &mut self,
        id: SpanId,
        parent: Option<SpanId>,
        name: &'static str,
        (node, job, block): Scope,
        at: SimTime,
    ) -> usize {
        self.0.push(Span {
            id,
            parent,
            name,
            category: Category::of(name),
            node,
            job,
            block,
            start: at,
            end: at,
        });
        self.0.len() - 1
    }

    /// Sets a span's end and returns its duration.
    fn close(&mut self, i: usize, at: SimTime) -> SimDuration {
        self.0[i].end = at;
        self.0[i].duration()
    }

    fn id(&self, i: usize) -> SpanId {
        self.0[i].id
    }
}

/// One open migration round; its spans are held by index.
#[derive(Debug, Default)]
struct RoundState {
    root: usize,
    owner: Option<u64>,
    command: Option<usize>,
    queued: Option<usize>,
    transfer: Option<usize>,
    queued_total: SimDuration,
    command_total: SimDuration,
    backoff_total: SimDuration,
}

/// Everything the fold tracks per `(node, block)`, so a record costs one
/// map lookup.
#[derive(Debug, Default)]
struct BlockState {
    timeline: BlockTimeline,
    round: Option<RoundState>,
    /// Open `resident` spans, oldest first.
    residents: Vec<usize>,
}

#[derive(Debug, Default)]
struct JobState {
    lead: JobLead,
    root: Option<usize>,
    queue: Option<usize>,
    heartbeat: Option<usize>,
}

/// A recovery epoch: its root and its one open phase (`register`, then
/// `block_report`, then `reignite`).
#[derive(Debug)]
struct RecoveryState {
    root: usize,
    phase: usize,
}

#[derive(Default)]
struct Builder {
    spans: Spans,
    jobs: BTreeMap<u64, JobState>,
    tasks: BTreeMap<u64, usize>,
    blocks: BTreeMap<(u32, u64), BlockState>,
    retry_last: BTreeMap<u64, SimTime>,
    recoveries: BTreeMap<u32, RecoveryState>,
    out: SpanForest,
}

/// Opens the migration round for a block if it has none, rooted at the
/// record `(seq, at)`.
fn open_round<'a>(
    spans: &mut Spans,
    round: &'a mut Option<RoundState>,
    (seq, at): (u64, SimTime),
    parent: Option<SpanId>,
    scope: Scope,
) -> &'a mut RoundState {
    round.get_or_insert_with(|| RoundState {
        root: spans.open(SpanId::new(seq, 0), parent, "migration", scope, at),
        ..RoundState::default()
    })
}

/// Closes a round's open spans at `at` and credits its totals to its
/// owner. Only a round its completion closes credits its transfer time.
fn close_round(
    spans: &mut Spans,
    jobs: &mut BTreeMap<u64, JobState>,
    mut st: RoundState,
    at: SimTime,
    completed: bool,
) {
    if let Some(i) = st.command {
        st.command_total += spans.close(i, at);
    }
    if let Some(i) = st.queued {
        st.queued_total += spans.close(i, at);
    }
    let transfer = st.transfer.map(|i| spans.close(i, at));
    spans.close(st.root, at);
    if let Some(owner) = st.owner {
        let lead = &mut jobs.entry(owner).or_default().lead;
        if completed {
            lead.migration_service += transfer.unwrap_or(SimDuration::ZERO);
        }
        lead.migration_queue += st.queued_total;
        lead.retransmission_backoff += st.backoff_total;
        lead.network += SimDuration::from_micros(
            st.command_total
                .as_micros()
                .saturating_sub(st.backoff_total.as_micros()),
        );
    }
}

impl Builder {
    fn run(mut self, events: &[EventRecord]) -> SpanForest {
        for rec in events {
            self.out.end = rec.at;
            self.handle(rec);
        }
        self.finish()
    }

    fn job_root(&self, job: u64) -> Option<SpanId> {
        let root = self.jobs.get(&job)?.root?;
        Some(self.spans.id(root))
    }

    /// Moves `node`'s recovery on from its open `from` phase: into a `to`
    /// phase this record opens, or (`None`) out of recovery.
    fn recovery_step(
        &mut self,
        node: u32,
        from: &str,
        to: Option<&'static str>,
        rec: &EventRecord,
    ) {
        let Some(rs) = self.recoveries.get_mut(&node) else {
            return;
        };
        if self.spans.0[rs.phase].name != from {
            return;
        }
        self.spans.close(rs.phase, rec.at);
        match to {
            Some(name) => {
                let root = Some(self.spans.id(rs.root));
                let scope = (node as i64, -1, -1);
                rs.phase = self
                    .spans
                    .open(SpanId::new(rec.seq, 0), root, name, scope, rec.at);
            }
            None => {
                self.spans.close(rs.root, rec.at);
                self.recoveries.remove(&node);
            }
        }
    }

    fn handle(&mut self, rec: &EventRecord) {
        let (seq, at) = (rec.seq, rec.at);
        let spans = &mut self.spans;
        match &rec.event {
            Event::JobSubmitted { job, .. } => {
                let js = self.jobs.entry(*job).or_default();
                if js.lead.submitted.is_none() {
                    let scope = (-1, *job as i64, -1);
                    let root = SpanId::new(seq, 0);
                    js.lead.submitted = Some(at);
                    js.root = Some(spans.open(root, None, "job", scope, at));
                    js.queue =
                        Some(spans.open(SpanId::new(seq, 1), Some(root), "queue", scope, at));
                }
            }
            Event::JobScheduled { job } => {
                let Some(js) = self.jobs.get_mut(job) else {
                    return;
                };
                if let (Some(queue), Some(root)) = (js.queue.take(), js.root) {
                    spans.close(queue, at);
                    js.lead.scheduled = Some(at);
                    js.heartbeat = Some(spans.open(
                        SpanId::new(seq, 0),
                        Some(spans.id(root)),
                        "heartbeat_wait",
                        (-1, *job as i64, -1),
                        at,
                    ));
                }
            }
            Event::TaskAssigned { task, job, node } => {
                if let Some(js) = self.jobs.get_mut(job) {
                    if let Some(hb) = js.heartbeat.take() {
                        spans.close(hb, at);
                        js.lead.first_assigned = Some(at);
                    }
                }
                let parent = self.job_root(*job);
                let scope = (*node as i64, *job as i64, -1);
                let id = SpanId::new(seq, 0);
                let task_span = self.spans.open(id, parent, "task", scope, at);
                self.tasks.insert(*task, task_span);
            }
            Event::TaskFinished { task, .. } => {
                if let Some(i) = self.tasks.remove(task) {
                    spans.close(i, at);
                }
            }
            Event::JobCompleted { job, .. } => {
                // The job root itself stays open: every job span closes at
                // the end of the stream.
                if let Some(js) = self.jobs.get_mut(job) {
                    if js.lead.submitted.is_some() && js.lead.completed.is_none() {
                        js.lead.completed = Some(at);
                    }
                    for i in [js.queue.take(), js.heartbeat.take()].into_iter().flatten() {
                        spans.close(i, at);
                    }
                }
            }
            Event::MigrationAssigned {
                job, block, node, ..
            } => {
                self.out
                    .assignments
                    .entry((*job, *block))
                    .or_default()
                    .push((*node, at));
                let parent = self.job_root(*job);
                let scope = (*node as i64, *job as i64, *block as i64);
                let spans = &mut self.spans;
                let b = self.blocks.entry((*node, *block)).or_default();
                let st = open_round(spans, &mut b.round, (seq, at), parent, scope);
                if st.command.is_none() {
                    let root = Some(spans.id(st.root));
                    let id = SpanId::new(seq, 1);
                    st.command = Some(spans.open(id, root, "command", scope, at));
                }
            }
            Event::MigrationEnqueued {
                node, job, block, ..
            } => {
                let parent = self.job_root(*job);
                let scope = (*node as i64, *job as i64, *block as i64);
                let spans = &mut self.spans;
                let b = self.blocks.entry((*node, *block)).or_default();
                b.timeline.enqueued.push(at);
                if !b.timeline.owners.contains(job) {
                    b.timeline.owners.push(*job);
                }
                let st = open_round(spans, &mut b.round, (seq, at), parent, scope);
                st.owner.get_or_insert(*job);
                if let Some(i) = st.command.take() {
                    st.command_total += spans.close(i, at);
                }
                if st.queued.is_none() && st.transfer.is_none() {
                    let root = Some(spans.id(st.root));
                    let id = SpanId::new(seq, 1);
                    st.queued = Some(spans.open(id, root, "queued", scope, at));
                }
                // A pending re-ignition completes at the first accepted
                // migration command after the node's block report.
                self.recovery_step(*node, "reignite", None, rec);
            }
            Event::MigrationStarted { node, block, .. } => {
                let b = self.blocks.entry((*node, *block)).or_default();
                b.timeline.started.push(at);
                // A round this record opens (its enqueue fell off the
                // front of a truncated stream) already took the `k = 0`
                // id for its root.
                let k = u64::from(b.round.is_none());
                let scope = (*node as i64, -1, *block as i64);
                let st = open_round(spans, &mut b.round, (seq, at), None, scope);
                if let Some(i) = st.queued.take() {
                    st.queued_total += spans.close(i, at);
                }
                let job = st.owner.map(|j| j as i64).unwrap_or(-1);
                let root = Some(spans.id(st.root));
                st.transfer = Some(spans.open(
                    SpanId::new(seq, k),
                    root,
                    "transfer",
                    (scope.0, job, scope.2),
                    at,
                ));
            }
            Event::MigrationCompleted { node, block, bytes } => {
                let b = self.blocks.entry((*node, *block)).or_default();
                b.timeline.completed.push(at);
                b.timeline.bytes = *bytes;
                let (mut root, mut job) = (None, -1);
                if let Some(st) = b.round.take() {
                    root = Some(spans.id(st.root));
                    job = st.owner.map(|j| j as i64).unwrap_or(-1);
                    close_round(spans, &mut self.jobs, st, at, true);
                }
                let scope = (*node as i64, job, *block as i64);
                let id = SpanId::new(seq, 1);
                let resident = spans.open(id, root, "resident", scope, at);
                b.residents.push(resident);
                // The first completion after a restart marks the node
                // migrating again.
                if let Some(r) = self
                    .out
                    .restarts
                    .iter_mut()
                    .rev()
                    .find(|r| r.node == *node && r.remigrated.is_none())
                {
                    r.remigrated = Some(at);
                }
            }
            Event::MigrationWasted { node, block, .. }
            | Event::MigrationCancelled { node, block } => {
                // The round ended without delivering the block: its
                // `started` instant stays in the timeline, uncredited.
                if let Some(st) = self
                    .blocks
                    .get_mut(&(*node, *block))
                    .and_then(|b| b.round.take())
                {
                    close_round(spans, &mut self.jobs, st, at, false);
                }
            }
            Event::MigrationDiscarded { node, block } => {
                // Before the read starts a discard dissolves the round;
                // after, the owner keeps it.
                if let Some(b) = self.blocks.get_mut(&(*node, *block)) {
                    if let Some(st) = b.round.take_if(|st| st.transfer.is_none()) {
                        close_round(spans, &mut self.jobs, st, at, false);
                    }
                }
            }
            Event::BlockEvicted { node, block, .. } => {
                let b = self.blocks.entry((*node, *block)).or_default();
                b.timeline.evicted.push(at);
                // The eviction drained the block's references; a later
                // enqueue opens a fresh leak account.
                b.timeline.owners.clear();
                if !b.residents.is_empty() {
                    spans.close(b.residents.remove(0), at);
                }
            }
            Event::RpcRetried {
                seq: rpc_seq,
                node,
                attempt: _,
            } => {
                self.out.retries_observed += 1;
                // Attribute to the earliest open command span on the node
                // (commands batch per slave; the heuristic is deterministic
                // and documented in DESIGN.md §12).
                let target = self
                    .blocks
                    .range((*node, 0)..=(*node, u64::MAX))
                    .filter_map(|(key, b)| Some((b.round.as_ref()?.command?, *key)))
                    .min_by_key(|&(i, _)| spans.id(i));
                let start = self
                    .retry_last
                    .get(rpc_seq)
                    .copied()
                    .or(target.map(|(i, _)| spans.0[i].start))
                    .unwrap_or(at);
                self.retry_last.insert(*rpc_seq, at);
                let mut parent = None;
                if let Some((i, key)) = target {
                    parent = Some(spans.id(i));
                    if let Some(st) = self.blocks.get_mut(&key).and_then(|b| b.round.as_mut()) {
                        st.backoff_total += at.saturating_duration_since(start);
                    }
                }
                // With no open migrate command (e.g. an evict retry) the
                // backoff is a free-standing span.
                let scope = (*node as i64, -1, -1);
                let id = SpanId::new(seq, 0);
                let i = spans.open(id, parent, "retry", scope, start);
                spans.close(i, at);
            }
            Event::NodeCrashed { node } => {
                self.out.crashes.entry(*node).or_default().push(at);
            }
            Event::NodeRestarted { node, .. } => {
                self.out.restarts.push(Restart {
                    node: *node,
                    at,
                    registered: None,
                    remigrated: None,
                });
                let scope = (*node as i64, -1, -1);
                let root = spans.open(SpanId::new(seq, 0), None, "recovery", scope, at);
                let (id, parent) = (SpanId::new(seq, 1), Some(spans.id(root)));
                let phase = spans.open(id, parent, "register", scope, at);
                self.recoveries.insert(*node, RecoveryState { root, phase });
            }
            Event::SlaveRegistered { node, .. } => {
                // Credit the latest unregistered restart of this node;
                // duplicate deliveries are rejected by the master and
                // never reach this event.
                if let Some(r) = self
                    .out
                    .restarts
                    .iter_mut()
                    .rev()
                    .find(|r| r.node == *node && r.registered.is_none())
                {
                    r.registered = Some(at);
                }
                self.recovery_step(*node, "register", Some("block_report"), rec);
            }
            Event::BlockReportReceived { node, .. } => {
                self.recovery_step(*node, "block_report", Some("reignite"), rec);
            }
            Event::BlockRead {
                task,
                job,
                block,
                node,
                bytes,
                class,
                duration_us,
            } => self.out.reads.push(ReadRecord {
                task: *task,
                job: *job,
                block: *block,
                node: *node,
                bytes: *bytes,
                class: *class,
                start: SimTime::from_micros(at.as_micros().saturating_sub(*duration_us)),
            }),
            // The remaining events carry no span or race evidence. Each one
            // is named (no catch-all) so that adding an `Event` variant
            // forces a decision here; the X01 cross-check audits this
            // match against the enum.
            Event::TaskStarted { .. }
            | Event::MigrationRejected { .. }
            | Event::RpcSent { .. }
            | Event::RpcDropped { .. }
            | Event::RpcDuplicated { .. }
            | Event::RpcCut { .. }
            | Event::RpcAcked { .. }
            | Event::RpcGaveUp { .. }
            | Event::LeaseExpired { .. }
            | Event::EpochRejected { .. }
            | Event::IncarnationRejected { .. }
            | Event::RereplicationStarted { .. }
            | Event::RereplicationDeferred { .. }
            | Event::FaultInjected { .. }
            | Event::FaultHealed { .. } => {}
        }
    }

    fn finish(mut self) -> SpanForest {
        // Close everything still open at the end of the stream.
        let at = self.out.end;
        let spans = &mut self.spans;
        for b in self.blocks.values_mut() {
            if let Some(st) = b.round.take() {
                close_round(spans, &mut self.jobs, st, at, false);
            }
            for &i in &b.residents {
                spans.close(i, at);
            }
        }
        for js in self.jobs.values() {
            for i in [js.root, js.queue, js.heartbeat].into_iter().flatten() {
                spans.close(i, at);
            }
        }
        for &i in self.tasks.values() {
            spans.close(i, at);
        }
        for rs in self.recoveries.values() {
            spans.close(rs.root, at);
            spans.close(rs.phase, at);
        }
        let mut out = self.out;
        out.spans = self.spans.0;
        out.spans.sort_by_key(|s| s.id);
        out.jobs = self.jobs.into_iter().map(|(j, s)| (j, s.lead)).collect();
        out.blocks = self
            .blocks
            .into_iter()
            .map(|(k, b)| (k, b.timeline))
            .collect();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, at_s: u64, event: Event) -> EventRecord {
        EventRecord {
            seq,
            at: SimTime::from_secs(at_s),
            event,
        }
    }

    fn migration_stream() -> Vec<EventRecord> {
        vec![
            rec(
                0,
                0,
                Event::JobSubmitted {
                    job: 1,
                    name: "j".into(),
                    plan: 0,
                    stage: 0,
                },
            ),
            rec(1, 2, Event::JobScheduled { job: 1 }),
            rec(
                2,
                2,
                Event::MigrationAssigned {
                    job: 1,
                    block: 7,
                    node: 3,
                    bytes: 64,
                },
            ),
            rec(
                3,
                3,
                Event::RpcRetried {
                    seq: 10,
                    node: 3,
                    attempt: 2,
                },
            ),
            rec(
                4,
                5,
                Event::MigrationEnqueued {
                    node: 3,
                    job: 1,
                    block: 7,
                    bytes: 64,
                },
            ),
            rec(
                5,
                6,
                Event::TaskAssigned {
                    task: 1,
                    job: 1,
                    node: 3,
                },
            ),
            rec(
                6,
                8,
                Event::MigrationStarted {
                    node: 3,
                    block: 7,
                    bytes: 64,
                },
            ),
            rec(
                7,
                13,
                Event::MigrationCompleted {
                    node: 3,
                    block: 7,
                    bytes: 64,
                },
            ),
            rec(
                8,
                20,
                Event::TaskFinished {
                    task: 1,
                    job: 1,
                    node: 3,
                },
            ),
            rec(
                9,
                20,
                Event::JobCompleted {
                    job: 1,
                    duration_us: 0,
                },
            ),
            rec(
                10,
                21,
                Event::BlockEvicted {
                    node: 3,
                    block: 7,
                    bytes: 64,
                },
            ),
        ]
    }

    #[test]
    fn migration_round_becomes_a_tree() {
        let f = SpanForest::build(&migration_stream());
        let root = f.spans.iter().find(|s| s.name == "migration").unwrap();
        assert_eq!(root.node, 3);
        assert_eq!(root.block, 7);
        // Root parented under the job span.
        let job = f.spans.iter().find(|s| s.name == "job").unwrap();
        assert_eq!(root.parent, Some(job.id));
        let kids = f.children(root.id);
        let names: Vec<&str> = kids.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["command", "queued", "transfer", "resident"]);
        // Retry hangs off the command span.
        let command = kids.iter().find(|s| s.name == "command").unwrap();
        let retry = f.spans.iter().find(|s| s.name == "retry").unwrap();
        assert_eq!(retry.parent, Some(command.id));
        // Retry backoff runs from the command issue to the retransmission.
        assert_eq!(retry.start, SimTime::from_secs(2));
        assert_eq!(retry.end, SimTime::from_secs(3));
        // Resident span ends at the eviction.
        let resident = f.spans.iter().find(|s| s.name == "resident").unwrap();
        assert_eq!(resident.start, SimTime::from_secs(13));
        assert_eq!(resident.end, SimTime::from_secs(21));
    }

    #[test]
    fn critical_path_matches_the_lead_time_decomposition() {
        let f = SpanForest::build(&migration_stream());
        let cp = f.critical_path();
        let j = cp.job(1).expect("job 1 on the critical path");
        assert_eq!(j.queueing, SimDuration::from_secs(2));
        assert_eq!(j.master_processing, SimDuration::from_secs(4)); // 2→6
        assert_eq!(j.disk_contention, SimDuration::from_secs(5)); // 8→13
        assert_eq!(j.migration_queue, SimDuration::from_secs(3)); // 5→8
                                                                  // Command ran 2→5 with 1s of backoff inside.
        assert_eq!(j.retransmission_backoff, SimDuration::from_secs(1));
        assert_eq!(j.network, SimDuration::from_secs(2));
        assert_eq!(cp.retries, 1);
    }

    #[test]
    fn wasted_and_cancelled_rounds_are_uncredited() {
        let mut evs = migration_stream();
        // Replace the completion with a waste.
        evs[7] = rec(
            7,
            13,
            Event::MigrationWasted {
                node: 3,
                block: 7,
                bytes: 64,
            },
        );
        let f = SpanForest::build(&evs);
        let cp = f.critical_path();
        let j = cp.job(1).unwrap();
        assert_eq!(j.disk_contention, SimDuration::ZERO);
        // Queue and network time still happened and is still charged.
        assert_eq!(j.migration_queue, SimDuration::from_secs(3));
    }

    #[test]
    fn discard_before_start_dissolves_the_round() {
        let evs = vec![
            rec(
                0,
                1,
                Event::MigrationAssigned {
                    job: 5,
                    block: 9,
                    node: 2,
                    bytes: 64,
                },
            ),
            rec(
                1,
                2,
                Event::MigrationEnqueued {
                    node: 2,
                    job: 5,
                    block: 9,
                    bytes: 64,
                },
            ),
            rec(2, 4, Event::MigrationDiscarded { node: 2, block: 9 }),
            // A later, second round for the same key gets a fresh owner.
            rec(
                3,
                6,
                Event::MigrationEnqueued {
                    node: 2,
                    job: 8,
                    block: 9,
                    bytes: 64,
                },
            ),
            rec(
                4,
                7,
                Event::MigrationStarted {
                    node: 2,
                    block: 9,
                    bytes: 64,
                },
            ),
            rec(
                5,
                9,
                Event::MigrationCompleted {
                    node: 2,
                    block: 9,
                    bytes: 64,
                },
            ),
        ];
        let f = SpanForest::build(&evs);
        let cp = f.critical_path();
        assert_eq!(cp.job(5).unwrap().disk_contention, SimDuration::ZERO);
        assert_eq!(
            cp.job(8).unwrap().disk_contention,
            SimDuration::from_secs(2)
        );
        assert_eq!(
            f.spans.iter().filter(|s| s.name == "migration").count(),
            2,
            "two distinct rounds"
        );
    }

    #[test]
    fn recovery_epoch_becomes_a_tree() {
        let evs = vec![
            rec(
                0,
                10,
                Event::NodeRestarted {
                    node: 4,
                    incarnation: 2,
                },
            ),
            rec(
                1,
                12,
                Event::SlaveRegistered {
                    node: 4,
                    incarnation: 2,
                },
            ),
            rec(2, 13, Event::BlockReportReceived { node: 4, blocks: 8 }),
            rec(
                3,
                15,
                Event::MigrationEnqueued {
                    node: 4,
                    job: 1,
                    block: 3,
                    bytes: 64,
                },
            ),
        ];
        let f = SpanForest::build(&evs);
        let root = f.spans.iter().find(|s| s.name == "recovery").unwrap();
        let names: Vec<&str> = f.children(root.id).iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["register", "block_report", "reignite"]);
        assert_eq!(root.start, SimTime::from_secs(10));
        assert_eq!(root.end, SimTime::from_secs(15));
        let reignite = f.spans.iter().find(|s| s.name == "reignite").unwrap();
        assert_eq!(reignite.start, SimTime::from_secs(13));
        assert_eq!(reignite.end, SimTime::from_secs(15));
    }

    #[test]
    fn same_stream_builds_identical_forests() {
        let evs = migration_stream();
        let a = SpanForest::build(&evs);
        let b = SpanForest::build(&evs);
        assert_eq!(a, b);
        assert!(!a.canonical_lines().is_empty());
        // Canonical lines are integer-only (no float formatting).
        assert!(!a.canonical_lines().contains('.'));
    }

    /// Regression for the release-mode sibling collision: with the old
    /// two-bit disambiguator a fifth sibling span opened by one record
    /// wrapped into its first sibling's id. The widened field must keep
    /// every id distinct and round-trip the opening seq.
    #[test]
    fn more_than_four_siblings_get_distinct_ids() {
        let seq = 42u64;
        let ids: Vec<SpanId> = (0..(1 << SPAN_DISAMBIGUATOR_BITS))
            .map(|k| SpanId::new(seq, k))
            .collect();
        for (i, a) in ids.iter().enumerate() {
            assert_eq!(a.opening_seq(), seq);
            for b in &ids[i + 1..] {
                assert_ne!(a, b, "sibling span ids collided");
            }
        }
        // Ids from the next record never overlap any sibling of this one.
        assert!(ids.iter().all(|a| a.0 < SpanId::new(seq + 1, 0).0));
    }

    /// Overflowing the disambiguator must abort loudly in release builds
    /// too, not silently corrupt the forest.
    #[test]
    #[should_panic(expected = "span disambiguator overflow")]
    fn sibling_overflow_is_a_hard_error() {
        let _ = SpanId::new(7, 1 << SPAN_DISAMBIGUATOR_BITS);
    }

    /// A truncated stream can lose a round's enqueue, so its
    /// `MigrationStarted` opens the round: the root and the transfer are
    /// siblings of one record and must not share an id.
    #[test]
    fn round_opened_by_its_start_gets_distinct_ids() {
        let evs = vec![
            rec(
                5,
                1,
                Event::MigrationStarted {
                    node: 0,
                    block: 4,
                    bytes: 64,
                },
            ),
            rec(
                6,
                3,
                Event::MigrationCompleted {
                    node: 0,
                    block: 4,
                    bytes: 64,
                },
            ),
        ];
        let f = SpanForest::build(&evs);
        let root = f.spans.iter().find(|s| s.name == "migration").unwrap();
        let transfer = f.spans.iter().find(|s| s.name == "transfer").unwrap();
        assert_ne!(root.id, transfer.id);
        assert_eq!(transfer.parent, Some(root.id));
        assert_eq!(root.end, SimTime::from_secs(3));
        assert_eq!(transfer.end, SimTime::from_secs(3));
    }

    #[test]
    fn exclusive_time_subtracts_children() {
        let f = SpanForest::build(&migration_stream());
        let root = f.spans.iter().find(|s| s.name == "migration").unwrap();
        // Root spans 2→13; children command 2→5, queued 5→8, transfer
        // 8→13, resident 13→21 (extends past the root; exclusive
        // saturates at zero).
        assert_eq!(f.exclusive(root.id), SimDuration::ZERO);
        let command = f.spans.iter().find(|s| s.name == "command").unwrap();
        // Command 2→5 minus 1s retry backoff.
        assert_eq!(f.exclusive(command.id), SimDuration::from_secs(2));
    }
}
