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
//! instant of every `(node, block)` ([`BlockMark`]), the master's
//! assignments ([`Assignment`]), crash and restart instants, every block
//! read, and one [`JobLead`] per job. The instants and assignments are
//! appended to two flat lists in stream order and sorted by key once,
//! when the stream ends. Round ownership has one rule set: the first
//! enqueuer owns the round; a completion credits its transfer time only
//! when both owner and start are known; wasted and cancelled rounds are
//! uncredited; a discard dissolves the round only before the read starts.
//! The [`CriticalPath`] extractor and the explainer's lead times both read
//! the same [`JobLead`]s.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use crate::idmap::IdMap;
use crate::telemetry::{Event, EventRecord, ReadKind};
use crate::text::Text;
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

/// What one migration record did to its `(node, block)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// A `MigrationEnqueued` by `job`; every one, not only the one that
    /// opened a round.
    Enqueued {
        /// The enqueuing job.
        job: u64,
    },
    /// A `MigrationStarted`.
    Started,
    /// A `MigrationCompleted`.
    Completed {
        /// Bytes the migration made resident.
        bytes: u64,
    },
    /// A `BlockEvicted`.
    Evicted,
}

/// One migration instant of one `(node, block)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMark {
    /// The node.
    pub node: u32,
    /// The block.
    pub block: u64,
    /// The seq of the record.
    pub seq: u64,
    /// The record's time.
    pub at: SimTime,
    /// What the record did.
    pub mark: Mark,
}

impl BlockMark {
    fn key(&self) -> (u32, u64) {
        (self.node, self.block)
    }
}

/// One `MigrationAssigned` record: the master told `node` to migrate
/// `block` for `job`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// The job the migration is for.
    pub job: u64,
    /// The block.
    pub block: u64,
    /// The node told to migrate it.
    pub node: u32,
    /// When the master assigned it.
    pub at: SimTime,
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
    pub class: ReadKind,
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
    /// Every migration instant, ordered by `(node, block)` and in stream
    /// order within one (see [`SpanForest::block_marks`]).
    pub marks: Vec<BlockMark>,
    /// The master's migration assignments, ordered by `(job, block)` and
    /// in stream order within one (see [`SpanForest::assigned`]).
    pub assignments: Vec<Assignment>,
    /// Crash instants as `(node, at)`, in stream order.
    pub crashes: Vec<(u32, SimTime)>,
    /// Node restarts, in stream order.
    pub restarts: Vec<Restart>,
    /// Every block read, in stream order.
    pub reads: Vec<ReadRecord>,
    /// Lead facts per job id.
    pub jobs: IdMap<u64, JobLead>,
    /// The last record's time, where spans still open were closed.
    end: SimTime,
    /// Each `(node, block)` in `marks`, in key order, with the index of
    /// its first mark: a short list to search in place of `marks`.
    index: Vec<((u32, u64), usize)>,
}

impl SpanForest {
    /// Folds a recorded stream. Spans still open when the stream ends are
    /// closed at the last record's timestamp.
    pub fn build(events: &[EventRecord]) -> SpanForest {
        Builder::sized_for(events).run(events)
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

    /// The migration instants of one `(node, block)`, in stream order.
    pub fn block_marks(&self, node: u32, block: u64) -> &[BlockMark] {
        match self
            .index
            .binary_search_by_key(&(node, block), |&(key, _)| key)
        {
            Ok(i) => self.block(i),
            Err(_) => &[],
        }
    }

    /// Every `(node, block)`'s migration instants, in key order.
    pub fn blocks(&self) -> impl Iterator<Item = &[BlockMark]> {
        (0..self.index.len()).map(|i| self.block(i))
    }

    /// The marks of the `i`-th `(node, block)` in the index.
    fn block(&self, i: usize) -> &[BlockMark] {
        let end = self
            .index
            .get(i + 1)
            .map_or(self.marks.len(), |&(_, from)| from);
        &self.marks[self.index[i].1..end]
    }

    /// The master's assignments of `block` for `job`, in stream order.
    pub fn assigned(&self, job: u64, block: u64) -> &[Assignment] {
        let key = (job, block);
        let all = &self.assignments;
        let all = &all[all.partition_point(|a| (a.job, a.block) < key)..];
        &all[..all.iter().take_while(|a| (a.job, a.block) == key).count()]
    }

    /// Charges every job's lead phases and owned rounds to their
    /// categories (see [`CriticalPath`]). A phase the stream never closed
    /// ends at the job's completion, or else at the last record.
    pub fn critical_path(&self) -> CriticalPath {
        let jobs = self
            .jobs
            .iter()
            .map(|(job, l)| {
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
            out.push_str(s.name);
            out.push_str(" id=");
            out.push_int(s.id.0);
            out.push_str(" parent=");
            out.push_int(s.parent.map(|p| p.0 as i64).unwrap_or(-1));
            out.push_str(" cat=");
            out.push_str(s.category.tag());
            out.push_str(" node=");
            out.push_int(s.node);
            out.push_str(" job=");
            out.push_int(s.job);
            out.push_str(" block=");
            out.push_int(s.block);
            out.push_str(" start=");
            out.push_int(s.start.as_micros());
            out.push_str(" end=");
            out.push_int(s.end.as_micros());
            out.push('\n');
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

/// One open migration round; its spans are held by index, and its root's
/// id is kept to parent the others.
#[derive(Debug)]
struct RoundState {
    root: usize,
    root_id: SpanId,
    owner: Option<u64>,
    command: Option<usize>,
    queued: Option<usize>,
    transfer: Option<usize>,
    queued_total: SimDuration,
    command_total: SimDuration,
    backoff_total: SimDuration,
}

/// A job's open spans (the root with its id, to parent the others); its
/// lead facts go straight into the forest.
#[derive(Debug, Default)]
struct JobSpans {
    root: Option<(usize, SpanId)>,
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
    jobs: IdMap<u64, JobSpans>,
    tasks: IdMap<u64, usize>,
    /// The open migration round of each `(node, block)` that has one.
    rounds: BTreeMap<(u32, u64), RoundState>,
    retry_last: BTreeMap<u64, SimTime>,
    recoveries: BTreeMap<u32, RecoveryState>,
    out: SpanForest,
}

/// The id of the `resident` span a `MigrationCompleted` record opens.
fn resident_id(seq: u64) -> SpanId {
    SpanId::new(seq, 1)
}

/// Opens the migration round for `key` if it has none, rooted at the
/// record `(seq, at)`; says whether it did.
fn open_round<'a>(
    spans: &mut Spans,
    rounds: &'a mut BTreeMap<(u32, u64), RoundState>,
    key: (u32, u64),
    (seq, at): (u64, SimTime),
    parent: Option<SpanId>,
    scope: Scope,
) -> (&'a mut RoundState, bool) {
    match rounds.entry(key) {
        Entry::Occupied(round) => (round.into_mut(), false),
        Entry::Vacant(slot) => {
            let root_id = SpanId::new(seq, 0);
            let round = slot.insert(RoundState {
                root: spans.open(root_id, parent, "migration", scope, at),
                root_id,
                owner: None,
                command: None,
                queued: None,
                transfer: None,
                queued_total: SimDuration::ZERO,
                command_total: SimDuration::ZERO,
                backoff_total: SimDuration::ZERO,
            });
            (round, true)
        }
    }
}

/// Closes a round's open spans at `at` and credits its totals to its
/// owner. Only a round its completion closes credits its transfer time.
fn close_round(
    spans: &mut Spans,
    leads: &mut IdMap<u64, JobLead>,
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
        let lead = leads.entry_or_default(owner);
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
    /// A builder whose lists are sized for the fold of `events`: exactly
    /// for the marks, assignments and reads, and for the spans at the
    /// count an untruncated stream opens. (A round whose assignment fell
    /// off the front of a truncated stream opens one more, and the list
    /// grows for it.)
    fn sized_for(events: &[EventRecord]) -> Builder {
        let mut b = Builder::default();
        let (mut spans, mut marks, mut assignments, mut reads) = (0, 0, 0, 0);
        for rec in events {
            // (spans opened, marks, assignments, reads)
            let (s, m, a, r) = match rec.event {
                // A round's root and its command.
                Event::MigrationAssigned { .. } => (2, 0, 1, 0),
                // Its `queued`, `transfer` and `resident` spans.
                Event::MigrationEnqueued { .. }
                | Event::MigrationStarted { .. }
                | Event::MigrationCompleted { .. } => (1, 1, 0, 0),
                Event::BlockEvicted { .. } => (0, 1, 0, 0),
                Event::BlockRead { .. } => (0, 0, 0, 1),
                Event::JobSubmitted { .. } | Event::NodeRestarted { .. } => (2, 0, 0, 0),
                Event::JobScheduled { .. }
                | Event::TaskAssigned { .. }
                | Event::RpcRetried { .. }
                | Event::SlaveRegistered { .. }
                | Event::BlockReportReceived { .. } => (1, 0, 0, 0),
                _ => (0, 0, 0, 0),
            };
            (spans, marks, assignments, reads) = (spans + s, marks + m, assignments + a, reads + r);
        }
        b.spans.0.reserve_exact(spans);
        b.out.marks.reserve_exact(marks);
        b.out.assignments.reserve_exact(assignments);
        b.out.reads.reserve_exact(reads);
        b
    }

    fn run(mut self, events: &[EventRecord]) -> SpanForest {
        for rec in events {
            self.out.end = rec.at;
            self.handle(rec);
        }
        self.finish()
    }

    fn job_root(&self, job: u64) -> Option<SpanId> {
        Some(self.jobs.get(&job)?.root?.1)
    }

    fn mark(&mut self, (node, block): (u32, u64), rec: &EventRecord, mark: Mark) {
        self.out.marks.push(BlockMark {
            node,
            block,
            seq: rec.seq,
            at: rec.at,
            mark,
        });
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
        let leads = &mut self.out.jobs;
        match &rec.event {
            Event::JobSubmitted { job, .. } => {
                let lead = leads.entry_or_default(*job);
                if lead.submitted.is_none() {
                    let scope = (-1, *job as i64, -1);
                    let root = SpanId::new(seq, 0);
                    lead.submitted = Some(at);
                    let js = self.jobs.entry_or_default(*job);
                    js.root = Some((spans.open(root, None, "job", scope, at), root));
                    js.queue =
                        Some(spans.open(SpanId::new(seq, 1), Some(root), "queue", scope, at));
                }
            }
            Event::JobScheduled { job } => {
                let Some(js) = self.jobs.get_mut(job) else {
                    return;
                };
                if let (Some(queue), Some((_, root))) = (js.queue.take(), js.root) {
                    spans.close(queue, at);
                    leads.entry_or_default(*job).scheduled = Some(at);
                    js.heartbeat = Some(spans.open(
                        SpanId::new(seq, 0),
                        Some(root),
                        "heartbeat_wait",
                        (-1, *job as i64, -1),
                        at,
                    ));
                }
            }
            Event::TaskAssigned { task, job, node } => {
                let mut parent = None;
                if let Some(js) = self.jobs.get_mut(job) {
                    if let Some(hb) = js.heartbeat.take() {
                        spans.close(hb, at);
                        leads.entry_or_default(*job).first_assigned = Some(at);
                    }
                    parent = js.root.map(|(_, id)| id);
                }
                let scope = (*node as i64, *job as i64, -1);
                let id = SpanId::new(seq, 0);
                let task_span = spans.open(id, parent, "task", scope, at);
                self.tasks.insert(*task, task_span);
            }
            Event::TaskFinished { task, .. } => {
                if let Some(i) = self.tasks.remove(task) {
                    spans.close(i, at);
                }
            }
            Event::JobCompleted { job, .. } => {
                if let Some(lead) = leads.get_mut(job) {
                    if lead.submitted.is_some() && lead.completed.is_none() {
                        lead.completed = Some(at);
                    }
                }
                // The job root itself stays open: every job span closes at
                // the end of the stream.
                if let Some(js) = self.jobs.get_mut(job) {
                    for i in [js.queue.take(), js.heartbeat.take()].into_iter().flatten() {
                        spans.close(i, at);
                    }
                }
            }
            Event::MigrationAssigned {
                job, block, node, ..
            } => {
                self.out.assignments.push(Assignment {
                    job: *job,
                    block: *block,
                    node: *node,
                    at,
                });
                let parent = self.job_root(*job);
                let scope = (*node as i64, *job as i64, *block as i64);
                let spans = &mut self.spans;
                let key = (*node, *block);
                let (st, _) = open_round(spans, &mut self.rounds, key, (seq, at), parent, scope);
                if st.command.is_none() {
                    let id = SpanId::new(seq, 1);
                    st.command = Some(spans.open(id, Some(st.root_id), "command", scope, at));
                }
            }
            Event::MigrationEnqueued {
                node, job, block, ..
            } => {
                let key = (*node, *block);
                self.mark(key, rec, Mark::Enqueued { job: *job });
                let parent = self.job_root(*job);
                let scope = (*node as i64, *job as i64, *block as i64);
                let spans = &mut self.spans;
                let (st, _) = open_round(spans, &mut self.rounds, key, (seq, at), parent, scope);
                st.owner.get_or_insert(*job);
                if let Some(i) = st.command.take() {
                    st.command_total += spans.close(i, at);
                }
                if st.queued.is_none() && st.transfer.is_none() {
                    let id = SpanId::new(seq, 1);
                    st.queued = Some(spans.open(id, Some(st.root_id), "queued", scope, at));
                }
                // A pending re-ignition completes at the first accepted
                // migration command after the node's block report.
                self.recovery_step(*node, "reignite", None, rec);
            }
            Event::MigrationStarted { node, block, .. } => {
                let key = (*node, *block);
                self.mark(key, rec, Mark::Started);
                let scope = (*node as i64, -1, *block as i64);
                let spans = &mut self.spans;
                let (st, opened) = open_round(spans, &mut self.rounds, key, (seq, at), None, scope);
                // A round this record opens (its enqueue fell off the
                // front of a truncated stream) already took the `k = 0`
                // id for its root.
                let k = u64::from(opened);
                if let Some(i) = st.queued.take() {
                    st.queued_total += spans.close(i, at);
                }
                let job = st.owner.map(|j| j as i64).unwrap_or(-1);
                st.transfer = Some(spans.open(
                    SpanId::new(seq, k),
                    Some(st.root_id),
                    "transfer",
                    (scope.0, job, scope.2),
                    at,
                ));
            }
            Event::MigrationCompleted { node, block, bytes } => {
                let key = (*node, *block);
                let (mut root, mut job) = (None, -1);
                if let Some(st) = self.rounds.remove(&key) {
                    root = Some(st.root_id);
                    job = st.owner.map(|j| j as i64).unwrap_or(-1);
                    close_round(spans, leads, st, at, true);
                }
                // `finish` closes the `resident` span at the block's
                // eviction.
                let scope = (*node as i64, job, *block as i64);
                spans.open(resident_id(seq), root, "resident", scope, at);
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
                self.mark(key, rec, Mark::Completed { bytes: *bytes });
            }
            Event::MigrationWasted { node, block, .. }
            | Event::MigrationCancelled { node, block } => {
                // The round ended without delivering the block: its
                // `started` instant stays in the marks, uncredited.
                if let Some(st) = self.rounds.remove(&(*node, *block)) {
                    close_round(spans, leads, st, at, false);
                }
            }
            Event::MigrationDiscarded { node, block } => {
                // Before the read starts a discard dissolves the round;
                // after, the owner keeps it.
                if let Entry::Occupied(round) = self.rounds.entry((*node, *block)) {
                    if round.get().transfer.is_none() {
                        close_round(spans, leads, round.remove(), at, false);
                    }
                }
            }
            Event::BlockEvicted { node, block, .. } => {
                // The eviction drains the block's references and closes
                // its oldest `resident` span (in `finish`).
                self.mark((*node, *block), rec, Mark::Evicted);
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
                    .rounds
                    .range((*node, 0)..=(*node, u64::MAX))
                    .filter_map(|(key, st)| Some((st.command?, *key)))
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
                    if let Some(st) = self.rounds.get_mut(&key) {
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
            Event::NodeCrashed { node } => self.out.crashes.push((*node, at)),
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

    fn finish(self) -> SpanForest {
        // Close everything still open at the end of the stream.
        let Builder {
            mut spans,
            jobs,
            tasks,
            rounds,
            recoveries,
            mut out,
            ..
        } = self;
        let at = out.end;
        for st in rounds.into_values() {
            close_round(&mut spans, &mut out.jobs, st, at, false);
        }
        for js in jobs.values() {
            for i in [js.root.map(|(i, _)| i), js.queue, js.heartbeat]
                .into_iter()
                .flatten()
            {
                spans.close(i, at);
            }
        }
        for &i in tasks.values() {
            spans.close(i, at);
        }
        for rs in recoveries.values() {
            spans.close(rs.root, at);
            spans.close(rs.phase, at);
        }
        // Span ids and record seqs are unique, so these unstable sorts
        // order as stable ones would. The spans were opened in id order,
        // so their sort only checks.
        out.spans = spans.0;
        out.spans.sort_unstable_by_key(|s| s.id);
        out.marks.sort_unstable_by_key(|m| (m.node, m.block, m.seq));
        out.assignments.sort_by_key(|a| (a.job, a.block));
        // Each eviction closes the oldest `resident` span its block still
        // has open; the others stay open to the end of the stream.
        let mut ends = Vec::new();
        let mut from = 0;
        for marks in out.marks.chunk_by(|a, b| a.key() == b.key()) {
            out.index.push((marks[0].key(), from));
            from += marks.len();
            let mut residents = marks
                .iter()
                .filter(|m| matches!(m.mark, Mark::Completed { .. }));
            let mut open = 0;
            for m in marks {
                match m.mark {
                    Mark::Completed { .. } => open += 1,
                    Mark::Evicted if open > 0 => {
                        open -= 1;
                        ends.extend(residents.next().map(|done| (resident_id(done.seq), m.at)));
                    }
                    _ => {}
                }
            }
            ends.extend(residents.map(|done| (resident_id(done.seq), at)));
        }
        ends.sort_unstable();
        let mut ends = ends.into_iter().peekable();
        for s in &mut out.spans {
            if let Some((_, at)) = ends.next_if(|&(id, _)| id == s.id) {
                s.end = at;
            }
        }
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
}
