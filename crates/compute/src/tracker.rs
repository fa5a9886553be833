//! Job and task state tracking (the ResourceManager's bookkeeping).
//!
//! [`JobTracker`] owns the lifecycle of every job and task: submission,
//! map-task creation (one per input block), reduce unlocking when the map
//! stage drains, completion accounting, and node-failure re-execution. The
//! *timing* of a task's phases (launch overhead, input read, compute,
//! shuffle) is driven by the cluster simulation; the tracker is the
//! authority on *states*.

use std::collections::BTreeMap;

use ignem_core::command::JobId;
use ignem_dfs::block::BlockId;
use ignem_netsim::NodeId;
use ignem_simcore::time::SimTime;

use crate::job::JobSpec;

/// Identifies a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

/// What a task does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Reads one input block (or a cached synthetic split) and computes.
    Map {
        /// The DFS block to read, or `None` for cached intermediate input.
        block: Option<BlockId>,
        /// Input split size in bytes.
        bytes: u64,
    },
    /// Fetches its shuffle share, computes, writes its output share.
    Reduce {
        /// Reducer index within the job.
        index: usize,
    },
}

/// Lifecycle state of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Waiting for a slot.
    Pending,
    /// Running on a node.
    Assigned(NodeId),
    /// Finished.
    Completed,
}

/// One task's record.
#[derive(Debug, Clone, Copy)]
pub struct TaskRecord {
    /// The task id.
    pub id: TaskId,
    /// Owning job.
    pub job: JobId,
    /// Map or reduce.
    pub kind: TaskKind,
    /// Current state.
    pub state: TaskState,
    /// When the task was assigned a slot (if ever).
    pub assigned_at: Option<SimTime>,
    /// When the task completed (if ever).
    pub completed_at: Option<SimTime>,
}

impl TaskRecord {
    /// Wall-clock task duration (assignment → completion), if completed.
    pub fn duration(&self) -> Option<f64> {
        match (self.assigned_at, self.completed_at) {
            (Some(a), Some(c)) => Some(c.duration_since(a).as_secs_f64()),
            _ => None,
        }
    }
}

/// A map input split handed to [`JobTracker::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapInput {
    /// DFS block backing the split (`None` for cached intermediates).
    pub block: Option<BlockId>,
    /// Split size in bytes.
    pub bytes: u64,
}

/// One job's runtime record.
#[derive(Debug, Clone)]
pub struct JobRuntime {
    /// The job id.
    pub id: JobId,
    /// The specification.
    pub spec: JobSpec,
    /// When the submitter was invoked (job duration is measured from here,
    /// so artificial lead-time sleeps count against the job, as in Fig. 8).
    pub submitted: SimTime,
    /// When the job became schedulable (after any submitter sleep).
    pub queued: SimTime,
    /// When the last task finished.
    pub finished: Option<SimTime>,
    /// Total map-input bytes.
    pub input_bytes: u64,
    /// Map tasks.
    pub map_tasks: Vec<TaskId>,
    /// Reduce tasks.
    pub reduce_tasks: Vec<TaskId>,
    maps_done: usize,
    reduces_done: usize,
    started_running: usize,
}

impl JobRuntime {
    /// Whether every map task has completed.
    pub fn maps_finished(&self) -> bool {
        self.maps_done == self.map_tasks.len()
    }

    /// Number of tasks that have ever been assigned (running or done) —
    /// zero means the job's first containers have not launched yet.
    pub fn started_tasks(&self) -> usize {
        self.maps_done + self.reduces_done + self.started_running
    }

    /// Whether the job has fully completed.
    pub fn is_finished(&self) -> bool {
        self.finished.is_some()
    }

    /// Job duration in seconds (submission → completion), if finished.
    pub fn duration(&self) -> Option<f64> {
        self.finished
            .map(|f| f.duration_since(self.submitted).as_secs_f64())
    }
}

/// What a task completion caused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompletionOutcome {
    /// The job's map stage just drained (reduces became schedulable).
    pub maps_finished: bool,
    /// The whole job just finished.
    pub job_finished: bool,
    /// A speculative twin attempt that lost the race and was cancelled;
    /// the host should release its slot (if running) and cancel its IO.
    pub cancelled_attempt: Option<(TaskId, Option<NodeId>)>,
}

/// Job/task state authority (see module docs).
#[derive(Debug, Clone, Default)]
pub struct JobTracker {
    jobs: BTreeMap<JobId, JobRuntime>,
    tasks: BTreeMap<TaskId, TaskRecord>,
    /// Schedulable map tasks, FIFO by job submission then split order.
    pending_maps: Vec<TaskId>,
    /// Schedulable reduce tasks.
    pending_reduces: Vec<TaskId>,
    /// Speculative execution bookkeeping: original → duplicate attempt.
    dup_of: BTreeMap<TaskId, TaskId>,
    /// Duplicate attempt → original.
    orig_of: BTreeMap<TaskId, TaskId>,
    next_task: u64,
}

impl JobTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        JobTracker::default()
    }

    /// Submits a job: creates one map task per input split; reduce tasks are
    /// created but stay gated until the map stage drains.
    ///
    /// `submitted` is the submitter invocation time, `queued` the time the
    /// job became schedulable (≥ `submitted` when the submitter slept).
    ///
    /// # Panics
    ///
    /// Panics on a duplicate job id, an invalid spec, or no input splits.
    pub fn submit(
        &mut self,
        job: JobId,
        spec: JobSpec,
        submitted: SimTime,
        queued: SimTime,
        inputs: &[MapInput],
    ) {
        assert!(!self.jobs.contains_key(&job), "duplicate job id {job}");
        assert!(queued >= submitted, "queued before submitted");
        assert!(!inputs.is_empty(), "job with no input splits");
        spec.validate();
        let mut map_tasks = Vec::with_capacity(inputs.len());
        for inp in inputs {
            let id = self.alloc_task();
            self.tasks.insert(
                id,
                TaskRecord {
                    id,
                    job,
                    kind: TaskKind::Map {
                        block: inp.block,
                        bytes: inp.bytes,
                    },
                    state: TaskState::Pending,
                    assigned_at: None,
                    completed_at: None,
                },
            );
            self.pending_maps.push(id);
            map_tasks.push(id);
        }
        let mut reduce_tasks = Vec::with_capacity(spec.reducers);
        for index in 0..spec.reducers {
            let id = self.alloc_task();
            self.tasks.insert(
                id,
                TaskRecord {
                    id,
                    job,
                    kind: TaskKind::Reduce { index },
                    state: TaskState::Pending,
                    assigned_at: None,
                    completed_at: None,
                },
            );
            reduce_tasks.push(id);
        }
        let input_bytes = inputs.iter().map(|i| i.bytes).sum();
        self.jobs.insert(
            job,
            JobRuntime {
                id: job,
                spec,
                submitted,
                queued,
                finished: None,
                input_bytes,
                map_tasks,
                reduce_tasks,
                maps_done: 0,
                reduces_done: 0,
                started_running: 0,
            },
        );
    }

    fn alloc_task(&mut self) -> TaskId {
        let id = TaskId(self.next_task);
        self.next_task += 1;
        id
    }

    /// A job's runtime record.
    ///
    /// # Panics
    ///
    /// Panics on an unknown job.
    pub fn job(&self, job: JobId) -> &JobRuntime {
        &self.jobs[&job]
    }

    /// Whether the job exists and has not finished — the scheduler-liveness
    /// answer Ignem slaves rely on for dead-job cleanup.
    pub fn is_running(&self, job: JobId) -> bool {
        self.jobs.get(&job).is_some_and(|j| !j.is_finished())
    }

    /// Number of this job's tasks currently assigned to a node (the fair
    /// scheduler's share measure).
    pub fn running_tasks(&self, job: JobId) -> usize {
        let Some(j) = self.jobs.get(&job) else {
            return 0;
        };
        j.map_tasks
            .iter()
            .chain(&j.reduce_tasks)
            .filter(|t| matches!(self.tasks[t].state, TaskState::Assigned(_)))
            .count()
    }

    /// A task's record.
    ///
    /// # Panics
    ///
    /// Panics on an unknown task.
    pub fn task(&self, task: TaskId) -> &TaskRecord {
        // lint: allow(P02, reason = "documented accessor contract: callers pass live task ids")
        &self.tasks[&task]
    }

    /// All jobs, in id order.
    pub fn jobs(&self) -> impl Iterator<Item = &JobRuntime> {
        self.jobs.values()
    }

    /// All tasks, in id order.
    pub fn tasks(&self) -> impl Iterator<Item = &TaskRecord> {
        self.tasks.values()
    }

    /// Schedulable map tasks in FIFO order.
    pub fn pending_maps(&self) -> &[TaskId] {
        &self.pending_maps
    }

    /// Schedulable reduce tasks in FIFO order.
    pub fn pending_reduces(&self) -> &[TaskId] {
        &self.pending_reduces
    }

    /// Assigns a pending task to `node`.
    ///
    /// # Panics
    ///
    /// Panics if the task is not pending.
    pub fn assign(&mut self, now: SimTime, task: TaskId, node: NodeId) {
        let rec = self.tasks.get_mut(&task).expect("unknown task");
        assert_eq!(rec.state, TaskState::Pending, "assigning non-pending task");
        rec.state = TaskState::Assigned(node);
        rec.assigned_at = Some(now);
        let job = rec.job;
        self.pending_maps.retain(|&t| t != task);
        self.pending_reduces.retain(|&t| t != task);
        if let Some(j) = self.jobs.get_mut(&job) {
            j.started_running += 1;
        }
    }

    /// Marks a task complete, unlocking reduces / finishing the job as
    /// appropriate.
    ///
    /// # Panics
    ///
    /// Panics if the task is not assigned.
    pub fn complete(&mut self, now: SimTime, task: TaskId) -> CompletionOutcome {
        let rec = self.tasks.get_mut(&task).expect("unknown task");
        let TaskState::Assigned(_) = rec.state else {
            panic!("completing task that is not running");
        };
        rec.state = TaskState::Completed;
        rec.completed_at = Some(now);
        let job_id = rec.job;
        let is_map = matches!(rec.kind, TaskKind::Map { .. });

        // Speculative-attempt resolution: whichever attempt finishes first
        // completes the *logical* task; the twin is cancelled.
        let mut cancelled_attempt = None;
        if let Some(orig) = self.orig_of.remove(&task) {
            // A duplicate won. Mark the original completed and cancel it.
            self.dup_of.remove(&orig);
            let orig_rec = self.tasks.get_mut(&orig).expect("orig attempt missing");
            if orig_rec.state == TaskState::Completed {
                // The original finished in the same instant; nothing to do.
                return CompletionOutcome::default();
            }
            let node = match orig_rec.state {
                TaskState::Assigned(n) => Some(n),
                _ => None,
            };
            orig_rec.state = TaskState::Completed;
            orig_rec.completed_at = Some(now);
            self.pending_maps.retain(|&t| t != orig);
            cancelled_attempt = Some((orig, node));
        } else if let Some(dup) = self.dup_of.remove(&task) {
            // The original won. Cancel the duplicate.
            self.orig_of.remove(&dup);
            let dup_rec = self.tasks.get_mut(&dup).expect("dup attempt missing");
            let node = match dup_rec.state {
                TaskState::Assigned(n) => Some(n),
                _ => None,
            };
            dup_rec.state = TaskState::Completed;
            dup_rec.completed_at = Some(now);
            self.pending_maps.retain(|&t| t != dup);
            cancelled_attempt = Some((dup, node));
        }

        // A killed job (failure injection) may have been removed while this
        // task was still draining; its completion is a no-op.
        let Some(job) = self.jobs.get_mut(&job_id) else {
            return CompletionOutcome::default();
        };
        job.started_running = job.started_running.saturating_sub(1);
        if let Some((_, Some(_))) = cancelled_attempt {
            // The cancelled twin was running too; its share ends now.
            job.started_running = job.started_running.saturating_sub(1);
        }
        let mut outcome = CompletionOutcome {
            cancelled_attempt,
            ..CompletionOutcome::default()
        };
        if is_map {
            job.maps_done += 1;
            if job.maps_finished() {
                outcome.maps_finished = true;
                if job.reduce_tasks.is_empty() {
                    job.finished = Some(now);
                    outcome.job_finished = true;
                } else {
                    self.pending_reduces.extend(job.reduce_tasks.iter());
                }
            }
        } else {
            job.reduces_done += 1;
            if job.reduces_done == job.reduce_tasks.len() {
                job.finished = Some(now);
                outcome.job_finished = true;
            }
        }
        outcome
    }

    /// Creates a speculative duplicate of a **running map task** (straggler
    /// mitigation). The duplicate joins the pending map queue; whichever
    /// attempt finishes first completes the logical task and the twin is
    /// cancelled via [`CompletionOutcome::cancelled_attempt`].
    ///
    /// Returns `None` if the task is not an assigned map task, is already
    /// speculated, or its job is finished.
    pub fn speculate(&mut self, task: TaskId) -> Option<TaskId> {
        let rec = *self.tasks.get(&task)?;
        if !matches!(rec.kind, TaskKind::Map { .. }) {
            return None;
        }
        let TaskState::Assigned(_) = rec.state else {
            return None;
        };
        if self.dup_of.contains_key(&task) || self.orig_of.contains_key(&task) {
            return None;
        }
        if !self.is_running(rec.job) {
            return None;
        }
        let id = self.alloc_task();
        self.tasks.insert(
            id,
            TaskRecord {
                id,
                job: rec.job,
                kind: rec.kind,
                state: TaskState::Pending,
                assigned_at: None,
                completed_at: None,
            },
        );
        self.pending_maps.push(id);
        self.dup_of.insert(task, id);
        self.orig_of.insert(id, task);
        Some(id)
    }

    /// Node failure: every task running on `node` is re-queued for
    /// re-execution (MapReduce's standard recovery). Returns the re-queued
    /// task ids.
    pub fn fail_node(&mut self, node: NodeId) -> Vec<TaskId> {
        // Capture (job, kind) while requeueing so the second pass never
        // has to look the tasks back up.
        let mut requeued = Vec::new();
        let mut hit = Vec::new();
        for rec in self.tasks.values_mut() {
            if rec.state == TaskState::Assigned(node) {
                rec.state = TaskState::Pending;
                rec.assigned_at = None;
                requeued.push(rec.id);
                hit.push((rec.id, rec.job, matches!(rec.kind, TaskKind::Map { .. })));
            }
        }
        for &(t, job, is_map) in &hit {
            if let Some(j) = self.jobs.get_mut(&job) {
                j.started_running = j.started_running.saturating_sub(1);
            }
            if is_map {
                self.pending_maps.push(t);
            } else {
                self.pending_reduces.push(t);
            }
        }
        requeued
    }

    /// Kills a job outright (failure injection): its unfinished tasks are
    /// dropped from the pending queues and the job never finishes. Running
    /// tasks are left to drain harmlessly. Returns whether the job existed
    /// and was unfinished.
    pub fn kill_job(&mut self, job: JobId) -> bool {
        let Some(j) = self.jobs.get(&job) else {
            return false;
        };
        if j.is_finished() {
            return false;
        }
        let tasks: Vec<TaskId> = j.map_tasks.iter().chain(&j.reduce_tasks).copied().collect();
        for t in tasks {
            let Some(rec) = self.tasks.get_mut(&t) else {
                continue; // stale id in the job's task list
            };
            if rec.state == TaskState::Pending {
                rec.state = TaskState::Completed; // dropped; never ran
            }
        }
        // A task id with no record is dropped from the queues too: it can
        // never be scheduled.
        self.pending_maps
            .retain(|t| self.tasks.get(t).is_some_and(|r| r.job != job));
        self.pending_reduces
            .retain(|t| self.tasks.get(t).is_some_and(|r| r.job != job));
        self.jobs.remove(&job);
        true
    }
}

/// Picks the next map task for a free slot on `node`.
///
/// Jobs share the cluster **fairly** (Hadoop Fair Scheduler semantics, the
/// standard SWIM setup): the job with the fewest running tasks is served
/// first, breaking ties by queue order — so a 24 GB tail job cannot
/// head-of-line-block the 85% of small jobs. Within the chosen job,
/// locality decides:
///
/// 1. a task whose block is **in memory** on `node` (the migrated-replica
///    locality preference Ignem exposes, §III-A2);
/// 2. a task with a **disk replica** on `node` (classic HDFS locality);
/// 3. the job's first pending task (remote read).
pub fn choose_map_task(
    tracker: &JobTracker,
    node: NodeId,
    in_memory: impl Fn(NodeId, BlockId) -> bool,
    has_replica: impl Fn(NodeId, BlockId) -> bool,
) -> Option<TaskId> {
    let pending = tracker.pending_maps();
    // Fair share: job with the fewest running tasks, ties by queue order.
    let mut best: Option<(usize, JobId)> = None;
    for &t in pending {
        let job = tracker.task(t).job;
        if best.is_some_and(|(_, j)| j == job) {
            continue;
        }
        let running = tracker.running_tasks(job);
        if best.is_none() || running < best.expect("checked").0 {
            best = Some((running, job));
        }
    }
    let (_, job) = best?;
    let mut disk_local = None;
    let mut any = None;
    for &t in pending {
        if tracker.task(t).job != job {
            continue;
        }
        let TaskKind::Map { block, .. } = tracker.task(t).kind else {
            continue;
        };
        match block {
            Some(b) => {
                if in_memory(node, b) {
                    return Some(t);
                }
                if disk_local.is_none() && has_replica(node, b) {
                    disk_local = Some(t);
                }
            }
            None => {
                // Cached intermediate input: location-free.
            }
        }
        if any.is_none() {
            any = Some(t);
        }
    }
    disk_local.or(any)
}

/// Picks the next reduce task, with the same fair-share job choice as
/// [`choose_map_task`].
pub fn choose_reduce_task(tracker: &JobTracker) -> Option<TaskId> {
    let pending = tracker.pending_reduces();
    let mut best: Option<(usize, TaskId)> = None;
    for &t in pending {
        let job = tracker.task(t).job;
        let running = tracker.running_tasks(job);
        if best.is_none() || running < best.expect("checked").0 {
            best = Some((running, t));
        }
    }
    best.map(|(_, t)| t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobInput, JobSpec};

    fn spec(reducers: usize) -> JobSpec {
        let mut s = JobSpec::new("t", JobInput::DfsFiles(vec!["/in".into()]));
        s.reducers = reducers;
        if reducers > 0 {
            s.shuffle_bytes = 1000;
            s.output_bytes = 100;
        }
        s
    }

    fn inputs(n: u64) -> Vec<MapInput> {
        (0..n)
            .map(|i| MapInput {
                block: Some(BlockId(i)),
                bytes: 64 << 20,
            })
            .collect()
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn submit_creates_map_tasks() {
        let mut tr = JobTracker::new();
        tr.submit(JobId(1), spec(0), t(0), t(0), &inputs(3));
        assert_eq!(tr.pending_maps().len(), 3);
        assert_eq!(tr.pending_reduces().len(), 0);
        assert!(tr.is_running(JobId(1)));
    }

    #[test]
    fn map_only_job_finishes_with_maps() {
        let mut tr = JobTracker::new();
        tr.submit(JobId(1), spec(0), t(0), t(0), &inputs(2));
        let tasks: Vec<TaskId> = tr.pending_maps().to_vec();
        tr.assign(t(1), tasks[0], NodeId(0));
        tr.assign(t(1), tasks[1], NodeId(1));
        let o1 = tr.complete(t(2), tasks[0]);
        assert!(!o1.job_finished);
        let o2 = tr.complete(t(3), tasks[1]);
        assert!(o2.job_finished && o2.maps_finished);
        assert_eq!(tr.job(JobId(1)).duration(), Some(3.0));
        assert!(!tr.is_running(JobId(1)));
    }

    #[test]
    fn reduces_unlock_after_maps() {
        let mut tr = JobTracker::new();
        tr.submit(JobId(1), spec(2), t(0), t(0), &inputs(1));
        let m = tr.pending_maps()[0];
        tr.assign(t(1), m, NodeId(0));
        assert!(tr.pending_reduces().is_empty());
        let o = tr.complete(t(2), m);
        assert!(o.maps_finished && !o.job_finished);
        assert_eq!(tr.pending_reduces().len(), 2);
        let r1 = choose_reduce_task(&tr).unwrap();
        tr.assign(t(3), r1, NodeId(0));
        tr.complete(t(4), r1);
        let r2 = choose_reduce_task(&tr).unwrap();
        tr.assign(t(4), r2, NodeId(1));
        let o = tr.complete(t(6), r2);
        assert!(o.job_finished);
        assert_eq!(tr.job(JobId(1)).duration(), Some(6.0));
    }

    #[test]
    fn task_durations_are_recorded() {
        let mut tr = JobTracker::new();
        tr.submit(JobId(1), spec(0), t(0), t(0), &inputs(1));
        let m = tr.pending_maps()[0];
        tr.assign(t(5), m, NodeId(0));
        tr.complete(t(9), m);
        assert_eq!(tr.task(m).duration(), Some(4.0));
    }

    #[test]
    fn locality_prefers_memory_then_disk() {
        let mut tr = JobTracker::new();
        tr.submit(JobId(1), spec(0), t(0), t(0), &inputs(3));
        let node = NodeId(5);
        // Block 2 in memory, block 1 on local disk, block 0 remote.
        let pick = choose_map_task(&tr, node, |_, b| b == BlockId(2), |_, b| b == BlockId(1));
        let TaskKind::Map { block, .. } = tr.task(pick.unwrap()).kind else {
            panic!()
        };
        assert_eq!(block, Some(BlockId(2)));
        // Without memory residents, prefer the disk-local block 1.
        let pick = choose_map_task(&tr, node, |_, _| false, |_, b| b == BlockId(1));
        let TaskKind::Map { block, .. } = tr.task(pick.unwrap()).kind else {
            panic!()
        };
        assert_eq!(block, Some(BlockId(1)));
        // With nothing local, FIFO.
        let pick = choose_map_task(&tr, node, |_, _| false, |_, _| false);
        let TaskKind::Map { block, .. } = tr.task(pick.unwrap()).kind else {
            panic!()
        };
        assert_eq!(block, Some(BlockId(0)));
    }

    #[test]
    fn fifo_across_jobs() {
        let mut tr = JobTracker::new();
        tr.submit(JobId(1), spec(0), t(0), t(0), &inputs(1));
        let mut s2 = spec(0);
        s2.name = "second".into();
        tr.submit(
            JobId(2),
            s2,
            t(1),
            t(1),
            &[MapInput {
                block: Some(BlockId(99)),
                bytes: 1,
            }],
        );
        let pick = choose_map_task(&tr, NodeId(0), |_, _| false, |_, _| false).unwrap();
        assert_eq!(tr.task(pick).job, JobId(1));
    }

    #[test]
    fn node_failure_requeues_running_tasks() {
        let mut tr = JobTracker::new();
        tr.submit(JobId(1), spec(0), t(0), t(0), &inputs(2));
        let tasks: Vec<TaskId> = tr.pending_maps().to_vec();
        tr.assign(t(1), tasks[0], NodeId(0));
        tr.assign(t(1), tasks[1], NodeId(1));
        let requeued = tr.fail_node(NodeId(0));
        assert_eq!(requeued, vec![tasks[0]]);
        assert_eq!(tr.pending_maps(), &[tasks[0]]);
        // The re-queued task can be assigned and completed elsewhere.
        tr.assign(t(2), tasks[0], NodeId(1));
        tr.complete(t(3), tasks[0]);
        tr.complete(t(3), tasks[1]);
        assert!(tr.job(JobId(1)).is_finished());
    }

    #[test]
    fn kill_job_drops_pending_work() {
        let mut tr = JobTracker::new();
        tr.submit(JobId(1), spec(0), t(0), t(0), &inputs(3));
        assert!(tr.kill_job(JobId(1)));
        assert!(tr.pending_maps().is_empty());
        assert!(!tr.is_running(JobId(1)));
        assert!(!tr.kill_job(JobId(1)), "second kill is a no-op");
    }

    #[test]
    fn cached_splits_have_no_block() {
        let mut tr = JobTracker::new();
        let s = JobSpec::new("stage2", JobInput::Cached(128 << 20));
        tr.submit(
            JobId(1),
            s,
            t(0),
            t(0),
            &[
                MapInput {
                    block: None,
                    bytes: 64 << 20,
                },
                MapInput {
                    block: None,
                    bytes: 64 << 20,
                },
            ],
        );
        let pick = choose_map_task(&tr, NodeId(0), |_, _| false, |_, _| false).unwrap();
        let TaskKind::Map { block, .. } = tr.task(pick).kind else {
            panic!()
        };
        assert_eq!(block, None);
    }

    #[test]
    fn speculation_duplicate_wins() {
        let mut tr = JobTracker::new();
        tr.submit(JobId(1), spec(0), t(0), t(0), &inputs(1));
        let orig = tr.pending_maps()[0];
        tr.assign(t(1), orig, NodeId(0));
        let dup = tr.speculate(orig).expect("speculation allowed");
        assert_eq!(tr.pending_maps(), &[dup]);
        tr.assign(t(2), dup, NodeId(1));
        // The duplicate finishes first: job completes, original cancelled.
        let o = tr.complete(t(3), dup);
        assert!(o.job_finished);
        assert_eq!(o.cancelled_attempt, Some((orig, Some(NodeId(0)))));
        assert_eq!(tr.task(orig).state, TaskState::Completed);
        assert_eq!(tr.running_tasks(JobId(1)), 0);
    }

    #[test]
    fn speculation_original_wins() {
        let mut tr = JobTracker::new();
        tr.submit(JobId(1), spec(0), t(0), t(0), &inputs(1));
        let orig = tr.pending_maps()[0];
        tr.assign(t(1), orig, NodeId(0));
        let dup = tr.speculate(orig).expect("speculation allowed");
        // The original finishes while the duplicate is still pending.
        let o = tr.complete(t(2), orig);
        assert!(o.job_finished);
        assert_eq!(o.cancelled_attempt, Some((dup, None)));
        assert!(tr.pending_maps().is_empty(), "dup must leave the queue");
    }

    #[test]
    fn speculation_rejects_bad_targets() {
        let mut tr = JobTracker::new();
        tr.submit(JobId(1), spec(1), t(0), t(0), &inputs(1));
        let m = tr.pending_maps()[0];
        // Pending task: not speculatable.
        assert!(tr.speculate(m).is_none());
        tr.assign(t(1), m, NodeId(0));
        assert!(tr.speculate(m).is_some());
        // Already speculated: no second duplicate.
        assert!(tr.speculate(m).is_none());
        // Reduces are never speculated.
        tr.complete(t(2), m);
        let r = tr.pending_reduces()[0];
        tr.assign(t(3), r, NodeId(0));
        assert!(tr.speculate(r).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate job id")]
    fn duplicate_job_rejected() {
        let mut tr = JobTracker::new();
        tr.submit(JobId(1), spec(0), t(0), t(0), &inputs(1));
        tr.submit(JobId(1), spec(0), t(0), t(0), &inputs(1));
    }

    #[test]
    #[should_panic(expected = "assigning non-pending task")]
    fn double_assign_rejected() {
        let mut tr = JobTracker::new();
        tr.submit(JobId(1), spec(0), t(0), t(0), &inputs(1));
        let m = tr.pending_maps()[0];
        tr.assign(t(1), m, NodeId(0));
        tr.assign(t(1), m, NodeId(1));
    }
}
