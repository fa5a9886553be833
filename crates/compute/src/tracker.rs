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
    /// Finished, or dropped with its killed job.
    Completed,
}

/// One task's record.
#[derive(Debug, Clone, Copy)]
pub struct TaskRecord {
    /// Owning job.
    pub job: JobId,
    /// Map or reduce.
    pub kind: TaskKind,
    /// Current state.
    pub state: TaskState,
}

/// A map input split handed to [`JobTracker::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapInput {
    /// DFS block backing the split (`None` for cached intermediates).
    pub block: Option<BlockId>,
    /// Split size in bytes.
    pub bytes: u64,
}

/// One job's runtime record: its tasks and the counters that drive its
/// stage transitions and fair share.
#[derive(Debug, Clone)]
pub struct JobRuntime {
    /// Map tasks.
    pub map_tasks: Vec<TaskId>,
    /// Reduce tasks.
    pub reduce_tasks: Vec<TaskId>,
    maps_done: usize,
    reduces_done: usize,
    /// Tasks currently assigned to a node (the fair scheduler's share).
    running: usize,
    finished: bool,
}

impl JobRuntime {
    /// Number of tasks that have ever been assigned (running or done) —
    /// zero means the job's first containers have not launched yet.
    pub fn started_tasks(&self) -> usize {
        self.maps_done + self.reduces_done + self.running
    }
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
    next_task: u64,
}

impl JobTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        JobTracker::default()
    }

    /// Submits a job: creates one map task per input split and `reducers`
    /// reduce tasks, which stay gated until the map stage drains.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate job id or no input splits.
    pub fn submit(&mut self, job: JobId, reducers: usize, inputs: &[MapInput]) {
        assert!(!self.jobs.contains_key(&job), "duplicate job id {job}");
        assert!(!inputs.is_empty(), "job with no input splits");
        let mut map_tasks = Vec::with_capacity(inputs.len());
        for inp in inputs {
            let kind = TaskKind::Map {
                block: inp.block,
                bytes: inp.bytes,
            };
            let id = self.add_task(job, kind);
            self.pending_maps.push(id);
            map_tasks.push(id);
        }
        let reduce_tasks = (0..reducers)
            .map(|index| self.add_task(job, TaskKind::Reduce { index }))
            .collect();
        self.jobs.insert(
            job,
            JobRuntime {
                map_tasks,
                reduce_tasks,
                maps_done: 0,
                reduces_done: 0,
                running: 0,
                finished: false,
            },
        );
    }

    fn add_task(&mut self, job: JobId, kind: TaskKind) -> TaskId {
        let id = TaskId(self.next_task);
        self.next_task += 1;
        let state = TaskState::Pending;
        self.tasks.insert(id, TaskRecord { job, kind, state });
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

    /// Number of this job's tasks currently assigned to a node (the fair
    /// scheduler's share measure); 0 for a killed job.
    pub fn running_tasks(&self, job: JobId) -> usize {
        self.jobs.get(&job).map_or(0, |j| j.running)
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
    pub fn assign(&mut self, task: TaskId, node: NodeId) {
        let rec = self.tasks.get_mut(&task).expect("unknown task");
        assert_eq!(rec.state, TaskState::Pending, "assigning non-pending task");
        rec.state = TaskState::Assigned(node);
        let job = rec.job;
        self.pending_maps.retain(|&t| t != task);
        self.pending_reduces.retain(|&t| t != task);
        if let Some(j) = self.jobs.get_mut(&job) {
            j.running += 1;
        }
    }

    /// Marks a task complete, unlocking reduces once the map stage drains.
    /// Returns whether the whole job just finished.
    ///
    /// # Panics
    ///
    /// Panics if the task is not assigned.
    pub fn complete(&mut self, task: TaskId) -> bool {
        let rec = self.tasks.get_mut(&task).expect("unknown task");
        let TaskState::Assigned(_) = rec.state else {
            panic!("completing task that is not running");
        };
        rec.state = TaskState::Completed;
        let is_map = matches!(rec.kind, TaskKind::Map { .. });
        // A killed job (failure injection) may have been removed while this
        // task was still draining; its completion is a no-op.
        let Some(job) = self.jobs.get_mut(&rec.job) else {
            return false;
        };
        job.running = job.running.saturating_sub(1);
        if is_map {
            job.maps_done += 1;
            if job.maps_done == job.map_tasks.len() {
                self.pending_reduces.extend(job.reduce_tasks.iter());
            }
        } else {
            job.reduces_done += 1;
        }
        job.finished =
            job.maps_done == job.map_tasks.len() && job.reduces_done == job.reduce_tasks.len();
        job.finished
    }

    /// Node failure: every task running on `node` is re-queued for
    /// re-execution (MapReduce's standard recovery), except a killed
    /// job's, which is dropped. Returns every task that was running there,
    /// so the host can cancel its IO.
    pub fn fail_node(&mut self, node: NodeId) -> Vec<TaskId> {
        let mut hit = Vec::new();
        for (&id, rec) in self.tasks.iter_mut() {
            if rec.state != TaskState::Assigned(node) {
                continue;
            }
            hit.push(id);
            let Some(j) = self.jobs.get_mut(&rec.job) else {
                rec.state = TaskState::Completed; // its job was killed
                continue;
            };
            rec.state = TaskState::Pending;
            j.running = j.running.saturating_sub(1);
            match rec.kind {
                TaskKind::Map { .. } => self.pending_maps.push(id),
                TaskKind::Reduce { .. } => self.pending_reduces.push(id),
            }
        }
        hit
    }

    /// Kills a job outright (failure injection): its unfinished tasks are
    /// dropped from the pending queues and the job never finishes. Running
    /// tasks are left to drain harmlessly. Returns whether the job existed
    /// and was unfinished.
    pub fn kill_job(&mut self, job: JobId) -> bool {
        let Some(j) = self.jobs.get(&job) else {
            return false;
        };
        if j.finished {
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

    fn inputs(n: u64) -> Vec<MapInput> {
        (0..n)
            .map(|i| MapInput {
                block: Some(BlockId(i)),
                bytes: 64 << 20,
            })
            .collect()
    }

    #[test]
    fn submit_creates_map_tasks() {
        let mut tr = JobTracker::new();
        tr.submit(JobId(1), 0, &inputs(3));
        assert_eq!(tr.pending_maps().len(), 3);
        assert_eq!(tr.pending_reduces().len(), 0);
        assert_eq!(tr.job(JobId(1)).started_tasks(), 0);
    }

    #[test]
    fn map_only_job_finishes_with_maps() {
        let mut tr = JobTracker::new();
        tr.submit(JobId(1), 0, &inputs(2));
        let tasks: Vec<TaskId> = tr.pending_maps().to_vec();
        tr.assign(tasks[0], NodeId(0));
        tr.assign(tasks[1], NodeId(1));
        assert_eq!(tr.running_tasks(JobId(1)), 2);
        assert!(!tr.complete(tasks[0]));
        assert!(tr.complete(tasks[1]));
        assert_eq!(tr.running_tasks(JobId(1)), 0);
        assert_eq!(tr.job(JobId(1)).started_tasks(), 2);
    }

    #[test]
    fn reduces_unlock_after_maps() {
        let mut tr = JobTracker::new();
        tr.submit(JobId(1), 2, &inputs(1));
        let m = tr.pending_maps()[0];
        tr.assign(m, NodeId(0));
        assert!(tr.pending_reduces().is_empty());
        assert!(!tr.complete(m), "the reduce stage is still to run");
        assert_eq!(tr.pending_reduces().len(), 2);
        let r1 = choose_reduce_task(&tr).unwrap();
        tr.assign(r1, NodeId(0));
        assert!(!tr.complete(r1));
        let r2 = choose_reduce_task(&tr).unwrap();
        tr.assign(r2, NodeId(1));
        assert!(tr.complete(r2));
    }

    #[test]
    fn locality_prefers_memory_then_disk() {
        let mut tr = JobTracker::new();
        tr.submit(JobId(1), 0, &inputs(3));
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
        tr.submit(JobId(1), 0, &inputs(1));
        tr.submit(
            JobId(2),
            0,
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
        tr.submit(JobId(1), 0, &inputs(2));
        let tasks: Vec<TaskId> = tr.pending_maps().to_vec();
        tr.assign(tasks[0], NodeId(0));
        tr.assign(tasks[1], NodeId(1));
        let requeued = tr.fail_node(NodeId(0));
        assert_eq!(requeued, vec![tasks[0]]);
        assert_eq!(tr.pending_maps(), &[tasks[0]]);
        assert_eq!(tr.running_tasks(JobId(1)), 1);
        // The re-queued task can be assigned and completed elsewhere.
        tr.assign(tasks[0], NodeId(1));
        assert!(!tr.complete(tasks[0]));
        assert!(tr.complete(tasks[1]));
    }

    #[test]
    fn node_failure_drops_a_killed_jobs_draining_tasks() {
        let mut tr = JobTracker::new();
        tr.submit(JobId(1), 0, &inputs(2));
        tr.submit(JobId(2), 0, &inputs(1));
        let victim = tr.pending_maps()[0];
        tr.assign(victim, NodeId(0));
        assert!(tr.kill_job(JobId(1)));
        assert_eq!(tr.task(victim).state, TaskState::Assigned(NodeId(0)));
        // The dead node's task is returned (its IO must be cancelled) but
        // not re-queued: its job is gone.
        assert_eq!(tr.fail_node(NodeId(0)), vec![victim]);
        assert_eq!(tr.task(victim).state, TaskState::Completed);
        let pick = choose_map_task(&tr, NodeId(1), |_, _| false, |_, _| false).unwrap();
        assert_eq!(tr.task(pick).job, JobId(2));
        assert_eq!(tr.pending_maps(), &[pick]);
    }

    #[test]
    fn kill_job_drops_pending_work() {
        let mut tr = JobTracker::new();
        tr.submit(JobId(1), 0, &inputs(3));
        let running = tr.pending_maps()[0];
        tr.assign(running, NodeId(0));
        assert!(tr.kill_job(JobId(1)));
        assert!(tr.pending_maps().is_empty());
        assert_eq!(tr.running_tasks(JobId(1)), 0);
        assert!(!tr.kill_job(JobId(1)), "second kill is a no-op");
        // The running task drains harmlessly.
        assert!(!tr.complete(running));
    }

    #[test]
    fn cached_splits_have_no_block() {
        let mut tr = JobTracker::new();
        let split = MapInput {
            block: None,
            bytes: 64 << 20,
        };
        tr.submit(JobId(1), 0, &[split, split]);
        let pick = choose_map_task(&tr, NodeId(0), |_, _| false, |_, _| false).unwrap();
        let TaskKind::Map { block, .. } = tr.task(pick).kind else {
            panic!()
        };
        assert_eq!(block, None);
    }

    #[test]
    #[should_panic(expected = "duplicate job id")]
    fn duplicate_job_rejected() {
        let mut tr = JobTracker::new();
        tr.submit(JobId(1), 0, &inputs(1));
        tr.submit(JobId(1), 0, &inputs(1));
    }

    #[test]
    #[should_panic(expected = "assigning non-pending task")]
    fn double_assign_rejected() {
        let mut tr = JobTracker::new();
        tr.submit(JobId(1), 0, &inputs(1));
        let m = tr.pending_maps()[0];
        tr.assign(m, NodeId(0));
        tr.assign(m, NodeId(1));
    }
}
