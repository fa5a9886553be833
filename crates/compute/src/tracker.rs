//! Job and task state tracking (the ResourceManager's bookkeeping).
//!
//! [`JobTracker`] owns the lifecycle of every job and task: submission,
//! map-task creation (one per input block), reduce unlocking when the map
//! stage drains, completion accounting, and node-failure re-execution. The
//! *timing* of a task's phases (launch overhead, input read, compute,
//! shuffle) is driven by the cluster simulation; the tracker is the
//! authority on *states*.
//!
//! Picks read per-job queues the tracker keeps up to date rather than
//! scanning every pending task. Each enqueue takes a number from one
//! tracker-wide sequence, so each job's append-only map and reduce queues
//! are in queue order by construction, and the jobs with queued work are
//! kept in order of their first queued task. A pick costs one step per job
//! with queued work, plus for a map at most two walks of the chosen job's
//! queue, each stopping at its first hit. `assign` and a re-queue cost
//! O(log n) in one job's queue. A node failure scans every task record,
//! which only fault injection pays.

use std::collections::VecDeque;

use ignem_core::command::JobId;
use ignem_dfs::block::BlockId;
use ignem_netsim::NodeId;
use ignem_simcore::idmap::IdMap;

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
    /// Sequence number of the task's latest enqueue.
    seq: u64,
}

/// A map input split handed to [`JobTracker::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapInput {
    /// DFS block backing the split (`None` for cached intermediates).
    pub block: Option<BlockId>,
    /// Split size in bytes.
    pub bytes: u64,
}

/// Queued tasks as `(sequence number, task)`, in queue order.
type Queue = VecDeque<(u64, TaskId)>;

/// One job's runtime record: its tasks, the counters that drive its
/// stage transitions and fair share, and its queued tasks.
#[derive(Debug, Clone)]
pub struct JobRuntime {
    /// The job's first task id: its maps follow in split order, then its
    /// reduces in index order.
    first_task: u64,
    map_count: usize,
    reduce_count: usize,
    maps_done: usize,
    reduces_done: usize,
    /// Tasks currently assigned to a node (the fair scheduler's share).
    running: usize,
    finished: bool,
    maps: Queue,
    reduces: Queue,
}

impl JobRuntime {
    /// The job's map tasks, in split order.
    pub fn map_tasks(&self) -> impl Iterator<Item = TaskId> {
        (self.first_task..self.first_task + self.map_count as u64).map(TaskId)
    }

    /// The job's reduce tasks, in index order.
    pub fn reduce_tasks(&self) -> impl Iterator<Item = TaskId> {
        let first = self.first_task + self.map_count as u64;
        (first..first + self.reduce_count as u64).map(TaskId)
    }

    /// Number of tasks that have ever been assigned (running or done) —
    /// zero means the job's first containers have not launched yet.
    pub fn started_tasks(&self) -> usize {
        self.maps_done + self.reduces_done + self.running
    }
}

/// Job/task state authority (see module docs).
#[derive(Debug, Clone, Default)]
pub struct JobTracker {
    jobs: IdMap<JobId, JobRuntime>,
    /// Every task submitted, indexed by id.
    tasks: Vec<TaskRecord>,
    /// Jobs with queued maps, keyed by their first queued map's sequence
    /// number, so in queue order.
    map_jobs: Vec<(u64, JobId)>,
    /// Jobs with queued reduces, likewise.
    reduce_jobs: Vec<(u64, JobId)>,
    next_seq: u64,
}

impl JobTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        JobTracker::default()
    }

    /// Submits a job: creates one map task per input split, queued in
    /// split order, and `reducers` reduce tasks, which stay gated until
    /// the map stage drains.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate job id or no input splits.
    pub fn submit(&mut self, job: JobId, reducers: usize, inputs: &[MapInput]) {
        assert!(!self.jobs.contains_key(&job), "duplicate job id {job}");
        assert!(!inputs.is_empty(), "job with no input splits");
        let first_task = self.tasks.len() as u64;
        let maps = inputs.iter().map(|inp| TaskKind::Map {
            block: inp.block,
            bytes: inp.bytes,
        });
        let reduces = (0..reducers).map(|index| TaskKind::Reduce { index });
        for kind in maps.chain(reduces) {
            // lint: allow(Q01, reason = "one record per admitted task, bounded by the workload; admission is reached from a fault path only by name, through a device's submit")
            self.tasks.push(TaskRecord {
                job,
                kind,
                state: TaskState::Pending,
                seq: 0,
            });
        }
        let runtime = JobRuntime {
            first_task,
            map_count: inputs.len(),
            reduce_count: reducers,
            maps_done: 0,
            reduces_done: 0,
            running: 0,
            finished: false,
            maps: Queue::with_capacity(inputs.len()),
            reduces: Queue::with_capacity(reducers),
        };
        let maps = runtime.map_tasks();
        self.jobs.insert(job, runtime);
        for t in maps {
            self.queue_task(t);
        }
    }

    /// Appends `task` to the back of its job's queue under the next
    /// sequence number.
    fn queue_task(&mut self, task: TaskId) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let Some(rec) = self.tasks.get_mut(task.0 as usize) else {
            return;
        };
        rec.seq = seq;
        let Some(j) = self.jobs.get_mut(&rec.job) else {
            return;
        };
        let (queue, order) = match rec.kind {
            TaskKind::Map { .. } => (&mut j.maps, &mut self.map_jobs),
            TaskKind::Reduce { .. } => (&mut j.reduces, &mut self.reduce_jobs),
        };
        if queue.is_empty() {
            order.push((seq, rec.job)); // the newest number sorts last
        }
        queue.push_back((seq, task));
    }

    /// Removes queued `task` from its job's queue.
    fn unqueue_task(&mut self, task: TaskId) {
        let Some(rec) = self.tasks.get(task.0 as usize) else {
            return;
        };
        let Some(j) = self.jobs.get_mut(&rec.job) else {
            return;
        };
        let (queue, order) = match rec.kind {
            TaskKind::Map { .. } => (&mut j.maps, &mut self.map_jobs),
            TaskKind::Reduce { .. } => (&mut j.reduces, &mut self.reduce_jobs),
        };
        let Ok(pos) = queue.binary_search(&(rec.seq, task)) else {
            return;
        };
        queue.remove(pos);
        if pos == 0 {
            refile(order, rec.job, rec.seq, queue.front());
        }
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
        &self.tasks[task.0 as usize]
    }

    /// Whether any task is queued for a slot.
    pub fn has_pending(&self) -> bool {
        !self.map_jobs.is_empty() || !self.reduce_jobs.is_empty()
    }

    /// Fair share over `order`: the first job with the fewest running
    /// tasks.
    fn fair_share(&self, order: &[(u64, JobId)]) -> Option<&JobRuntime> {
        order
            .iter()
            .filter_map(|(_, job)| self.jobs.get(job))
            .min_by_key(|j| j.running)
    }

    /// Assigns a pending task to `node`.
    ///
    /// # Panics
    ///
    /// Panics if the task is not pending.
    pub fn assign(&mut self, task: TaskId, node: NodeId) {
        let rec = self.tasks.get_mut(task.0 as usize).expect("unknown task");
        assert_eq!(rec.state, TaskState::Pending, "assigning non-pending task");
        rec.state = TaskState::Assigned(node);
        let job = rec.job;
        self.unqueue_task(task);
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
        let rec = self.tasks.get_mut(task.0 as usize).expect("unknown task");
        let TaskState::Assigned(_) = rec.state else {
            panic!("completing task that is not running");
        };
        rec.state = TaskState::Completed;
        let is_map = matches!(rec.kind, TaskKind::Map { .. });
        let job = rec.job;
        // A killed job (failure injection) may have been removed while this
        // task was still draining; its completion is a no-op.
        let Some(j) = self.jobs.get_mut(&job) else {
            return false;
        };
        j.running = j.running.saturating_sub(1);
        if is_map {
            j.maps_done += 1;
        } else {
            j.reduces_done += 1;
        }
        let maps_drained = j.maps_done == j.map_count;
        j.finished = maps_drained && j.reduces_done == j.reduce_count;
        let finished = j.finished;
        // Records outlive their jobs, so drained queues free their memory.
        if finished {
            j.reduces = Queue::new();
        }
        if is_map && maps_drained {
            j.maps = Queue::new();
            for t in j.reduce_tasks() {
                self.queue_task(t);
            }
        }
        finished
    }

    /// Node failure: every task running on `node` is re-queued at the back,
    /// in id order, for re-execution (MapReduce's standard recovery),
    /// except a killed job's, which is dropped. Returns every task that was
    /// running there, in id order, so the host can cancel its IO.
    pub fn fail_node(&mut self, node: NodeId) -> Vec<TaskId> {
        let hit: Vec<TaskId> = self
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, rec)| rec.state == TaskState::Assigned(node))
            .map(|(i, _)| TaskId(i as u64))
            .collect();
        for &id in &hit {
            let Some(rec) = self.tasks.get_mut(id.0 as usize) else {
                continue;
            };
            let Some(j) = self.jobs.get_mut(&rec.job) else {
                rec.state = TaskState::Completed; // its job was killed
                continue;
            };
            rec.state = TaskState::Pending;
            j.running = j.running.saturating_sub(1);
            self.queue_task(id);
        }
        hit
    }

    /// Kills a job outright (failure injection): its unfinished tasks are
    /// dropped with its queues and the job never finishes. Running tasks
    /// are left to drain harmlessly. Returns whether the job existed and
    /// was unfinished.
    pub fn kill_job(&mut self, job: JobId) -> bool {
        if self.jobs.get(&job).is_none_or(|j| j.finished) {
            return false;
        }
        let Some(j) = self.jobs.remove(&job) else {
            return false;
        };
        for (queue, order) in [
            (&j.maps, &mut self.map_jobs),
            (&j.reduces, &mut self.reduce_jobs),
        ] {
            if let Some(&(seq, _)) = queue.front() {
                refile(order, job, seq, None);
            }
        }
        for t in j.map_tasks().chain(j.reduce_tasks()) {
            if let Some(rec) = self.tasks.get_mut(t.0 as usize) {
                if rec.state == TaskState::Pending {
                    rec.state = TaskState::Completed; // dropped; never ran
                }
            }
        }
        true
    }
}

/// Moves `job` in `order` from key `old` to its queue's new first entry,
/// or drops it when the queue is empty.
fn refile(order: &mut Vec<(u64, JobId)>, job: JobId, old: u64, front: Option<&(u64, TaskId)>) {
    if let Ok(i) = order.binary_search(&(old, job)) {
        order.remove(i);
    }
    if let Some(&(seq, _)) = front {
        let i = order.binary_search(&(seq, job)).unwrap_or_else(|i| i);
        order.insert(i, (seq, job));
    }
}

/// Picks the next map task for a free slot on a node.
///
/// Jobs share the cluster **fairly** (Hadoop Fair Scheduler semantics, the
/// standard SWIM setup): the job with the fewest running tasks is served
/// first, breaking ties by queue order — so a 24 GB tail job cannot
/// head-of-line-block the 85% of small jobs. Within the chosen job,
/// locality decides, in queue order:
///
/// 1. the first task whose block is **in memory** on the node (the
///    migrated-replica locality preference Ignem exposes, §III-A2);
/// 2. else the first task with a **disk replica** on the node (classic
///    HDFS locality);
/// 3. else the job's first queued task (remote read). Cached splits (no
///    block) can only be picked here.
///
/// `in_memory` tests whether a block is resident in the node's memory; it
/// is `None` when the node holds nothing there (or is down), which skips
/// step 1.
///
/// Cost: one step per job with queued maps, then a walk of the chosen
/// job's queue that stops at the first memory hit and one that stops at
/// the first disk-local task. No other job's tasks are read.
pub fn choose_map_task(
    tracker: &JobTracker,
    in_memory: Option<impl Fn(BlockId) -> bool>,
    has_replica: impl Fn(BlockId) -> bool,
) -> Option<TaskId> {
    let job = tracker.fair_share(&tracker.map_jobs)?;
    let block = |&(_, t): &(u64, TaskId)| match tracker.task(t).kind {
        TaskKind::Map { block, .. } => block,
        TaskKind::Reduce { .. } => None,
    };
    let first_where = |local: &dyn Fn(BlockId) -> bool| {
        job.maps
            .iter()
            .find(|e| block(e).is_some_and(local))
            .map(|&(_, t)| t)
    };
    in_memory
        .and_then(|in_memory| first_where(&in_memory))
        .or_else(|| first_where(&has_replica))
        .or_else(|| job.maps.front().map(|&(_, t)| t))
}

/// Picks the next reduce task: the first queued reduce of the job
/// [`choose_map_task`]'s fair share would pick among jobs with queued
/// reduces.
pub fn choose_reduce_task(tracker: &JobTracker) -> Option<TaskId> {
    let job = tracker.fair_share(&tracker.reduce_jobs)?;
    job.reduces.front().map(|&(_, t)| t)
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

    /// The memory predicate of a node that holds nothing in memory.
    const NO_MEMORY: Option<fn(BlockId) -> bool> = None;

    /// A map pick on a node with nothing in memory or on disk.
    fn remote_pick(tr: &JobTracker) -> Option<TaskId> {
        choose_map_task(tr, NO_MEMORY, |_| false)
    }

    #[test]
    fn submit_creates_map_tasks() {
        let mut tr = JobTracker::new();
        assert!(!tr.has_pending());
        tr.submit(JobId(1), 0, &inputs(3));
        assert!(tr.has_pending());
        assert_eq!(tr.job(JobId(1)).map_tasks().count(), 3);
        assert_eq!(remote_pick(&tr), tr.job(JobId(1)).map_tasks().next());
        assert_eq!(choose_reduce_task(&tr), None);
        assert_eq!(tr.job(JobId(1)).started_tasks(), 0);
    }

    #[test]
    fn map_only_job_finishes_with_maps() {
        let mut tr = JobTracker::new();
        tr.submit(JobId(1), 0, &inputs(2));
        let tasks: Vec<TaskId> = tr.job(JobId(1)).map_tasks().collect();
        tr.assign(tasks[0], NodeId(0));
        tr.assign(tasks[1], NodeId(1));
        assert!(!tr.has_pending());
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
        let m = tr.job(JobId(1)).map_tasks().next().unwrap();
        tr.assign(m, NodeId(0));
        assert!(!tr.has_pending(), "reduces stay gated while a map runs");
        assert_eq!(choose_reduce_task(&tr), None);
        assert!(!tr.complete(m), "the reduce stage is still to run");
        assert!(tr.has_pending());
        let r1 = choose_reduce_task(&tr).unwrap();
        assert_eq!(
            Some(r1),
            tr.job(JobId(1)).reduce_tasks().next(),
            "index order"
        );
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
        let block = |pick: Option<TaskId>| match tr.task(pick.unwrap()).kind {
            TaskKind::Map { block, .. } => block,
            TaskKind::Reduce { .. } => panic!("a map was due"),
        };
        // Block 2 in memory, block 1 on local disk, block 0 remote.
        let disk = |b| b == BlockId(1);
        let pick = choose_map_task(&tr, Some(|b| b == BlockId(2)), disk);
        assert_eq!(block(pick), Some(BlockId(2)));
        // Without memory residents, or none the job reads, prefer the
        // disk-local block 1.
        assert_eq!(
            block(choose_map_task(&tr, NO_MEMORY, disk)),
            Some(BlockId(1))
        );
        let pick = choose_map_task(&tr, Some(|b| b == BlockId(7)), disk);
        assert_eq!(block(pick), Some(BlockId(1)));
        // With nothing local, FIFO.
        assert_eq!(block(remote_pick(&tr)), Some(BlockId(0)));
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
        let pick = remote_pick(&tr).unwrap();
        assert_eq!(tr.task(pick).job, JobId(1));
    }

    #[test]
    fn node_failure_requeues_running_tasks() {
        let mut tr = JobTracker::new();
        tr.submit(JobId(1), 0, &inputs(2));
        let tasks: Vec<TaskId> = tr.job(JobId(1)).map_tasks().collect();
        tr.assign(tasks[0], NodeId(0));
        tr.assign(tasks[1], NodeId(1));
        let requeued = tr.fail_node(NodeId(0));
        assert_eq!(requeued, vec![tasks[0]]);
        assert_eq!(remote_pick(&tr), Some(tasks[0]));
        assert_eq!(tr.running_tasks(JobId(1)), 1);
        assert!(tr.fail_node(NodeId(0)).is_empty(), "nothing left there");
        // The re-queued task can be assigned and completed elsewhere.
        tr.assign(tasks[0], NodeId(1));
        assert!(!tr.has_pending());
        assert!(!tr.complete(tasks[0]));
        assert!(tr.complete(tasks[1]));
    }

    #[test]
    fn node_failure_drops_a_killed_jobs_draining_tasks() {
        let mut tr = JobTracker::new();
        tr.submit(JobId(1), 0, &inputs(2));
        tr.submit(JobId(2), 0, &inputs(1));
        let victim = tr.job(JobId(1)).map_tasks().next().unwrap();
        tr.assign(victim, NodeId(0));
        assert!(tr.kill_job(JobId(1)));
        assert_eq!(tr.task(victim).state, TaskState::Assigned(NodeId(0)));
        // The dead node's task is returned (its IO must be cancelled) but
        // not re-queued: its job is gone.
        assert_eq!(tr.fail_node(NodeId(0)), vec![victim]);
        assert_eq!(tr.task(victim).state, TaskState::Completed);
        let pick = remote_pick(&tr).unwrap();
        assert_eq!(tr.task(pick).job, JobId(2));
        tr.assign(pick, NodeId(1));
        assert!(!tr.has_pending(), "only job 2's map was queued");
    }

    #[test]
    fn kill_job_drops_pending_work() {
        let mut tr = JobTracker::new();
        tr.submit(JobId(1), 0, &inputs(3));
        let running = tr.job(JobId(1)).map_tasks().next().unwrap();
        tr.assign(running, NodeId(0));
        assert!(tr.kill_job(JobId(1)));
        assert!(!tr.has_pending());
        assert_eq!(remote_pick(&tr), None);
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
        let pick = remote_pick(&tr).unwrap();
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
        let m = tr.job(JobId(1)).map_tasks().next().unwrap();
        tr.assign(m, NodeId(0));
        tr.assign(m, NodeId(1));
    }
}
