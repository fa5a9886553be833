//! Randomized (deterministic, seeded) tests for the job tracker.

use std::collections::{BTreeMap, BTreeSet};

use ignem_compute::tracker::{
    choose_map_task, choose_reduce_task, JobTracker, MapInput, TaskId, TaskKind, TaskState,
};
use ignem_core::command::JobId;
use ignem_dfs::block::BlockId;
use ignem_netsim::NodeId;
use ignem_simcore::rng::SimRng;

/// Each live (submitted, not killed) job's tasks, as `submit` created them.
type Live = BTreeMap<JobId, Vec<TaskId>>;

/// The pending queues as two global lists in enqueue order, the way the
/// tracker kept them before it indexed them: maps are pushed on submit,
/// reduces when a job's last map completes, and a failed node's tasks in
/// id order; assign and kill remove them.
#[derive(Default)]
struct Queues {
    maps: Vec<TaskId>,
    reduces: Vec<TaskId>,
}

impl Queues {
    fn remove(&mut self, keep: impl Fn(TaskId) -> bool) {
        self.maps.retain(|&t| keep(t));
        self.reduces.retain(|&t| keep(t));
    }
}

/// The plain share measure the tracker's counter must match: walk the
/// job's tasks and count the assigned ones (0 for a killed job).
fn walk_running(tr: &JobTracker, live: &Live, job: JobId) -> usize {
    live.get(&job).map_or(0, |tasks| {
        tasks
            .iter()
            .filter(|&&t| matches!(tr.task(t).state, TaskState::Assigned(_)))
            .count()
    })
}

/// Fair share by a scan of `queue`: the job with the fewest running tasks,
/// ties to the job queued first.
fn scan_fair_share(tr: &JobTracker, live: &Live, queue: &[TaskId]) -> Option<JobId> {
    let mut best: Option<(usize, JobId)> = None;
    for &t in queue {
        let job = tr.task(t).job;
        if best.is_some_and(|(_, j)| j == job) {
            continue;
        }
        let running = walk_running(tr, live, job);
        if best.is_none_or(|(r, _)| running < r) {
            best = Some((running, job));
        }
    }
    best.map(|(_, job)| job)
}

/// [`choose_map_task`] as two scans of the global map queue: fair share
/// first, then memory, disk and queue order within the chosen job.
fn scan_map_pick(
    tr: &JobTracker,
    live: &Live,
    queues: &Queues,
    in_memory: impl Fn(BlockId) -> bool,
    has_replica: impl Fn(BlockId) -> bool,
) -> Option<TaskId> {
    let job = scan_fair_share(tr, live, &queues.maps)?;
    let mut disk_local = None;
    let mut any = None;
    for &t in &queues.maps {
        let rec = tr.task(t);
        if rec.job != job {
            continue;
        }
        let TaskKind::Map { block, .. } = rec.kind else {
            continue;
        };
        if let Some(b) = block {
            if in_memory(b) {
                return Some(t);
            }
            if disk_local.is_none() && has_replica(b) {
                disk_local = Some(t);
            }
        }
        any = any.or(Some(t));
    }
    disk_local.or(any)
}

/// [`choose_reduce_task`] as a scan of the global reduce queue.
fn scan_reduce_pick(tr: &JobTracker, live: &Live, queues: &Queues) -> Option<TaskId> {
    let job = scan_fair_share(tr, live, &queues.reduces)?;
    queues
        .reduces
        .iter()
        .copied()
        .find(|&t| tr.task(t).job == job)
}

/// A fixed pseudo-random placement: whether `block` sits on `node`, with
/// probability about `1 / one_in`.
fn placed(salt: u64, node: NodeId, block: BlockId, one_in: u64) -> bool {
    let mut x = salt ^ (u64::from(node.0) << 32) ^ block.0;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (x ^ (x >> 31)).is_multiple_of(one_in)
}

/// Blocks the random jobs read.
const BLOCKS: u64 = 48;

/// The indexed tracker picks what scans of the global queues would pick.
/// On random submit / assign / complete / node-failure / kill sequences,
/// with each node's in-memory blocks churned by migrations, evictions and
/// crash wipes, after every step: both picks on every node equal scans of
/// a model of the global queues, `has_pending` says whether the model
/// holds a task, the per-job running counter equals a walk over the job's
/// tasks, and `complete`, `fail_node` and `kill_job` report what the task
/// states say they should. Each seed caps a node's resident blocks at a
/// different density, and crash wipes empty whole nodes, so map picks both
/// skip the memory walk and find hits in it.
#[test]
fn indexed_picks_match_scans_of_the_global_queues() {
    let (mut skipped, mut hits) = (0u32, 0u32);
    for seed in 0..64u64 {
        let mut rng = SimRng::new(0x7AC4_0001 ^ seed);
        let nodes = 1 + rng.index(6) as u32;
        let salt = rng.next_u64();
        let cap = 1 + rng.index(BLOCKS as usize - 4);
        let has_replica = |n: NodeId| move |b: BlockId| placed(salt, n, b, 3);
        let random_block = |rng: &mut SimRng| BlockId(rng.next_u64() % BLOCKS);
        let mut mem: Vec<BTreeSet<BlockId>> = (0..nodes)
            .map(|_| (0..cap).map(|_| random_block(&mut rng)).collect())
            .collect();
        let mut tr = JobTracker::new();
        let mut live = Live::new();
        let mut queues = Queues::default();
        let mut all_tasks: Vec<TaskId> = Vec::new();
        let mut next_job = 0u64;
        for step in 0..300 {
            let ctx = format!("seed {seed} step {step}");
            match rng.index(25) {
                0..=2 => {
                    let job = JobId(next_job);
                    next_job += 1;
                    let inputs: Vec<MapInput> = (0..1 + rng.index(12))
                        .map(|_| MapInput {
                            block: (rng.index(10) > 0).then(|| random_block(&mut rng)),
                            bytes: 1 + rng.next_u64() % (128 << 20),
                        })
                        .collect();
                    tr.submit(job, rng.index(3), &inputs);
                    let j = tr.job(job);
                    queues.maps.extend(j.map_tasks());
                    let tasks: Vec<TaskId> = j.map_tasks().chain(j.reduce_tasks()).collect();
                    all_tasks.extend(&tasks);
                    live.insert(job, tasks);
                }
                3..=9 => {
                    // A heartbeat: the node takes up to three tasks.
                    let node = NodeId(rng.index(nodes as usize) as u32);
                    let m = &mem[node.0 as usize];
                    for _ in 0..1 + rng.index(3) {
                        let in_memory = (!m.is_empty()).then_some(|b| m.contains(&b));
                        let pick = choose_map_task(&tr, in_memory, has_replica(node))
                            .or_else(|| choose_reduce_task(&tr));
                        let Some(t) = pick else { break };
                        tr.assign(t, node);
                        queues.remove(|u| u != t);
                    }
                }
                10..=15 => {
                    for _ in 0..1 + rng.index(3) {
                        let running: Vec<TaskId> = all_tasks
                            .iter()
                            .copied()
                            .filter(|&t| matches!(tr.task(t).state, TaskState::Assigned(_)))
                            .collect();
                        if running.is_empty() {
                            break;
                        }
                        let t = running[rng.index(running.len())];
                        let job = tr.task(t).job;
                        let finished = tr.complete(t);
                        let done = |u: &TaskId| tr.task(*u).state == TaskState::Completed;
                        let want = live.get(&job).is_some_and(|tasks| tasks.iter().all(done));
                        assert_eq!(finished, want, "{ctx}: complete({t:?})");
                        let is_map = matches!(tr.task(t).kind, TaskKind::Map { .. });
                        if is_map && live.contains_key(&job) {
                            let j = tr.job(job);
                            if j.map_tasks().all(|u| done(&u)) {
                                // The job's last map: its reduces queue up.
                                queues.reduces.extend(j.reduce_tasks());
                            }
                        }
                    }
                }
                16..=17 => {
                    let node = NodeId(rng.index(nodes as usize) as u32);
                    let want: Vec<TaskId> = all_tasks
                        .iter()
                        .copied()
                        .filter(|&t| tr.task(t).state == TaskState::Assigned(node))
                        .collect();
                    assert_eq!(tr.fail_node(node), want, "{ctx}: fail_node({node:?})");
                    for t in want {
                        let rec = tr.task(t);
                        let want_state = if live.contains_key(&rec.job) {
                            match rec.kind {
                                TaskKind::Map { .. } => queues.maps.push(t),
                                TaskKind::Reduce { .. } => queues.reduces.push(t),
                            }
                            TaskState::Pending
                        } else {
                            TaskState::Completed
                        };
                        assert_eq!(rec.state, want_state, "{ctx}: {t:?}");
                    }
                }
                18..=19 => {
                    if next_job == 0 {
                        continue;
                    }
                    let job = JobId(rng.next_u64() % next_job);
                    let unfinished = live.get(&job).is_some_and(|tasks| {
                        tasks
                            .iter()
                            .any(|&u| tr.task(u).state != TaskState::Completed)
                    });
                    assert_eq!(tr.kill_job(job), unfinished, "{ctx}: kill_job({job:?})");
                    if unfinished {
                        for &u in &live[&job] {
                            let state = tr.task(u).state;
                            assert_ne!(state, TaskState::Pending, "{ctx}: {u:?} of killed {job:?}");
                        }
                        live.remove(&job);
                        queues.remove(|u| tr.task(u).job != job);
                    }
                }
                20..=22 => {
                    // A migration lands up to three blocks on a node.
                    let m = &mut mem[rng.index(nodes as usize)];
                    for _ in 0..1 + rng.index(3) {
                        if m.len() < cap {
                            m.insert(random_block(&mut rng));
                        }
                    }
                }
                23 => {
                    // An eviction frees one block.
                    let m = &mut mem[rng.index(nodes as usize)];
                    if !m.is_empty() {
                        let b = *m.iter().nth(rng.index(m.len())).expect("non-empty");
                        m.remove(&b);
                    }
                }
                _ => {
                    // A crash wipes a node's memory.
                    mem[rng.index(nodes as usize)].clear();
                }
            }
            assert_eq!(
                tr.has_pending(),
                !queues.maps.is_empty() || !queues.reduces.is_empty(),
                "{ctx}: has_pending"
            );
            for job in (0..next_job).map(JobId) {
                assert_eq!(
                    tr.running_tasks(job),
                    walk_running(&tr, &live, job),
                    "{ctx}: running tasks of {job:?}"
                );
            }
            for (&job, tasks) in &live {
                let started = tasks
                    .iter()
                    .filter(|&&t| tr.task(t).state != TaskState::Pending)
                    .count();
                assert_eq!(tr.job(job).started_tasks(), started, "{ctx}: {job:?}");
            }
            for node in (0..nodes).map(NodeId) {
                let m = &mem[node.0 as usize];
                let in_memory = |b| m.contains(&b);
                let want = scan_map_pick(&tr, &live, &queues, in_memory, has_replica(node));
                let resident = (!m.is_empty()).then_some(in_memory);
                assert_eq!(
                    choose_map_task(&tr, resident, has_replica(node)),
                    want,
                    "{ctx}: map pick on {node:?}"
                );
                if want.is_some() && m.is_empty() {
                    skipped += 1;
                }
                if let Some(TaskKind::Map { block: Some(b), .. }) = want.map(|t| tr.task(t).kind) {
                    hits += u32::from(in_memory(b));
                }
            }
            assert_eq!(
                choose_reduce_task(&tr),
                scan_reduce_pick(&tr, &live, &queues),
                "{ctx}: reduce pick"
            );
            for (queue, is_map) in [(&queues.maps, true), (&queues.reduces, false)] {
                for (i, &t) in queue.iter().enumerate() {
                    let rec = tr.task(t);
                    assert_eq!(rec.state, TaskState::Pending, "{ctx}: queued {t:?}");
                    assert_eq!(matches!(rec.kind, TaskKind::Map { .. }), is_map, "{ctx}");
                    assert!(live.contains_key(&rec.job), "{ctx}: {t:?} of a killed job");
                    assert!(!queue[..i].contains(&t), "{ctx}: {t:?} queued twice");
                }
            }
        }
    }
    assert!(
        skipped >= 1000 && hits >= 1000,
        "map picks: {skipped} on empty nodes, {hits} memory hits"
    );
}
