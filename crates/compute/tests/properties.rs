//! Randomized (deterministic, seeded) tests for the job tracker.

use std::collections::BTreeMap;

use ignem_compute::tracker::{
    choose_map_task, choose_reduce_task, JobTracker, MapInput, TaskId, TaskKind, TaskState,
};
use ignem_core::command::JobId;
use ignem_dfs::block::BlockId;
use ignem_netsim::NodeId;
use ignem_simcore::rng::SimRng;

/// Each live (submitted, not killed) job's tasks, as `submit` created them.
type Live = BTreeMap<JobId, Vec<TaskId>>;

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

/// [`choose_map_task`] on the walk: fair share first, then memory, disk
/// and queue order.
fn reference_map_pick(
    tr: &JobTracker,
    live: &Live,
    node: NodeId,
    in_memory: impl Fn(NodeId, BlockId) -> bool,
    has_replica: impl Fn(NodeId, BlockId) -> bool,
) -> Option<TaskId> {
    let pending = tr.pending_maps();
    let mut best: Option<(usize, JobId)> = None;
    for &t in pending {
        let job = tr.task(t).job;
        if best.is_some_and(|(_, j)| j == job) {
            continue;
        }
        let running = walk_running(tr, live, job);
        if best.is_none_or(|(r, _)| running < r) {
            best = Some((running, job));
        }
    }
    let (_, job) = best?;
    let mut disk_local = None;
    let mut any = None;
    for &t in pending {
        let rec = tr.task(t);
        if rec.job != job {
            continue;
        }
        let TaskKind::Map { block, .. } = rec.kind else {
            continue;
        };
        if let Some(b) = block {
            if in_memory(node, b) {
                return Some(t);
            }
            if disk_local.is_none() && has_replica(node, b) {
                disk_local = Some(t);
            }
        }
        any = any.or(Some(t));
    }
    disk_local.or(any)
}

/// [`choose_reduce_task`] on the walk.
fn reference_reduce_pick(tr: &JobTracker, live: &Live) -> Option<TaskId> {
    let mut best: Option<(usize, TaskId)> = None;
    for &t in tr.pending_reduces() {
        let running = walk_running(tr, live, tr.task(t).job);
        if best.is_none_or(|(r, _)| running < r) {
            best = Some((running, t));
        }
    }
    best.map(|(_, t)| t)
}

/// A fixed pseudo-random placement: whether `block` sits on `node`, with
/// probability about `1 / one_in`.
fn placed(salt: u64, node: NodeId, block: BlockId, one_in: u64) -> bool {
    let mut x = salt ^ (u64::from(node.0) << 32) ^ block.0;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (x ^ (x >> 31)).is_multiple_of(one_in)
}

/// The per-job running counter is a faithful share measure: on random
/// submit / assign / complete / node-failure / kill sequences it equals a
/// walk over the job's tasks after every step, and the map and reduce
/// picks equal picks made on the walk. The pending lists hold only
/// pending tasks of live jobs, and `complete`, `fail_node` and `kill_job`
/// report what the task states say they should.
#[test]
fn running_counter_matches_a_walk_over_the_jobs_tasks() {
    for seed in 0..64u64 {
        let mut rng = SimRng::new(0x7AC4_0001 ^ seed);
        let nodes = 1 + rng.index(6) as u32;
        let salt = rng.next_u64();
        let in_memory = |n: NodeId, b: BlockId| placed(salt, n, b, 7);
        let has_replica = |n: NodeId, b: BlockId| placed(!salt, n, b, 3);
        let mut tr = JobTracker::new();
        let mut live = Live::new();
        let mut all_tasks: Vec<TaskId> = Vec::new();
        let mut next_job = 0u64;
        for step in 0..300 {
            let ctx = format!("seed {seed} step {step}");
            match rng.index(20) {
                0..=2 => {
                    let job = JobId(next_job);
                    next_job += 1;
                    let inputs: Vec<MapInput> = (0..1 + rng.index(5))
                        .map(|_| MapInput {
                            block: (rng.index(10) > 0).then(|| BlockId(rng.next_u64() % 48)),
                            bytes: 1 + rng.next_u64() % (128 << 20),
                        })
                        .collect();
                    tr.submit(job, rng.index(3), &inputs);
                    let j = tr.job(job);
                    let tasks: Vec<TaskId> =
                        j.map_tasks.iter().chain(&j.reduce_tasks).copied().collect();
                    all_tasks.extend(&tasks);
                    live.insert(job, tasks);
                }
                3..=9 => {
                    // A heartbeat: the node takes up to three tasks.
                    let node = NodeId(rng.index(nodes as usize) as u32);
                    for _ in 0..1 + rng.index(3) {
                        let pick = choose_map_task(&tr, node, in_memory, has_replica)
                            .or_else(|| choose_reduce_task(&tr));
                        let Some(t) = pick else { break };
                        tr.assign(t, node);
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
                        let want = live.get(&job).is_some_and(|tasks| {
                            tasks
                                .iter()
                                .all(|&u| tr.task(u).state == TaskState::Completed)
                        });
                        assert_eq!(finished, want, "{ctx}: complete({t:?})");
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
                        let want_state = if live.contains_key(&tr.task(t).job) {
                            TaskState::Pending
                        } else {
                            TaskState::Completed
                        };
                        assert_eq!(tr.task(t).state, want_state, "{ctx}: {t:?}");
                    }
                }
                _ => {
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
                        live.remove(&job);
                    }
                }
            }
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
                assert_eq!(
                    choose_map_task(&tr, node, in_memory, has_replica),
                    reference_map_pick(&tr, &live, node, in_memory, has_replica),
                    "{ctx}: map pick on {node:?}"
                );
            }
            assert_eq!(
                choose_reduce_task(&tr),
                reference_reduce_pick(&tr, &live),
                "{ctx}: reduce pick"
            );
            for (queue, is_map) in [(tr.pending_maps(), true), (tr.pending_reduces(), false)] {
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
}
