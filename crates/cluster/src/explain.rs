//! Migration-race explainer: per-block verdicts and per-job lead-time
//! decompositions, derived from the one causal fold over a telemetry event
//! stream ([`SpanForest`]).
//!
//! The paper's central race is *migration vs. the task that wants the
//! block*: Ignem migrates cold data upward while the scheduler is still
//! paying submitter, ApplicationMaster, and heartbeat latencies, and a
//! block read hits memory only if the migration finished first. Aggregate
//! metrics say *how often* the migration won; this module says *why* it
//! lost, block by block, from the typed event stream
//! ([`ignem_simcore::telemetry`]):
//!
//! * [`Verdict::WonRace`] — the read was served from memory; `margin` is
//!   how long the migrated block sat resident before the read started.
//! * [`Verdict::LostRace`] — the read went to disk; [`LossCause`] names
//!   the furthest stage the migration reached before the read started,
//!   and `shortfall` estimates how late it was.
//!
//! The verdicts are intentionally *reconcilable*: `World` emits
//! `BlockRead` under exactly the guard that records a
//! [`BlockRead`](crate::metrics::BlockRead) metric, so
//! [`TelemetryReport::reconcile`] can assert `#WonRace == memory reads`
//! and `#LostRace == disk reads` — any drift means the instrumentation
//! and the metrics disagree about what happened.
//!
//! Lead-time decomposition ([`JobLeadTime`]) splits the head start a job
//! unknowingly gives its migrations into queue delay (submission →
//! schedulable), heartbeat delay (schedulable → first task assignment),
//! and the migration service time spent on the job's own blocks.

use ignem_simcore::span::{CriticalPath, SpanForest};
use ignem_simcore::telemetry::{EventRecord, ReadClass};
use ignem_simcore::time::{SimDuration, SimTime};

use crate::metrics::{ReadKind, RunMetrics};

/// Why a block read lost the migration race, ordered by how far the
/// migration got before the read started (furthest first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LossCause {
    /// The block *was* migrated but got evicted again before the read.
    Evicted,
    /// The block *was* migrated but the node crashed and its volatile
    /// store was wiped before the read: the eviction that lost it
    /// coincides with a crash of the same node at the same instant.
    LostToCrash,
    /// The disk read for the migration was in flight (or the block was
    /// resident on a node the reader didn't use) — the disk was the
    /// bottleneck.
    DiskContended,
    /// The migration command reached the slave but sat behind other
    /// queued migrations.
    QueuedBehind,
    /// The master assigned the migration but no slave ever acted on it
    /// before the read — the command was lost or still retrying.
    RpcLost,
    /// The master never assigned a migration for this block at all.
    NeverScheduled,
    /// Terminal diagnosis, not a per-read race outcome: a migration
    /// completed but was never evicted by the end of the stream — the
    /// reference lifecycle leaked it. Produced by the leak fold
    /// ([`TelemetryReport::leaked`]), never by the race fold.
    LeakedReference,
}

impl LossCause {
    /// Stable lowercase tag for CSV/JSON output.
    pub fn tag(self) -> &'static str {
        match self {
            LossCause::Evicted => "evicted",
            LossCause::LostToCrash => "lost_to_crash",
            LossCause::DiskContended => "disk_contended",
            LossCause::QueuedBehind => "queued_behind",
            LossCause::RpcLost => "rpc_lost",
            LossCause::NeverScheduled => "never_scheduled",
            LossCause::LeakedReference => "leaked_reference",
        }
    }

    /// All causes, in the order [`LossCause`] declares them.
    pub const ALL: [LossCause; 7] = [
        LossCause::Evicted,
        LossCause::LostToCrash,
        LossCause::DiskContended,
        LossCause::QueuedBehind,
        LossCause::RpcLost,
        LossCause::NeverScheduled,
        LossCause::LeakedReference,
    ];
}

/// The outcome of one block read's race against its migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The read was served from memory.
    WonRace {
        /// How long the block had been resident when the read started
        /// (zero when the completing migration fell outside the recorded
        /// window).
        margin: SimDuration,
    },
    /// The read went to disk.
    LostRace {
        /// How late the migration was: time from the read's start to the
        /// moment the block would have been (or was) available, falling
        /// back to the age of the furthest migration step when no later
        /// completion exists.
        shortfall: SimDuration,
        /// The furthest stage the migration reached before the read.
        cause: LossCause,
    },
}

impl Verdict {
    /// The loss cause, if this verdict is a loss.
    pub fn cause(&self) -> Option<LossCause> {
        match self {
            Verdict::WonRace { .. } => None,
            Verdict::LostRace { cause, .. } => Some(*cause),
        }
    }
}

/// One block read, explained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockVerdict {
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
    /// When the read started.
    pub read_start: SimTime,
    /// The race outcome.
    pub verdict: Verdict,
}

/// How much head start a job's migrations got, decomposed the way the
/// paper argues in §II: the block upload can overlap the job's own
/// startup latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobLeadTime {
    /// Job id.
    pub job: u64,
    /// Submission → schedulable (submitter + AM overhead).
    pub queue_delay: SimDuration,
    /// Schedulable → first task assignment (heartbeat latency).
    pub heartbeat_delay: SimDuration,
    /// Total disk time spent migrating blocks this job asked for first.
    pub migration_service: SimDuration,
}

/// Recovery lead times for one node restart: how long after the reboot
/// the master accepted the fresh incarnation's registration, and how long
/// until the first migration landed back in the node's RAM — the
/// re-ignition analogue of [`JobLeadTime`]. `None` means the stream ended
/// (or was truncated) before the milestone was witnessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReignitionLead {
    /// The node that restarted.
    pub node: u32,
    /// When the restart happened.
    pub restarted_at: SimTime,
    /// Restart → the master accepting the new incarnation's
    /// registration.
    pub register_lead: Option<SimDuration>,
    /// Restart → the first migration completing on the node afterwards:
    /// the moment upward migration is burning again on the rebooted
    /// machine.
    pub remigrate_lead: Option<SimDuration>,
}

/// A migrated block still resident at the end of the event stream: some
/// migration round completed for it after its last eviction, so a
/// reference is still pinning it ([`LossCause::LeakedReference`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakRecord {
    /// Node holding the block.
    pub node: u32,
    /// The leaked block.
    pub block: u64,
    /// Bytes still resident.
    pub bytes: u64,
    /// Jobs that enqueued migrations for the block since its last
    /// eviction — the owners of the references that never drained.
    pub jobs: Vec<u64>,
}

/// The explainer's output: every block read's verdict, every job's
/// lead-time decomposition, end-of-stream leak records, and bulk counts
/// for reporting.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// Per-read verdicts, in read-completion order.
    pub verdicts: Vec<BlockVerdict>,
    /// Per-job lead times, for jobs whose submission, scheduling, and
    /// first assignment all fell inside the recorded window.
    pub lead_times: Vec<JobLeadTime>,
    /// Blocks whose completed migrations outnumber their evictions at
    /// stream end, ordered by `(node, block)`. Empty for a leak-free run.
    pub leaked: Vec<LeakRecord>,
    /// Per-restart recovery lead times, in restart order. Empty for runs
    /// without [`Fault::NodeCrash`](crate::world::Fault::NodeCrash).
    pub reignitions: Vec<ReignitionLead>,
}

impl TelemetryReport {
    /// Folds an event stream (e.g.
    /// [`FlightRecorder::events`](ignem_simcore::telemetry::FlightRecorder::events))
    /// into verdicts and lead times; see [`TelemetryReport::from_forest`].
    pub fn from_events(events: &[EventRecord]) -> TelemetryReport {
        TelemetryReport::from_forest(&SpanForest::build(events))
    }

    /// Derives verdicts, lead times, leaks and re-ignitions from the
    /// evidence one [`SpanForest`] fold kept. The stream must have been in
    /// emission order; a truncated stream (ring-buffer eviction) degrades
    /// gracefully — reads whose migration history fell off the front get
    /// zero margins / `NeverScheduled` verdicts rather than errors.
    pub fn from_forest(forest: &SpanForest) -> TelemetryReport {
        let verdicts = forest
            .reads
            .iter()
            .map(|r| BlockVerdict {
                task: r.task,
                job: r.job,
                block: r.block,
                node: r.node,
                bytes: r.bytes,
                read_start: r.start,
                verdict: match r.class {
                    ReadClass::Memory => Verdict::WonRace {
                        margin: forest
                            .blocks
                            .get(&(r.node, r.block))
                            .and_then(|tl| last_at_or_before(&tl.completed, r.start))
                            .map(|done| r.start.saturating_duration_since(done))
                            .unwrap_or(SimDuration::ZERO),
                    },
                    ReadClass::LocalDisk | ReadClass::RemoteDisk => {
                        explain_disk_read(forest, r.job, r.block, r.start)
                    }
                },
            })
            .collect();

        // Lead times, in job-id (= submission) order, for jobs fully
        // inside the recorded window.
        let lead_times = forest
            .jobs
            .iter()
            .filter_map(|(&job, lead)| {
                let (sub, sched, assign) = (lead.submitted?, lead.scheduled?, lead.first_assigned?);
                Some(JobLeadTime {
                    job,
                    queue_delay: sched.saturating_duration_since(sub),
                    heartbeat_delay: assign.saturating_duration_since(sched),
                    migration_service: lead.migration_service,
                })
            })
            .collect();

        // A block whose completed migrations outnumber its evictions is
        // still resident, pinned by references that never drained
        // ([`LossCause::LeakedReference`]).
        let leaked = forest
            .blocks
            .iter()
            .filter(|(_, tl)| tl.completed.len() > tl.evicted.len())
            .map(|(&(node, block), tl)| LeakRecord {
                node,
                block,
                bytes: tl.bytes,
                jobs: tl.owners.clone(),
            })
            .collect();

        let reignitions = forest
            .restarts
            .iter()
            .map(|r| ReignitionLead {
                node: r.node,
                restarted_at: r.at,
                register_lead: r.registered.map(|t| t.saturating_duration_since(r.at)),
                remigrate_lead: r.remigrated.map(|t| t.saturating_duration_since(r.at)),
            })
            .collect();

        TelemetryReport {
            verdicts,
            lead_times,
            leaked,
            reignitions,
        }
    }

    /// Number of reads that won the race (memory reads).
    pub fn won(&self) -> usize {
        self.verdicts
            .iter()
            .filter(|v| matches!(v.verdict, Verdict::WonRace { .. }))
            .count()
    }

    /// Number of reads that lost the race (disk reads), all causes.
    pub fn lost(&self) -> usize {
        self.verdicts.len() - self.won()
    }

    /// Number of lost reads with the given cause.
    pub fn lost_with(&self, cause: LossCause) -> usize {
        self.verdicts
            .iter()
            .filter(|v| v.verdict.cause() == Some(cause))
            .count()
    }

    /// Checks that the verdicts agree with a run's metrics: one verdict
    /// per recorded block read, `#WonRace` equal to the memory-read count,
    /// and `#LostRace` (all causes) equal to the disk-read count. Returns
    /// a description of the first mismatch.
    ///
    /// Only meaningful when the flight recorder kept the whole run (no
    /// ring-buffer eviction); a truncated stream legitimately undercounts.
    pub fn reconcile(&self, metrics: &RunMetrics) -> Result<(), String> {
        if self.verdicts.len() != metrics.block_reads.len() {
            return Err(format!(
                "verdict count {} != recorded block reads {}",
                self.verdicts.len(),
                metrics.block_reads.len()
            ));
        }
        let mem = metrics
            .block_reads
            .iter()
            .filter(|r| r.kind == ReadKind::Memory)
            .count();
        if self.won() != mem {
            return Err(format!(
                "{} WonRace verdicts != {mem} memory reads",
                self.won()
            ));
        }
        let disk = metrics.block_reads.len() - mem;
        if self.lost() != disk {
            return Err(format!(
                "{} LostRace verdicts != {disk} disk reads",
                self.lost()
            ));
        }
        Ok(())
    }
}

/// Cross-checks the critical path against the explainer and a run's
/// metrics where they still come from independent sources: every job the
/// explainer decomposed must be on the path, and the stream's retry count
/// must equal the master's retry counter. (The per-job sums need no check:
/// both read the same [`JobLead`](ignem_simcore::span::JobLead)s.)
/// Returns a description of the first mismatch.
///
/// Only meaningful on an untruncated stream (no ring-buffer eviction).
pub fn reconcile_critical_path(
    path: &CriticalPath,
    report: &TelemetryReport,
    metrics: &RunMetrics,
) -> Result<(), String> {
    if let Some(lt) = report
        .lead_times
        .iter()
        .find(|lt| path.job(lt.job).is_none())
    {
        return Err(format!("job {} missing from the critical path", lt.job));
    }
    if path.retries != metrics.master_stats.retries {
        return Err(format!(
            "span forest saw {} retries, master counted {}",
            path.retries, metrics.master_stats.retries
        ));
    }
    Ok(())
}

/// Ranks how far a migration got on one node by `read_start` and derives
/// the verdict; the caller keeps the max-progress verdict across every
/// node the master assigned.
fn explain_disk_read(forest: &SpanForest, job: u64, block: u64, read_start: SimTime) -> Verdict {
    let Some(assignments) = forest
        .assignments
        .get(&(job, block))
        .filter(|a| !a.is_empty())
    else {
        return Verdict::LostRace {
            shortfall: SimDuration::ZERO,
            cause: LossCause::NeverScheduled,
        };
    };
    let first_assigned_at = assignments[0].1;

    // (rank, shortfall, cause): higher rank = the migration got further.
    let mut best: Option<(u8, SimDuration, LossCause)> = None;
    for &(node, _) in assignments {
        let Some(tl) = forest.blocks.get(&(node, block)) else {
            continue;
        };
        let completed = last_at_or_before(&tl.completed, read_start);
        let evicted = last_at_or_before(&tl.evicted, read_start);
        let started = last_at_or_before(&tl.started, read_start);
        let enqueued = last_at_or_before(&tl.enqueued, read_start);

        let candidate = if let Some(done) = completed {
            match evicted {
                Some(gone) if gone >= done => {
                    // A crash purge evicts at the crash instant
                    // (`NodeCrashed` is emitted first, same timestamp):
                    // the block wasn't released, it went down with the
                    // machine's volatile store.
                    let crashed = forest
                        .crashes
                        .get(&node)
                        .is_some_and(|ts| ts.contains(&gone));
                    (
                        3,
                        read_start.saturating_duration_since(gone),
                        if crashed {
                            LossCause::LostToCrash
                        } else {
                            LossCause::Evicted
                        },
                    )
                }
                // Resident on this node at read time, yet the reader used
                // another replica's disk: the contended disk path won the
                // planner's cost model, so charge contention with no
                // measurable shortfall.
                _ => (3, SimDuration::ZERO, LossCause::DiskContended),
            }
        } else if let Some(begun) = started {
            let shortfall = first_after(&tl.completed, read_start)
                .map(|done| done.saturating_duration_since(read_start))
                .unwrap_or_else(|| read_start.saturating_duration_since(begun));
            (2, shortfall, LossCause::DiskContended)
        } else if let Some(queued) = enqueued {
            let shortfall = first_after(&tl.started, read_start)
                .map(|begun| begun.saturating_duration_since(read_start))
                .unwrap_or_else(|| read_start.saturating_duration_since(queued));
            (1, shortfall, LossCause::QueuedBehind)
        } else {
            // The slave acted on the block only after the read began — the
            // command effectively arrived too late; treated like a lost
            // command below.
            continue;
        };
        if best.map(|(rank, ..)| candidate.0 > rank).unwrap_or(true) {
            best = Some(candidate);
        }
    }

    match best {
        Some((_, shortfall, cause)) => Verdict::LostRace { shortfall, cause },
        None => Verdict::LostRace {
            shortfall: read_start.saturating_duration_since(first_assigned_at),
            cause: LossCause::RpcLost,
        },
    }
}

/// Last element of a (chronologically sorted) time list at or before `t`.
fn last_at_or_before(times: &[SimTime], t: SimTime) -> Option<SimTime> {
    times.iter().rev().find(|&&x| x <= t).copied()
}

/// First element strictly after `t`.
fn first_after(times: &[SimTime], t: SimTime) -> Option<SimTime> {
    times.iter().find(|&&x| x > t).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ignem_simcore::telemetry::Event;

    fn rec(seq: u64, at_us: u64, event: Event) -> EventRecord {
        EventRecord {
            seq,
            at: SimTime::from_micros(at_us),
            event,
        }
    }

    fn read(at_us: u64, class: ReadClass, duration_us: u64) -> Event {
        let _ = at_us;
        Event::BlockRead {
            task: 1,
            job: 1,
            block: 10,
            node: 0,
            bytes: 64,
            class,
            duration_us,
        }
    }

    fn migration_chain(job: u64, block: u64, node: u32) -> Vec<Event> {
        vec![
            Event::MigrationAssigned {
                job,
                block,
                node,
                bytes: 64,
            },
            Event::MigrationEnqueued {
                node,
                job,
                block,
                bytes: 64,
            },
            Event::MigrationStarted {
                node,
                block,
                bytes: 64,
            },
            Event::MigrationCompleted {
                node,
                block,
                bytes: 64,
            },
        ]
    }

    #[test]
    fn memory_read_wins_with_margin() {
        let mut events: Vec<EventRecord> = Vec::new();
        for (i, ev) in migration_chain(1, 10, 0).into_iter().enumerate() {
            events.push(rec(i as u64, (i as u64 + 1) * 1_000, ev));
        }
        // Read starts at t=10_000 (completes 12_000 after 2_000us); the
        // migration completed at t=4_000 → margin 6_000us.
        events.push(rec(4, 12_000, read(12_000, ReadClass::Memory, 2_000)));
        let report = TelemetryReport::from_events(&events);
        assert_eq!(report.won(), 1);
        assert_eq!(
            report.verdicts[0].verdict,
            Verdict::WonRace {
                margin: SimDuration::from_micros(6_000)
            }
        );
    }

    #[test]
    fn unassigned_block_is_never_scheduled() {
        let events = vec![rec(0, 5_000, read(5_000, ReadClass::LocalDisk, 1_000))];
        let report = TelemetryReport::from_events(&events);
        assert_eq!(report.lost_with(LossCause::NeverScheduled), 1);
    }

    #[test]
    fn assigned_but_silent_slave_is_rpc_lost() {
        let events = vec![
            rec(
                0,
                1_000,
                Event::MigrationAssigned {
                    job: 1,
                    block: 10,
                    node: 3,
                    bytes: 64,
                },
            ),
            rec(1, 9_000, read(9_000, ReadClass::LocalDisk, 1_000)),
        ];
        let report = TelemetryReport::from_events(&events);
        assert_eq!(report.lost_with(LossCause::RpcLost), 1);
        assert_eq!(
            report.verdicts[0].verdict,
            Verdict::LostRace {
                // read_start 8_000 − assigned 1_000.
                shortfall: SimDuration::from_micros(7_000),
                cause: LossCause::RpcLost,
            }
        );
    }

    #[test]
    fn in_flight_migration_is_disk_contended_with_completion_shortfall() {
        let events = vec![
            rec(
                0,
                1_000,
                Event::MigrationAssigned {
                    job: 1,
                    block: 10,
                    node: 0,
                    bytes: 64,
                },
            ),
            rec(
                1,
                1_500,
                Event::MigrationEnqueued {
                    node: 0,
                    job: 1,
                    block: 10,
                    bytes: 64,
                },
            ),
            rec(
                2,
                2_000,
                Event::MigrationStarted {
                    node: 0,
                    block: 10,
                    bytes: 64,
                },
            ),
            // Read starts at 4_000 while the migration is still on disk…
            rec(3, 5_000, read(5_000, ReadClass::LocalDisk, 1_000)),
            // …and it finally lands at 7_000: shortfall 3_000.
            rec(
                4,
                7_000,
                Event::MigrationCompleted {
                    node: 0,
                    block: 10,
                    bytes: 64,
                },
            ),
        ];
        let report = TelemetryReport::from_events(&events);
        assert_eq!(
            report.verdicts[0].verdict,
            Verdict::LostRace {
                shortfall: SimDuration::from_micros(3_000),
                cause: LossCause::DiskContended,
            }
        );
    }

    #[test]
    fn queued_migration_is_queued_behind() {
        let events = vec![
            rec(
                0,
                1_000,
                Event::MigrationAssigned {
                    job: 1,
                    block: 10,
                    node: 0,
                    bytes: 64,
                },
            ),
            rec(
                1,
                1_500,
                Event::MigrationEnqueued {
                    node: 0,
                    job: 1,
                    block: 10,
                    bytes: 64,
                },
            ),
            rec(2, 5_000, read(5_000, ReadClass::LocalDisk, 1_000)),
        ];
        let report = TelemetryReport::from_events(&events);
        assert_eq!(
            report.verdicts[0].verdict,
            Verdict::LostRace {
                // No later start recorded: age since enqueue, 4_000 − 1_500.
                shortfall: SimDuration::from_micros(2_500),
                cause: LossCause::QueuedBehind,
            }
        );
    }

    #[test]
    fn evicted_block_is_evicted() {
        let mut events: Vec<EventRecord> = Vec::new();
        for (i, ev) in migration_chain(1, 10, 0).into_iter().enumerate() {
            events.push(rec(i as u64, (i as u64 + 1) * 1_000, ev));
        }
        events.push(rec(
            4,
            6_000,
            Event::BlockEvicted {
                node: 0,
                block: 10,
                bytes: 64,
            },
        ));
        events.push(rec(5, 10_000, read(10_000, ReadClass::LocalDisk, 1_000)));
        let report = TelemetryReport::from_events(&events);
        assert_eq!(
            report.verdicts[0].verdict,
            Verdict::LostRace {
                // read_start 9_000 − evicted 6_000.
                shortfall: SimDuration::from_micros(3_000),
                cause: LossCause::Evicted,
            }
        );
    }

    #[test]
    fn crash_purge_eviction_is_lost_to_crash() {
        let mut events: Vec<EventRecord> = Vec::new();
        for (i, ev) in migration_chain(1, 10, 0).into_iter().enumerate() {
            events.push(rec(i as u64, (i as u64 + 1) * 1_000, ev));
        }
        // The node crashes at t=6_000; the purge evicts the block at the
        // same instant.
        events.push(rec(4, 6_000, Event::NodeCrashed { node: 0 }));
        events.push(rec(
            5,
            6_000,
            Event::BlockEvicted {
                node: 0,
                block: 10,
                bytes: 64,
            },
        ));
        events.push(rec(6, 10_000, read(10_000, ReadClass::LocalDisk, 1_000)));
        let report = TelemetryReport::from_events(&events);
        assert_eq!(
            report.verdicts[0].verdict,
            Verdict::LostRace {
                shortfall: SimDuration::from_micros(3_000),
                cause: LossCause::LostToCrash,
            }
        );
        assert_eq!(LossCause::LostToCrash.tag(), "lost_to_crash");
    }

    #[test]
    fn ordinary_eviction_stays_evicted_despite_other_node_crash() {
        let mut events: Vec<EventRecord> = Vec::new();
        for (i, ev) in migration_chain(1, 10, 0).into_iter().enumerate() {
            events.push(rec(i as u64, (i as u64 + 1) * 1_000, ev));
        }
        // A *different* node crashes at the eviction instant: no
        // reclassification.
        events.push(rec(4, 6_000, Event::NodeCrashed { node: 3 }));
        events.push(rec(
            5,
            6_000,
            Event::BlockEvicted {
                node: 0,
                block: 10,
                bytes: 64,
            },
        ));
        events.push(rec(6, 10_000, read(10_000, ReadClass::LocalDisk, 1_000)));
        let report = TelemetryReport::from_events(&events);
        assert_eq!(report.lost_with(LossCause::Evicted), 1);
        assert_eq!(report.lost_with(LossCause::LostToCrash), 0);
    }

    #[test]
    fn reignition_leads_pair_restart_register_and_first_completion() {
        let mut events = vec![
            rec(0, 2_000, Event::NodeCrashed { node: 0 }),
            rec(
                1,
                7_000,
                Event::NodeRestarted {
                    node: 0,
                    incarnation: 2,
                },
            ),
            rec(
                2,
                8_500,
                Event::SlaveRegistered {
                    node: 0,
                    incarnation: 2,
                },
            ),
        ];
        for (i, ev) in migration_chain(1, 10, 0).into_iter().enumerate() {
            events.push(rec(3 + i as u64, 9_000 + (i as u64 + 1) * 1_000, ev));
        }
        let report = TelemetryReport::from_events(&events);
        assert_eq!(report.reignitions.len(), 1);
        let r = report.reignitions[0];
        assert_eq!(r.node, 0);
        assert_eq!(r.restarted_at, SimTime::from_micros(7_000));
        assert_eq!(r.register_lead, Some(SimDuration::from_micros(1_500)));
        // First completion at 13_000 → lead 6_000 from the restart.
        assert_eq!(r.remigrate_lead, Some(SimDuration::from_micros(6_000)));
    }

    #[test]
    fn unrecovered_restart_leaves_leads_unwitnessed() {
        let events = vec![rec(
            0,
            7_000,
            Event::NodeRestarted {
                node: 2,
                incarnation: 5,
            },
        )];
        let report = TelemetryReport::from_events(&events);
        assert_eq!(report.reignitions.len(), 1);
        assert_eq!(report.reignitions[0].register_lead, None);
        assert_eq!(report.reignitions[0].remigrate_lead, None);
    }

    #[test]
    fn lead_time_decomposes_and_attributes_migration_service() {
        let mut events = vec![
            rec(
                0,
                1_000,
                Event::JobSubmitted {
                    job: 1,
                    name: "wc".into(),
                    plan: 0,
                    stage: 0,
                },
            ),
            rec(1, 4_000, Event::JobScheduled { job: 1 }),
        ];
        for (i, ev) in migration_chain(1, 10, 0).into_iter().enumerate() {
            events.push(rec(2 + i as u64, 4_000 + (i as u64 + 1) * 1_000, ev));
        }
        events.push(rec(
            6,
            10_000,
            Event::TaskAssigned {
                task: 1,
                job: 1,
                node: 0,
            },
        ));
        let report = TelemetryReport::from_events(&events);
        assert_eq!(report.lead_times.len(), 1);
        let lt = report.lead_times[0];
        assert_eq!(lt.queue_delay, SimDuration::from_micros(3_000));
        assert_eq!(lt.heartbeat_delay, SimDuration::from_micros(6_000));
        // Started at 7_000, completed at 8_000.
        assert_eq!(lt.migration_service, SimDuration::from_micros(1_000));
    }

    #[test]
    fn unevicted_completion_is_a_leaked_reference() {
        // A full migration chain with no eviction by stream end: the leak
        // fold must name the block, its bytes, and the owning job.
        let mut events: Vec<EventRecord> = Vec::new();
        for (i, ev) in migration_chain(3, 15, 0).into_iter().enumerate() {
            events.push(rec(i as u64, (i as u64 + 1) * 1_000, ev));
        }
        let report = TelemetryReport::from_events(&events);
        assert_eq!(
            report.leaked,
            vec![LeakRecord {
                node: 0,
                block: 15,
                bytes: 64,
                jobs: vec![3],
            }]
        );
        assert_eq!(LossCause::LeakedReference.tag(), "leaked_reference");
    }

    #[test]
    fn evicted_block_is_not_leaked() {
        let mut events: Vec<EventRecord> = Vec::new();
        for (i, ev) in migration_chain(3, 15, 0).into_iter().enumerate() {
            events.push(rec(i as u64, (i as u64 + 1) * 1_000, ev));
        }
        events.push(rec(
            4,
            9_000,
            Event::BlockEvicted {
                node: 0,
                block: 15,
                bytes: 64,
            },
        ));
        let report = TelemetryReport::from_events(&events);
        assert!(report.leaked.is_empty());
    }

    #[test]
    fn reconcile_spots_count_drift() {
        let events = vec![rec(0, 5_000, read(5_000, ReadClass::Memory, 1_000))];
        let report = TelemetryReport::from_events(&events);
        let mut metrics = RunMetrics::default();
        assert!(report.reconcile(&metrics).is_err());
        metrics.block_reads.push(crate::metrics::BlockRead {
            bytes: 64,
            secs: 0.001,
            kind: ReadKind::Memory,
        });
        assert!(report.reconcile(&metrics).is_ok());
        metrics.block_reads[0].kind = ReadKind::LocalDisk;
        assert!(report.reconcile(&metrics).is_err());
    }
}
