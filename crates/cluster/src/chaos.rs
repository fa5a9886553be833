//! Chaos harness: randomized fault-plan generation and invariant checking.
//!
//! The harness turns one seed into a complete chaos experiment — a small
//! Ignem workload, an unreliable control-plane channel and a randomized
//! fault plan drawn from the full palette ([`Fault`]) — runs it with
//! per-event invariant validation, and checks eight end-state invariants:
//!
//! 1. **Do-not-harm**: every event leaves each slave's reference lists,
//!    queue and memory accounting mutually consistent
//!    ([`World::with_validation`] panics otherwise).
//! 2. **Reference leak-freedom**: at the end of the run no alive slave
//!    holds a reference entry — every migrated block was reclaimed.
//! 3. **Memory conservation**: no migrated bytes remain resident at the
//!    end; the migration buffer drained back to zero.
//! 4. **Completion**: every plan that was not deliberately killed finishes,
//!    as long as the fault plan leaves at least one replica of every block
//!    alive (the generator caps node failures at `replication − 1`).
//! 5. **Determinism**: two runs of the same `(seed, fault plan)` produce
//!    bit-identical metrics (compared via [`fingerprint`]).
//! 6. **Event-stream consistency**: the run's flight-recorder stream is
//!    internally coherent — sequence numbers strictly increase, every
//!    `MigrationCompleted` (and every wasted or cancelled read) matches an
//!    earlier `MigrationStarted` for the same `(node, block)`, and no node
//!    evicts more migrated bytes than it completed migrating.
//! 7. **Ledger conservation**: the double-entry residency ledger balances
//!    against the final resident bytes, and (when the recorder kept the
//!    whole stream) its credit/debit sides equal the bytes the event
//!    stream says were migrated and evicted.
//! 8. **Recovery convergence** (runs with [`Fault::NodeCrash`] injected):
//!    after the last fault heals, no dangling dead-incarnation state
//!    remains anywhere — every crashed node that survived to the end
//!    re-registered (master and slave agree on its incarnation, the
//!    NameNode serves its durable replicas), the master's retransmission
//!    outbox drained, and no durably written block lost its last alive
//!    replica. Audited by the world at finalization
//!    ([`RunMetrics::recovery`]); the harness surfaces the verdict.
//!
//! Chaos runs enable the epoch/lease reference lifecycle
//! ([`ChaosConfig::lease`]) so orphaned references expire even when the
//! periodic sweep has wound down; set it to `None` to reproduce the
//! legacy behaviour (and its seed-304 leak).
//!
//! When a seed fails, [`minimize_faults`] shrinks its fault plan to a
//! 1-minimal schedule — dropping any single remaining fault makes the
//! violation disappear — and [`MinimizedSchedule::describe`] renders it
//! with the explainer's leak records for the bug report.
//!
//! ```
//! use ignem_cluster::chaos::{run_chaos, ChaosConfig};
//!
//! let report = run_chaos(&ChaosConfig { seed: 7, ..ChaosConfig::default() });
//! report.assert_invariants();
//! ```

// BTreeMap keeps the invariant-check sweeps (which iterate these maps) in
// key order, satisfying lint rule D02 without per-site sorting.
use std::collections::BTreeMap;

use ignem_compute::job::{JobInput, JobSpec, SubmitOptions};
use ignem_netsim::rpc::RpcConfig;
use ignem_netsim::NodeId;
use ignem_simcore::rng::SimRng;
use ignem_simcore::telemetry::{Event, EventRecord, FlightRecorder};
use ignem_simcore::time::{SimDuration, SimTime};
use ignem_simcore::units::MIB;

use crate::config::{ClusterConfig, FsMode};
use crate::explain::{LossCause, TelemetryReport};
use crate::metrics::RunMetrics;
use crate::world::{Fault, PlannedJob, World, WorldSnapshot};

/// Parameters of one chaos experiment. Everything downstream — workload,
/// fault plan, channel behaviour — is a pure function of these.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Root seed; drives the fault plan, the channel and the simulation.
    pub seed: u64,
    /// Cluster size (≥ the DFS replication factor, default 3).
    pub nodes: usize,
    /// Number of planned jobs in the workload.
    pub jobs: usize,
    /// Number of faults to draw from the palette.
    pub faults: usize,
    /// Number of [`Fault::NodeCrash`] faults to draw *in addition to*
    /// `faults`. Kept separate (and default **0**) so crash support is
    /// zero-cost when unused: the base fault plan's randomness draws are
    /// byte-identical with and without crashes enabled, which is what
    /// keeps the pinned chaos-304 stream stable.
    pub crashes: usize,
    /// Control-plane channel behaviour.
    pub rpc: RpcConfig,
    /// Reference-lease duration handed to every slave
    /// ([`IgnemConfig::lease`](ignem_core::slave::IgnemConfig)). The
    /// default (60 s) outlives any healthy job's quiet periods but expires
    /// orphans deterministically; `None` disables leasing and restores
    /// the legacy sweep-only cleanup.
    pub lease: Option<SimDuration>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 1,
            nodes: 6,
            jobs: 4,
            faults: 3,
            crashes: 0,
            rpc: RpcConfig {
                drop_p: 0.1,
                dup_p: 0.1,
                jitter: SimDuration::from_millis(20),
            },
            lease: Some(SimDuration::from_secs(60)),
        }
    }
}

/// The outcome of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The generated fault plan, in injection order.
    pub faults: Vec<(SimTime, Fault)>,
    /// Indices of plans the fault plan deliberately killed.
    pub killed_plans: Vec<usize>,
    /// Number of plans in the workload.
    pub total_plans: usize,
    /// The run's metrics.
    pub metrics: RunMetrics,
    /// Bit-exact digest of the metrics (see [`fingerprint`]).
    pub fingerprint: u64,
    /// The flight-recorder event stream of the run, in emission order.
    pub events: Vec<EventRecord>,
    /// Records the flight recorder had to evict to stay within its bound.
    /// Any nonzero count fails [`check_invariants`](Self::check_invariants)
    /// loudly: a truncated stream can legitimately miss
    /// `MigrationStarted` events, so invariant 6 would otherwise pass
    /// vacuously on a window that no longer covers the run.
    pub events_dropped: u64,
}

impl ChaosReport {
    /// The report of a finished run of `faults`: the killed plans (in
    /// schedule order) and the fingerprint are derived here.
    fn new(
        faults: Vec<(SimTime, Fault)>,
        total_plans: usize,
        metrics: RunMetrics,
        events: Vec<EventRecord>,
        events_dropped: u64,
    ) -> ChaosReport {
        let killed_plans = faults
            .iter()
            .filter_map(|(_, f)| match f {
                Fault::KillPlan(p) => Some(*p),
                _ => None,
            })
            .collect();
        ChaosReport {
            faults,
            killed_plans,
            total_plans,
            fingerprint: fingerprint(&metrics),
            metrics,
            events,
            events_dropped,
        }
    }

    /// Checks the end-state invariants (2–4, 6 and 7 of the module docs;
    /// 1 is enforced per event during the run, 5 by comparing two
    /// reports) without panicking.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant; the
    /// minimizer uses this to probe shrunken fault schedules.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.metrics.leaked_job_refs != 0 {
            return Err(format!(
                "reference leak: {} entries survive the run (faults: {:?})",
                self.metrics.leaked_job_refs, self.faults
            ));
        }
        if self.metrics.final_migrated_bytes != 0 {
            return Err(format!(
                "memory not conserved: {} migrated bytes remain (faults: {:?})",
                self.metrics.final_migrated_bytes, self.faults
            ));
        }
        // Every plan completes exactly once unless it was deliberately
        // killed; a killed plan may still complete if the kill fired after
        // its last stage finished.
        let completed: Vec<usize> = self.metrics.plans.iter().map(|p| p.plan).collect();
        let mut sorted = completed.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != completed.len() {
            return Err(format!(
                "a plan completed twice (faults: {:?})",
                self.faults
            ));
        }
        for plan in 0..self.total_plans {
            if !completed.contains(&plan) && !self.killed_plans.contains(&plan) {
                return Err(format!(
                    "plan {plan} neither completed nor was killed (faults: {:?})",
                    self.faults
                ));
            }
        }
        self.check_ledger()?;
        if self.events_dropped > 0 {
            return Err(format!(
                "flight recorder overflowed: {} records dropped, so invariant 6 \
                 cannot audit the full run — raise the recorder capacity \
                 (faults: {:?})",
                self.events_dropped, self.faults
            ));
        }
        self.check_event_stream_consistent()?;
        // Invariant 8: recovery convergence. The world audits crash
        // recovery at finalization; a `Some` verdict names the first
        // piece of dead-incarnation state that failed to converge.
        if let Some(v) = &self.metrics.recovery {
            return Err(format!(
                "recovery did not converge: {v} (faults: {:?})",
                self.faults
            ));
        }
        Ok(())
    }

    /// Checks the end-state invariants, panicking on the first violation.
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    pub fn assert_invariants(&self) {
        if let Err(e) = self.check_invariants() {
            panic!("{e}");
        }
    }

    /// Invariant 7: the residency ledger balances. The total balance must
    /// equal the migrated bytes still resident, and — when the flight
    /// recorder kept the whole run — each side of the ledger must equal
    /// what the event stream witnessed (credits ↔ completed migrations,
    /// debits ↔ evictions, one `BlockEvicted` per counted eviction).
    fn check_ledger(&self) -> Result<(), String> {
        let ledger = &self.metrics.ledger;
        if ledger.total_balance() != self.metrics.final_migrated_bytes {
            return Err(format!(
                "ledger balance {} != final migrated bytes {} (faults: {:?})",
                ledger.total_balance(),
                self.metrics.final_migrated_bytes,
                self.faults
            ));
        }
        if self.events_dropped != 0 {
            return Ok(());
        }
        let mut completed_bytes = 0u64;
        let mut evicted_bytes = 0u64;
        let mut evictions = 0u64;
        for rec in &self.events {
            match &rec.event {
                Event::MigrationCompleted { bytes, .. } => completed_bytes += bytes,
                Event::BlockEvicted { bytes, .. } => {
                    evicted_bytes += bytes;
                    evictions += 1;
                }
                _ => {}
            }
        }
        let credited: u64 = ledger.entries.iter().map(|e| e.credited).sum();
        let debited: u64 = ledger.entries.iter().map(|e| e.debited).sum();
        if credited != completed_bytes {
            return Err(format!(
                "ledger credits {credited} != {completed_bytes} bytes of completed \
                 migrations in the event stream (faults: {:?})",
                self.faults
            ));
        }
        if debited != evicted_bytes {
            return Err(format!(
                "ledger debits {debited} != {evicted_bytes} evicted bytes in the \
                 event stream (faults: {:?})",
                self.faults
            ));
        }
        if self.metrics.slave_stats.evicted != evictions {
            return Err(format!(
                "evicted counter {} != {evictions} BlockEvicted events (faults: {:?})",
                self.metrics.slave_stats.evicted, self.faults
            ));
        }
        Ok(())
    }

    /// Invariant 6: the flight-recorder stream is internally coherent.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn check_event_stream_consistent(&self) -> Result<(), String> {
        // Disk reads the slaves claimed to finish must each match an
        // earlier start for the same (node, block); wasted and cancelled
        // reads consume a start the same way. Eviction can only release
        // bytes that a completed migration brought into memory.
        let mut outstanding: BTreeMap<(u32, u64), u64> = BTreeMap::new();
        let mut completed_bytes: BTreeMap<u32, u64> = BTreeMap::new();
        let mut evicted_bytes: BTreeMap<u32, u64> = BTreeMap::new();
        let mut last_seq: Option<u64> = None;
        for rec in &self.events {
            if let Some(prev) = last_seq {
                if rec.seq <= prev {
                    return Err(format!(
                        "event sequence not strictly increasing: {} after {prev}",
                        rec.seq
                    ));
                }
            }
            last_seq = Some(rec.seq);
            match &rec.event {
                Event::MigrationStarted { node, block, .. } => {
                    *outstanding.entry((*node, *block)).or_default() += 1;
                }
                Event::MigrationCompleted { node, block, bytes } => {
                    let pending = outstanding.entry((*node, *block)).or_default();
                    if *pending == 0 {
                        return Err(format!(
                            "node{node} completed migrating block {block} without a start \
                             (seq {}, faults: {:?})",
                            rec.seq, self.faults
                        ));
                    }
                    *pending -= 1;
                    *completed_bytes.entry(*node).or_default() += bytes;
                }
                Event::MigrationWasted { node, block, .. }
                | Event::MigrationCancelled { node, block } => {
                    let pending = outstanding.entry((*node, *block)).or_default();
                    if *pending == 0 {
                        return Err(format!(
                            "node{node} wasted/cancelled block {block} without a start \
                             (seq {}, faults: {:?})",
                            rec.seq, self.faults
                        ));
                    }
                    *pending -= 1;
                }
                Event::BlockEvicted { node, bytes, .. } => {
                    *evicted_bytes.entry(*node).or_default() += bytes;
                }
                _ => {}
            }
        }
        for (node, &gone) in &evicted_bytes {
            let migrated = completed_bytes.get(node).copied().unwrap_or(0);
            if gone > migrated {
                return Err(format!(
                    "node{node} evicted {gone} bytes but completed only {migrated} \
                     (faults: {:?})",
                    self.faults
                ));
            }
        }
        Ok(())
    }
}

/// Draws a randomized fault plan from the full palette. Destructive faults
/// are bounded so the workload stays completable: fewer than `replication`
/// distinct nodes fail permanently, and at most one plan is killed.
///
/// `crashes` extra [`Fault::NodeCrash`] draws are appended *after* the
/// base `count` draws so that `crashes == 0` consumes exactly the same
/// randomness as before crash support existed — the base fault sequence
/// (and therefore every pinned stream) is unchanged. The final sort is
/// stable, so equal-timestamp ordering also survives.
pub fn generate_faults(
    rng: &mut SimRng,
    nodes: usize,
    replication: usize,
    num_plans: usize,
    count: usize,
    crashes: usize,
) -> Vec<(SimTime, Fault)> {
    let mut out = Vec::new();
    let mut failed: Vec<u32> = Vec::new();
    let mut killed = false;
    for _ in 0..count {
        let at = SimTime::from_secs_f64(rng.uniform_range(2.0, 40.0));
        let node = NodeId(rng.index(nodes) as u32);
        let fault = match rng.index(8) {
            0 => Fault::MasterFail,
            1 => Fault::SlaveRestart(node),
            2 => {
                if failed.len() + 1 >= replication || failed.contains(&node.0) {
                    Fault::SlaveRestart(node) // budget spent: downgrade
                } else {
                    failed.push(node.0);
                    Fault::NodeFail(node)
                }
            }
            3 => {
                if killed {
                    Fault::MasterFail
                } else {
                    killed = true;
                    Fault::KillPlan(rng.index(num_plans))
                }
            }
            4 => Fault::DiskDegrade(
                node,
                rng.uniform_range(10.0, 60.0) as u32,
                SimDuration::from_secs_f64(rng.uniform_range(5.0, 20.0)),
            ),
            5 => Fault::NodePause(
                node,
                SimDuration::from_secs_f64(rng.uniform_range(2.0, 8.0)),
            ),
            _ => {
                let cut = 1 + rng.index(nodes / 2);
                let mut all: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
                rng.shuffle(&mut all);
                all.truncate(cut);
                Fault::Partition(
                    all,
                    SimDuration::from_secs_f64(rng.uniform_range(3.0, 12.0)),
                )
            }
        };
        out.push((at, fault));
    }
    for _ in 0..crashes {
        let at = SimTime::from_secs_f64(rng.uniform_range(2.0, 40.0));
        let node = NodeId(rng.index(nodes) as u32);
        let down_for = SimDuration::from_secs_f64(rng.uniform_range(3.0, 15.0));
        out.push((at, Fault::NodeCrash(node, down_for)));
    }
    out.sort_by_key(|(at, _)| *at);
    out
}

/// Builds the chaos workload: `jobs` single-stage migrating jobs over
/// separate input files, submitted at staggered offsets.
pub fn workload(jobs: usize) -> (Vec<(String, u64)>, Vec<PlannedJob>) {
    let mut files = Vec::new();
    let mut plans = Vec::new();
    for j in 0..jobs {
        let path = format!("/chaos/in{j}");
        // 3–6 blocks of 64 MiB, varied deterministically by index.
        let blocks = 3 + (j % 4) as u64;
        files.push((path.clone(), blocks * 64 * MIB));
        let mut spec = JobSpec::new(format!("chaos-{j}"), JobInput::DfsFiles(vec![path]));
        spec.submit = SubmitOptions::with_migration();
        plans.push(PlannedJob::single(
            format!("chaos-{j}"),
            SimDuration::from_secs(2 + 5 * j as u64),
            spec,
        ));
    }
    (files, plans)
}

/// Bit-exact digest of a run's metrics: every field that could reveal a
/// divergence between two runs of the same seed is folded into an FNV-1a
/// hash, f64s by their exact bit patterns.
pub fn fingerprint(m: &RunMetrics) -> u64 {
    struct Fnv(u64);
    impl Fnv {
        fn u64(&mut self, x: u64) {
            for b in x.to_le_bytes() {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
        fn f64(&mut self, x: f64) {
            self.u64(x.to_bits());
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.u64(m.makespan.as_micros());
    h.u64(m.jobs.len() as u64);
    for j in &m.jobs {
        h.u64(j.plan as u64);
        h.u64(j.stage as u64);
        h.u64(j.input_bytes);
        h.u64(j.submitted.as_micros());
        h.f64(j.duration);
    }
    h.u64(m.plans.len() as u64);
    for p in &m.plans {
        h.u64(p.plan as u64);
        h.f64(p.duration);
    }
    h.u64(m.map_task_secs.len() as u64);
    h.f64(m.map_task_secs.mean());
    h.u64(m.reduce_task_secs.len() as u64);
    h.f64(m.reduce_task_secs.mean());
    h.u64(m.block_reads.len() as u64);
    for r in &m.block_reads {
        h.u64(r.bytes);
        h.f64(r.secs);
    }
    let s = &m.slave_stats;
    for v in [
        s.commands,
        s.migrated,
        s.migrated_bytes,
        s.deduped,
        s.discarded,
        s.wasted_reads,
        s.evicted,
        s.evicted_bytes,
        s.purges,
        s.liveness_queries,
        s.stale_epochs,
        s.lease_expiries,
        s.stale_incarnations,
    ] {
        h.u64(v);
    }
    for e in &m.ledger.entries {
        h.u64(e.credited);
        h.u64(e.debited);
    }
    let ms = &m.master_stats;
    for v in [
        ms.migrate_requests,
        ms.blocks_assigned,
        ms.evict_requests,
        ms.unknown_evicts,
        ms.acks,
        ms.retries,
        ms.gave_up,
        ms.registrations,
    ] {
        h.u64(v);
    }
    let r = &m.rpc;
    for v in [r.sent, r.delivered, r.dropped, r.duplicated, r.cut] {
        h.u64(v);
    }
    h.u64(m.rereplicated);
    h.u64(m.rerep_deferrals);
    h.u64(m.rerep_gave_up);
    h.u64(m.crashes);
    h.u64(m.restarts);
    h.u64(m.block_reports);
    h.u64(m.reignited_jobs);
    h.u64(m.recovery.is_some() as u64);
    h.u64(0); // the retired speculation counter's slot, kept so pins hold
    h.u64(m.leaked_job_refs);
    h.u64(m.final_migrated_bytes);
    for u in &m.disk_utilization {
        h.f64(*u);
    }
    h.0
}

/// The seed's fault plan. It is drawn from an rng of its own so the
/// workload shape and the simulation streams are untouched by how many
/// faults are drawn.
fn seeded_faults(cfg: &ChaosConfig) -> Vec<(SimTime, Fault)> {
    generate_faults(
        &mut SimRng::new(cfg.seed ^ 0xC4A0_5EED),
        cfg.nodes,
        ClusterConfig::default().dfs.replication,
        cfg.jobs,
        cfg.faults,
        cfg.crashes,
    )
}

/// Runs one chaos experiment with per-event invariant validation,
/// drawing the fault plan from the seed.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    run_chaos_with(cfg, seeded_faults(cfg))
}

/// Builds the chaos world for `(cfg, faults)` with a fresh
/// [`FlightRecorder`] attached and per-event validation on — shared by
/// the straight-line runner below and the snapshot-forked minimizer,
/// which drives the world step by step instead of calling
/// [`World::run`]. Also returns the recorder handle and the workload's
/// plan count.
fn build_chaos_world(
    cfg: &ChaosConfig,
    faults: Vec<(SimTime, Fault)>,
) -> (World, FlightRecorder, usize) {
    let mut cluster = ClusterConfig {
        nodes: cfg.nodes,
        seed: cfg.seed,
        rpc: cfg.rpc,
        ..ClusterConfig::default()
    };
    // Small buffers stress eviction and liveness-triggered cleanup.
    cluster.ignem.buffer_capacity = 512 * MIB;
    cluster.ignem.lease = cfg.lease;
    cluster.validate();

    let (files, plans) = workload(cfg.jobs);
    let total_plans = plans.len();
    // Generous bound: chaos workloads emit a few thousand events, so the
    // recorder keeps the whole run and invariant 6 sees everything.
    let recorder = FlightRecorder::new(1 << 20);
    let world = World::new(cluster, FsMode::Ignem, &files, plans, faults)
        .with_telemetry(Box::new(recorder.clone()))
        .with_validation();
    (world, recorder, total_plans)
}

/// Runs one chaos experiment against an *explicit* fault schedule instead
/// of a generated one — the minimizer's probe, and the replay vehicle for
/// pinned regression schedules.
pub fn run_chaos_with(cfg: &ChaosConfig, faults: Vec<(SimTime, Fault)>) -> ChaosReport {
    let (world, recorder, total_plans) = build_chaos_world(cfg, faults.clone());
    let metrics = world.run();
    ChaosReport::new(
        faults,
        total_plans,
        metrics,
        recorder.events(),
        recorder.dropped(),
    )
}

/// [`run_chaos`] with a sim-time
/// [`MetricsRegistry`](ignem_simcore::metrics::MetricsRegistry) attached,
/// returning the chaos report alongside the windowed metrics. The metrics
/// handle is purely observational — the report (fingerprint, event
/// stream) is bit-identical to an unobserved [`run_chaos`] of the same
/// config.
pub fn run_chaos_observed(
    cfg: &ChaosConfig,
    window: SimDuration,
) -> (ChaosReport, ignem_simcore::metrics::MetricsReport) {
    let faults = seeded_faults(cfg);
    let (world, recorder, total_plans) = build_chaos_world(cfg, faults.clone());
    let registry = ignem_simcore::metrics::MetricsRegistry::new(window);
    let metrics = world.with_metrics(registry.clone()).run();
    let windows = registry.finish(metrics.makespan);
    let report = ChaosReport::new(
        faults,
        total_plans,
        metrics,
        recorder.events(),
        recorder.dropped(),
    );
    (report, windows)
}

/// Time-travel debugger: runs the seed's chaos experiment until the
/// telemetry record with sequence number `seq` has been emitted, freezes
/// the world there, and renders its full state
/// ([`World::describe_state`]) next to the matched record.
///
/// The stop is step-granular: the world halts right after the simulation
/// step that emitted `seq` (a step may emit several records, so the dump
/// can also reflect the same step's later records). Returns `None` when
/// the run finishes before ever emitting `seq`.
pub fn state_at(cfg: &ChaosConfig, seq: u64) -> Option<(EventRecord, String)> {
    let (mut world, recorder, _) = build_chaos_world(cfg, seeded_faults(cfg));
    loop {
        let emitted = world.telemetry_cursor().map_or(0, |(_, next)| next);
        if emitted > seq {
            break;
        }
        if !world.step() {
            return None;
        }
    }
    let record = recorder.events().into_iter().find(|r| r.seq == seq)?;
    Some((record, world.describe_state()))
}

/// A failing fault schedule shrunk to 1-minimality, plus the violation it
/// still reproduces.
#[derive(Debug, Clone)]
pub struct MinimizedSchedule {
    /// The seed whose experiment failed.
    pub seed: u64,
    /// The minimal fault schedule: removing any single entry makes the
    /// violation disappear.
    pub faults: Vec<(SimTime, Fault)>,
    /// The invariant violation the minimal schedule reproduces.
    pub violation: String,
    /// The report of the final (minimal) failing run.
    pub report: ChaosReport,
}

impl MinimizedSchedule {
    /// Renders the minimized schedule for a bug report: the violation,
    /// every remaining fault, and the explainer's leak records from the
    /// final failing run's event stream.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "seed {} violates: {}", self.seed, self.violation);
        let _ = writeln!(out, "minimal fault schedule ({}):", self.faults.len());
        for (at, fault) in &self.faults {
            let _ = writeln!(out, "  t={:.6}s  {fault:?}", at.as_secs_f64());
        }
        let leaks = TelemetryReport::from_events(&self.report.events).leaked;
        let _ = writeln!(out, "leaked references ({}):", leaks.len());
        for leak in &leaks {
            let _ = writeln!(
                out,
                "  [{}] node{} block {} ({} bytes) held for jobs {:?}",
                LossCause::LeakedReference.tag(),
                leak.node,
                leak.block,
                leak.bytes,
                leak.jobs
            );
        }
        out
    }
}

/// Cost counters from one minimization: how much simulation the
/// snapshot-forked shrink actually paid for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinimizeStats {
    /// Candidate schedules simulated, the initial full run included.
    pub probes: u64,
    /// Total events simulated across the initial run and every probe. For
    /// forked probes only the suffix after the restore point counts — the
    /// shared prefix is paid once, during the run that took the snapshot.
    pub simulated_events: u64,
}

/// Extracts a panic payload's message for use as a violation string.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "run panicked".into())
}

/// Probes one candidate schedule by replaying it from `t = 0`: `Ok` when
/// every invariant holds, `Err` with the violation (and the finished
/// report, when the run survived to produce one — a mid-run panic from
/// per-event validation yields `None`). Also returns the number of events
/// the probe simulated, for [`MinimizeStats`].
#[allow(clippy::type_complexity)]
fn probe(
    cfg: &ChaosConfig,
    faults: &[(SimTime, Fault)],
) -> (Result<(), Box<(String, Option<ChaosReport>)>>, u64) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_chaos_with(cfg, faults.to_vec())
    }));
    match outcome {
        Ok(report) => {
            let events = report.metrics.events_processed;
            match report.check_invariants() {
                Ok(()) => (Ok(()), events),
                Err(violation) => (Err(Box::new((violation, Some(report)))), events),
            }
        }
        // A panicked replay's event count is unknown (the report never
        // materialized); count it as zero.
        Err(panic) => (Err(Box::new((panic_message(panic.as_ref()), None))), 0),
    }
}

/// Everything needed to branch a probe from the instant just before one
/// fault injection fires: the world snapshot, plus the flight-recorder
/// stream up to that instant (snapshots deliberately exclude emitted
/// telemetry, so the prefix rides alongside).
struct InjectSnapshot {
    snap: WorldSnapshot,
    prefix: Vec<EventRecord>,
    prefix_dropped: u64,
}

/// Runs `world` to completion, capturing an [`InjectSnapshot`] just before
/// every [`Event::Inject`](crate::world::Event) pops. `recorder` must be
/// the world's current telemetry sink and `prefix`/`prefix_dropped` the
/// stream it does *not* contain (empty for a from-scratch run; the restore
/// point's stream when continuing a fork). Returns the captured snapshots
/// as `(fault index, snapshot)` pairs and the finalized metrics.
fn run_capturing_snapshots(
    world: &mut World,
    recorder: &FlightRecorder,
    prefix: &[EventRecord],
    prefix_dropped: u64,
    captured: &mut Vec<(usize, InjectSnapshot)>,
) -> RunMetrics {
    while let Some(idx) = world.run_until_next_inject() {
        let mut stream = prefix.to_vec();
        stream.extend(recorder.events());
        captured.push((
            idx,
            InjectSnapshot {
                snap: world.snapshot(),
                prefix: stream,
                prefix_dropped: prefix_dropped + recorder.dropped(),
            },
        ));
        world.step();
    }
    world.finalize_mut()
}

/// Shrinks a failing seed's fault schedule to a 1-minimal reproducer,
/// forking each probe from a snapshot instead of replaying from `t = 0`.
///
/// Returns `None` when the seed's full schedule passes its invariants.
/// Otherwise repeatedly tries dropping each fault; any drop that still
/// fails is kept, until no single removal preserves the violation.
///
/// The initial run captures a [`World::snapshot`] just before every fault
/// injection. To probe "what if fault *k* never fired", the minimizer
/// restores the snapshot taken just before injection *k*, marks *k* (and
/// every previously dropped fault) suppressed, and simulates only the
/// suffix — the prefix up to *k* is byte-identical across the candidate
/// and its parent run, so re-simulating it would be pure waste. Snapshot
/// equivalence (see `DESIGN.md` §13) guarantees the forked probe's event
/// stream, metrics and fingerprint match a from-scratch replay of the
/// candidate schedule, so this produces the same minimal schedule as
/// replaying every candidate from `t = 0` while simulating strictly fewer
/// events.
/// The shrink is deterministic — candidates are probed in order.
pub fn minimize_faults(cfg: &ChaosConfig) -> Option<MinimizedSchedule> {
    minimize_faults_with_stats(cfg).0
}

/// [`minimize_faults`] plus the probe-cost counters.
///
/// A forked probe's event cost is the suffix it actually simulated; note
/// that a suppressed fault's `Inject` event still pops (inertly) so the
/// forked path's `RunMetrics::events_processed` can exceed a replay's by
/// the number of dropped faults, even though fewer events were *simulated*.
///
/// # Panics
///
/// Panics if the generated fault plan is not sorted by injection time
/// (the generator always sorts; the fork bookkeeping relies on it).
pub fn minimize_faults_with_stats(cfg: &ChaosConfig) -> (Option<MinimizedSchedule>, MinimizeStats) {
    let mut stats = MinimizeStats::default();
    let full_faults = seeded_faults(cfg);
    // Index order must equal injection order: snapshots taken before
    // injection j stay valid when a *later* fault is dropped, and "later"
    // is tracked by index. Sorted times guarantee it (ties pop in
    // scheduling = index order).
    assert!(
        full_faults.windows(2).all(|w| w[0].0 <= w[1].0),
        "fault plan must be sorted by injection time"
    );
    let total_faults = full_faults.len();

    // The initial full run, capturing a snapshot before every injection.
    let (mut world, recorder, total_plans) = build_chaos_world(cfg, full_faults.clone());
    let mut captured = Vec::new();
    let metrics = run_capturing_snapshots(&mut world, &recorder, &[], 0, &mut captured);
    stats.probes = 1;
    stats.simulated_events = metrics.events_processed;
    let mut snaps: Vec<Option<InjectSnapshot>> = (0..total_faults).map(|_| None).collect();
    for (idx, snap) in captured {
        snaps[idx] = Some(snap);
    }
    let full_report = ChaosReport::new(
        full_faults.clone(),
        total_plans,
        metrics,
        recorder.events(),
        recorder.dropped(),
    );
    let mut violation = match full_report.check_invariants() {
        Ok(()) => return (None, stats),
        Err(v) => v,
    };
    let mut report = full_report;

    // Greedy 1-minimal shrink. `dropped[j]` marks faults removed from the
    // accepted schedule; `active` is the remaining candidate set in
    // injection order.
    let mut dropped = vec![false; total_faults];
    let mut active: Vec<usize> = (0..total_faults).collect();
    let mut shrunk = true;
    while shrunk && !active.is_empty() {
        shrunk = false;
        for pos in 0..active.len() {
            let k = active[pos];
            stats.probes += 1;
            let accept = if snaps[k].is_some() {
                fork_probe(
                    &full_faults,
                    &dropped,
                    k,
                    &mut world,
                    &mut snaps,
                    total_plans,
                    &mut stats,
                )
            } else {
                // The accepted run panicked before injection k ever fired
                // (so no snapshot exists for it); fall back to a full
                // replay of the candidate.
                let candidate = candidate_faults(&full_faults, &dropped, k);
                let (verdict, events) = probe(cfg, &candidate);
                stats.simulated_events += events;
                match verdict {
                    Ok(()) => None,
                    Err(err) => {
                        let (v, r) = *err;
                        Some((v, r))
                    }
                }
            };
            if let Some((v, r)) = accept {
                violation = v;
                if let Some(r) = r {
                    report = r;
                }
                dropped[k] = true;
                active.remove(pos);
                // Snapshots taken before a *later* injection baked in the
                // old schedule's suffix behaviour only if the probe that
                // refreshed them was accepted — fork_probe handles the
                // refresh; the replay fallback leaves them stale, so
                // invalidate.
                if snaps[k].is_none() {
                    for entry in snaps.iter_mut().skip(k + 1) {
                        *entry = None;
                    }
                }
                shrunk = true;
                break;
            }
        }
    }
    (
        Some(MinimizedSchedule {
            seed: cfg.seed,
            faults: candidate_faults(&full_faults, &dropped, usize::MAX),
            violation,
            report,
        }),
        stats,
    )
}

/// The schedule that remains after removing `dropped` faults and fault
/// `extra` (pass `usize::MAX` for "none") from the full plan, in
/// injection order.
fn candidate_faults(
    full: &[(SimTime, Fault)],
    dropped: &[bool],
    extra: usize,
) -> Vec<(SimTime, Fault)> {
    full.iter()
        .enumerate()
        .filter(|(j, _)| !dropped[*j] && *j != extra)
        .map(|(_, f)| f.clone())
        .collect()
}

/// Probes "current schedule minus fault `k`" by restoring the snapshot
/// taken just before injection `k` and simulating only the suffix with
/// `k` suppressed. Returns `Some((violation, report))` when the candidate
/// still fails (accept the drop), `None` when it passes (keep fault `k`).
///
/// On acceptance the snapshots captured during this continuation replace
/// the stale ones for later injections — their histories now reflect the
/// new schedule — and any later snapshot the continuation never reached
/// (mid-run panic) is invalidated.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn fork_probe(
    full_faults: &[(SimTime, Fault)],
    dropped: &[bool],
    k: usize,
    world: &mut World,
    snaps: &mut [Option<InjectSnapshot>],
    total_plans: usize,
    stats: &mut MinimizeStats,
) -> Option<(String, Option<ChaosReport>)> {
    let Some(entry) = snaps[k].as_ref() else {
        // The caller dispatches here only when a snapshot exists; if one
        // ever goes missing, treat fault k as load-bearing (keep it)
        // rather than panicking mid-minimization.
        return None;
    };
    world.restore(&entry.snap);
    let (prefix, prefix_dropped) = (entry.prefix.clone(), entry.prefix_dropped);
    for (d, was_dropped) in dropped.iter().enumerate() {
        if *was_dropped || d == k {
            world.suppress_fault(d);
        }
    }
    let fork_rec = FlightRecorder::new(1 << 20);
    world.swap_recorder(Box::new(fork_rec.clone()));
    let start_events = world.events_processed();
    let mut captured = Vec::new();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_capturing_snapshots(world, &fork_rec, &prefix, prefix_dropped, &mut captured)
    }));
    stats.simulated_events += world.events_processed() - start_events;
    let accept = match outcome {
        Ok(metrics) => {
            let candidate = candidate_faults(full_faults, dropped, k);
            let mut events = prefix;
            events.extend(fork_rec.events());
            let cand_report = ChaosReport::new(
                candidate,
                total_plans,
                metrics,
                events,
                prefix_dropped + fork_rec.dropped(),
            );
            match cand_report.check_invariants() {
                Ok(()) => None,
                Err(v) => Some((v, Some(cand_report))),
            }
        }
        Err(panic) => Some((panic_message(panic.as_ref()), None)),
    };
    if accept.is_some() {
        // The continuation's history *is* the new accepted schedule:
        // refresh every later snapshot it reached, drop the rest. Earlier
        // snapshots (index < k) predate the divergence and stay valid.
        for entry in snaps.iter_mut().skip(k + 1) {
            *entry = None;
        }
        for (idx, snap) in captured {
            snaps[idx] = Some(snap);
        }
    }
    accept
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_generator_respects_budgets() {
        for seed in 0..32 {
            let mut rng = SimRng::new(seed);
            let faults = generate_faults(&mut rng, 6, 3, 4, 10, 0);
            assert_eq!(faults.len(), 10);
            let node_fails: Vec<_> = faults
                .iter()
                .filter(|(_, f)| matches!(f, Fault::NodeFail(_)))
                .collect();
            assert!(node_fails.len() <= 2, "too many node failures");
            let kills = faults
                .iter()
                .filter(|(_, f)| matches!(f, Fault::KillPlan(_)))
                .count();
            assert!(kills <= 1, "too many plan kills");
            assert!(faults.windows(2).all(|w| w[0].0 <= w[1].0), "unsorted");
        }
    }

    #[test]
    fn crash_draws_leave_base_plan_unchanged() {
        // Zero-cost-when-unused: enabling crashes must only *append*
        // draws — the base fault sequence is bit-identical either way.
        for seed in 0..8 {
            let mut a = SimRng::new(seed);
            let base = generate_faults(&mut a, 6, 3, 4, 10, 0);
            let mut b = SimRng::new(seed);
            let with = generate_faults(&mut b, 6, 3, 4, 10, 3);
            let crashes = with
                .iter()
                .filter(|(_, f)| matches!(f, Fault::NodeCrash(..)))
                .count();
            assert_eq!(crashes, 3);
            let without: Vec<_> = with
                .iter()
                .filter(|(_, f)| !matches!(f, Fault::NodeCrash(..)))
                .cloned()
                .collect();
            assert_eq!(without, base);
        }
    }

    #[test]
    fn fingerprint_distinguishes_metrics() {
        let mut a = RunMetrics::default();
        let b = RunMetrics::default();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        a.rereplicated = 1;
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn workload_is_deterministic() {
        let (f1, p1) = workload(3);
        let (f2, p2) = workload(3);
        assert_eq!(f1, f2);
        assert_eq!(p1.len(), p2.len());
        assert!(p1.iter().zip(&p2).all(|(a, b)| a.name == b.name));
    }
}
