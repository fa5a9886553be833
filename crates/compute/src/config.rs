//! Compute-framework configuration.

use ignem_simcore::time::SimDuration;

/// Scheduler and task-runtime parameters.
///
/// Defaults match the paper's platform description: Hadoop/YARN's 3-second
/// heartbeat interval (§II-C1: "the default heartbeat interval in Hadoop is
/// 3 seconds"), a ~1 s per-task launch overhead (container start + JVM
/// warm-up, §II-C1's "shipping binaries … and JVM warm-up costs"), and 12
/// task slots per node (the testbed's Xeon E5-1650 exposes 12 hyperthreads).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeConfig {
    /// Node → ResourceManager heartbeat interval; tasks are only assigned
    /// on heartbeats, a principal source of lead-time.
    pub heartbeat: SimDuration,
    /// Task slots per node.
    pub slots_per_node: usize,
    /// Fixed overhead between slot assignment and the task's first byte of
    /// input IO.
    pub task_launch_overhead: SimDuration,
    /// Fixed overhead the job-submitter spends before the job is queued
    /// (client-side planning, RPC round-trips).
    pub submit_overhead: SimDuration,
    /// Log-sigma of per-task compute-time jitter (0 = deterministic
    /// compute). Models heterogeneous task service times — the straggler
    /// effect the cluster literature studies. The multiplier is a
    /// mean-one log-normal, so expected compute cost is unchanged.
    pub compute_jitter_sigma: f64,
    /// ApplicationMaster startup: the time between the job being queued at
    /// the ResourceManager and its tasks becoming schedulable (AM container
    /// allocation + Tez DAG setup). A large, fixed part of every job's
    /// duration — and additional lead-time Ignem exploits.
    pub am_overhead: SimDuration,
}

impl Default for ComputeConfig {
    fn default() -> Self {
        ComputeConfig {
            heartbeat: SimDuration::from_secs(3),
            slots_per_node: 12,
            task_launch_overhead: SimDuration::from_millis(1000),
            submit_overhead: SimDuration::from_millis(500),
            compute_jitter_sigma: 0.0,
            am_overhead: SimDuration::from_secs(5),
        }
    }
}

impl ComputeConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on a zero heartbeat or zero slots.
    pub fn validate(&self) {
        assert!(!self.heartbeat.is_zero(), "zero heartbeat interval");
        assert!(self.slots_per_node > 0, "zero slots per node");
        assert!(
            self.compute_jitter_sigma.is_finite() && self.compute_jitter_sigma >= 0.0,
            "bad jitter sigma"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ComputeConfig::default();
        c.validate();
        assert_eq!(c.heartbeat.as_secs_f64(), 3.0);
        assert_eq!(c.slots_per_node, 12);
    }

    #[test]
    #[should_panic(expected = "zero heartbeat")]
    fn zero_heartbeat_rejected() {
        ComputeConfig {
            heartbeat: SimDuration::ZERO,
            ..ComputeConfig::default()
        }
        .validate();
    }
}
