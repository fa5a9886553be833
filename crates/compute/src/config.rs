//! Compute-framework configuration and the platform's fixed constants.
//!
//! The constants match the paper's platform description: a ~1 s per-task
//! launch overhead (container start + JVM warm-up, §II-C1's "shipping
//! binaries … and JVM warm-up costs"), 12 task slots per node (the
//! testbed's Xeon E5-1650 exposes 12 hyperthreads), and the submitter and
//! ApplicationMaster start-up delays that §II-C counts as lead-time.

use ignem_simcore::time::SimDuration;

/// Task slots per node: one per hyperthread of the testbed's Xeon E5-1650.
pub const SLOTS_PER_NODE: usize = 12;

/// Fixed overhead between slot assignment and the task's first byte of
/// input IO (container start + JVM warm-up).
pub const TASK_LAUNCH_OVERHEAD: SimDuration = SimDuration::from_millis(1000);

/// Fixed overhead the job-submitter spends before the job is queued
/// (client-side planning, RPC round-trips).
pub const SUBMIT_OVERHEAD: SimDuration = SimDuration::from_millis(500);

/// ApplicationMaster startup: the time between the job being queued at
/// the ResourceManager and its tasks becoming schedulable (AM container
/// allocation + Tez DAG setup). A large, fixed part of every job's
/// duration — and additional lead-time Ignem exploits.
pub const AM_OVERHEAD: SimDuration = SimDuration::from_secs(5);

/// Scheduler parameters that experiments vary: the heartbeat and jitter
/// ablations set them. The default heartbeat is Hadoop/YARN's 3 seconds
/// (§II-C1: "the default heartbeat interval in Hadoop is 3 seconds").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeConfig {
    /// Node → ResourceManager heartbeat interval; tasks are only assigned
    /// on heartbeats, a principal source of lead-time.
    pub heartbeat: SimDuration,
    /// Log-sigma of per-task compute-time jitter (0 = deterministic
    /// compute). Models heterogeneous task service times — the straggler
    /// effect the cluster literature studies. The multiplier is a
    /// mean-one log-normal, so expected compute cost is unchanged.
    pub compute_jitter_sigma: f64,
}

impl Default for ComputeConfig {
    fn default() -> Self {
        ComputeConfig {
            heartbeat: SimDuration::from_secs(3),
            compute_jitter_sigma: 0.0,
        }
    }
}

impl ComputeConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on a zero heartbeat or a negative or non-finite jitter.
    pub fn validate(&self) {
        assert!(!self.heartbeat.is_zero(), "zero heartbeat interval");
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
