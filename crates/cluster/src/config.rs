//! Cluster configuration: the paper's 8-node testbed by default.

use ignem_compute::config::ComputeConfig;
use ignem_core::master::MasterConfig;
use ignem_core::slave::IgnemConfig;
use ignem_dfs::namenode::DfsConfig;
use ignem_netsim::rpc::RpcConfig;
use ignem_storage::device::DeviceProfile;

/// Which file-system configuration an experiment runs under (paper §IV-A):
/// plain HDFS, HDFS with all inputs force-locked in RAM via vmtouch (the
/// upper bound), or HDFS + Ignem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsMode {
    /// Default HDFS: cold inputs are read from disk.
    Hdfs,
    /// *HDFS-Inputs-in-RAM*: every input replica pinned in memory before
    /// the workload starts (vmtouch) — the speedup upper bound.
    HdfsInputsInRam,
    /// HDFS extended with Ignem migration.
    Ignem,
}

impl std::fmt::Display for FsMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsMode::Hdfs => write!(f, "HDFS"),
            FsMode::HdfsInputsInRam => write!(f, "HDFS-Inputs-in-RAM"),
            FsMode::Ignem => write!(f, "Ignem"),
        }
    }
}

/// Full cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of servers (paper: 8, every one a DataNode/slave).
    pub nodes: usize,
    /// The data disk on each server.
    pub disk: DeviceProfile,
    /// The memory read path (the mmap/short-circuit pipeline). A field,
    /// not a constant, because RAM bandwidth is one of the fitted device
    /// constants whose sensitivity the calibration study varies.
    pub ram: DeviceProfile,
    /// Control-plane RPC reliability (drop/duplicate/jitter). The default
    /// is perfectly reliable, so fault-free runs are unchanged.
    pub rpc: RpcConfig,
    /// DFS parameters (64 MB blocks, 3× replication). The chaos fault
    /// generator and the benchmark read the replication factor, and the
    /// DFS property tests vary it.
    pub dfs: DfsConfig,
    /// Ignem slave parameters.
    pub ignem: IgnemConfig,
    /// Ignem master parameters.
    pub master: MasterConfig,
    /// Scheduler parameters.
    pub compute: ComputeConfig,
    /// Retain disk-read blocks in the serving node's page cache with LRU
    /// eviction (a PACMan-style hot-data cache). Off by default — the paper
    /// flushes caches before runs; the `extension-caching` experiment turns
    /// it on to show why caching alone cannot help singly-read data.
    pub cache_reads: bool,
    /// Picks the heartbeat layout and nothing else: one chain per node
    /// (off, the paper-scale worlds and every pinned stream) or one
    /// rotating beat for the whole cluster per interval (on). Both run the
    /// same heartbeat handler. At 12k nodes per-node chains alone are
    /// ~10^10 events per simulated month; one group makes datacenter-scale
    /// runs feasible. The field stays only because the benchmark package
    /// sets it; it goes when that package no longer does.
    pub heartbeat_sweep: bool,
    /// Root seed: every run with the same seed and inputs is bit-identical.
    pub seed: u64,
}

impl Default for ClusterConfig {
    /// The paper's testbed: 8 servers, 1 HDD + 128 GB RAM + 10 GbE each,
    /// 64 MB blocks, 3× replication, 3 s heartbeats, 12 task slots per node
    /// (one per hyperthread of the Xeon E5-1650).
    fn default() -> Self {
        ClusterConfig {
            nodes: 8,
            disk: DeviceProfile::hdd(),
            ram: DeviceProfile::ram(),
            rpc: RpcConfig::default(),
            dfs: DfsConfig::default(),
            ignem: IgnemConfig::default(),
            master: MasterConfig::default(),
            compute: ComputeConfig::default(),
            cache_reads: false,
            heartbeat_sweep: false,
            seed: 0x16E3,
        }
    }
}

impl ClusterConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero nodes or an invalid part.
    pub fn validate(&self) {
        assert!(self.nodes > 0, "cluster needs nodes");
        self.rpc.validate();
        self.disk.validate();
        self.ram.validate();
        self.compute.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_testbed() {
        let c = ClusterConfig::default();
        c.validate();
        assert_eq!(c.nodes, 8);
        assert_eq!(c.dfs.replication, 3);
    }

    #[test]
    fn fs_mode_displays() {
        assert_eq!(FsMode::Hdfs.to_string(), "HDFS");
        assert_eq!(FsMode::HdfsInputsInRam.to_string(), "HDFS-Inputs-in-RAM");
        assert_eq!(FsMode::Ignem.to_string(), "Ignem");
    }
}
