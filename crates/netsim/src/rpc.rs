//! An unreliable control-plane RPC channel.
//!
//! The paper's Ignem master and slaves talk over ordinary datacenter RPC
//! (migrate batches, evict commands, liveness queries/replies). A real
//! network loses, delays and retransmits such messages; this module models
//! that as a per-message decision process, driven by a seeded
//! [`SimRng`](ignem_simcore::rng::SimRng) so every run is reproducible:
//!
//! * each message is **dropped** with a configurable probability;
//! * a delivered message is **duplicated** (delivered twice) with a
//!   configurable probability — modelling sender retransmission races;
//! * each delivered copy suffers an extra uniform **delay** on top of the
//!   caller's base RPC latency;
//! * a **partition** cuts a set of nodes off from the rest of the control
//!   plane until healed.
//!
//! The channel itself is passive: [`RpcChannel::deliveries`] returns the
//! extra delay of every copy to deliver (an empty vector means the message
//! was lost), and the caller schedules the deliveries on its own event
//! loop. The default configuration is perfectly reliable — one copy, zero
//! extra delay — so a fault-free simulation behaves exactly as if the
//! channel were not there.

use std::collections::{BTreeMap, BTreeSet};

use ignem_simcore::metrics::MetricsRegistry;
use ignem_simcore::rng::SimRng;
use ignem_simcore::telemetry::{Event, Peer, Telemetry};
use ignem_simcore::time::SimDuration;

use crate::NodeId;

/// A master incarnation number stamped onto every control-plane message.
///
/// The master bumps its epoch on every purge/failover; slaves remember the
/// highest epoch they have seen and reject commands stamped with an older
/// one (the sender's authority was revoked by the failover). This is the
/// wire-level half of the lease/epoch reference lifecycle: retransmissions
/// of a pre-failover send can survive arbitrarily long in the channel, so
/// freshness must travel *inside* the message, not be inferred from timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Epoch(pub u64);

impl Epoch {
    /// The first live epoch; no real message is ever stamped lower.
    pub const FIRST: Epoch = Epoch(1);

    /// The epoch after this one (a failover bump).
    #[must_use]
    pub fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }
}

impl std::fmt::Display for Epoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "epoch_{}", self.0)
    }
}

/// A slave incarnation number: which boot of a node's daemon is speaking.
///
/// The mirror image of [`Epoch`]: where epochs fence commands from a
/// *master* whose authority was revoked by a failover, incarnations fence
/// commands addressed to a *slave* process that has since crashed and
/// restarted. The master stamps every send with the incarnation it believes
/// the destination is running; a restarted slave (which bumped its own
/// incarnation and re-registered) rejects anything stamped older — a
/// retransmission aimed at the dead incarnation must not resurrect purged
/// reference-list state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Incarnation(pub u64);

impl Incarnation {
    /// The boot every node starts under; no message is ever stamped lower.
    pub const FIRST: Incarnation = Incarnation(1);

    /// The incarnation after a crash/restart cycle.
    #[must_use]
    pub fn next(self) -> Incarnation {
        Incarnation(self.0 + 1)
    }
}

impl std::fmt::Display for Incarnation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "incarnation_{}", self.0)
    }
}

/// One end of a control-plane RPC: the Ignem master (inside the NameNode)
/// or a slave daemon on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RpcPeer {
    /// The master/NameNode side.
    Master,
    /// The slave daemon on the given node.
    Slave(NodeId),
}

impl RpcPeer {
    /// Internal endpoint encoding; the master never collides with a real
    /// node id because `NodeId` is a dense small index in practice.
    fn encode(self) -> u32 {
        match self {
            RpcPeer::Master => u32::MAX,
            RpcPeer::Slave(n) => n.0,
        }
    }

    /// The telemetry-layer rendering of this endpoint.
    fn telemetry_peer(self) -> Peer {
        match self {
            RpcPeer::Master => Peer::Master,
            RpcPeer::Slave(n) => Peer::Node(n.0),
        }
    }
}

/// Channel configuration. The default is a perfectly reliable channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RpcConfig {
    /// Probability that a message is silently lost.
    pub drop_p: f64,
    /// Probability that a delivered message is delivered twice.
    pub dup_p: f64,
    /// Maximum extra delivery delay; each copy is delayed by an independent
    /// uniform sample from `[0, jitter]` on top of the base RPC latency.
    pub jitter: SimDuration,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            drop_p: 0.0,
            dup_p: 0.0,
            jitter: SimDuration::ZERO,
        }
    }
}

impl RpcConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if a probability is outside `[0, 1)` (a drop probability of
    /// exactly 1 would make every retry futile and no simulation could
    /// terminate) or not finite.
    pub fn validate(&self) {
        assert!(
            self.drop_p.is_finite() && (0.0..1.0).contains(&self.drop_p),
            "drop_p must be in [0, 1): {}",
            self.drop_p
        );
        assert!(
            self.dup_p.is_finite() && (0.0..1.0).contains(&self.dup_p),
            "dup_p must be in [0, 1): {}",
            self.dup_p
        );
    }
}

/// Counters describing what the channel did to the traffic offered to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RpcStats {
    /// Messages offered to the channel.
    pub sent: u64,
    /// Copies scheduled for delivery (≥ `sent - dropped - cut`).
    pub delivered: u64,
    /// Messages lost to random drop.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages lost to an active partition.
    pub cut: u64,
}

/// The unreliable channel (see module docs).
#[derive(Debug, Clone)]
pub struct RpcChannel {
    config: RpcConfig,
    /// Active partitions: id → set of cut-off endpoints. A message is lost
    /// when exactly one of its endpoints is inside a partition set.
    partitions: BTreeMap<usize, BTreeSet<u32>>,
    stats: RpcStats,
    /// Typed event emission (disabled by default; consumes no randomness).
    telemetry: Telemetry,
    /// Sim-time metrics (disabled by default; consumes no randomness).
    metrics: MetricsRegistry,
}

impl RpcChannel {
    /// Creates a channel.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`RpcConfig::validate`]).
    pub fn new(config: RpcConfig) -> Self {
        config.validate();
        RpcChannel {
            config,
            partitions: BTreeMap::new(),
            stats: RpcStats::default(),
            telemetry: Telemetry::default(),
            metrics: MetricsRegistry::default(),
        }
    }

    /// Installs a telemetry handle; the channel then emits
    /// [`Event::RpcSent`] / [`Event::RpcDropped`] / [`Event::RpcDuplicated`]
    /// / [`Event::RpcCut`] as it decides each message's fate.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Installs a sim-time metrics handle; the channel then counts sends,
    /// drops and duplicates and histograms the extra jitter it injects.
    /// Recording consumes no randomness and never perturbs message fate.
    pub fn set_metrics(&mut self, metrics: MetricsRegistry) {
        self.metrics = metrics;
    }

    /// The channel configuration.
    pub fn config(&self) -> &RpcConfig {
        &self.config
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> RpcStats {
        self.stats
    }

    /// Starts a partition cutting `nodes` off from the rest of the control
    /// plane (including the master) until [`heal`](Self::heal) is called
    /// with the same `id`. Messages *among* the cut-off nodes still flow.
    /// Replacing an existing id's set is allowed.
    pub fn partition(&mut self, id: usize, nodes: &[NodeId]) {
        self.partitions
            .insert(id, nodes.iter().map(|n| n.0).collect());
    }

    /// Heals the partition registered under `id` (no-op if unknown).
    pub fn heal(&mut self, id: usize) {
        self.partitions.remove(&id);
    }

    /// The active partitions as `(id, cut-off node set)` pairs, ascending
    /// by id. The time-travel debugger renders these; the sets are copied
    /// so callers need no access to the channel's internal containers.
    pub fn active_partitions(&self) -> Vec<(usize, Vec<u32>)> {
        self.partitions
            .iter()
            .map(|(id, set)| (*id, set.iter().copied().collect()))
            .collect()
    }

    /// Whether any active partition separates the two peers.
    pub fn is_cut(&self, from: RpcPeer, to: RpcPeer) -> bool {
        let (a, b) = (from.encode(), to.encode());
        self.partitions
            .values()
            .any(|set| set.contains(&a) != set.contains(&b))
    }

    /// Decides the fate of one message from `from` to `to`: the returned
    /// set holds the **extra** delay of each copy to deliver on top of
    /// the caller's base RPC latency. Empty means the message was lost
    /// (dropped or partitioned); two entries mean it was duplicated.
    ///
    /// With the default (reliable) configuration and no partitions this
    /// returns a single zero-delay copy without consuming any randomness,
    /// so a fault-free run is bit-identical to one without the channel.
    pub fn deliveries(&mut self, rng: &mut SimRng, from: RpcPeer, to: RpcPeer) -> Deliveries {
        self.stats.sent += 1;
        self.telemetry.emit(|| Event::RpcSent {
            from: from.telemetry_peer(),
            to: to.telemetry_peer(),
        });
        self.metrics.counter_add("rpc_sent", 0, 1);
        if self.is_cut(from, to) {
            self.stats.cut += 1;
            self.telemetry.emit(|| Event::RpcCut {
                from: from.telemetry_peer(),
                to: to.telemetry_peer(),
            });
            self.metrics.counter_add("rpc_cut", 0, 1);
            return Deliveries::default();
        }
        let drop_p = self.config.drop_p;
        if drop_p <= 0.0 && self.config.dup_p <= 0.0 && self.config.jitter.is_zero() {
            self.stats.delivered += 1;
            return Deliveries::one(SimDuration::ZERO);
        }
        if rng.uniform() < drop_p {
            self.stats.dropped += 1;
            self.telemetry.emit(|| Event::RpcDropped {
                from: from.telemetry_peer(),
                to: to.telemetry_peer(),
            });
            self.metrics.counter_add("rpc_dropped", 0, 1);
            return Deliveries::default();
        }
        let copies = if self.config.dup_p > 0.0 && rng.uniform() < self.config.dup_p {
            self.stats.duplicated += 1;
            self.telemetry.emit(|| Event::RpcDuplicated {
                from: from.telemetry_peer(),
                to: to.telemetry_peer(),
            });
            self.metrics.counter_add("rpc_duplicated", 0, 1);
            2
        } else {
            1
        };
        let jitter = self.config.jitter.as_secs_f64();
        let mut out = Deliveries::default();
        for _ in 0..copies {
            self.stats.delivered += 1;
            let delay = if jitter > 0.0 {
                SimDuration::from_secs_f64(rng.uniform() * jitter)
            } else {
                SimDuration::ZERO
            };
            self.metrics.observe("rpc_jitter_us", 0, delay.as_micros());
            out.push(delay);
        }
        out
    }
}

/// Outcome of [`RpcChannel::deliveries`]: zero (lost), one, or two
/// (duplicated) extra delivery delays, stored inline so the reliable
/// per-message fast path never touches the heap.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Deliveries {
    buf: [SimDuration; 2],
    len: u8,
}

impl Deliveries {
    fn one(d: SimDuration) -> Deliveries {
        Deliveries {
            buf: [d, SimDuration::ZERO],
            len: 1,
        }
    }

    fn push(&mut self, d: SimDuration) {
        self.buf[self.len as usize] = d;
        self.len += 1;
    }

    /// Number of copies to deliver (0 = message lost).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the message was lost entirely.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The delays as a slice, in generation order.
    pub fn as_slice(&self) -> &[SimDuration] {
        &self.buf[..self.len as usize]
    }
}

impl IntoIterator for Deliveries {
    type Item = SimDuration;
    type IntoIter = std::iter::Take<std::array::IntoIter<SimDuration, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.buf.into_iter().take(self.len as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> RpcPeer {
        RpcPeer::Slave(NodeId(i))
    }

    #[test]
    fn reliable_default_delivers_one_copy_without_randomness() {
        let mut ch = RpcChannel::new(RpcConfig::default());
        let mut rng = SimRng::new(1);
        let before = rng.clone();
        for _ in 0..100 {
            assert_eq!(
                ch.deliveries(&mut rng, RpcPeer::Master, n(3)).as_slice(),
                [SimDuration::ZERO]
            );
        }
        assert_eq!(rng, before, "reliable path must not consume randomness");
        assert_eq!(ch.stats().sent, 100);
        assert_eq!(ch.stats().delivered, 100);
    }

    #[test]
    fn drop_probability_loses_roughly_that_fraction() {
        let mut ch = RpcChannel::new(RpcConfig {
            drop_p: 0.3,
            ..RpcConfig::default()
        });
        let mut rng = SimRng::new(2);
        for _ in 0..10_000 {
            ch.deliveries(&mut rng, RpcPeer::Master, n(1));
        }
        let frac = ch.stats().dropped as f64 / ch.stats().sent as f64;
        assert!((frac - 0.3).abs() < 0.02, "drop fraction {frac}");
    }

    #[test]
    fn duplication_delivers_two_copies() {
        let mut ch = RpcChannel::new(RpcConfig {
            dup_p: 0.5,
            ..RpcConfig::default()
        });
        let mut rng = SimRng::new(3);
        let mut doubles = 0;
        for _ in 0..1_000 {
            let d = ch.deliveries(&mut rng, n(0), RpcPeer::Master);
            assert!(!d.is_empty());
            if d.len() == 2 {
                doubles += 1;
            }
        }
        assert!(doubles > 400 && doubles < 600, "doubles {doubles}");
        assert_eq!(ch.stats().duplicated, doubles);
    }

    #[test]
    fn jitter_bounds_extra_delay() {
        let jitter = SimDuration::from_millis(50);
        let mut ch = RpcChannel::new(RpcConfig {
            jitter,
            ..RpcConfig::default()
        });
        let mut rng = SimRng::new(4);
        for _ in 0..1_000 {
            for d in ch.deliveries(&mut rng, RpcPeer::Master, n(2)) {
                assert!(d <= jitter);
            }
        }
    }

    #[test]
    fn partition_cuts_only_across_the_boundary() {
        let mut ch = RpcChannel::new(RpcConfig::default());
        ch.partition(0, &[NodeId(1), NodeId(2)]);
        let mut rng = SimRng::new(6);
        // Across the cut: lost, both directions, master included.
        assert!(ch.deliveries(&mut rng, RpcPeer::Master, n(1)).is_empty());
        assert!(ch.deliveries(&mut rng, n(2), RpcPeer::Master).is_empty());
        assert!(ch.deliveries(&mut rng, n(1), n(3)).is_empty());
        // Within a side: flows.
        assert!(!ch.deliveries(&mut rng, n(1), n(2)).is_empty());
        assert!(!ch.deliveries(&mut rng, RpcPeer::Master, n(3)).is_empty());
        assert_eq!(ch.stats().cut, 3);
        ch.heal(0);
        assert!(!ch.deliveries(&mut rng, RpcPeer::Master, n(1)).is_empty());
    }

    #[test]
    fn overlapping_partitions_heal_independently() {
        let mut ch = RpcChannel::new(RpcConfig::default());
        ch.partition(0, &[NodeId(1)]);
        ch.partition(1, &[NodeId(1), NodeId(2)]);
        assert!(ch.is_cut(RpcPeer::Master, n(2)));
        ch.heal(1);
        assert!(!ch.is_cut(RpcPeer::Master, n(2)));
        assert!(ch.is_cut(RpcPeer::Master, n(1)));
        ch.heal(0);
        assert!(!ch.is_cut(RpcPeer::Master, n(1)));
    }

    #[test]
    fn same_seed_same_fate() {
        let cfg = RpcConfig {
            drop_p: 0.2,
            dup_p: 0.1,
            jitter: SimDuration::from_millis(10),
        };
        let run = |seed| {
            let mut ch = RpcChannel::new(cfg);
            let mut rng = SimRng::new(seed);
            (0..500)
                .flat_map(|_| ch.deliveries(&mut rng, RpcPeer::Master, n(1)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    #[should_panic(expected = "drop_p must be in [0, 1)")]
    fn certain_loss_rejected() {
        RpcChannel::new(RpcConfig {
            drop_p: 1.0,
            ..RpcConfig::default()
        });
    }
}
