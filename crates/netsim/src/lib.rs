//! # ignem-netsim — cluster network fabric
//!
//! A deliberately simple network model, matching the paper's observation
//! (§III-A2, citing Flat Datacenter Storage) that *network bandwidth is not
//! a bottleneck in current data centres*: a non-blocking core connects
//! per-node NICs, so a transfer is limited only by its **receiver's NIC
//! share** (the receiver is the hot spot for fan-in shuffle traffic and
//! remote block reads, the only flows the simulation routes over the
//! network). Every RPC costs a fixed small latency.
//!
//! The fabric is engine-agnostic like every substrate: drive it with
//! [`Fabric::advance`] / [`Fabric::next_event`].
//!
//! Both calls cost O(busy NICs), not O(cluster size): the fabric keeps the
//! list of NICs that carry at least one flow and never touches an idle
//! one. An idle NIC's clock may lag; the next flow added to it catches
//! the clock up in one step that moves no bytes, so skipping it is exact.
//! A busy NIC, in contrast, is advanced on every [`Fabric::advance`] even
//! when nothing on it completes, because splitting its progress into
//! different steps would round the remaining bytes differently.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rpc;

use ignem_simcore::flow::{FlowId, FlowResource};
use ignem_simcore::idmap::{DenseId, IdMap};
use ignem_simcore::time::{SimDuration, SimTime};

/// Identifies a server in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl DenseId for NodeId {
    fn index(self) -> usize {
        self.0 as usize
    }

    fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Identifies a network transfer. Caller-assigned; unique among in-flight
/// transfers, and (like [`FlowId`]) concurrently live ids should stay
/// numerically close — a monotone counter is ideal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransferId(pub u64);

impl DenseId for TransferId {
    fn index(self) -> usize {
        self.0 as usize
    }

    fn from_index(index: usize) -> Self {
        TransferId(index as u64)
    }
}

/// A finished network transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferDone {
    /// The transfer's id.
    pub id: TransferId,
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Payload size.
    pub bytes: u64,
    /// Submission time.
    pub started: SimTime,
    /// Completion time.
    pub finished: SimTime,
}

impl TransferDone {
    /// End-to-end duration.
    pub fn duration(&self) -> SimDuration {
        self.finished.duration_since(self.started)
    }
}

#[derive(Debug, Clone, Copy)]
struct Inflight {
    from: NodeId,
    to: NodeId,
    bytes: u64,
    started: SimTime,
}

/// Configuration of the fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// Per-NIC bandwidth in bytes/s (the paper's testbed: 10 Gbps).
    pub nic_bandwidth: f64,
    /// One-way latency charged to each transfer and RPC.
    pub latency: SimDuration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            nic_bandwidth: 10e9 / 8.0, // 10 Gbps in bytes/s
            latency: SimDuration::from_micros(300),
        }
    }
}

/// The cluster network (see crate docs).
///
/// ```
/// use ignem_netsim::{Fabric, NetConfig, NodeId, TransferId};
/// use ignem_simcore::time::SimTime;
///
/// let mut net = Fabric::new(4, NetConfig::default());
/// net.start(SimTime::ZERO, TransferId(1), NodeId(0), NodeId(1), 125_000_000);
/// let mut done = vec![];
/// while let Some(t) = net.next_event() {
///     done.extend(net.advance(t));
/// }
/// // 125 MB over a 1.25 GB/s NIC: ~0.1 s + latency.
/// assert!((done[0].duration().as_secs_f64() - 0.1003).abs() < 1e-3);
/// ```
#[derive(Debug, Clone)]
pub struct Fabric {
    config: NetConfig,
    downlinks: Vec<FlowResource>,
    inflight: IdMap<TransferId, Inflight>,
    /// Indices of the downlinks with at least one active flow, in no
    /// particular order; every other downlink is idle.
    busy: Vec<u32>,
}

impl Fabric {
    /// Creates a fabric connecting `nodes` servers.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or the bandwidth is not positive.
    pub fn new(nodes: usize, config: NetConfig) -> Self {
        assert!(nodes > 0, "fabric needs at least one node");
        assert!(
            config.nic_bandwidth.is_finite() && config.nic_bandwidth > 0.0,
            "bad NIC bandwidth"
        );
        Fabric {
            config,
            downlinks: (0..nodes)
                .map(|_| FlowResource::new(config.nic_bandwidth, 0.0))
                .collect(),
            inflight: IdMap::new(),
            busy: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.downlinks.len()
    }

    /// The one-way RPC latency (applies to control messages).
    pub fn rpc_latency(&self) -> SimDuration {
        self.config.latency
    }

    /// Number of in-flight transfers.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Number of NICs carrying at least one in-flight transfer: the size
    /// that [`advance`](Self::advance) and [`next_event`](Self::next_event)
    /// scale with.
    pub fn busy_nics(&self) -> usize {
        self.busy.len()
    }

    /// Starts a transfer of `bytes` from `from` to `to`. Propagation latency
    /// is modelled as an initial quiet period on the receiver NIC.
    /// Returns transfers that completed while advancing to `now`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown node, a duplicate id, zero bytes, or a
    /// self-transfer (local data never crosses the network).
    pub fn start(
        &mut self,
        now: SimTime,
        id: TransferId,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    ) -> Vec<TransferDone> {
        assert!(bytes > 0, "zero-byte transfer");
        assert!(from != to, "self-transfer should be served locally");
        assert!(
            (from.0 as usize) < self.nodes() && (to.0 as usize) < self.nodes(),
            "unknown node"
        );
        assert!(!self.inflight.contains_key(&id), "duplicate transfer id");
        self.inflight.insert(
            id,
            Inflight {
                from,
                to,
                bytes,
                started: now,
            },
        );
        let nic = &mut self.downlinks[to.0 as usize];
        if nic.active() == 0 {
            self.busy.push(to.0);
        }
        // Latency as a "seek" on the receiver NIC; it does not consume
        // bandwidth share (degradation is 0 so seeking flows are harmless).
        let done = nic.add(now, FlowId(id.0), bytes as f64, self.config.latency);
        collect(&mut self.inflight, nic.clock(), done)
    }

    /// Cancels an in-flight transfer; no completion is reported for it,
    /// even if it finished before `now` and no [`advance`](Self::advance)
    /// has reported it yet. Unknown ids are ignored.
    pub fn cancel(&mut self, now: SimTime, id: TransferId) -> Vec<TransferDone> {
        let Some(info) = self.inflight.remove(&id) else {
            return Vec::new();
        };
        let nic = &mut self.downlinks[info.to.0 as usize];
        let mut done = nic.cancel(now, FlowId(id.0));
        done.retain(|&f| f != FlowId(id.0));
        if nic.active() == 0 {
            self.busy.retain(|&i| i != info.to.0);
        }
        collect(&mut self.inflight, nic.clock(), done)
    }

    /// Earliest instant any transfer state changes, or `None` if idle.
    pub fn next_event(&self) -> Option<SimTime> {
        self.busy
            .iter()
            .filter_map(|&i| self.downlinks[i as usize].next_event())
            .min()
    }

    /// Advances every busy NIC to `now` (NICs whose internal clock is
    /// already past `now` — e.g. because a transfer started on them later —
    /// are left untouched), returning finished transfers. Idle NICs are
    /// skipped (see the crate docs).
    pub fn advance(&mut self, now: SimTime) -> Vec<TransferDone> {
        let mut out = Vec::new();
        let Fabric {
            downlinks,
            inflight,
            busy,
            ..
        } = self;
        busy.retain(|&i| {
            let nic = &mut downlinks[i as usize];
            let done = nic.advance(now.max(nic.clock()));
            out.extend(collect(inflight, nic.clock(), done));
            nic.active() > 0
        });
        out.sort_by_key(|t| (t.finished, t.id));
        out
    }
}

/// Retires the transfers behind `flows`, which finished on one NIC whose
/// clock reads `finished`. Every flow on a NIC has an in-flight entry
/// until it is collected or cancelled, so none is skipped.
fn collect(
    inflight: &mut IdMap<TransferId, Inflight>,
    finished: SimTime,
    flows: Vec<FlowId>,
) -> Vec<TransferDone> {
    flows
        .into_iter()
        .filter_map(|fid| {
            let id = TransferId(fid.0);
            let info = inflight.remove(&id)?;
            Some(TransferDone {
                id,
                from: info.from,
                to: info.to,
                bytes: info.bytes,
                started: info.started,
                finished,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ignem_simcore::units::MB;

    fn drain(net: &mut Fabric) -> Vec<TransferDone> {
        let mut all = Vec::new();
        let mut guard = 0;
        while let Some(t) = net.next_event() {
            all.extend(net.advance(t));
            guard += 1;
            assert!(guard < 10_000, "fabric failed to drain");
        }
        all
    }

    #[test]
    fn single_transfer_gets_full_nic() {
        let mut net = Fabric::new(2, NetConfig::default());
        net.start(
            SimTime::ZERO,
            TransferId(1),
            NodeId(0),
            NodeId(1),
            1250 * MB,
        );
        let done = drain(&mut net);
        assert_eq!(done.len(), 1);
        // 1.25 GB at 1.25 GB/s = 1 s (+ 300 us latency).
        assert!((done[0].duration().as_secs_f64() - 1.0003).abs() < 1e-3);
    }

    #[test]
    fn fan_in_shares_receiver_nic() {
        let mut net = Fabric::new(3, NetConfig::default());
        net.start(
            SimTime::ZERO,
            TransferId(1),
            NodeId(0),
            NodeId(2),
            1250 * MB,
        );
        net.start(
            SimTime::ZERO,
            TransferId(2),
            NodeId(1),
            NodeId(2),
            1250 * MB,
        );
        let done = drain(&mut net);
        assert_eq!(done.len(), 2);
        for d in &done {
            assert!(d.duration().as_secs_f64() > 1.9, "fan-in must share");
        }
    }

    #[test]
    fn different_receivers_do_not_interfere() {
        let mut net = Fabric::new(4, NetConfig::default());
        net.start(
            SimTime::ZERO,
            TransferId(1),
            NodeId(0),
            NodeId(2),
            1250 * MB,
        );
        net.start(
            SimTime::ZERO,
            TransferId(2),
            NodeId(1),
            NodeId(3),
            1250 * MB,
        );
        let done = drain(&mut net);
        for d in &done {
            assert!((d.duration().as_secs_f64() - 1.0003).abs() < 1e-3);
        }
    }

    #[test]
    fn cancel_drops_transfer() {
        let mut net = Fabric::new(2, NetConfig::default());
        net.start(
            SimTime::ZERO,
            TransferId(1),
            NodeId(0),
            NodeId(1),
            1250 * MB,
        );
        net.cancel(SimTime::from_secs_f64(0.1), TransferId(1));
        assert_eq!(net.in_flight(), 0);
        assert!(drain(&mut net).is_empty());
    }

    #[test]
    fn only_receivers_with_flows_are_busy() {
        let mut net = Fabric::new(10_000, NetConfig::default());
        assert_eq!((net.busy_nics(), net.next_event()), (0, None));
        net.start(SimTime::ZERO, TransferId(1), NodeId(0), NodeId(7), MB);
        net.start(SimTime::ZERO, TransferId(2), NodeId(1), NodeId(7), MB);
        net.start(SimTime::ZERO, TransferId(3), NodeId(2), NodeId(9_999), MB);
        assert_eq!(net.busy_nics(), 2, "two receivers, whatever the senders");
        net.cancel(SimTime::ZERO, TransferId(3));
        assert_eq!(net.busy_nics(), 1);
        assert_eq!(drain(&mut net).len(), 2);
        assert_eq!(net.busy_nics(), 0);
        // A NIC that went idle long ago starts its next transfer on time.
        let later = SimTime::from_secs_f64(5.0);
        net.start(later, TransferId(4), NodeId(3), NodeId(9_999), 1250 * MB);
        let done = drain(&mut net);
        assert_eq!(done[0].started, later);
        assert!((done[0].duration().as_secs_f64() - 1.0003).abs() < 1e-3);
    }

    #[test]
    fn cancel_after_an_unreported_finish_reports_nothing() {
        let mut net = Fabric::new(2, NetConfig::default());
        net.start(SimTime::ZERO, TransferId(1), NodeId(0), NodeId(1), MB);
        // The transfer finished at ~1.1 ms; the cancel at 1 s catches up
        // the NIC and finds it done, but the caller already gave it up.
        let done = net.cancel(SimTime::from_secs_f64(1.0), TransferId(1));
        assert!(done.is_empty());
        assert_eq!((net.in_flight(), net.busy_nics()), (0, 0));
        assert!(drain(&mut net).is_empty());
    }

    #[test]
    fn rpc_latency_exposed() {
        let net = Fabric::new(1, NetConfig::default());
        assert_eq!(net.rpc_latency(), SimDuration::from_micros(300));
    }

    #[test]
    #[should_panic(expected = "self-transfer")]
    fn self_transfer_rejected() {
        let mut net = Fabric::new(2, NetConfig::default());
        net.start(SimTime::ZERO, TransferId(1), NodeId(0), NodeId(0), MB);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn unknown_node_rejected() {
        let mut net = Fabric::new(2, NetConfig::default());
        net.start(SimTime::ZERO, TransferId(1), NodeId(0), NodeId(7), MB);
    }
}
