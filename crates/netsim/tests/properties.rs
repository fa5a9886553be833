//! Randomized (deterministic, seeded) tests for the network fabric.

use std::collections::BTreeMap;

use ignem_netsim::{Fabric, NetConfig, NodeId, TransferDone, TransferId};
use ignem_simcore::flow::{FlowId, FlowResource};
use ignem_simcore::rng::SimRng;
use ignem_simcore::time::{SimDuration, SimTime};

/// Every transfer completes exactly once, and no transfer finishes faster
/// than its ideal solo time (bytes / NIC bandwidth + latency).
#[test]
fn transfers_complete_and_respect_capacity() {
    for seed in 0..64u64 {
        let mut rng = SimRng::new(0x7E75_0001 ^ seed);
        let n = 1 + rng.index(29);
        let cfg = NetConfig::default();
        let mut net = Fabric::new(6, cfg);
        let mut expected = 0usize;
        let mut done = Vec::new();
        let mut now = SimTime::ZERO;
        for i in 0..n {
            let from = rng.index(6) as u32;
            let to = rng.index(6) as u32;
            let mb = 1 + rng.next_u64() % 1_999;
            let at_us = rng.next_u64() % 2_000_000;
            if from == to {
                continue;
            }
            let t = SimTime::from_micros(at_us);
            now = now.max(t);
            done.extend(net.start(
                now,
                TransferId(i as u64),
                NodeId(from),
                NodeId(to),
                mb * 1_000_000,
            ));
            expected += 1;
        }
        let mut guard = 0;
        while let Some(t) = net.next_event() {
            done.extend(net.advance(t));
            guard += 1;
            assert!(guard < 100_000, "seed {seed}");
        }
        assert_eq!(done.len(), expected, "seed {seed}");
        assert_eq!(net.in_flight(), 0, "seed {seed}");
        for d in &done {
            let solo = d.bytes as f64 / cfg.nic_bandwidth + cfg.latency.as_secs_f64();
            assert!(
                d.duration().as_secs_f64() + 1e-5 >= solo,
                "seed {seed}: transfer {:?} beat the NIC: {} < {}",
                d.id,
                d.duration().as_secs_f64(),
                solo
            );
        }
    }
}

/// A fabric that visits every NIC on every call: the plain algorithm the
/// busy-NIC fabric must match bit for bit.
struct ScanEveryNic {
    latency: SimDuration,
    nics: Vec<FlowResource>,
    inflight: BTreeMap<u64, (u32, u32, u64, SimTime)>,
}

impl ScanEveryNic {
    fn new(nodes: usize, cfg: NetConfig) -> Self {
        ScanEveryNic {
            latency: cfg.latency,
            nics: (0..nodes)
                .map(|_| FlowResource::new(cfg.nic_bandwidth, 0.0))
                .collect(),
            inflight: BTreeMap::new(),
        }
    }

    fn collect(&mut self, flows: Vec<FlowId>) -> Vec<TransferDone> {
        flows
            .into_iter()
            .map(|f| {
                let (from, to, bytes, started) = self.inflight.remove(&f.0).unwrap();
                TransferDone {
                    id: TransferId(f.0),
                    from: NodeId(from),
                    to: NodeId(to),
                    bytes,
                    started,
                    finished: self.nics[to as usize].clock(),
                }
            })
            .collect()
    }

    fn start(
        &mut self,
        now: SimTime,
        id: u64,
        from: u32,
        to: u32,
        bytes: u64,
    ) -> Vec<TransferDone> {
        self.inflight.insert(id, (from, to, bytes, now));
        let done = self.nics[to as usize].add(now, FlowId(id), bytes as f64, self.latency);
        self.collect(done)
    }

    fn cancel(&mut self, now: SimTime, id: u64) -> Vec<TransferDone> {
        let Some(&(_, to, _, _)) = self.inflight.get(&id) else {
            return Vec::new();
        };
        let mut done = self.nics[to as usize].cancel(now, FlowId(id));
        done.retain(|&f| f != FlowId(id));
        self.inflight.remove(&id);
        self.collect(done)
    }

    fn next_event(&self) -> Option<SimTime> {
        self.nics.iter().filter_map(|n| n.next_event()).min()
    }

    fn advance(&mut self, now: SimTime) -> Vec<TransferDone> {
        let mut out = Vec::new();
        for i in 0..self.nics.len() {
            let t = now.max(self.nics[i].clock());
            let done = self.nics[i].advance(t);
            out.extend(self.collect(done));
        }
        out.sort_by_key(|t| (t.finished, t.id));
        out
    }
}

/// Skipping idle NICs changes nothing: on random start / cancel / advance
/// schedules (advances both to the next event and to arbitrary earlier
/// instants, as a cluster does when other events interleave), the busy-NIC
/// fabric reports exactly the reference's completions and next events.
#[test]
fn busy_nic_fabric_matches_scanning_every_nic() {
    for seed in 0..48u64 {
        let mut rng = SimRng::new(0xB05E_0001 ^ seed);
        let nodes = 2 + rng.index(40);
        let cfg = NetConfig::default();
        let mut net = Fabric::new(nodes, cfg);
        let mut reference = ScanEveryNic::new(nodes, cfg);
        let mut now = SimTime::ZERO;
        let mut next_id = 0u64;
        for step in 0..400 {
            let (got, want) = match rng.index(10) {
                0..=4 => {
                    now += SimDuration::from_micros(rng.next_u64() % 50_000);
                    let from = rng.index(nodes) as u32;
                    let to = (from + 1 + rng.index(nodes - 1) as u32) % nodes as u32;
                    let bytes = 1 + rng.next_u64() % 200_000_000;
                    next_id += 1;
                    (
                        net.start(now, TransferId(next_id), NodeId(from), NodeId(to), bytes),
                        reference.start(now, next_id, from, to, bytes),
                    )
                }
                5 => {
                    let id = 1 + rng.next_u64() % next_id.max(1);
                    (net.cancel(now, TransferId(id)), reference.cancel(now, id))
                }
                _ => {
                    let Some(due) = reference.next_event() else {
                        continue;
                    };
                    if rng.index(2) == 0 {
                        now = now.max(due);
                    } else {
                        let gap = due.duration_since(now.min(due)).as_micros();
                        now += SimDuration::from_micros(rng.next_u64() % (gap + 1));
                    }
                    (net.advance(now), reference.advance(now))
                }
            };
            assert_eq!(got, want, "seed {seed} step {step}");
            assert_eq!(
                net.next_event(),
                reference.next_event(),
                "seed {seed} step {step}"
            );
            assert_eq!(net.in_flight(), reference.inflight.len());
            let busy = reference.nics.iter().filter(|n| n.active() > 0).count();
            assert_eq!(net.busy_nics(), busy, "seed {seed} step {step}");
        }
    }
}
