//! Read-path planning: where a task's block read is served from.
//!
//! HDFS clients pick a replica and read either locally (short-circuit) or
//! over the network. With Ignem, a block may additionally be resident in
//! some node's memory. The planner encodes the preference order the paper
//! implies:
//!
//! 1. **local memory** — the fastest path, what migration aims for;
//! 2. **remote memory** — the paper's §III-A2 rationale for migrating only
//!    one replica: "even when a task cannot be scheduled on the server where
//!    its input was migrated, it can still efficiently read the block over
//!    the network" (10 Gbps ≫ cold-disk bandwidth);
//! 3. **local disk**;
//! 4. **remote disk** (random replica).

use ignem_netsim::NodeId;
use ignem_simcore::rng::SimRng;

use crate::block::BlockId;
use crate::error::DfsError;
use crate::namenode::NameNode;

/// Where a block read will be served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadSource {
    /// The block is in memory on the reader's own node.
    LocalMemory,
    /// The block is in memory on another node; read over the network.
    RemoteMemory(NodeId),
    /// The block is on the reader's local disk.
    LocalDisk,
    /// The block is on a remote node's disk; read over the network
    /// (bottlenecked by the remote disk).
    RemoteDisk(NodeId),
}

/// Plans the read of `block` by a task running on `reader`.
///
/// `in_memory(node, block)` reports whether the block is resident in memory
/// (migrated or pinned) on `node`; the cluster layer supplies it from its
/// per-node `MemStore`s (in `ignem-storage`).
///
/// # Errors
///
/// [`DfsError::BlockNotFound`] for an unknown block;
/// [`DfsError::NoAliveNodes`] if no alive replica exists.
pub fn plan_read(
    namenode: &NameNode,
    reader: NodeId,
    block: BlockId,
    in_memory: impl Fn(NodeId, BlockId) -> bool,
    rng: &mut SimRng,
) -> Result<ReadSource, DfsError> {
    let locations = namenode.locations(block)?;
    if locations.is_empty() {
        return Err(DfsError::NoAliveNodes);
    }
    // 1. Local memory.
    if in_memory(reader, block) {
        return Ok(ReadSource::LocalMemory);
    }
    // 2. Remote memory. Check all alive replica holders (Ignem migrates a
    //    single replica, so at most one will match).
    for &n in &locations {
        if n != reader && in_memory(n, block) {
            return Ok(ReadSource::RemoteMemory(n));
        }
    }
    // 3. Local disk.
    if locations.contains(&reader) {
        return Ok(ReadSource::LocalDisk);
    }
    // 4. Random remote replica's disk.
    Ok(ReadSource::RemoteDisk(*rng.choose(&locations)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::namenode::DfsConfig;
    use ignem_simcore::units::MIB;

    fn setup() -> (NameNode, BlockId, SimRng) {
        let mut nn = NameNode::new(DfsConfig {
            block_size: 64 * MIB,
            replication: 2,
        });
        for n in 0..4 {
            nn.register_node(NodeId(n));
        }
        let mut rng = SimRng::new(7);
        nn.create_file("/f", 64 * MIB, &mut rng).unwrap();
        let b = nn.file_blocks("/f").unwrap()[0].id;
        (nn, b, rng)
    }

    #[test]
    fn local_memory_wins() {
        let (nn, b, mut rng) = setup();
        let reader = NodeId(0);
        let src = plan_read(&nn, reader, b, |n, _| n == reader, &mut rng).unwrap();
        assert_eq!(src, ReadSource::LocalMemory);
    }

    #[test]
    fn remote_memory_beats_local_disk() {
        let (nn, b, mut rng) = setup();
        let locs = nn.locations(b).unwrap();
        let holder = locs[0];
        // Reader is another replica holder with the block on local disk.
        let reader = locs[1];
        let src = plan_read(&nn, reader, b, |n, _| n == holder, &mut rng).unwrap();
        assert_eq!(src, ReadSource::RemoteMemory(holder));
    }

    #[test]
    fn local_disk_when_nothing_in_memory() {
        let (nn, b, mut rng) = setup();
        let reader = nn.locations(b).unwrap()[0];
        let src = plan_read(&nn, reader, b, |_, _| false, &mut rng).unwrap();
        assert_eq!(src, ReadSource::LocalDisk);
    }

    #[test]
    fn remote_disk_as_fallback() {
        let (nn, b, mut rng) = setup();
        let locs = nn.locations(b).unwrap();
        // Pick a reader that holds no replica.
        let reader = (0..4).map(NodeId).find(|n| !locs.contains(n)).unwrap();
        let src = plan_read(&nn, reader, b, |_, _| false, &mut rng).unwrap();
        match src {
            ReadSource::RemoteDisk(n) => assert!(locs.contains(&n)),
            other => panic!("expected remote disk, got {other:?}"),
        }
    }

    #[test]
    fn memory_on_non_replica_node_is_found() {
        // Ignem migrates to a replica holder, but a pinned copy could exist
        // anywhere a replica lives; the planner only consults replica
        // holders, so memory on a non-replica node is ignored.
        let (nn, b, mut rng) = setup();
        let locs = nn.locations(b).unwrap();
        let outsider = (0..4).map(NodeId).find(|n| !locs.contains(n)).unwrap();
        let src = plan_read(&nn, outsider, b, |n, _| n == outsider, &mut rng).unwrap();
        // Reader's own memory always wins even if it's not a replica holder
        // (e.g. cached from an earlier read).
        assert_eq!(src, ReadSource::LocalMemory);
    }

    #[test]
    fn dead_replicas_are_skipped() {
        let (mut nn, b, mut rng) = setup();
        let locs = nn.locations(b).unwrap();
        nn.mark_dead(locs[0]).unwrap();
        let reader = (0..4).map(NodeId).find(|n| !locs.contains(n)).unwrap();
        let src = plan_read(&nn, reader, b, |_, _| false, &mut rng).unwrap();
        assert_eq!(src, ReadSource::RemoteDisk(locs[1]));
    }

    #[test]
    fn all_replicas_dead_errors() {
        let (mut nn, b, mut rng) = setup();
        for n in nn.locations(b).unwrap() {
            nn.mark_dead(n).unwrap();
        }
        assert_eq!(
            plan_read(&nn, NodeId(0), b, |_, _| false, &mut rng),
            Err(DfsError::NoAliveNodes)
        );
    }
}
