//! The NameNode: namespace and block-location authority.
//!
//! Mirrors the slice of HDFS that Ignem relies on (paper §III): complete
//! mappings of files → blocks and blocks → datanodes, random replica
//! placement, and a liveness view that drops failed servers from location
//! results (§III-A5: "the Ignem master queries the file system … and will
//! receive an updated view with only live locations").

use std::collections::BTreeMap;

use ignem_netsim::NodeId;
use ignem_simcore::rng::SimRng;

use crate::block::{split_into_blocks, BlockId, BlockInfo, FileId};
use crate::error::DfsError;

/// Per-file metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// The file id.
    pub id: FileId,
    /// Absolute path.
    pub path: String,
    /// Block list, in file order.
    pub blocks: Vec<BlockId>,
    /// Total length in bytes.
    pub bytes: u64,
}

#[derive(Debug, Clone)]
struct BlockMeta {
    bytes: u64,
    /// All replica holders, dead or alive (liveness filtered on query).
    replicas: Vec<NodeId>,
}

/// NameNode configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DfsConfig {
    /// Block size in bytes.
    pub block_size: u64,
    /// Replication factor.
    pub replication: usize,
}

impl Default for DfsConfig {
    /// The paper's evaluation settings: 64 MB blocks, 3× replication.
    fn default() -> Self {
        DfsConfig {
            block_size: crate::block::DEFAULT_BLOCK_SIZE,
            replication: 3,
        }
    }
}

/// The namespace and block-location authority (see module docs).
///
/// ```
/// use ignem_dfs::namenode::{DfsConfig, NameNode};
/// use ignem_netsim::NodeId;
/// use ignem_simcore::rng::SimRng;
///
/// let mut nn = NameNode::new(DfsConfig::default());
/// for n in 0..4 { nn.register_node(NodeId(n)); }
/// let mut rng = SimRng::new(1);
/// nn.create_file("/data/part-0", 200_000_000, &mut rng)?;
/// let blocks = nn.file_blocks("/data/part-0")?;
/// assert_eq!(blocks.len(), 3); // 2 full 64 MiB blocks + tail
/// # Ok::<(), ignem_dfs::error::DfsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NameNode {
    config: DfsConfig,
    files: BTreeMap<FileId, FileMeta>,
    by_path: BTreeMap<String, FileId>,
    blocks: BTreeMap<BlockId, BlockMeta>,
    /// Alive datanodes in ascending id order: placement's candidate list,
    /// kept between calls so that a file copies it instead of rebuilding it.
    alive: Vec<NodeId>,
    /// Registered datanodes that are dead, in ascending id order.
    dead: Vec<NodeId>,
    next_file: u64,
    next_block: u64,
}

impl NameNode {
    /// Creates an empty namespace.
    ///
    /// # Panics
    ///
    /// Panics if the configured block size or replication factor is zero.
    pub fn new(config: DfsConfig) -> Self {
        assert!(config.block_size > 0, "zero block size");
        assert!(config.replication > 0, "zero replication");
        NameNode {
            config,
            files: BTreeMap::new(),
            by_path: BTreeMap::new(),
            blocks: BTreeMap::new(),
            alive: Vec::new(),
            dead: Vec::new(),
            next_file: 0,
            next_block: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DfsConfig {
        &self.config
    }

    /// Registers a datanode (initially alive). Registering a dead node
    /// brings it back.
    pub fn register_node(&mut self, node: NodeId) {
        if let Ok(i) = self.dead.binary_search(&node) {
            self.dead.remove(i);
        }
        insert_sorted(&mut self.alive, node);
    }

    /// Marks a datanode dead: its replicas disappear from location queries.
    ///
    /// # Errors
    ///
    /// [`DfsError::UnknownNode`] if the node was never registered.
    pub fn mark_dead(&mut self, node: NodeId) -> Result<(), DfsError> {
        move_node(&mut self.alive, &mut self.dead, node)
    }

    /// Marks a datanode alive again (its replicas reappear).
    ///
    /// # Errors
    ///
    /// [`DfsError::UnknownNode`] if the node was never registered.
    pub fn mark_alive(&mut self, node: NodeId) -> Result<(), DfsError> {
        move_node(&mut self.dead, &mut self.alive, node)
    }

    /// Whether a node is registered and alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive.binary_search(&node).is_ok()
    }

    /// All currently alive datanodes, in ascending id order.
    pub fn alive_nodes(&self) -> &[NodeId] {
        &self.alive
    }

    /// Creates a file of `bytes`, splitting it into blocks and placing
    /// `replication` replicas of each block on distinct random alive nodes
    /// (fewer if the cluster is smaller).
    ///
    /// The file copies the ascending alive list once; each block shuffles
    /// that copy further with [`SimRng::shuffle`] and keeps its first
    /// `replication` nodes. So a block costs `alive - 1` draws, and its
    /// replicas depend on every earlier draw of the file.
    ///
    /// # Errors
    ///
    /// [`DfsError::FileExists`] on a duplicate path,
    /// [`DfsError::NoAliveNodes`] if no datanode is alive.
    pub fn create_file(
        &mut self,
        path: &str,
        bytes: u64,
        rng: &mut SimRng,
    ) -> Result<FileId, DfsError> {
        if self.by_path.contains_key(path) {
            return Err(DfsError::FileExists(path.to_string()));
        }
        let mut candidates = self.alive.clone();
        if candidates.is_empty() {
            return Err(DfsError::NoAliveNodes);
        }
        let id = FileId(self.next_file);
        self.next_file += 1;
        let mut block_ids = Vec::new();
        for size in split_into_blocks(bytes, self.config.block_size) {
            let bid = BlockId(self.next_block);
            self.next_block += 1;
            rng.shuffle(&mut candidates);
            let replicas: Vec<NodeId> = candidates
                .iter()
                .take(self.config.replication)
                .copied()
                .collect();
            self.blocks.insert(
                bid,
                BlockMeta {
                    bytes: size,
                    replicas,
                },
            );
            block_ids.push(bid);
        }
        self.files.insert(
            id,
            FileMeta {
                id,
                path: path.to_string(),
                blocks: block_ids,
                bytes,
            },
        );
        self.by_path.insert(path.to_string(), id);
        Ok(id)
    }

    /// Looks up file metadata by path.
    ///
    /// # Errors
    ///
    /// [`DfsError::FileNotFound`] if the path does not exist.
    pub fn open(&self, path: &str) -> Result<&FileMeta, DfsError> {
        let id = self
            .by_path
            .get(path)
            .ok_or_else(|| DfsError::FileNotFound(path.to_string()))?;
        Ok(&self.files[id])
    }

    /// The blocks of a file, in order, with sizes.
    ///
    /// # Errors
    ///
    /// [`DfsError::FileNotFound`] if the path does not exist.
    pub fn file_blocks(&self, path: &str) -> Result<Vec<BlockInfo>, DfsError> {
        let meta = self.open(path)?;
        Ok(meta
            .blocks
            .iter()
            .map(|b| BlockInfo {
                id: *b,
                // lint: allow(P02, reason = "file metadata and the block map are updated together")
                bytes: self.blocks[b].bytes,
            })
            .collect())
    }

    /// A block's id and size.
    ///
    /// # Errors
    ///
    /// [`DfsError::BlockNotFound`] if the block is unknown.
    pub fn block_info(&self, block: BlockId) -> Result<BlockInfo, DfsError> {
        self.blocks
            .get(&block)
            .map(|m| BlockInfo {
                id: block,
                bytes: m.bytes,
            })
            .ok_or(DfsError::BlockNotFound(block))
    }

    /// The **alive** replica locations of a block.
    ///
    /// # Errors
    ///
    /// [`DfsError::BlockNotFound`] if the block is unknown.
    pub fn locations(&self, block: BlockId) -> Result<Vec<NodeId>, DfsError> {
        let meta = self
            .blocks
            .get(&block)
            .ok_or(DfsError::BlockNotFound(block))?;
        Ok(meta
            .replicas
            .iter()
            .copied()
            .filter(|n| self.is_alive(*n))
            .collect())
    }

    /// Whether `node` holds an **alive** replica of `block`: the
    /// allocation-free form of [`locations`](Self::locations) +
    /// `contains` the scheduler's locality check runs per candidate task.
    /// Unknown blocks are simply not replicated anywhere.
    pub fn has_alive_replica(&self, block: BlockId, node: NodeId) -> bool {
        self.blocks
            .get(&block)
            .is_some_and(|m| m.replicas.contains(&node) && self.is_alive(node))
    }

    /// Registers a new replica of `block` on `node` (the re-replication
    /// path after a datanode failure). Idempotent for existing replicas.
    ///
    /// # Errors
    ///
    /// [`DfsError::BlockNotFound`] for an unknown block,
    /// [`DfsError::UnknownNode`] for an unregistered node.
    pub fn add_replica(&mut self, block: BlockId, node: NodeId) -> Result<(), DfsError> {
        if !self.is_alive(node) && self.dead.binary_search(&node).is_err() {
            return Err(DfsError::UnknownNode(node));
        }
        let meta = self
            .blocks
            .get_mut(&block)
            .ok_or(DfsError::BlockNotFound(block))?;
        if !meta.replicas.contains(&node) {
            // lint: allow(Q01, reason = "deduplicated by the contains guard; bounded by cluster size")
            meta.replicas.push(node);
        }
        Ok(())
    }

    /// Blocks whose **alive** replica count is below the replication factor
    /// but above zero (the NameNode's re-replication work list).
    pub fn under_replicated(&self) -> Vec<BlockId> {
        self.blocks
            .iter()
            .filter(|(_, m)| {
                let alive = m.replicas.iter().filter(|n| self.is_alive(**n)).count();
                alive > 0 && alive < self.config.replication.min(self.alive.len())
            })
            .map(|(&b, _)| b)
            .collect()
    }

    /// Whether a single block's alive replica count is below the
    /// replication factor but above zero: the per-block form of
    /// [`under_replicated`](Self::under_replicated), used to skip queued
    /// re-replication work that a node's return already made redundant.
    pub fn is_under_replicated(&self, block: BlockId) -> bool {
        let Some(meta) = self.blocks.get(&block) else {
            return false;
        };
        let alive = meta.replicas.iter().filter(|n| self.is_alive(**n)).count();
        alive > 0 && alive < self.config.replication.min(self.alive.len())
    }

    /// Blocks with **no** alive replica at all: every copy sits on a dead
    /// node. Empty in any recoverable state — the chaos harness's
    /// recovery-convergence invariant checks exactly this at end of run.
    pub fn blocks_without_alive_replica(&self) -> Vec<BlockId> {
        self.blocks
            .iter()
            .filter(|(_, m)| !m.replicas.iter().any(|n| self.is_alive(*n)))
            .map(|(&b, _)| b)
            .collect()
    }

    /// Every block (with size) that has a replica on `node`. Used by the
    /// vmtouch-style *Inputs-in-RAM* configuration to pin local replicas.
    pub fn blocks_on(&self, node: NodeId) -> Vec<BlockInfo> {
        self.blocks
            .iter()
            .filter(|(_, m)| m.replicas.contains(&node))
            .map(|(&id, m)| BlockInfo { id, bytes: m.bytes })
            .collect()
    }
}

/// Inserts `node` into the ascending `list` unless it is already there.
fn insert_sorted(list: &mut Vec<NodeId>, node: NodeId) {
    if let Err(i) = list.binary_search(&node) {
        list.insert(i, node);
    }
}

/// Moves `node` from the ascending `from` into the ascending `to`. A node
/// already in `to` stays where it is.
fn move_node(from: &mut Vec<NodeId>, to: &mut Vec<NodeId>, node: NodeId) -> Result<(), DfsError> {
    match from.binary_search(&node) {
        Ok(i) => {
            from.remove(i);
            insert_sorted(to, node);
            Ok(())
        }
        Err(_) if to.binary_search(&node).is_ok() => Ok(()),
        Err(_) => Err(DfsError::UnknownNode(node)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ignem_simcore::units::MIB;

    fn namenode(nodes: u32) -> (NameNode, SimRng) {
        let mut nn = NameNode::new(DfsConfig::default());
        for n in 0..nodes {
            nn.register_node(NodeId(n));
        }
        (nn, SimRng::new(42))
    }

    #[test]
    fn create_splits_into_blocks() {
        let (mut nn, mut rng) = namenode(8);
        nn.create_file("/f", 200 * MIB, &mut rng).unwrap();
        let blocks = nn.file_blocks("/f").unwrap();
        assert_eq!(blocks.len(), 4); // 3 full + 8 MiB tail
        assert_eq!(blocks[0].bytes, 64 * MIB);
        assert_eq!(blocks[3].bytes, 8 * MIB);
    }

    #[test]
    fn replicas_are_distinct_nodes() {
        let (mut nn, mut rng) = namenode(8);
        nn.create_file("/f", 64 * MIB, &mut rng).unwrap();
        let b = nn.file_blocks("/f").unwrap()[0].id;
        let locs = nn.locations(b).unwrap();
        assert_eq!(locs.len(), 3);
        let mut dedup = locs.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 3);
    }

    #[test]
    fn small_cluster_reduces_replication() {
        let (mut nn, mut rng) = namenode(2);
        nn.create_file("/f", MIB, &mut rng).unwrap();
        let b = nn.file_blocks("/f").unwrap()[0].id;
        assert_eq!(nn.locations(b).unwrap().len(), 2);
    }

    #[test]
    fn dead_nodes_filtered_from_locations() {
        let (mut nn, mut rng) = namenode(3);
        nn.create_file("/f", MIB, &mut rng).unwrap();
        let b = nn.file_blocks("/f").unwrap()[0].id;
        assert_eq!(nn.locations(b).unwrap().len(), 3);
        nn.mark_dead(NodeId(0)).unwrap();
        assert_eq!(nn.locations(b).unwrap().len(), 2);
        nn.mark_alive(NodeId(0)).unwrap();
        assert_eq!(nn.locations(b).unwrap().len(), 3);
    }

    #[test]
    fn duplicate_path_rejected() {
        let (mut nn, mut rng) = namenode(3);
        nn.create_file("/f", MIB, &mut rng).unwrap();
        assert_eq!(
            nn.create_file("/f", MIB, &mut rng),
            Err(DfsError::FileExists("/f".into()))
        );
    }

    #[test]
    fn missing_file_errors() {
        let (nn, _) = namenode(3);
        assert_eq!(
            nn.open("/nope").unwrap_err(),
            DfsError::FileNotFound("/nope".into())
        );
    }

    #[test]
    fn no_alive_nodes_errors() {
        let mut nn = NameNode::new(DfsConfig::default());
        let mut rng = SimRng::new(1);
        assert_eq!(
            nn.create_file("/f", MIB, &mut rng),
            Err(DfsError::NoAliveNodes)
        );
    }

    #[test]
    fn blocks_on_lists_local_replicas() {
        let (mut nn, mut rng) = namenode(3);
        nn.create_file("/f", 128 * MIB, &mut rng).unwrap();
        // With 3 nodes and replication 3, every node holds every block.
        for n in 0..3 {
            assert_eq!(nn.blocks_on(NodeId(n)).len(), 2);
        }
    }

    #[test]
    fn placement_spreads_load() {
        let (mut nn, mut rng) = namenode(8);
        nn.create_file("/big", 100 * 64 * MIB, &mut rng).unwrap();
        // Each node should hold roughly 100*3/8 = 37.5 replicas; check
        // nobody is wildly off (placement is uniform random).
        for n in 0..8 {
            let cnt = nn.blocks_on(NodeId(n)).len();
            assert!((15..=60).contains(&cnt), "node {n} has {cnt} replicas");
        }
    }

    #[test]
    fn re_replication_bookkeeping() {
        let (mut nn, mut rng) = namenode(4);
        nn.create_file("/f", 128 * MIB, &mut rng).unwrap();
        assert!(nn.under_replicated().is_empty());
        // Kill a node that holds replicas.
        let victim = (0..4)
            .map(NodeId)
            .find(|n| !nn.blocks_on(*n).is_empty())
            .unwrap();
        let lost = nn.blocks_on(victim).len();
        nn.mark_dead(victim).unwrap();
        let under = nn.under_replicated();
        assert_eq!(under.len(), lost);
        // Re-replicate each onto some alive non-holder.
        for b in under {
            let holders = nn.locations(b).unwrap();
            let target = (0..4)
                .map(NodeId)
                .find(|n| nn.is_alive(*n) && !holders.contains(n))
                .unwrap();
            nn.add_replica(b, target).unwrap();
        }
        assert!(nn.under_replicated().is_empty());
    }

    #[test]
    fn add_replica_is_idempotent_and_validated() {
        let (mut nn, mut rng) = namenode(3);
        nn.create_file("/f", MIB, &mut rng).unwrap();
        let b = nn.file_blocks("/f").unwrap()[0].id;
        let n = nn.locations(b).unwrap()[0];
        nn.add_replica(b, n).unwrap(); // already a holder: no-op
        assert_eq!(nn.locations(b).unwrap().len(), 3);
        assert_eq!(
            nn.add_replica(BlockId(999), n),
            Err(DfsError::BlockNotFound(BlockId(999)))
        );
        assert_eq!(
            nn.add_replica(b, NodeId(42)),
            Err(DfsError::UnknownNode(NodeId(42)))
        );
    }

    #[test]
    fn per_block_under_replication_matches_work_list() {
        let (mut nn, mut rng) = namenode(4);
        nn.create_file("/f", 128 * MIB, &mut rng).unwrap();
        let victim = (0..4)
            .map(NodeId)
            .find(|n| !nn.blocks_on(*n).is_empty())
            .unwrap();
        nn.mark_dead(victim).unwrap();
        for b in nn.under_replicated() {
            assert!(nn.is_under_replicated(b));
        }
        assert!(!nn.is_under_replicated(BlockId(999)));
        nn.mark_alive(victim).unwrap();
        assert!(nn.under_replicated().is_empty());
        assert!(nn.blocks_without_alive_replica().is_empty());
    }

    #[test]
    fn fully_dead_blocks_are_reported_lost() {
        let (mut nn, mut rng) = namenode(3);
        nn.create_file("/f", MIB, &mut rng).unwrap();
        for n in 0..3 {
            nn.mark_dead(NodeId(n)).unwrap();
        }
        assert_eq!(nn.blocks_without_alive_replica().len(), 1);
        // A returning node makes the block readable again.
        nn.mark_alive(NodeId(0)).unwrap();
        assert!(nn.blocks_without_alive_replica().is_empty());
    }

    #[test]
    fn zero_byte_file_has_no_blocks() {
        let (mut nn, mut rng) = namenode(3);
        nn.create_file("/empty", 0, &mut rng).unwrap();
        assert!(nn.file_blocks("/empty").unwrap().is_empty());
    }
}
