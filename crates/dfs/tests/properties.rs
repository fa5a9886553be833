//! Randomized (deterministic, seeded) tests for the NameNode's replica
//! placement and liveness view.

use std::collections::{BTreeMap, BTreeSet};

use ignem_dfs::block::split_into_blocks;
use ignem_dfs::{BlockId, DfsConfig, DfsError, FileId, NameNode};
use ignem_netsim::NodeId;
use ignem_simcore::rng::SimRng;

/// The NameNode's placement as a liveness map: every file collects the
/// ascending alive ids afresh, and each of its blocks Fisher–Yates
/// shuffles that list further, one `index(i + 1)` draw per step, and keeps
/// its first `replication` ids. The kept alive list must give the same
/// replicas and leave the generator in the same state.
struct Reference {
    replication: usize,
    block_size: u64,
    alive: BTreeMap<NodeId, bool>,
    paths: BTreeSet<String>,
    /// Every replica holder of each block, dead or alive, in placement order.
    blocks: BTreeMap<BlockId, Vec<NodeId>>,
    next_file: u64,
    next_block: u64,
}

impl Reference {
    fn new(config: DfsConfig) -> Self {
        Reference {
            replication: config.replication,
            block_size: config.block_size,
            alive: BTreeMap::new(),
            paths: BTreeSet::new(),
            blocks: BTreeMap::new(),
            next_file: 0,
            next_block: 0,
        }
    }

    fn set_alive(&mut self, node: NodeId, alive: bool) -> Result<(), DfsError> {
        match self.alive.get_mut(&node) {
            Some(a) => {
                *a = alive;
                Ok(())
            }
            None => Err(DfsError::UnknownNode(node)),
        }
    }

    fn is_alive(&self, node: NodeId) -> bool {
        self.alive.get(&node).copied().unwrap_or(false)
    }

    fn alive_nodes(&self) -> Vec<NodeId> {
        self.alive
            .iter()
            .filter(|(_, &a)| a)
            .map(|(&n, _)| n)
            .collect()
    }

    fn create_file(
        &mut self,
        path: &str,
        bytes: u64,
        rng: &mut SimRng,
    ) -> Result<FileId, DfsError> {
        if self.paths.contains(path) {
            return Err(DfsError::FileExists(path.to_string()));
        }
        let mut candidates = self.alive_nodes();
        if candidates.is_empty() {
            return Err(DfsError::NoAliveNodes);
        }
        let id = FileId(self.next_file);
        self.next_file += 1;
        for _ in split_into_blocks(bytes, self.block_size) {
            for i in (1..candidates.len()).rev() {
                let j = rng.index(i + 1);
                candidates.swap(i, j);
            }
            let keep = self.replication.min(candidates.len());
            self.blocks
                .insert(BlockId(self.next_block), candidates[..keep].to_vec());
            self.next_block += 1;
        }
        self.paths.insert(path.to_string());
        Ok(id)
    }

    fn add_replica(&mut self, block: BlockId, node: NodeId) -> Result<(), DfsError> {
        if !self.alive.contains_key(&node) {
            return Err(DfsError::UnknownNode(node));
        }
        let replicas = self
            .blocks
            .get_mut(&block)
            .ok_or(DfsError::BlockNotFound(block))?;
        if !replicas.contains(&node) {
            replicas.push(node);
        }
        Ok(())
    }

    fn locations(&self, block: BlockId) -> Result<Vec<NodeId>, DfsError> {
        let replicas = self
            .blocks
            .get(&block)
            .ok_or(DfsError::BlockNotFound(block))?;
        Ok(replicas
            .iter()
            .copied()
            .filter(|n| self.is_alive(*n))
            .collect())
    }

    fn alive_replicas(&self, replicas: &[NodeId]) -> usize {
        replicas.iter().filter(|n| self.is_alive(**n)).count()
    }

    /// Whether a block is under-replicated while `alive_nodes` are alive.
    fn under(&self, replicas: &[NodeId], alive_nodes: usize) -> bool {
        let alive = self.alive_replicas(replicas);
        alive > 0 && alive < self.replication.min(alive_nodes)
    }

    fn under_replicated(&self) -> Vec<BlockId> {
        let alive_nodes = self.alive_nodes().len();
        self.blocks
            .iter()
            .filter(|(_, r)| self.under(r, alive_nodes))
            .map(|(&b, _)| b)
            .collect()
    }

    fn is_under_replicated(&self, block: BlockId, alive_nodes: usize) -> bool {
        self.blocks
            .get(&block)
            .is_some_and(|r| self.under(r, alive_nodes))
    }

    fn blocks_without_alive_replica(&self) -> Vec<BlockId> {
        self.blocks
            .iter()
            .filter(|(_, r)| self.alive_replicas(r) == 0)
            .map(|(&b, _)| b)
            .collect()
    }

    fn blocks_on(&self, node: NodeId) -> Vec<BlockId> {
        self.blocks
            .iter()
            .filter(|(_, r)| r.contains(&node))
            .map(|(&b, _)| b)
            .collect()
    }
}

/// What a run reached, so the test can insist on the cases that matter.
#[derive(Default)]
struct Coverage {
    /// Blocks placed while fewer nodes were alive than the replication
    /// factor.
    short_placements: usize,
    /// Blocks held by every alive node while fewer nodes were alive than
    /// the replication factor: the under-replication check's `min` keeps
    /// them off the work list.
    min_binds: usize,
    /// `register_node` calls on a registered dead node.
    reregistered: usize,
    files: usize,
}

/// Compares every query of the NameNode with the reference.
fn assert_same(nn: &NameNode, model: &Reference, probe: &[NodeId], cov: &mut Coverage, at: &str) {
    let alive = model.alive_nodes();
    assert_eq!(nn.alive_nodes(), &alive[..], "{at}: alive nodes");
    for &n in probe {
        assert_eq!(nn.is_alive(n), model.is_alive(n), "{at}: is_alive({n})");
    }
    // One block past the last is unknown to both.
    for b in (0..=model.next_block).map(BlockId) {
        assert_eq!(nn.locations(b), model.locations(b), "{at}: locations({b})");
        assert_eq!(
            nn.is_under_replicated(b),
            model.is_under_replicated(b, alive.len()),
            "{at}: is_under_replicated({b})"
        );
    }
    assert_eq!(nn.under_replicated(), model.under_replicated(), "{at}");
    assert_eq!(
        nn.blocks_without_alive_replica(),
        model.blocks_without_alive_replica(),
        "{at}"
    );
    if !alive.is_empty() && alive.len() < model.replication {
        cov.min_binds += model
            .blocks
            .values()
            .filter(|r| model.alive_replicas(r) == alive.len())
            .count();
    }
}

/// Drives one seeded sequence of registrations, failures, returns, file
/// creations and re-replications over `nodes` datanode ids, checking the
/// NameNode against the reference after every step.
fn run(seed: u64, nodes: usize, steps: usize, cov: &mut Coverage) {
    let mut ops = SimRng::new(0xDF5_0001 ^ seed);
    let config = DfsConfig {
        block_size: 1_000,
        replication: 1 + ops.index(5),
    };
    // Sparse ids, half to all of them registered in random order, plus one
    // id never registered.
    let mut ids: Vec<NodeId> = (0..4 * nodes as u32).map(NodeId).collect();
    ops.shuffle(&mut ids);
    ids.truncate(nodes);
    let mut probe = ids.clone();
    probe.push(NodeId(u32::MAX));

    let mut nn = NameNode::new(config);
    let mut model = Reference::new(config);
    let mut rng = SimRng::new(seed);
    let mut model_rng = rng.clone();
    for &n in &ids[..nodes - ops.index(nodes / 2 + 1)] {
        nn.register_node(n);
        model.alive.insert(n, true);
    }
    for step in 0..steps {
        let at = format!("seed {seed}, {nodes} nodes, step {step}");
        let node = probe[ops.index(probe.len())];
        match ops.index(20) {
            0..=2 => {
                cov.reregistered += usize::from(model.alive.get(&node) == Some(&false));
                nn.register_node(node);
                model.alive.insert(node, true);
            }
            3..=6 => assert_eq!(nn.mark_dead(node), model.set_alive(node, false), "{at}"),
            7..=10 => assert_eq!(nn.mark_alive(node), model.set_alive(node, true), "{at}"),
            11..=15 => {
                // Some paths repeat, so duplicates are rejected on both sides.
                let path = format!("/f{}", ops.index(steps));
                let bytes = ops.next_u64() % (20 * config.block_size + 1);
                let first = model.next_block;
                let got = nn.create_file(&path, bytes, &mut rng);
                assert_eq!(got, model.create_file(&path, bytes, &mut model_rng), "{at}");
                if got.is_ok() {
                    cov.files += 1;
                    let placed = (model.next_block - first) as usize;
                    let alive = model.alive_nodes().len();
                    cov.short_placements += placed * usize::from(alive < config.replication);
                    let blocks = nn.file_blocks(&path).unwrap();
                    assert_eq!(blocks.len(), placed, "{at}");
                    assert!(blocks.iter().zip(first..).all(|(b, id)| b.id.0 == id));
                }
            }
            _ => {
                let block = BlockId(ops.index(model.next_block as usize + 2) as u64);
                assert_eq!(
                    nn.add_replica(block, node),
                    model.add_replica(block, node),
                    "{at}"
                );
            }
        }
        assert_eq!(
            rng.clone().next_u64(),
            model_rng.clone().next_u64(),
            "{at}: generator state"
        );
        assert_same(&nn, &model, &probe, cov, &at);
    }
    for &n in &probe {
        let on: Vec<BlockId> = nn.blocks_on(n).iter().map(|b| b.id).collect();
        assert_eq!(on, model.blocks_on(n), "seed {seed}: blocks_on({n})");
    }
}

/// The kept alive list places every replica where the per-file collection
/// did, with the same draws, through any sequence of registrations,
/// failures, returns and re-replications; and every liveness and
/// under-replication query agrees with the liveness map.
#[test]
fn kept_alive_list_places_like_a_fresh_collection() {
    let mut cov = Coverage::default();
    for seed in 0..64u64 {
        let nodes = 1 + SimRng::new(seed).index(64);
        run(seed, nodes, 64, &mut cov);
    }
    assert!(cov.files >= 500, "{} files", cov.files);
    assert!(
        cov.short_placements >= 100,
        "{} short placements",
        cov.short_placements
    );
    assert!(cov.min_binds >= 1_000, "{} min binds", cov.min_binds);
    assert!(
        cov.reregistered >= 20,
        "{} re-registrations",
        cov.reregistered
    );
}

/// The same check at the benchmark's datacenter size.
#[test]
fn kept_alive_list_places_like_a_fresh_collection_on_4096_nodes() {
    let mut cov = Coverage::default();
    run(4_096, 4_096, 40, &mut cov);
    assert!(cov.files >= 5, "{} files", cov.files);
}
