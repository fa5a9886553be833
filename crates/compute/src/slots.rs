//! Per-node task-slot accounting.

use ignem_netsim::NodeId;

/// Tracks used/total task slots on every node.
///
/// ```
/// use ignem_compute::slots::Slots;
/// use ignem_netsim::NodeId;
///
/// let mut s = Slots::new(2, 3);
/// assert_eq!(s.free(NodeId(0)), 3);
/// assert!(s.acquire(NodeId(0)));
/// s.release(NodeId(0));
/// assert_eq!(s.free(NodeId(0)), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Slots {
    used: Vec<usize>,
    per_node: usize,
}

impl Slots {
    /// Creates slot tables for `nodes` nodes with `per_node` slots each.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(nodes: usize, per_node: usize) -> Self {
        assert!(nodes > 0 && per_node > 0, "empty slot table");
        Slots {
            used: vec![0; nodes],
            per_node,
        }
    }

    /// Slots per node.
    pub fn per_node(&self) -> usize {
        self.per_node
    }

    /// Free slots on `node`.
    pub fn free(&self, node: NodeId) -> usize {
        self.per_node - self.used[node.0 as usize]
    }

    /// Used slots on `node`.
    pub fn used(&self, node: NodeId) -> usize {
        self.used[node.0 as usize]
    }

    /// Takes a slot on `node` if one is free.
    pub fn acquire(&mut self, node: NodeId) -> bool {
        let u = &mut self.used[node.0 as usize];
        if *u < self.per_node {
            *u += 1;
            true
        } else {
            false
        }
    }

    /// Returns a slot on `node`.
    ///
    /// # Panics
    ///
    /// Panics if no slot is held on that node.
    pub fn release(&mut self, node: NodeId) {
        let u = &mut self.used[node.0 as usize];
        assert!(*u > 0, "releasing unheld slot on {node}");
        *u -= 1;
    }

    /// Frees every slot on `node` (node failure), returning how many were
    /// in use.
    pub fn clear_node(&mut self, node: NodeId) -> usize {
        std::mem::take(&mut self.used[node.0 as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_until_full() {
        let mut s = Slots::new(1, 2);
        assert!(s.acquire(NodeId(0)));
        assert!(s.acquire(NodeId(0)));
        assert!(!s.acquire(NodeId(0)));
        assert_eq!(s.free(NodeId(0)), 0);
        assert_eq!(s.used(NodeId(0)), 2);
    }

    #[test]
    fn release_restores_capacity() {
        let mut s = Slots::new(1, 1);
        assert!(s.acquire(NodeId(0)));
        s.release(NodeId(0));
        assert!(s.acquire(NodeId(0)));
    }

    #[test]
    fn clear_node_frees_everything() {
        let mut s = Slots::new(2, 4);
        s.acquire(NodeId(1));
        s.acquire(NodeId(1));
        assert_eq!(s.clear_node(NodeId(1)), 2);
        assert_eq!(s.free(NodeId(1)), 4);
        assert_eq!(s.used(NodeId(0)) + s.used(NodeId(1)), 0);
    }

    #[test]
    #[should_panic(expected = "releasing unheld slot")]
    fn release_unheld_panics() {
        Slots::new(1, 1).release(NodeId(0));
    }
}
