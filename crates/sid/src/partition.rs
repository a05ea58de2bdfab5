//! SID-prefix partitioning.
//!
//! DCDB exploits hierarchical SIDs as Cassandra partition keys: a
//! partitioning algorithm maps a *sub-tree* of the sensor hierarchy to a
//! particular database server, so that readings are stored on the nearest
//! server and queries go straight to the owning server (paper §4.3).
//!
//! [`Partitioner`] implements that algorithm: explicit sub-tree assignments
//! at a configurable depth, with a deterministic hash fallback for sensors
//! that no rule covers.  [`PartitionMap`] is the cluster-wide routing table.

use std::collections::BTreeMap;

use crate::sid::SensorId;

/// Strategy that assigns a SID to one of `n` storage nodes.
#[derive(Debug, Clone)]
pub enum Partitioner {
    /// Hash the full SID onto `0..n` (Cassandra's random partitioner;
    /// destroys locality — kept as the ablation baseline).
    Random,
    /// Use the SID prefix of the given depth: sensors in the same sub-tree
    /// land on the same node (DCDB's hierarchical partitioner).
    Prefix {
        /// Hierarchy depth of the partition key (e.g. 3 = rack level).
        depth: usize,
    },
}

impl Partitioner {
    /// Map `sid` onto a node index in `0..nodes`.
    pub fn node_for(&self, sid: SensorId, nodes: usize) -> usize {
        assert!(nodes > 0, "cluster must have at least one node");
        match self {
            Partitioner::Random => mix(sid.raw()) as usize % nodes,
            Partitioner::Prefix { depth } => mix(sid.prefix(*depth).raw()) as usize % nodes,
        }
    }
}

/// 128→64 bit mixer (xor-fold + SplitMix64 finaliser) for even node spread.
fn mix(v: u128) -> u64 {
    let mut x = (v as u64) ^ ((v >> 64) as u64);
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Routing table for a store cluster: explicit sub-tree pins plus a fallback
/// [`Partitioner`].
#[derive(Debug, Clone)]
pub struct PartitionMap {
    nodes: usize,
    fallback: Partitioner,
    /// Pinned sub-trees: (prefix SID, depth) → node index.
    pins: BTreeMap<(u128, usize), usize>,
}

impl PartitionMap {
    /// A map over `nodes` servers using hierarchical prefix partitioning of
    /// the given depth.
    pub fn prefix(nodes: usize, depth: usize) -> Self {
        PartitionMap { nodes, fallback: Partitioner::Prefix { depth }, pins: BTreeMap::new() }
    }

    /// A map using the random partitioner (ablation baseline).
    pub fn random(nodes: usize) -> Self {
        PartitionMap { nodes, fallback: Partitioner::Random, pins: BTreeMap::new() }
    }

    /// Number of storage nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Hierarchy depth of the fallback prefix partitioner, `None` under the
    /// random partitioner.  Lets tools record enough routing information to
    /// reconstruct an equivalent cluster when re-opening a persisted
    /// multi-node database directory.
    pub fn prefix_depth(&self) -> Option<usize> {
        match self.fallback {
            Partitioner::Prefix { depth } => Some(depth),
            Partitioner::Random => None,
        }
    }

    /// Pin the sub-tree `prefix` (taken at `depth`) to `node`.
    ///
    /// # Panics
    /// Panics when `node >= self.nodes()`.
    pub fn pin(&mut self, prefix: SensorId, depth: usize, node: usize) {
        assert!(node < self.nodes, "node {node} out of range");
        self.pins.insert((prefix.prefix(depth).raw(), depth), node);
    }

    /// Route a SID to its owning node.  Deeper pins win over shallower ones.
    pub fn node_for(&self, sid: SensorId) -> usize {
        // Check pins from deepest to shallowest so the most specific rule wins.
        for depth in (1..=crate::sid::LEVELS).rev() {
            if let Some(&n) = self.pins.get(&(sid.prefix(depth).raw(), depth)) {
                return n;
            }
        }
        self.fallback.node_for(sid, self.nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(t: &str) -> SensorId {
        SensorId::from_topic(t).unwrap()
    }

    #[test]
    fn prefix_partitioner_keeps_subtrees_together() {
        let p = Partitioner::Prefix { depth: 3 };
        let a = p.node_for(sid("/s/r0/n0/power"), 7);
        let b = p.node_for(sid("/s/r0/n0/temp"), 7);
        let c = p.node_for(sid("/s/r0/n0/cpu0/instr"), 7);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn random_partitioner_spreads() {
        let p = Partitioner::Random;
        let mut counts = [0usize; 4];
        for i in 0..4000 {
            counts[p.node_for(sid(&format!("/s/r/n{i}/x")), 4)] += 1;
        }
        for c in counts {
            assert!(c > 700, "node severely underloaded: {counts:?}");
        }
    }

    #[test]
    fn prefix_partitioner_balances_across_subtrees() {
        let p = Partitioner::Prefix { depth: 2 };
        let mut counts = [0usize; 4];
        for r in 0..64 {
            counts[p.node_for(sid(&format!("/s/rack{r}/n/x")), 4)] += 1;
        }
        for c in counts {
            assert!(c >= 6, "rack spread too uneven: {counts:?}");
        }
    }

    #[test]
    fn pins_override_fallback() {
        let mut map = PartitionMap::prefix(4, 2);
        let s = sid("/s/rack9/n0/power");
        map.pin(sid("/s/rack9"), 2, 3);
        assert_eq!(map.node_for(s), 3);
        // deeper pin overrides
        map.pin(sid("/s/rack9/n0"), 3, 1);
        assert_eq!(map.node_for(s), 1);
        // unrelated sensors fall back
        let other = sid("/s/rack1/n0/power");
        let _ = map.node_for(other); // must not panic
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pin_validates_node() {
        let mut map = PartitionMap::prefix(2, 2);
        map.pin(sid("/a/b"), 2, 5);
    }

    #[test]
    fn single_node_routes_everything_to_zero() {
        let map = PartitionMap::prefix(1, 3);
        for i in 0..50 {
            assert_eq!(map.node_for(sid(&format!("/s/r/n{i}/x"))), 0);
        }
    }
}
