//! Three-level fat-tree topology.
//!
//! The model follows the structure of Quartz (Section III of the paper): a
//! fat-tree cluster whose compute nodes hang off edge switches, edge switches
//! uplink into per-pod aggregation switches, and pods connect through a core
//! layer. Experiments run inside one pod (512 nodes), matching the paper's
//! Section VI-A methodology.
//!
//! The topology is static; only link *loads* change during a simulation (see
//! [`crate::network`]). Links are identified by dense integer ids so load
//! maps can be flat vectors.

use serde::{Deserialize, Serialize};

/// Identifies a compute node (dense, `0..node_count`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

/// Identifies an edge switch (dense, `0..edge_switch_count`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SwitchId(pub u32);

/// Identifies a directed link-class in the tree.
///
/// The model aggregates physically parallel links of the same class (e.g.
/// the uplinks of one edge switch) into a single logical link with the
/// combined capacity; this is the standard fluid approximation for fat-tree
/// contention analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LinkId {
    /// A node's injection link into its edge switch (both directions).
    NodeAccess(NodeId),
    /// An edge switch's combined uplinks into its pod's aggregation layer.
    EdgeUplink(SwitchId),
    /// A pod's shared aggregation fabric: every byte crossing between edge
    /// switches of the same pod transits it. This is where fat-tree
    /// oversubscription bites and where the noise job hurts its neighbours.
    PodFabric(u32),
    /// A pod's combined uplinks into the core layer.
    PodUplink(u32),
}

/// Shape parameters of the fat tree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FatTreeConfig {
    /// Number of pods.
    pub pods: u32,
    /// Edge switches per pod.
    pub edge_per_pod: u32,
    /// Compute nodes per edge switch.
    pub nodes_per_edge: u32,
    /// Cores per compute node (Quartz: 36; the paper's jobs use 32).
    pub cores_per_node: u32,
    /// Capacity of one node access link, GB/s.
    pub access_gbps: f64,
    /// Combined capacity of an edge switch's uplinks, GB/s.
    pub edge_uplink_gbps: f64,
    /// Capacity of a pod's shared aggregation fabric, GB/s (oversubscribed:
    /// below the sum of its edge uplinks).
    pub pod_fabric_gbps: f64,
    /// Combined capacity of a pod's core uplinks, GB/s.
    pub pod_uplink_gbps: f64,
}

impl FatTreeConfig {
    /// A Quartz-like machine: 6 pods × 512 nodes ≈ 3072 nodes (Quartz has
    /// 2,988), 8 nodes per edge switch, 64 edge switches per pod. A
    /// 16-node job therefore spans at least two edge switches and sees
    /// fabric contention — as real Quartz jobs do.
    pub fn quartz_like() -> Self {
        FatTreeConfig {
            pods: 6,
            edge_per_pod: 64,
            nodes_per_edge: 8,
            cores_per_node: 36,
            access_gbps: 12.5,       // ~100 Gb/s Omni-Path
            edge_uplink_gbps: 50.0,  // 2:1 oversubscription at the edge
            pod_fabric_gbps: 1600.0, // 2:1 again within the pod
            pod_uplink_gbps: 4800.0,
        }
    }

    /// A single 512-node pod — the reservation used for the scheduling
    /// experiments (Table II).
    pub fn single_pod() -> Self {
        FatTreeConfig {
            pods: 1,
            ..Self::quartz_like()
        }
    }

    /// A small tree for unit tests: 2 pods × 2 edge × 4 nodes = 16 nodes.
    pub fn tiny() -> Self {
        FatTreeConfig {
            pods: 2,
            edge_per_pod: 2,
            nodes_per_edge: 4,
            cores_per_node: 4,
            access_gbps: 10.0,
            edge_uplink_gbps: 20.0,
            pod_fabric_gbps: 30.0,
            pod_uplink_gbps: 40.0,
        }
    }

    /// Total node count.
    pub fn node_count(&self) -> u32 {
        self.pods * self.edge_per_pod * self.nodes_per_edge
    }
}

/// An immutable fat-tree topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FatTree {
    config: FatTreeConfig,
}

impl FatTree {
    /// Builds the topology described by `config`.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn new(config: FatTreeConfig) -> Self {
        assert!(config.pods > 0, "fat tree needs at least one pod");
        assert!(
            config.edge_per_pod > 0,
            "pod needs at least one edge switch"
        );
        assert!(
            config.nodes_per_edge > 0,
            "edge switch needs at least one node"
        );
        assert!(config.cores_per_node > 0, "node needs at least one core");
        FatTree { config }
    }

    /// The shape parameters.
    pub fn config(&self) -> &FatTreeConfig {
        &self.config
    }

    /// Total number of compute nodes.
    pub fn node_count(&self) -> u32 {
        self.config.node_count()
    }

    /// Total number of edge switches.
    pub fn edge_switch_count(&self) -> u32 {
        self.config.pods * self.config.edge_per_pod
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count()).map(NodeId)
    }

    /// The edge switch `node` hangs off.
    pub fn edge_of(&self, node: NodeId) -> SwitchId {
        debug_assert!(node.0 < self.node_count(), "node {node:?} out of range");
        SwitchId(node.0 / self.config.nodes_per_edge)
    }

    /// The pod containing `node`.
    pub fn pod_of(&self, node: NodeId) -> u32 {
        self.edge_of(node).0 / self.config.edge_per_pod
    }

    /// The pod containing edge switch `sw`.
    pub fn pod_of_switch(&self, sw: SwitchId) -> u32 {
        sw.0 / self.config.edge_per_pod
    }

    /// The node ids attached to edge switch `sw`.
    pub fn nodes_of_edge(&self, sw: SwitchId) -> impl Iterator<Item = NodeId> {
        let start = sw.0 * self.config.nodes_per_edge;
        (start..start + self.config.nodes_per_edge).map(NodeId)
    }

    /// The node ids in pod `pod`.
    pub fn nodes_of_pod(&self, pod: u32) -> impl Iterator<Item = NodeId> {
        let per_pod = self.config.edge_per_pod * self.config.nodes_per_edge;
        let start = pod * per_pod;
        (start..start + per_pod).map(NodeId)
    }

    /// Capacity of a link class in GB/s.
    pub fn capacity(&self, link: LinkId) -> f64 {
        match link {
            LinkId::NodeAccess(_) => self.config.access_gbps,
            LinkId::EdgeUplink(_) => self.config.edge_uplink_gbps,
            LinkId::PodFabric(_) => self.config.pod_fabric_gbps,
            LinkId::PodUplink(_) => self.config.pod_uplink_gbps,
        }
    }

    /// Number of links in the dense link index space (see
    /// [`FatTree::link_index`]).
    pub fn link_count(&self) -> usize {
        (self.node_count() + self.edge_switch_count() + 2 * self.config.pods) as usize
    }

    /// Dense index of `link`: access links first (by node), then edge
    /// uplinks (by switch), pod fabrics and pod uplinks (by pod). Per-link
    /// tables are flat vectors of [`FatTree::link_count`] entries in this
    /// order.
    pub fn link_index(&self, link: LinkId) -> usize {
        let nodes = self.node_count();
        let edges = self.edge_switch_count();
        let pods = self.config.pods;
        (match link {
            LinkId::NodeAccess(n) => n.0,
            LinkId::EdgeUplink(sw) => nodes + sw.0,
            LinkId::PodFabric(p) => nodes + edges + p,
            LinkId::PodUplink(p) => nodes + edges + pods + p,
        }) as usize
    }

    /// True if two nodes share an edge switch (their traffic never leaves
    /// the switch).
    pub fn same_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.edge_of(a) == self.edge_of(b)
    }

    /// True if two nodes share a pod.
    pub fn same_pod(&self, a: NodeId, b: NodeId) -> bool {
        self.pod_of(a) == self.pod_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartz_like_dimensions() {
        let t = FatTree::new(FatTreeConfig::quartz_like());
        assert_eq!(t.node_count(), 3072);
        assert_eq!(t.edge_switch_count(), 384);
    }

    #[test]
    fn single_pod_is_512_nodes() {
        let t = FatTree::new(FatTreeConfig::single_pod());
        assert_eq!(t.node_count(), 512);
    }

    #[test]
    fn node_to_switch_mapping() {
        let t = FatTree::new(FatTreeConfig::tiny());
        // tiny: 4 nodes per edge, 2 edges per pod
        assert_eq!(t.edge_of(NodeId(0)), SwitchId(0));
        assert_eq!(t.edge_of(NodeId(3)), SwitchId(0));
        assert_eq!(t.edge_of(NodeId(4)), SwitchId(1));
        assert_eq!(t.edge_of(NodeId(8)), SwitchId(2));
        assert_eq!(t.pod_of(NodeId(7)), 0);
        assert_eq!(t.pod_of(NodeId(8)), 1);
        assert_eq!(t.pod_of_switch(SwitchId(1)), 0);
        assert_eq!(t.pod_of_switch(SwitchId(2)), 1);
    }

    #[test]
    fn nodes_of_edge_and_pod_round_trip() {
        let t = FatTree::new(FatTreeConfig::tiny());
        for sw in 0..t.edge_switch_count() {
            for n in t.nodes_of_edge(SwitchId(sw)) {
                assert_eq!(t.edge_of(n), SwitchId(sw));
            }
        }
        for pod in 0..t.config().pods {
            let nodes: Vec<_> = t.nodes_of_pod(pod).collect();
            assert_eq!(nodes.len(), 8);
            for n in nodes {
                assert_eq!(t.pod_of(n), pod);
            }
        }
    }

    #[test]
    fn locality_predicates() {
        let t = FatTree::new(FatTreeConfig::tiny());
        assert!(t.same_edge(NodeId(0), NodeId(3)));
        assert!(!t.same_edge(NodeId(0), NodeId(4)));
        assert!(t.same_pod(NodeId(0), NodeId(4)));
        assert!(!t.same_pod(NodeId(0), NodeId(8)));
    }

    #[test]
    fn capacities_by_class() {
        let t = FatTree::new(FatTreeConfig::tiny());
        assert_eq!(t.capacity(LinkId::NodeAccess(NodeId(0))), 10.0);
        assert_eq!(t.capacity(LinkId::EdgeUplink(SwitchId(0))), 20.0);
        assert_eq!(t.capacity(LinkId::PodFabric(0)), 30.0);
        assert_eq!(t.capacity(LinkId::PodUplink(0)), 40.0);
    }

    #[test]
    fn link_indices_are_dense_and_grouped_by_class() {
        let t = FatTree::new(FatTreeConfig::tiny());
        let mut links: Vec<LinkId> = t.nodes().map(LinkId::NodeAccess).collect();
        links.extend((0..t.edge_switch_count()).map(|sw| LinkId::EdgeUplink(SwitchId(sw))));
        links.extend((0..t.config().pods).map(LinkId::PodFabric));
        links.extend((0..t.config().pods).map(LinkId::PodUplink));
        assert_eq!(t.link_count(), links.len());
        for (i, &link) in links.iter().enumerate() {
            assert_eq!(t.link_index(link), i, "{link:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one pod")]
    fn zero_pods_rejected() {
        FatTree::new(FatTreeConfig {
            pods: 0,
            ..FatTreeConfig::tiny()
        });
    }

    #[test]
    fn nodes_iterator_is_dense() {
        let t = FatTree::new(FatTreeConfig::tiny());
        let ids: Vec<u32> = t.nodes().map(|n| n.0).collect();
        assert_eq!(ids, (0..16).collect::<Vec<_>>());
    }
}
