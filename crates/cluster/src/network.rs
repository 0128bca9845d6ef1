//! Network contention model.
//!
//! Every communicating entity — a running job, the MPI probe benchmarks, the
//! all-to-all noise job — is a [`TrafficSource`]: a node set, a per-node
//! injection rate, and a communication pattern. Sources are folded into
//! per-link loads on the fat tree using the standard fluid approximation:
//! each node's traffic is split across destinations according to the
//! pattern, and the share crossing each tree level is charged to that
//! level's (aggregated) uplink.
//!
//! Congestion for a node set is then the worst utilization among the links
//! that set's traffic traverses, which is what determines slowdown in
//! bandwidth-bound collectives.

use crate::topology::{FatTree, LinkId, NodeId, SwitchId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Which links the regime-driven background utilization applies to.
///
/// On the full production machine, background traffic loads every shared
/// level. Inside a dedicated reservation (the experiments' 512-node pod),
/// production flows only transit the core and the filesystem; the pod's
/// internal fabric carries nothing but the reservation's own jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum BackgroundScope {
    /// Background on edge uplinks, pod fabric and core (production machine).
    #[default]
    AllLinks,
    /// Background on core uplinks only (dedicated reservation).
    CoreOnly,
}

/// How a source's traffic is distributed among its nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrafficPattern {
    /// Uniform all-to-all: each byte picks a uniformly random peer.
    /// Collectives (AllReduce, FFT transposes) and the noise job look like
    /// this at the fabric level.
    AllToAll,
    /// Ring / halo exchange: each node talks to neighbours in id order, so
    /// most traffic stays local to edge switches when the allocation is
    /// contiguous.
    Neighbor,
}

/// A registered traffic source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficSource {
    /// Nodes injecting traffic.
    pub nodes: Vec<NodeId>,
    /// Sustained injection per node, GB/s.
    pub per_node_gbps: f64,
    /// Distribution of that traffic.
    pub pattern: TrafficPattern,
}

/// Mutable network state: the set of active sources and the lazily rebuilt
/// per-link load map.
///
/// Sources are kept in id order and each source's switches and pods are
/// visited in index order, so every link load is summed in one fixed order:
/// two states holding the same sources agree bit for bit, however their
/// maps grew.
#[derive(Debug, Clone)]
pub struct NetworkState {
    sources: BTreeMap<u64, TrafficSource>,
    loads: HashMap<LinkId, f64>,
    /// Background utilization added to uplinks per the scope (regime-driven
    /// traffic from the rest of the machine; see [`crate::noise`]).
    background_util: f64,
    background_scope: BackgroundScope,
    /// Injected fabric-contention storms: `(pod, intensity_milli)` sorted by
    /// pod, added to the pod's fabric links on top of load and background.
    /// Intensities are integer milli-units so start/end pairs cancel exactly
    /// and snapshots round-trip byte-identically.
    storms: Vec<(u32, u32)>,
    dirty: bool,
    /// Bumped on every observable change (source set, background level or
    /// scope). Consumers cache derived quantities keyed by this counter.
    version: u64,
}

impl NetworkState {
    /// An empty network.
    pub fn new() -> Self {
        NetworkState {
            sources: BTreeMap::new(),
            loads: HashMap::new(),
            background_util: 0.0,
            background_scope: BackgroundScope::AllLinks,
            storms: Vec::new(),
            dirty: false,
            version: 0,
        }
    }

    /// Monotonic change counter: unchanged between two calls means every
    /// [`utilization`](Self::utilization) result is unchanged too.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Sets which links the background utilization applies to.
    pub fn set_background_scope(&mut self, scope: BackgroundScope) {
        if self.background_scope != scope {
            self.background_scope = scope;
            self.version += 1;
        }
    }

    /// Registers (or replaces) source `id`.
    pub fn add_source(&mut self, id: u64, source: TrafficSource) {
        self.sources.insert(id, source);
        self.dirty = true;
        self.version += 1;
    }

    /// Removes source `id`; ignores unknown ids.
    pub fn remove_source(&mut self, id: u64) {
        if self.sources.remove(&id).is_some() {
            self.dirty = true;
            self.version += 1;
        }
    }

    /// Number of active sources.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Sets the background utilization added to every uplink.
    pub fn set_background_util(&mut self, util: f64) {
        let util = util.max(0.0);
        if util != self.background_util {
            self.background_util = util;
            self.version += 1;
        }
    }

    /// Current background utilization.
    pub fn background_util(&self) -> f64 {
        self.background_util
    }

    /// Sets the injected storm contention on `pod`'s fabric links;
    /// `intensity_milli == 0` clears it. Bumps the version only on an
    /// observable change so congestion caches stay valid across no-ops.
    pub fn set_storm(&mut self, pod: u32, intensity_milli: u32) {
        match self.storms.binary_search_by_key(&pod, |&(p, _)| p) {
            Ok(i) => {
                if intensity_milli == 0 {
                    self.storms.remove(i);
                    self.version += 1;
                } else if self.storms[i].1 != intensity_milli {
                    self.storms[i].1 = intensity_milli;
                    self.version += 1;
                }
            }
            Err(i) => {
                if intensity_milli != 0 {
                    self.storms.insert(i, (pod, intensity_milli));
                    self.version += 1;
                }
            }
        }
    }

    /// Storm intensity currently injected on `pod`, in milli-units.
    pub fn storm_milli(&self, pod: u32) -> u32 {
        self.storms
            .binary_search_by_key(&pod, |&(p, _)| p)
            .map(|i| self.storms[i].1)
            .unwrap_or(0)
    }

    /// Active storms as `(pod, intensity_milli)`, sorted by pod.
    pub fn storms(&self) -> &[(u32, u32)] {
        &self.storms
    }

    /// Rebuilds the per-link load map if any source changed.
    fn refresh(&mut self, tree: &FatTree) {
        if !self.dirty {
            return;
        }
        self.loads.clear();
        for source in self.sources.values() {
            accumulate_source(tree, source, &mut self.loads);
        }
        self.dirty = false;
    }

    /// Utilization (load / capacity, plus background on uplinks) of `link`.
    pub fn utilization(&mut self, tree: &FatTree, link: LinkId) -> f64 {
        self.refresh(tree);
        let load = self.loads.get(&link).copied().unwrap_or(0.0);
        let base = load / tree.capacity(link);
        let with_background = match (self.background_scope, link) {
            (_, LinkId::NodeAccess(_)) => false,
            (BackgroundScope::AllLinks, _) => true,
            (BackgroundScope::CoreOnly, LinkId::PodUplink(_)) => true,
            (BackgroundScope::CoreOnly, _) => false,
        };
        let base = if with_background {
            base + self.background_util
        } else {
            base
        };
        // Storm contention hits every fabric link of the afflicted pod
        // (edge uplinks included) but never the node access links.
        let storm_pod = match link {
            LinkId::NodeAccess(_) => None,
            LinkId::EdgeUplink(sw) => Some(tree.pod_of_switch(sw)),
            LinkId::PodFabric(p) | LinkId::PodUplink(p) => Some(p),
        };
        match storm_pod {
            Some(pod) => base + f64::from(self.storm_milli(pod)) / 1000.0,
            None => base,
        }
    }

    /// Congestion index for a node set: the maximum utilization over the
    /// links an all-to-all exchange among `nodes` would traverse.
    ///
    /// `1.0` means some traversed link is exactly at capacity; values above
    /// one mean flows through it are throttled proportionally.
    pub fn congestion(&mut self, tree: &FatTree, nodes: &[NodeId]) -> f64 {
        self.refresh(tree);
        let mut worst: f64 = 0.0;
        for link in traversed_links(tree, nodes) {
            worst = worst.max(self.utilization(tree, link));
        }
        worst
    }

    /// Total load on a node's access link (GB/s), before normalization —
    /// used by counter synthesis for per-node xmit/recv rates.
    pub fn node_access_load(&mut self, tree: &FatTree, node: NodeId) -> f64 {
        self.refresh(tree);
        self.loads
            .get(&LinkId::NodeAccess(node))
            .copied()
            .unwrap_or(0.0)
    }

    /// Utilization of the edge uplink above `node` — the key congestion
    /// signal the switch counters (`opa_info`) expose.
    pub fn edge_uplink_util(&mut self, tree: &FatTree, node: NodeId) -> f64 {
        let sw = tree.edge_of(node);
        self.utilization(tree, LinkId::EdgeUplink(sw))
    }

    /// Utilization of the upper fabric above `node`'s pod: the worse of the
    /// pod's aggregation fabric and its core uplink.
    pub fn upper_fabric_util(&mut self, tree: &FatTree, node: NodeId) -> f64 {
        let pod = tree.pod_of(node);
        self.utilization(tree, LinkId::PodFabric(pod))
            .max(self.utilization(tree, LinkId::PodUplink(pod)))
    }
}

impl Default for NetworkState {
    fn default() -> Self {
        Self::new()
    }
}

/// The links an all-to-all exchange among `nodes` traverses — the set
/// [`NetworkState::congestion`] maximizes over. The set depends only on the
/// (static) tree and the node set, so callers holding a fixed allocation can
/// compute it once and revalidate only the utilization values.
pub fn traversed_links(tree: &FatTree, nodes: &[NodeId]) -> Vec<LinkId> {
    let mut links: Vec<LinkId> = Vec::with_capacity(nodes.len() + 4);
    let mut seen_switches: Vec<SwitchId> = Vec::new();
    let mut seen_pods: Vec<u32> = Vec::new();
    for &n in nodes {
        links.push(LinkId::NodeAccess(n));
        let e = tree.edge_of(n);
        if !seen_switches.contains(&e) {
            seen_switches.push(e);
        }
        let p = tree.pod_of(n);
        if !seen_pods.contains(&p) {
            seen_pods.push(p);
        }
    }
    // Uplinks only matter when the allocation spans them.
    if seen_switches.len() > 1 {
        for &sw in &seen_switches {
            links.push(LinkId::EdgeUplink(sw));
        }
        // Cross-edge traffic transits the shared pod fabric.
        for &p in &seen_pods {
            links.push(LinkId::PodFabric(p));
        }
    }
    if seen_pods.len() > 1 {
        for &p in &seen_pods {
            links.push(LinkId::PodUplink(p));
        }
    }
    links
}

/// Adds one source's traffic to the link-load map.
fn accumulate_source(tree: &FatTree, source: &TrafficSource, loads: &mut HashMap<LinkId, f64>) {
    let n = source.nodes.len();
    if n == 0 || source.per_node_gbps <= 0.0 {
        return;
    }
    let rate = source.per_node_gbps;

    // Access links: every node both injects and receives ~rate.
    for &node in &source.nodes {
        *loads.entry(LinkId::NodeAccess(node)).or_insert(0.0) += rate;
    }
    if n == 1 {
        return; // no peers, nothing crosses the fabric
    }

    // Count source nodes per edge switch and per pod.
    let mut per_edge: BTreeMap<SwitchId, usize> = BTreeMap::new();
    let mut per_pod: BTreeMap<u32, usize> = BTreeMap::new();
    for &node in &source.nodes {
        *per_edge.entry(tree.edge_of(node)).or_insert(0) += 1;
        *per_pod.entry(tree.pod_of(node)).or_insert(0) += 1;
    }

    let total = n as f64;
    match source.pattern {
        TrafficPattern::AllToAll => {
            // A node in an edge switch with k source-peers sends the
            // fraction (n - k) / (n - 1) of its traffic out of the switch.
            // That same traffic transits the pod's shared fabric.
            for (&sw, &k) in &per_edge {
                let outside = (total - k as f64) / (total - 1.0);
                let crossing = k as f64 * rate * outside;
                if crossing > 0.0 {
                    *loads.entry(LinkId::EdgeUplink(sw)).or_insert(0.0) += crossing;
                    let pod = tree.pod_of_switch(sw);
                    *loads.entry(LinkId::PodFabric(pod)).or_insert(0.0) += crossing;
                }
            }
            for (&pod, &k) in &per_pod {
                let outside = (total - k as f64) / (total - 1.0);
                let crossing = k as f64 * rate * outside;
                if crossing > 0.0 {
                    *loads.entry(LinkId::PodUplink(pod)).or_insert(0.0) += crossing;
                }
            }
        }
        TrafficPattern::Neighbor => {
            // Ring traffic: only the boundary nodes of each edge-switch
            // group send across the uplink (2 boundary flows per group).
            for (&sw, &k) in &per_edge {
                if (k as f64) < total {
                    *loads.entry(LinkId::EdgeUplink(sw)).or_insert(0.0) += 2.0 * rate;
                    let pod = tree.pod_of_switch(sw);
                    *loads.entry(LinkId::PodFabric(pod)).or_insert(0.0) += 2.0 * rate;
                }
            }
            for (&pod, &k) in &per_pod {
                if (k as f64) < total {
                    *loads.entry(LinkId::PodUplink(pod)).or_insert(0.0) += 2.0 * rate;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FatTreeConfig;

    fn tiny() -> FatTree {
        FatTree::new(FatTreeConfig::tiny())
    }

    fn ids(range: std::ops::Range<u32>) -> Vec<NodeId> {
        range.map(NodeId).collect()
    }

    #[test]
    fn empty_network_has_zero_congestion() {
        let tree = tiny();
        let mut net = NetworkState::new();
        assert_eq!(net.congestion(&tree, &ids(0..8)), 0.0);
    }

    #[test]
    fn single_edge_alltoall_stays_local() {
        let tree = tiny();
        let mut net = NetworkState::new();
        // Nodes 0..4 all live on edge switch 0.
        net.add_source(
            1,
            TrafficSource {
                nodes: ids(0..4),
                per_node_gbps: 5.0,
                pattern: TrafficPattern::AllToAll,
            },
        );
        // No uplink load at all.
        assert_eq!(net.utilization(&tree, LinkId::EdgeUplink(SwitchId(0))), 0.0);
        // Access links carry the injection: 5/10 = 0.5.
        assert!((net.utilization(&tree, LinkId::NodeAccess(NodeId(0))) - 0.5).abs() < 1e-12);
        // Congestion for the single-switch set never looks at uplinks.
        assert!((net.congestion(&tree, &ids(0..4)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cross_edge_alltoall_loads_uplinks() {
        let tree = tiny();
        let mut net = NetworkState::new();
        // Nodes 0..8 span both edge switches of pod 0 (4 + 4).
        net.add_source(
            1,
            TrafficSource {
                nodes: ids(0..8),
                per_node_gbps: 2.0,
                pattern: TrafficPattern::AllToAll,
            },
        );
        // Each edge switch: 4 nodes * 2 GB/s * (4/7 outside) = 32/7 GB/s.
        let expected = 4.0 * 2.0 * (4.0 / 7.0) / 20.0;
        let u = net.utilization(&tree, LinkId::EdgeUplink(SwitchId(0)));
        assert!((u - expected).abs() < 1e-12, "got {u}, want {expected}");
        // All in pod 0, so pod uplink untouched.
        assert_eq!(net.utilization(&tree, LinkId::PodUplink(0)), 0.0);
    }

    #[test]
    fn cross_pod_alltoall_loads_core() {
        let tree = tiny();
        let mut net = NetworkState::new();
        // 8 nodes in pod 0, 8 in pod 1.
        net.add_source(
            1,
            TrafficSource {
                nodes: ids(0..16),
                per_node_gbps: 1.0,
                pattern: TrafficPattern::AllToAll,
            },
        );
        let u = net.utilization(&tree, LinkId::PodUplink(0));
        // 8 nodes * 1 GB/s * (8/15 outside) / 40 GB/s
        let expected = 8.0 * (8.0 / 15.0) / 40.0;
        assert!((u - expected).abs() < 1e-12);
    }

    #[test]
    fn congestion_takes_worst_traversed_link() {
        let tree = tiny();
        let mut net = NetworkState::new();
        // Saturate edge switch 0's uplink with a cross-edge source.
        net.add_source(
            1,
            TrafficSource {
                nodes: vec![NodeId(0), NodeId(4)],
                per_node_gbps: 30.0,
                pattern: TrafficPattern::AllToAll,
            },
        );
        // Both nodes' traffic fully crosses: 30 GB/s each -> uplink 30/20 = 1.5,
        // access 30/10 = 3.0 dominates.
        let c = net.congestion(&tree, &[NodeId(0), NodeId(4)]);
        assert!((c - 3.0).abs() < 1e-12);
        // A bystander pair on the same switches sees the worse of the edge
        // uplinks (30/20 = 1.5) and the pod fabric (60/30 = 2.0).
        let c2 = net.congestion(&tree, &[NodeId(1), NodeId(5)]);
        assert!((c2 - 2.0).abs() < 1e-12, "got {c2}");
        // A bystander pair fully inside switch 1 sees nothing.
        let c3 = net.congestion(&tree, &[NodeId(5), NodeId(6)]);
        assert_eq!(c3, 0.0);
    }

    #[test]
    fn neighbor_pattern_is_cheaper_than_alltoall() {
        let tree = tiny();
        let mut a2a = NetworkState::new();
        let mut ring = NetworkState::new();
        let src = |pattern| TrafficSource {
            nodes: ids(0..8),
            per_node_gbps: 4.0,
            pattern,
        };
        a2a.add_source(1, src(TrafficPattern::AllToAll));
        ring.add_source(1, src(TrafficPattern::Neighbor));
        let ua = a2a.utilization(&tree, LinkId::EdgeUplink(SwitchId(0)));
        let ur = ring.utilization(&tree, LinkId::EdgeUplink(SwitchId(0)));
        assert!(ur < ua, "ring {ur} should be below all-to-all {ua}");
        assert!(ur > 0.0);
    }

    #[test]
    fn background_applies_to_uplinks_only() {
        let tree = tiny();
        let mut net = NetworkState::new();
        net.set_background_util(0.3);
        assert_eq!(net.utilization(&tree, LinkId::NodeAccess(NodeId(0))), 0.0);
        assert!((net.utilization(&tree, LinkId::EdgeUplink(SwitchId(0))) - 0.3).abs() < 1e-12);
        assert!((net.utilization(&tree, LinkId::PodUplink(1)) - 0.3).abs() < 1e-12);
        // Single-switch allocations don't see uplink background.
        assert_eq!(net.congestion(&tree, &ids(0..4)), 0.0);
        // Cross-switch allocations do.
        assert!((net.congestion(&tree, &ids(0..8)) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn add_remove_source_round_trips() {
        let tree = tiny();
        let mut net = NetworkState::new();
        net.add_source(
            7,
            TrafficSource {
                nodes: ids(0..8),
                per_node_gbps: 3.0,
                pattern: TrafficPattern::AllToAll,
            },
        );
        assert!(net.congestion(&tree, &ids(0..8)) > 0.0);
        net.remove_source(7);
        assert_eq!(net.congestion(&tree, &ids(0..8)), 0.0);
        assert_eq!(net.source_count(), 0);
        // removing twice is fine
        net.remove_source(7);
    }

    #[test]
    fn sources_superpose() {
        let tree = tiny();
        let mut net = NetworkState::new();
        let src = TrafficSource {
            nodes: ids(0..8),
            per_node_gbps: 2.0,
            pattern: TrafficPattern::AllToAll,
        };
        net.add_source(1, src.clone());
        let one = net.congestion(&tree, &ids(0..8));
        net.add_source(2, src);
        let two = net.congestion(&tree, &ids(0..8));
        assert!((two - 2.0 * one).abs() < 1e-9);
    }

    #[test]
    fn version_bumps_only_on_observable_change() {
        let mut net = NetworkState::new();
        let v0 = net.version();
        net.set_background_util(0.0); // unchanged value
        assert_eq!(net.version(), v0);
        net.set_background_util(0.25);
        assert_eq!(net.version(), v0 + 1);
        net.set_background_util(0.25); // same again
        assert_eq!(net.version(), v0 + 1);
        net.remove_source(99); // unknown id, no change
        assert_eq!(net.version(), v0 + 1);
        net.add_source(
            1,
            TrafficSource {
                nodes: ids(0..4),
                per_node_gbps: 1.0,
                pattern: TrafficPattern::AllToAll,
            },
        );
        assert_eq!(net.version(), v0 + 2);
        net.remove_source(1);
        assert_eq!(net.version(), v0 + 3);
        net.set_background_scope(BackgroundScope::CoreOnly);
        assert_eq!(net.version(), v0 + 4);
        net.set_background_scope(BackgroundScope::CoreOnly);
        assert_eq!(net.version(), v0 + 4);
    }

    #[test]
    fn storms_load_the_afflicted_pods_fabric_only() {
        let tree = tiny();
        let mut net = NetworkState::new();
        let v0 = net.version();
        net.set_storm(0, 600);
        assert_eq!(net.version(), v0 + 1);
        assert_eq!(net.storm_milli(0), 600);
        // Pod 0's fabric carries the storm; node access links and pod 1 do
        // not.
        assert!((net.utilization(&tree, LinkId::PodFabric(0)) - 0.6).abs() < 1e-9);
        assert!((net.utilization(&tree, LinkId::EdgeUplink(SwitchId(0))) - 0.6).abs() < 1e-9);
        assert!((net.utilization(&tree, LinkId::PodUplink(0)) - 0.6).abs() < 1e-9);
        assert_eq!(net.utilization(&tree, LinkId::NodeAccess(NodeId(0))), 0.0);
        assert_eq!(net.utilization(&tree, LinkId::PodFabric(1)), 0.0);
        // A cross-switch allocation inside pod 0 sees the storm as
        // congestion; a single-switch one does not (access links only).
        assert!(net.congestion(&tree, &ids(0..8)) > 0.5);
        assert_eq!(net.congestion(&tree, &ids(0..4)), 0.0);
    }

    #[test]
    fn storm_set_and_clear_are_exact_and_version_gated() {
        let mut net = NetworkState::new();
        let v0 = net.version();
        net.set_storm(3, 0); // clearing a non-storm is a no-op
        assert_eq!(net.version(), v0);
        net.set_storm(3, 450);
        net.set_storm(3, 450); // same intensity, no observable change
        assert_eq!(net.version(), v0 + 1);
        net.set_storm(1, 200);
        assert_eq!(net.storms(), &[(1, 200), (3, 450)]);
        net.set_storm(3, 0);
        assert_eq!(net.storms(), &[(1, 200)]);
        net.set_storm(1, 0);
        assert_eq!(net.version(), v0 + 4);
        assert!(net.storms().is_empty());
    }

    #[test]
    fn traversed_links_matches_congestion_levels() {
        let tree = tiny();
        // Single switch: access links only.
        let links = traversed_links(&tree, &ids(0..4));
        assert_eq!(links.len(), 4);
        assert!(links.iter().all(|l| matches!(l, LinkId::NodeAccess(_))));
        // Cross-switch, single pod: adds edge uplinks + pod fabric.
        let links = traversed_links(&tree, &ids(0..8));
        assert!(links.contains(&LinkId::EdgeUplink(SwitchId(0))));
        assert!(links.contains(&LinkId::PodFabric(0)));
        assert!(!links.iter().any(|l| matches!(l, LinkId::PodUplink(_))));
        // Cross-pod: adds pod uplinks.
        let links = traversed_links(&tree, &ids(0..16));
        assert!(links.contains(&LinkId::PodUplink(0)));
        assert!(links.contains(&LinkId::PodUplink(1)));
    }

    #[test]
    fn empty_or_zero_rate_sources_are_inert() {
        let tree = tiny();
        let mut net = NetworkState::new();
        net.add_source(
            1,
            TrafficSource {
                nodes: vec![],
                per_node_gbps: 5.0,
                pattern: TrafficPattern::AllToAll,
            },
        );
        net.add_source(
            2,
            TrafficSource {
                nodes: ids(0..4),
                per_node_gbps: 0.0,
                pattern: TrafficPattern::AllToAll,
            },
        );
        // Single-node source: nothing crosses the fabric.
        net.add_source(
            3,
            TrafficSource {
                nodes: vec![NodeId(9)],
                per_node_gbps: 5.0,
                pattern: TrafficPattern::AllToAll,
            },
        );
        assert_eq!(net.congestion(&tree, &ids(0..8)), 0.0);
        assert_eq!(net.utilization(&tree, LinkId::EdgeUplink(SwitchId(2))), 0.0);
    }
}
