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
//!
//! Loads and utilizations live in one dense table indexed by
//! [`FatTree::link_index`] (access links, then edge uplinks, pod fabrics and
//! pod uplinks). The table is rebuilt lazily, when a reader finds it older
//! than the source set or the [`NetworkState::version`], so every congestion
//! and observation read is a handful of array reads.

use crate::topology::{FatTree, LinkId, NodeId, SwitchId};
use rush_obs::profile as obs_profile;
use rush_obs::ProfileScope;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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
/// dense link table.
///
/// Sources are kept in id order and each source's switches and pods are
/// visited in index order, so every link load is summed in one fixed order:
/// two states holding the same sources agree bit for bit, however their
/// source sets grew.
#[derive(Debug, Clone)]
pub struct NetworkState {
    sources: BTreeMap<u64, TrafficSource>,
    /// Per-link load in GB/s, indexed by [`FatTree::link_index`]; sized to
    /// the tree on the first read.
    loads: Vec<f64>,
    /// Per-link utilization, same indexing, valid while `utils_at` equals
    /// `version`.
    utils: Vec<f64>,
    utils_at: Option<u64>,
    /// Scratch: the edge switch of each node of the source being added,
    /// reused across sources and rebuilds.
    switches: Vec<u32>,
    /// Background utilization added to uplinks per the scope (regime-driven
    /// traffic from the rest of the machine; see [`crate::noise`]).
    background_util: f64,
    background_scope: BackgroundScope,
    /// Injected fabric-contention storms: `(pod, intensity_milli)` sorted by
    /// pod, added to the pod's fabric links on top of load and background.
    /// Intensities are integer milli-units so start/end pairs cancel exactly
    /// and snapshots round-trip byte-identically.
    storms: Vec<(u32, u32)>,
    /// Set when the source set changed since `loads` was built.
    dirty: bool,
    /// Bumped on every observable change (source set, background level or
    /// scope, storms); the utilization table is keyed by it.
    version: u64,
}

impl NetworkState {
    /// An empty network.
    pub fn new() -> Self {
        NetworkState {
            sources: BTreeMap::new(),
            loads: Vec::new(),
            utils: Vec::new(),
            utils_at: None,
            switches: Vec::new(),
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
    /// observable change so the utilization table stays valid across no-ops.
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
        storm_of(&self.storms, pod)
    }

    /// Active storms as `(pod, intensity_milli)`, sorted by pod.
    pub fn storms(&self) -> &[(u32, u32)] {
        &self.storms
    }

    /// Brings the link table up to date: rebuilds the loads if the source
    /// set changed and the utilizations if the version moved since they
    /// were filled. Every reader calls this first, so nothing is rebuilt
    /// until something reads it.
    fn refresh(&mut self, tree: &FatTree) {
        if self.loads.len() != tree.link_count() {
            self.loads = vec![0.0; tree.link_count()];
            self.utils = vec![0.0; tree.link_count()];
            self.dirty = true;
            self.utils_at = None;
        }
        if self.utils_at == Some(self.version) {
            return;
        }
        let _scope = obs_profile::scope(ProfileScope::NetworkRefresh);
        let loads_changed = self.dirty;
        if self.dirty {
            self.loads.fill(0.0);
            for source in self.sources.values() {
                accumulate_source(tree, source, &mut self.loads, &mut self.switches);
            }
            self.dirty = false;
        }
        self.fill_utils(tree, loads_changed);
        self.utils_at = Some(self.version);
    }

    /// Utilization of every link: load / capacity, plus background on the
    /// uplinks the scope covers, plus the pod's storm on every link above
    /// the access layer. Access links carry neither, so their utilizations
    /// are refilled only when the loads changed.
    fn fill_utils(&mut self, tree: &FatTree, loads_changed: bool) {
        let cfg = *tree.config();
        let background = self.background_util;
        let fabric_background = self.background_scope == BackgroundScope::AllLinks;
        let with_background = |base: f64, applies: bool| {
            if applies {
                base + background
            } else {
                base
            }
        };
        let (loads, utils, storms) = (&self.loads, &mut self.utils, &self.storms);
        if loads_changed {
            let nodes = tree.node_count() as usize;
            for (u, &load) in utils[..nodes].iter_mut().zip(&loads[..nodes]) {
                *u = load / cfg.access_gbps;
            }
        }
        for pod in 0..cfg.pods {
            let storm = f64::from(storm_of(storms, pod)) / 1000.0;
            for sw in pod * cfg.edge_per_pod..(pod + 1) * cfg.edge_per_pod {
                let i = tree.link_index(LinkId::EdgeUplink(SwitchId(sw)));
                let base = loads[i] / cfg.edge_uplink_gbps;
                utils[i] = with_background(base, fabric_background) + storm;
            }
            let i = tree.link_index(LinkId::PodFabric(pod));
            let base = loads[i] / cfg.pod_fabric_gbps;
            utils[i] = with_background(base, fabric_background) + storm;
            let i = tree.link_index(LinkId::PodUplink(pod));
            utils[i] = loads[i] / cfg.pod_uplink_gbps + background + storm;
        }
    }

    /// Utilization (load / capacity, plus background on uplinks and storms
    /// on fabric links) of `link`.
    pub fn utilization(&mut self, tree: &FatTree, link: LinkId) -> f64 {
        self.refresh(tree);
        self.utils[tree.link_index(link)]
    }

    /// Congestion index for a node set: the maximum utilization over the
    /// links an all-to-all exchange among `nodes` would traverse.
    ///
    /// `1.0` means some traversed link is exactly at capacity; values above
    /// one mean flows through it are throttled proportionally.
    pub fn congestion(&mut self, tree: &FatTree, nodes: &[NodeId]) -> f64 {
        self.congestion_over(tree, &traversed_links(tree, nodes))
    }

    /// The maximum utilization over `links` (indices from
    /// [`traversed_links`]): [`congestion`](Self::congestion) for a caller
    /// that keeps a fixed allocation's link list.
    pub fn congestion_over(&mut self, tree: &FatTree, links: &[u32]) -> f64 {
        self.refresh(tree);
        links
            .iter()
            .fold(0.0, |worst: f64, &l| worst.max(self.utils[l as usize]))
    }

    /// Total load on a node's access link (GB/s), before normalization —
    /// used by counter synthesis for per-node xmit/recv rates.
    pub fn node_access_load(&mut self, tree: &FatTree, node: NodeId) -> f64 {
        self.refresh(tree);
        self.loads[tree.link_index(LinkId::NodeAccess(node))]
    }

    /// Utilization of the edge uplink above `node` — the key congestion
    /// signal the switch counters (`opa_info`) expose.
    pub fn edge_uplink_util(&mut self, tree: &FatTree, node: NodeId) -> f64 {
        self.utilization(tree, LinkId::EdgeUplink(tree.edge_of(node)))
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

/// The storm intensity `storms` (sorted by pod) holds for `pod`, 0 if none.
fn storm_of(storms: &[(u32, u32)], pod: u32) -> u32 {
    storms
        .binary_search_by_key(&pod, |&(p, _)| p)
        .map(|i| storms[i].1)
        .unwrap_or(0)
}

/// Indices ([`FatTree::link_index`]) of the links an all-to-all exchange
/// among `nodes` traverses — the set [`NetworkState::congestion`] maximizes
/// over. The set depends only on the (static) tree and the node set, so
/// callers holding a fixed allocation can compute it once and read it
/// through [`NetworkState::congestion_over`].
pub fn traversed_links(tree: &FatTree, nodes: &[NodeId]) -> Vec<u32> {
    let index = |link| tree.link_index(link) as u32;
    let mut links: Vec<u32> = Vec::with_capacity(nodes.len() + 4);
    let mut seen_switches: Vec<SwitchId> = Vec::new();
    let mut seen_pods: Vec<u32> = Vec::new();
    for &n in nodes {
        links.push(index(LinkId::NodeAccess(n)));
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
            links.push(index(LinkId::EdgeUplink(sw)));
        }
        // Cross-edge traffic transits the shared pod fabric.
        for &p in &seen_pods {
            links.push(index(LinkId::PodFabric(p)));
        }
    }
    if seen_pods.len() > 1 {
        for &p in &seen_pods {
            links.push(index(LinkId::PodUplink(p)));
        }
    }
    links
}

/// Adds one source's traffic to the dense link loads. Each link receives
/// this source's contributions in node order (access links) or ascending
/// switch order (pod fabrics); the caller visits sources in id order.
fn accumulate_source(
    tree: &FatTree,
    source: &TrafficSource,
    loads: &mut [f64],
    switches: &mut Vec<u32>,
) {
    let n = source.nodes.len();
    if n == 0 || source.per_node_gbps <= 0.0 {
        return;
    }
    let rate = source.per_node_gbps;

    // Access links: every node both injects and receives ~rate.
    for &node in &source.nodes {
        loads[tree.link_index(LinkId::NodeAccess(node))] += rate;
    }
    if n == 1 {
        return; // no peers, nothing crosses the fabric
    }

    // The source's switches, sorted: each run of one switch is its node
    // count, each run of one pod its pod's, both in ascending order.
    switches.clear();
    switches.extend(source.nodes.iter().map(|&node| tree.edge_of(node).0));
    switches.sort_unstable();
    let pod_of = |sw: u32| tree.pod_of_switch(SwitchId(sw));
    let per_edge = switches
        .chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len()));
    let per_pod = switches
        .chunk_by(|&a, &b| pod_of(a) == pod_of(b))
        .map(|run| (pod_of(run[0]), run.len()));
    let edge_link = |sw: u32| tree.link_index(LinkId::EdgeUplink(SwitchId(sw)));
    let fabric_link = |sw: u32| tree.link_index(LinkId::PodFabric(pod_of(sw)));
    let uplink = |pod: u32| tree.link_index(LinkId::PodUplink(pod));
    let total = n as f64;
    match source.pattern {
        TrafficPattern::AllToAll => {
            // A node in an edge switch with k source-peers sends the
            // fraction (n - k) / (n - 1) of its traffic out of the switch.
            // That same traffic transits the pod's shared fabric.
            for (sw, k) in per_edge {
                let outside = (total - k as f64) / (total - 1.0);
                let crossing = k as f64 * rate * outside;
                if crossing > 0.0 {
                    loads[edge_link(sw)] += crossing;
                    loads[fabric_link(sw)] += crossing;
                }
            }
            for (pod, k) in per_pod {
                let outside = (total - k as f64) / (total - 1.0);
                let crossing = k as f64 * rate * outside;
                if crossing > 0.0 {
                    loads[uplink(pod)] += crossing;
                }
            }
        }
        TrafficPattern::Neighbor => {
            // Ring traffic: only the boundary nodes of each edge-switch
            // group send across the uplink (2 boundary flows per group).
            for (sw, k) in per_edge {
                if (k as f64) < total {
                    loads[edge_link(sw)] += 2.0 * rate;
                    loads[fabric_link(sw)] += 2.0 * rate;
                }
            }
            for (pod, k) in per_pod {
                if (k as f64) < total {
                    loads[uplink(pod)] += 2.0 * rate;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FatTreeConfig;
    use proptest::prelude::*;
    use std::collections::HashMap;

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
        let index = |link| tree.link_index(link) as u32;
        let access_links = tree.node_count();
        // Single switch: access links only.
        let links = traversed_links(&tree, &ids(0..4));
        assert_eq!(links.len(), 4);
        assert!(links.iter().all(|&l| l < access_links));
        // Cross-switch, single pod: adds edge uplinks + pod fabric.
        let links = traversed_links(&tree, &ids(0..8));
        assert!(links.contains(&index(LinkId::EdgeUplink(SwitchId(0)))));
        assert!(links.contains(&index(LinkId::PodFabric(0))));
        assert!(!links.contains(&index(LinkId::PodUplink(0))));
        // Cross-pod: adds pod uplinks.
        let links = traversed_links(&tree, &ids(0..16));
        assert!(links.contains(&index(LinkId::PodUplink(0))));
        assert!(links.contains(&index(LinkId::PodUplink(1))));
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

    /// The hashed link-load map the dense table replaced, kept as the
    /// reference: loads summed into a `HashMap<LinkId, f64>` source by
    /// source in id order, per-source switch and pod counts in `BTreeMap`s,
    /// and each utilization computed on demand.
    #[derive(Default)]
    struct MapOracle {
        sources: BTreeMap<u64, TrafficSource>,
        background_util: f64,
        background_scope: BackgroundScope,
        storms: BTreeMap<u32, u32>,
    }

    impl MapOracle {
        fn loads(&self, tree: &FatTree) -> HashMap<LinkId, f64> {
            let mut loads = HashMap::new();
            for source in self.sources.values() {
                map_accumulate(tree, source, &mut loads);
            }
            loads
        }

        fn utilization(&self, tree: &FatTree, loads: &HashMap<LinkId, f64>, link: LinkId) -> f64 {
            let load = loads.get(&link).copied().unwrap_or(0.0);
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
            let storm_pod = match link {
                LinkId::NodeAccess(_) => None,
                LinkId::EdgeUplink(sw) => Some(tree.pod_of_switch(sw)),
                LinkId::PodFabric(p) | LinkId::PodUplink(p) => Some(p),
            };
            match storm_pod {
                Some(pod) => {
                    let milli = self.storms.get(&pod).copied().unwrap_or(0);
                    base + f64::from(milli) / 1000.0
                }
                None => base,
            }
        }

        fn congestion(
            &self,
            tree: &FatTree,
            loads: &HashMap<LinkId, f64>,
            nodes: &[NodeId],
        ) -> f64 {
            let edges: BTreeMap<SwitchId, ()> =
                nodes.iter().map(|&n| (tree.edge_of(n), ())).collect();
            let pods: BTreeMap<u32, ()> = nodes.iter().map(|&n| (tree.pod_of(n), ())).collect();
            let mut links: Vec<LinkId> = nodes.iter().map(|&n| LinkId::NodeAccess(n)).collect();
            if edges.len() > 1 {
                links.extend(edges.keys().map(|&sw| LinkId::EdgeUplink(sw)));
                links.extend(pods.keys().map(|&p| LinkId::PodFabric(p)));
            }
            if pods.len() > 1 {
                links.extend(pods.keys().map(|&p| LinkId::PodUplink(p)));
            }
            links.into_iter().fold(0.0, |worst: f64, l| {
                worst.max(self.utilization(tree, loads, l))
            })
        }
    }

    fn map_accumulate(tree: &FatTree, source: &TrafficSource, loads: &mut HashMap<LinkId, f64>) {
        let n = source.nodes.len();
        if n == 0 || source.per_node_gbps <= 0.0 {
            return;
        }
        let rate = source.per_node_gbps;
        for &node in &source.nodes {
            *loads.entry(LinkId::NodeAccess(node)).or_insert(0.0) += rate;
        }
        if n == 1 {
            return;
        }
        let mut per_edge: BTreeMap<SwitchId, usize> = BTreeMap::new();
        let mut per_pod: BTreeMap<u32, usize> = BTreeMap::new();
        for &node in &source.nodes {
            *per_edge.entry(tree.edge_of(node)).or_insert(0) += 1;
            *per_pod.entry(tree.pod_of(node)).or_insert(0) += 1;
        }
        let total = n as f64;
        let mut add = |link, v| *loads.entry(link).or_insert(0.0) += v;
        match source.pattern {
            TrafficPattern::AllToAll => {
                for (&sw, &k) in &per_edge {
                    let outside = (total - k as f64) / (total - 1.0);
                    let crossing = k as f64 * rate * outside;
                    if crossing > 0.0 {
                        add(LinkId::EdgeUplink(sw), crossing);
                        add(LinkId::PodFabric(tree.pod_of_switch(sw)), crossing);
                    }
                }
                for (&pod, &k) in &per_pod {
                    let outside = (total - k as f64) / (total - 1.0);
                    let crossing = k as f64 * rate * outside;
                    if crossing > 0.0 {
                        add(LinkId::PodUplink(pod), crossing);
                    }
                }
            }
            TrafficPattern::Neighbor => {
                for (&sw, &k) in &per_edge {
                    if (k as f64) < total {
                        add(LinkId::EdgeUplink(sw), 2.0 * rate);
                        add(LinkId::PodFabric(tree.pod_of_switch(sw)), 2.0 * rate);
                    }
                }
                for (&pod, &k) in &per_pod {
                    if (k as f64) < total {
                        add(LinkId::PodUplink(pod), 2.0 * rate);
                    }
                }
            }
        }
    }

    /// Three pods of four switches of four nodes, with Quartz-like
    /// capacities, so sources span switches and pods.
    fn three_pods() -> FatTree {
        FatTree::new(FatTreeConfig {
            pods: 3,
            edge_per_pod: 4,
            nodes_per_edge: 4,
            cores_per_node: 4,
            access_gbps: 12.5,
            edge_uplink_gbps: 50.0,
            pod_fabric_gbps: 600.0,
            pod_uplink_gbps: 4800.0,
        })
    }

    fn all_links(tree: &FatTree) -> Vec<LinkId> {
        let mut links: Vec<LinkId> = tree.nodes().map(LinkId::NodeAccess).collect();
        links.extend((0..tree.edge_switch_count()).map(|sw| LinkId::EdgeUplink(SwitchId(sw))));
        links.extend((0..tree.config().pods).map(LinkId::PodFabric));
        links.extend((0..tree.config().pods).map(LinkId::PodUplink));
        links
    }

    #[derive(Debug, Clone)]
    enum Op {
        Source(u64, TrafficSource),
        Remove(u64),
        Background(f64),
        Scope(BackgroundScope),
        Storm(u32, u32),
    }

    fn source_op() -> impl Strategy<Value = Op> {
        let nodes = prop_oneof![
            // Anywhere, duplicates allowed.
            proptest::collection::vec(0u32..48, 1..20),
            // A contiguous block, as placement hands out.
            (0u32..48, 1u32..24).prop_map(|(lo, len)| (lo..(lo + len).min(48)).collect()),
        ];
        // Rates over four decades, so a sum's rounding depends on its
        // order; one in ten is zero, which is inert.
        let rate =
            (0u32..10, -3.0f64..1.0).prop_map(|(z, e)| if z == 0 { 0.0 } else { 10f64.powf(e) });
        let pattern = prop_oneof![
            Just(TrafficPattern::AllToAll),
            Just(TrafficPattern::Neighbor)
        ];
        (0u64..6, nodes, rate, pattern).prop_map(|(id, nodes, rate, pattern)| {
            Op::Source(
                id,
                TrafficSource {
                    nodes: nodes.into_iter().map(NodeId).collect(),
                    per_node_gbps: rate,
                    pattern,
                },
            )
        })
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            source_op(),
            source_op(),
            source_op(),
            (0u64..6).prop_map(Op::Remove),
            (0.0f64..0.8).prop_map(Op::Background),
            prop_oneof![
                Just(Op::Scope(BackgroundScope::AllLinks)),
                Just(Op::Scope(BackgroundScope::CoreOnly))
            ],
            // Intensity 0 ends a storm; repeated pods retune one.
            (0u32..3, 0u32..4, 1u32..1000)
                .prop_map(|(pod, end, milli)| Op::Storm(pod, if end == 0 { 0 } else { milli })),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The dense table is the map it replaced, to the bit: after every
        /// source add/replace/remove, background and scope change and
        /// storm start/retune/end, every link's load and utilization,
        /// congestion over random node sets and congestion over each
        /// source's link list kept since it was added equal the oracle's.
        #[test]
        fn dense_table_matches_the_map_oracle_bit_for_bit(
            ops in proptest::collection::vec(op(), 1..40),
            probes in proptest::collection::vec(proptest::collection::vec(0u32..48, 1..12), 3),
        ) {
            let tree = three_pods();
            let probes: Vec<Vec<NodeId>> = probes
                .into_iter()
                .map(|p| p.into_iter().map(NodeId).collect())
                .collect();
            let mut net = NetworkState::new();
            let mut oracle = MapOracle::default();
            let mut link_lists: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Source(id, source) => {
                        link_lists.insert(id, traversed_links(&tree, &source.nodes));
                        oracle.sources.insert(id, source.clone());
                        net.add_source(id, source);
                    }
                    Op::Remove(id) => {
                        link_lists.remove(&id);
                        oracle.sources.remove(&id);
                        net.remove_source(id);
                    }
                    Op::Background(util) => {
                        oracle.background_util = util;
                        net.set_background_util(util);
                    }
                    Op::Scope(scope) => {
                        oracle.background_scope = scope;
                        net.set_background_scope(scope);
                    }
                    Op::Storm(pod, milli) => {
                        if milli == 0 {
                            oracle.storms.remove(&pod);
                        } else {
                            oracle.storms.insert(pod, milli);
                        }
                        net.set_storm(pod, milli);
                    }
                }
                let loads = oracle.loads(&tree);
                for link in all_links(&tree) {
                    let util = net.utilization(&tree, link);
                    let load = net.loads[tree.link_index(link)];
                    let want = loads.get(&link).copied().unwrap_or(0.0);
                    prop_assert_eq!(load.to_bits(), want.to_bits(), "load of {:?}", link);
                    let want = oracle.utilization(&tree, &loads, link);
                    prop_assert_eq!(util.to_bits(), want.to_bits(), "utilization of {:?}", link);
                }
                for nodes in &probes {
                    let want = oracle.congestion(&tree, &loads, nodes);
                    prop_assert_eq!(net.congestion(&tree, nodes).to_bits(), want.to_bits());
                }
                for (id, links) in &link_lists {
                    let want = oracle.congestion(&tree, &loads, &oracle.sources[id].nodes);
                    prop_assert_eq!(net.congestion_over(&tree, links).to_bits(), want.to_bits(), "source {}", id);
                }
            }
        }
    }
}
