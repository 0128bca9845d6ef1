//! Property-based tests for the cluster model's physical invariants.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rush_cluster::counters::NodeObservation;
use rush_cluster::machine::{Machine, MachineConfig, SourceId, WorkloadIntensity};
use rush_cluster::network::{NetworkState, TrafficPattern, TrafficSource};
use rush_cluster::placement::{NodePool, PlacementPolicy};
use rush_cluster::topology::{FatTree, FatTreeConfig, NodeId};
use rush_simkit::time::{SimDuration, SimTime};

fn tiny() -> FatTree {
    FatTree::new(FatTreeConfig::tiny())
}

/// Strategy: a valid traffic source on the tiny 16-node tree.
fn source() -> impl Strategy<Value = TrafficSource> {
    (
        proptest::collection::btree_set(0u32..16, 1..8),
        0.0f64..10.0,
        prop_oneof![
            Just(TrafficPattern::AllToAll),
            Just(TrafficPattern::Neighbor)
        ],
    )
        .prop_map(|(nodes, rate, pattern)| TrafficSource {
            nodes: nodes.into_iter().map(NodeId).collect(),
            per_node_gbps: rate,
            pattern,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn congestion_is_nonnegative_and_finite(sources in proptest::collection::vec(source(), 0..5)) {
        let tree = tiny();
        let mut net = NetworkState::new();
        for (i, s) in sources.into_iter().enumerate() {
            net.add_source(i as u64, s);
        }
        for lo in 0..4u32 {
            let nodes: Vec<NodeId> = (lo * 4..lo * 4 + 4).map(NodeId).collect();
            let c = net.congestion(&tree, &nodes);
            prop_assert!(c.is_finite() && c >= 0.0);
        }
    }

    #[test]
    fn adding_a_source_never_reduces_congestion(
        base in proptest::collection::vec(source(), 0..4),
        extra in source(),
    ) {
        let tree = tiny();
        let mut net = NetworkState::new();
        for (i, s) in base.into_iter().enumerate() {
            net.add_source(i as u64, s);
        }
        let nodes: Vec<NodeId> = (0..16).map(NodeId).collect();
        let before = net.congestion(&tree, &nodes);
        net.add_source(99, extra);
        let after = net.congestion(&tree, &nodes);
        prop_assert!(after >= before - 1e-12, "{after} < {before}");
    }

    #[test]
    fn add_then_remove_is_identity(
        base in proptest::collection::vec(source(), 0..4),
        extra in source(),
    ) {
        let tree = tiny();
        let mut net = NetworkState::new();
        for (i, s) in base.into_iter().enumerate() {
            net.add_source(i as u64, s);
        }
        let nodes: Vec<NodeId> = (0..16).map(NodeId).collect();
        let before = net.congestion(&tree, &nodes);
        net.add_source(99, extra);
        net.remove_source(99);
        let after = net.congestion(&tree, &nodes);
        prop_assert!((after - before).abs() < 1e-12);
    }

    #[test]
    fn pool_conservation_under_allocate_release(
        ops in proptest::collection::vec((1usize..6, any::<bool>()), 1..32)
    ) {
        let mut pool = NodePool::new(16, PlacementPolicy::LowestId);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut held: Vec<Vec<NodeId>> = Vec::new();
        for (n, release_first) in ops {
            if release_first && !held.is_empty() {
                let nodes = held.swap_remove(0);
                pool.release(&nodes);
            }
            if let Some(alloc) = pool.allocate(n, &mut rng) {
                // No overlap with anything still held.
                for other in &held {
                    for node in &alloc {
                        prop_assert!(!other.contains(node), "double allocation");
                    }
                }
                held.push(alloc);
            }
            let held_count: usize = held.iter().map(Vec::len).sum();
            prop_assert_eq!(pool.free_count() + held_count, 16, "node conservation");
        }
    }

    #[test]
    fn random_placement_also_conserves(
        sizes in proptest::collection::vec(1usize..5, 1..8)
    ) {
        let mut pool = NodePool::new(16, PlacementPolicy::Random);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut total = 0;
        for n in sizes {
            if let Some(alloc) = pool.allocate(n, &mut rng) {
                total += alloc.len();
                let unique: std::collections::HashSet<_> = alloc.iter().collect();
                prop_assert_eq!(unique.len(), alloc.len());
            }
        }
        prop_assert_eq!(pool.busy_count(), total);
    }
}

/// One step of machine churn for the swept-observation property: `kind`
/// picks the operation, the other fields parameterize it.
type Churn = (u8, u32, u32, u32, u64);

fn churn() -> impl Strategy<Value = Churn> {
    (0u8..8, 0u32..16, 1u32..6, 0u32..1001, 1u64..240)
}

/// Applies one churn step. Loads sit on disjoint four-node blocks (the
/// scheduler's allocations are exclusive), keyed by block.
fn apply(m: &mut Machine, (kind, node, width, milli, secs): Churn) {
    let block = node / 4;
    match kind {
        0 | 1 => {
            let nodes: Vec<NodeId> = (block * 4..block * 4 + width.min(4)).map(NodeId).collect();
            let f = f64::from(milli) / 1000.0;
            m.register_load(
                SourceId(u64::from(block)),
                nodes,
                WorkloadIntensity::new(1.0 - f, f, (f * 7.0).fract()),
            );
        }
        2 => m.remove_load(SourceId(u64::from(block))),
        3 => m.fail_node(NodeId(node)),
        4 => m.recover_node(NodeId(node)),
        5 => m.degrade_node(NodeId(node), milli),
        6 => m.start_storm(node, milli),
        _ => m.end_storm(node),
    }
    let now = m.now();
    m.advance_to(now + SimDuration::from_secs(secs));
}

fn bits(o: &NodeObservation) -> [u64; 8] {
    [
        o.xmit_gbps,
        o.recv_gbps,
        o.edge_uplink_util,
        o.pod_uplink_util,
        o.read_gbps,
        o.write_gbps,
        o.meta_kops,
        o.fs_saturation,
    ]
    .map(f64::to_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The full-machine sweep is a cache, not a model: under random loads,
    /// node failures and degradations, storms, the noise job and moving
    /// background utilization, every swept observation equals the direct
    /// per-node one bit for bit. Both are read from one machine, and
    /// counter synthesis over the swept path runs between the rounds so
    /// the sweep is also exercised while the counter RNG advances.
    #[test]
    fn swept_observation_matches_direct(
        seed in 0u64..1_000_000,
        noise_job in any::<bool>(),
        steps in proptest::collection::vec(churn(), 1..24),
    ) {
        let mut m = Machine::new(MachineConfig::tiny(seed));
        if noise_job {
            m.enable_noise_job((12..16).map(NodeId).collect(), 8.0);
        }
        let mut counters = Vec::new();
        for step in steps {
            apply(&mut m, step);
            for n in 0..m.tree().node_count() {
                let node = NodeId(n);
                let direct = bits(&m.observe(node));
                prop_assert_eq!(bits(&m.observe_swept(node)), direct);
                m.sample_counters_swept_into(node, &mut counters);
                prop_assert_eq!(counters.len(), 90);
            }
        }
        prop_assert!(m.now() > SimTime::ZERO);
    }
}
