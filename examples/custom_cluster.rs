//! Driving the cluster simulator directly: build a custom fat tree, load
//! it with traffic, and watch congestion and the synthesized monitoring
//! counters respond — the substrate a scheduler developer would integrate
//! against.
//!
//! Run with `cargo run --release --example custom_cluster`.

use rush_repro::cluster::machine::{Machine, MachineConfig, SourceId, WorkloadIntensity};
use rush_repro::cluster::topology::{FatTreeConfig, NodeId};
use rush_repro::simkit::time::SimTime;

fn main() {
    // A custom 2-pod machine: 2 pods x 8 edge switches x 8 nodes = 128.
    let tree = FatTreeConfig {
        pods: 2,
        edge_per_pod: 8,
        nodes_per_edge: 8,
        cores_per_node: 32,
        access_gbps: 12.5,
        edge_uplink_gbps: 50.0,
        pod_fabric_gbps: 200.0,
        pod_uplink_gbps: 400.0,
    };
    let config = MachineConfig {
        tree,
        ..MachineConfig::experiment_pod(42)
    };
    let mut machine = Machine::new(config);
    println!(
        "machine: {} nodes, {} edge switches",
        machine.tree().node_count(),
        machine.tree().edge_switch_count()
    );

    let job_a: Vec<NodeId> = (0..16).map(NodeId).collect(); // pod 0
    let job_b: Vec<NodeId> = (64..96).map(NodeId).collect(); // pod 1

    println!("\n-- idle machine --");
    report(&mut machine, &job_a);

    // A communication-heavy neighbour in pod 0.
    machine.register_load(
        SourceId(1),
        (16..48).map(NodeId).collect(),
        WorkloadIntensity::new(0.3, 1.0, 0.0),
    );
    println!("\n-- 32-node all-to-all neighbour in pod 0 --");
    report(&mut machine, &job_a);
    println!("   (pod 1 is unaffected)");
    report(&mut machine, &job_b);

    // An I/O-heavy job saturating the shared filesystem.
    machine.register_load(
        SourceId(2),
        (96..128).map(NodeId).collect(),
        WorkloadIntensity::new(0.2, 0.1, 1.0),
    );
    machine.advance_to(SimTime::from_mins(30));
    println!("\n-- plus a 32-node I/O job, 30 minutes in --");
    println!("   fs saturation: {:.2}", machine.fs_saturation());
    report(&mut machine, &job_a);

    // Counters a monitoring daemon would scrape from one node.
    let mut counters = Vec::new();
    machine.sample_counters_into(NodeId(0), &mut counters);
    println!("\nnode 0 counters (first of each table):");
    println!("   sysclassib/port_xmit_data  = {:.3e}", counters[0]);
    println!("   sysclassib/port_xmit_wait  = {:.3e}", counters[8]);
    println!("   opa_info/opa_xmit_wait     = {:.3e}", counters[28]);
    println!("   lustre_client/read_bytes   = {:.3e}", counters[56]);
}

fn report(machine: &mut Machine, nodes: &[NodeId]) {
    let congestion = machine.congestion(nodes);
    println!(
        "   congestion over nodes {:3}..{:3}: {congestion:.3}",
        nodes[0].0,
        nodes[nodes.len() - 1].0
    );
}
