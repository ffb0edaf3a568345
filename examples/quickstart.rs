//! Quickstart: build a small NATed network, run Croupier for a minute of simulated time,
//! and draw peer samples.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use croupier::{CroupierConfig, CroupierNode};
use croupier_nat::NatTopologyBuilder;
use croupier_simulator::{
    NatClass, NodeId, PssNode, Simulation, SimulationConfig, SimulationEngine,
};

fn main() {
    // 20 % of the nodes are publicly reachable, the rest sit behind NATs — the ratio the
    // paper uses throughout its evaluation.
    let n_public = 20u64;
    let n_private = 80u64;

    let topology = NatTopologyBuilder::new(42).build();
    let mut sim = Simulation::from_config(SimulationConfig::default().with_seed(42));
    sim.set_delivery_filter(topology.clone());

    for i in 0..(n_public + n_private) {
        let id = NodeId::new(i);
        let class = if i < n_public {
            NatClass::Public
        } else {
            NatClass::Private
        };
        topology.add_node(id, class);
        if class.is_public() {
            sim.register_public(id);
        }
        sim.add_node(id, CroupierNode::new(id, class, CroupierConfig::default()));
    }

    // One simulated minute of one-second gossip rounds.
    sim.run_for_rounds(60);

    println!(
        "nodes: {} ({} public, {} private)",
        sim.len(),
        n_public,
        n_private
    );
    println!(
        "messages delivered: {}, blocked by NATs: {}",
        sim.network_stats().delivered,
        sim.network_stats().blocked_by_nat
    );

    // Every node — public or private — now has a local estimate of the public/private
    // ratio and can draw uniform peer samples.
    let witness = NodeId::new(n_public + 1); // a private node
    let node = sim.node(witness).expect("node exists");
    println!(
        "node {witness}: ratio estimate = {:.3} (true ratio = {:.3})",
        node.ratio_estimate().unwrap_or(f64::NAN),
        n_public as f64 / (n_public + n_private) as f64,
    );
    println!(
        "node {witness}: public view = {:?}",
        node.public_view().nodes()
    );

    print!("ten peer samples drawn by node {witness}: ");
    for _ in 0..10 {
        if let Some(sample) = sim.draw_sample(witness) {
            print!("{sample} ");
        }
    }
    println!();
}
