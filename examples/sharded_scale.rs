//! Sharded engine demo: the same Croupier deployment executed phase-parallel on several
//! worker threads, with a determinism check across thread counts.
//!
//! ```text
//! cargo run --release --example sharded_scale [nodes] [threads]
//! ```
//!
//! Defaults to 2 000 nodes and 4 threads. The run is repeated with one worker thread and
//! the two traffic ledgers are compared — they are bit-identical, which is the sharded
//! engine's core guarantee (see `crates/simulator/src/sharded.rs`).

use croupier::{CroupierConfig, CroupierNode};
use croupier_nat::NatTopologyBuilder;
use croupier_simulator::{
    NatClass, NodeId, PssNode, ShardedSimulation, SimulationConfig, SimulationEngine, TrafficLedger,
};

fn run(
    nodes: u64,
    threads: usize,
    rounds: u64,
) -> (ShardedSimulation<CroupierNode>, TrafficLedger) {
    let topology = NatTopologyBuilder::new(7).build();
    let mut sim = ShardedSimulation::from_config(
        SimulationConfig::default()
            .with_seed(7)
            .with_engine_threads(threads),
    );
    sim.set_delivery_filter(topology.clone());
    for i in 0..nodes {
        let id = NodeId::new(i);
        // 20 % public, as in the paper's evaluation.
        let class = if i % 5 == 0 {
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
    sim.run_for_rounds(rounds);
    let traffic = sim.traffic_snapshot();
    (sim, traffic)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let nodes: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(2_000);
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let rounds = 30;

    println!("running {nodes} Croupier nodes for {rounds} rounds on {threads} worker thread(s)...");
    let started = std::time::Instant::now();
    let (sim, traffic) = run(nodes, threads, rounds);
    let elapsed = started.elapsed();

    let stats = sim.network_stats();
    println!(
        "done in {elapsed:.2?}: {} delivered, {} blocked by NATs, {} bytes on the wire",
        stats.delivered,
        stats.blocked_by_nat,
        traffic.total_bytes_sent()
    );

    let estimates: Vec<f64> = sim
        .nodes()
        .filter_map(|(_, node)| node.ratio_estimate())
        .collect();
    let mean = estimates.iter().sum::<f64>() / estimates.len().max(1) as f64;
    println!(
        "mean ratio estimate across {} nodes: {mean:.3} (true ratio 0.200)",
        estimates.len()
    );

    println!("re-running with 1 worker thread to verify bit-identical traffic...");
    let (_, reference) = run(nodes, 1, rounds);
    assert_eq!(
        traffic, reference,
        "sharded runs must be bit-identical across thread counts"
    );
    println!("ok: {threads}-thread run matches the 1-thread run byte for byte");
}
