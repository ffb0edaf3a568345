//! Measures the cost of an installed-but-inactive `FaultPlane` on the engine hot path —
//! the configuration every experiment run now carries (the driver always installs a
//! plane so faulty and clean runs execute the same code).
//!
//! Two identical 10k-node croupier deployments run in strict alternation, one with an
//! inactive plane and one without, so clock drift, allocator state and cache effects
//! hit both sides equally. This interleaved A/B is the basis of the "≤ 3 % when
//! disabled" claim in DESIGN.md §15.6; the `engine/fault_plane_inactive` bench row
//! guards the same path against regressions but runs late in its bench group, so its
//! absolute number is not comparable against `engine/10k_nodes/threads_1` directly.
//!
//! ```text
//! cargo run --release --example fault_overhead_check
//! ```

use croupier::{CroupierConfig, CroupierNode};
use croupier_nat::NatTopologyBuilder;
use croupier_suite::simulator::{
    FaultPlane, NatClass, NodeId, Seed, ShardedSimulation, SimulationConfig, SimulationEngine,
};
use std::time::Instant;

fn build() -> ShardedSimulation<CroupierNode> {
    let topology = NatTopologyBuilder::new(0xE17).build();
    let mut sim = ShardedSimulation::from_config(
        SimulationConfig::default()
            .with_seed(0xE17)
            .with_engine_threads(1),
    );
    sim.set_delivery_filter(topology.clone());
    for i in 0..10_000u64 {
        let id = NodeId::new(i);
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
    sim.run_for_rounds(3);
    sim
}

fn main() {
    const ROUNDS: u32 = 30;
    let mut plain = build();
    let mut with_plane = build();
    with_plane.set_fault_plane(FaultPlane::new(Seed::new(0xE17)));
    let (mut t_plain, mut t_plane) = (0u128, 0u128);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        plain.run_for_rounds(1);
        t_plain += t.elapsed().as_nanos();
        let t = Instant::now();
        with_plane.run_for_rounds(1);
        t_plane += t.elapsed().as_nanos();
    }
    println!("plain  {} ns/round", t_plain / u128::from(ROUNDS));
    println!("plane  {} ns/round", t_plane / u128::from(ROUNDS));
    println!(
        "overhead {:+.2}%",
        (t_plane as f64 / t_plain as f64 - 1.0) * 100.0
    );
}
