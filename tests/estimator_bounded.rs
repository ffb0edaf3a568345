//! Per-node ratio-estimator state stays bounded over a long run.
//!
//! The estimator caches at most one record per origin, and only public nodes (croupiers)
//! originate estimates, so no cache can outgrow the public population. Records expire after
//! γ = 50 rounds, so past round γ the caches stop growing. This runs a Croupier deployment
//! on the two-worker sharded engine well past that warm-up and checks both: every cache
//! is within the public population at rounds γ + 10 and γ + 70, and the mean cache size
//! has plateaued between the two.

use croupier::{CroupierConfig, CroupierNode};
use croupier_simulator::{NatClass, NodeId, ShardedSimulation, SimulationConfig, SimulationEngine};

const NODES: u64 = 1_000;
/// One node in five is public, the paper's default ratio.
const PUBLIC_EVERY: u64 = 5;
const PUBLIC_NODES: usize = (NODES / PUBLIC_EVERY) as usize;

/// Largest and mean estimator cache size over all live nodes.
fn cache_sizes(sim: &ShardedSimulation<CroupierNode>) -> (usize, f64) {
    let mut max = 0;
    let mut total = 0;
    for (_, node) in sim.nodes() {
        let cached = node.estimator().cached_count();
        max = max.max(cached);
        total += cached;
    }
    (max, total as f64 / sim.len() as f64)
}

#[test]
fn estimator_caches_stay_bounded_and_plateau_past_gamma() {
    let config = CroupierConfig::default();
    let gamma = u64::from(config.neighbour_history);
    let mut sim = ShardedSimulation::from_config(
        SimulationConfig::default()
            .with_seed(0xB0DED)
            .with_engine_threads(2),
    );
    for i in 0..NODES {
        let id = NodeId::new(i);
        let class = if i % PUBLIC_EVERY == 0 {
            NatClass::Public
        } else {
            NatClass::Private
        };
        if class.is_public() {
            sim.register_public(id);
        }
        sim.add_node(id, CroupierNode::new(id, class, config.clone()));
    }

    sim.run_for_rounds(gamma + 10);
    let (max_early, mean_early) = cache_sizes(&sim);
    sim.run_for_rounds(60);
    let (max_late, mean_late) = cache_sizes(&sim);

    for (round, max) in [(gamma + 10, max_early), (gamma + 70, max_late)] {
        assert!(
            max <= PUBLIC_NODES,
            "round {round}: a cache holds {max} estimates, more than the {PUBLIC_NODES} \
             public nodes that can originate one"
        );
    }
    assert!(
        mean_early > 0.0,
        "no estimate was cached by round {}",
        gamma + 10
    );
    let drift = (mean_late - mean_early).abs() / mean_early;
    assert!(
        drift <= 0.10,
        "mean cache moved from {mean_early:.1} (round {}) to {mean_late:.1} (round {}): \
         {:.1} % is no plateau",
        gamma + 10,
        gamma + 70,
        drift * 100.0
    );
}
