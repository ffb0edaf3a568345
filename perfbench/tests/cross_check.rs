//! The harness must compose the layers exactly as the experiment runner does, and its
//! traced run must simulate exactly what its untraced run does.

use croupier_experiments::protocols::{run_kind, ProtocolConfigs};
use croupier_perfbench::bench::percentile;
use croupier_perfbench::cell::{run_kind_cell, Joins};
use croupier_perfbench::workloads::Workload;

#[test]
fn paper_mix_cells_match_the_runner_at_reduced_size() {
    for spec in Workload::PaperMix.cells(7) {
        let params = spec
            .params
            .clone()
            .with_population(spec.params.n_public / 10, spec.params.n_private / 10)
            .with_rounds(40);
        let runner = run_kind(spec.kind, &params, &ProtocolConfigs::default());
        let harness = run_kind_cell(spec.kind, &params, spec.joins, false);
        assert_eq!(
            harness.sim.samples.last(),
            runner.last_sample(),
            "{}: final sample differs from run_kind's",
            spec.kind
        );
        assert_eq!(harness.sim.samples, runner.samples, "{}", spec.kind);
        assert_eq!(harness.sim.nat, runner.nat_stats, "{}", spec.kind);
    }
}

#[test]
fn traced_cells_simulate_what_untraced_cells_do() {
    // The stream cell exercises every wrapper: node, filter and (composite) hook.
    for spec in Workload::StreamDynamics.cells(3) {
        let params = spec.params.clone().with_population(20, 80).with_rounds(60);
        let plain = run_kind_cell(spec.kind, &params, Joins::AtStart, false);
        let traced = run_kind_cell(spec.kind, &params, Joins::AtStart, true);
        assert_eq!(plain.sim.fingerprint(), traced.sim.fingerprint());
        let trace = traced.trace.expect("traced cell carries a trace");
        assert_eq!(trace.rounds.len(), 60);
        assert!(trace.rounds.iter().any(|r| r.hook_ns > 0));
        assert!(trace.rounds.iter().any(|r| r.nat.verdicts > 0));
        assert!(trace.rounds.iter().any(|r| r.protocol.rounds > 0));
        assert!(plain.trace.is_none());
    }
}

#[test]
fn percentile_is_nearest_rank() {
    let values: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&values, 50.0), 5.0);
    assert_eq!(percentile(&values, 90.0), 9.0);
    assert_eq!(percentile(&values, 100.0), 10.0);
    assert!(percentile(&[], 50.0).is_nan());
}
