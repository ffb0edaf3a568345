//! The three benchmark workloads, generated from the workload seed.
//!
//! All three are closed batch runs: every round starts as soon as the previous one
//! returns. Each runs long enough that at least 100 timed rounds fall after round
//! γ + 10 = 60, the end of the estimator's warm-up, so steady-state percentiles rest on
//! enough samples. See `perfbench/README.md` for why each workload was chosen.

use croupier_experiments::figures::fig6_randomness;
use croupier_experiments::protocols::ProtocolKind;
use croupier_experiments::runner::ExperimentParams;
use croupier_experiments::scenario::{ChurnSpec, ScenarioScript};
use croupier_experiments::workload::WorkloadSpec;
use croupier_experiments::Scale;

use crate::cell::Joins;

/// First round counted as steady state: γ = 50 rounds of estimator history, plus 10.
pub const STEADY_FROM_ROUND: u64 = 61;

/// Rounds counted as cold: just after bootstrap, before caches fill.
pub const COLD_ROUNDS: std::ops::RangeInclusive<u64> = 4..=13;

/// Engine worker threads of the sharded workloads (the container's core count).
pub const SHARDED_WORKERS: usize = 2;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Croupier alone on the sharded engine, static membership, 4,000 nodes.
    CroupierSteady,
    /// The paper's Fig. 6 experiment: four protocols one after another on the event
    /// engine with full graph metrics.
    PaperMix,
    /// Croupier on the sharded engine under churn, NAT dynamics, faults and a
    /// dissemination stream.
    StreamDynamics,
}

/// One protocol run of a workload.
#[derive(Clone, Debug, PartialEq)]
pub struct CellSpec {
    /// Protocol under test.
    pub kind: ProtocolKind,
    /// Population, rounds, sampling, churn, scenario, stream and engine.
    pub params: ExperimentParams,
    /// How the initial population joins.
    pub joins: Joins,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::CroupierSteady,
        Workload::PaperMix,
        Workload::StreamDynamics,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CroupierSteady => "croupier_steady",
            Workload::PaperMix => "paper_mix",
            Workload::StreamDynamics => "stream_dynamics",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs on the sharded engine (and so must be bit-identical
    /// across worker counts).
    pub fn is_sharded(self) -> bool {
        !matches!(self, Workload::PaperMix)
    }

    /// Whether the workload carries a dissemination stream.
    pub fn has_stream(self) -> bool {
        matches!(self, Workload::StreamDynamics)
    }

    /// The workload's cells for `seed`.
    pub fn cells(self, seed: u64) -> Vec<CellSpec> {
        match self {
            Workload::CroupierSteady => vec![CellSpec {
                kind: ProtocolKind::Croupier,
                params: ExperimentParams::default()
                    .with_seed(seed)
                    .with_population(800, 3_200)
                    .with_rounds(170)
                    .with_sample_every(10)
                    .with_incremental_components()
                    .with_incremental_indegree()
                    .with_engine_threads(SHARDED_WORKERS),
                joins: Joins::AtStart,
            }],
            Workload::PaperMix => [
                ProtocolKind::Croupier,
                ProtocolKind::Gozar,
                ProtocolKind::Nylon,
                ProtocolKind::Cyclon,
            ]
            .into_iter()
            .map(|kind| CellSpec {
                kind,
                params: fig6_randomness::params(Scale::Paper, kind, seed),
                joins: Joins::Poisson,
            })
            .collect(),
            Workload::StreamDynamics => {
                let rounds = 160;
                vec![CellSpec {
                    kind: ProtocolKind::Croupier,
                    params: ExperimentParams::default()
                        .with_seed(seed)
                        .with_population(600, 2_400)
                        .with_rounds(rounds)
                        .with_sample_every(10)
                        .with_incremental_components()
                        .with_incremental_indegree()
                        .with_churn(ChurnSpec::new(20, 0.005))
                        .with_scenario(stress_with_faults(rounds))
                        .with_workload(stream_spec(rounds))
                        .with_engine_threads(SHARDED_WORKERS),
                    joins: Joins::AtStart,
                }]
            }
        }
    }
}

/// The `croupier_stress` timeline (reboot storm, mobility wave, regional outage) with
/// `lossy_10`'s fault events added.
pub fn stress_with_faults(rounds: u64) -> ScenarioScript {
    let mut script = ScenarioScript::croupier_stress(rounds);
    for action in ScenarioScript::lossy_10(rounds).fault_actions() {
        script = script.fault_at(action.round, action.event);
    }
    script
}

/// A stream publishing one chunk per round from round 10 until its last chunk's seal
/// window closes at the end of the run.
pub fn stream_spec(rounds: u64) -> WorkloadSpec {
    let seal = 40;
    WorkloadSpec::default()
        .with_window(10, rounds - seal - 10)
        .with_rate(1.0)
        .with_fanout(6)
        .with_coverage_rounds(seal)
}

/// Round after which the `stream_dynamics` disruption has settled: outage restored
/// and faults cleared, plus ten rounds of repair.
pub fn settled_round(spec: &CellSpec) -> Option<u64> {
    spec.params
        .scenario
        .as_ref()
        .and_then(ScenarioScript::settled_round)
        .map(|round| round + 10)
}
