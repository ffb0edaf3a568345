//! One benchmark run: set-up samples, timed repetitions of a workload, correctness
//! checks, and the end-to-end or per-layer metrics computed from them.

use std::time::Instant;

use croupier_experiments::protocols::ProtocolKind;

use crate::cell::{run_kind_cell, CellResult};
use crate::trace::nanos_since;
use crate::workloads::{settled_round, CellSpec, Workload, COLD_ROUNDS, STEADY_FROM_ROUND};

/// Extra set-ups a run times before and after its repetitions, so `setup_s` is a
/// median of many.
const SETUP_SAMPLES_PER_SIDE: usize = 10;

/// One metric as printed: name, value, unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every correctness check that failed, by description.
    pub failures: Vec<String>,
    /// Operations attempted: simulated node-rounds.
    pub attempted: u64,
    /// Node-rounds of repetitions whose outcome failed a check.
    pub failed: u64,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable notes printed with the metrics.
    pub notes: Vec<String>,
}

impl Report {
    fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failures.push(what.into());
        }
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

/// One repetition of a workload: every cell, in order.
pub struct Repetition {
    /// The cells' results, in [`Workload::cells`] order.
    pub cells: Vec<CellResult>,
}

impl Repetition {
    /// Runs every cell of `specs`.
    pub fn run(specs: &[CellSpec], traced: bool) -> Repetition {
        Repetition {
            cells: specs
                .iter()
                .map(|spec| run_kind_cell(spec.kind, &spec.params, spec.joins, traced))
                .collect(),
        }
    }

    /// Fingerprint of every cell's simulated outcome.
    pub fn fingerprint(&self) -> String {
        self.cells
            .iter()
            .map(|cell| cell.sim.fingerprint())
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn setup_ns(&self) -> u64 {
        self.cells.iter().map(|cell| cell.host.setup_ns).sum()
    }

    fn loop_ns(&self) -> u64 {
        self.cells.iter().map(|cell| cell.host.loop_ns).sum()
    }

    fn node_rounds(&self) -> u64 {
        self.cells.iter().map(|cell| cell.sim.node_rounds).sum()
    }
}

/// Run options, parsed from the command line.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// Runs the benchmark once. The traced run also returns its traced repetition, whose
/// spans the caller writes out.
pub fn run(options: &Options) -> (Report, Option<Repetition>) {
    let specs = options.workload.cells(options.seed);
    let mut report = Report::default();
    if options.trace {
        let untraced = Repetition::run(&specs, false);
        let traced = Repetition::run(&specs, true);
        check_outcome(&mut report, options.workload, &specs, &untraced);
        report.check(
            traced.fingerprint() == untraced.fingerprint(),
            "traced run's simulated outputs differ from the untraced run's",
        );
        // The one-worker replay doubles a sharded workload's run time, so it rides the
        // traced run, which is not timed for the end-to-end metrics.
        if options.workload.is_sharded() {
            let one_worker: Vec<CellSpec> = specs
                .iter()
                .map(|spec| CellSpec {
                    params: spec.params.clone().with_engine_threads(1),
                    ..spec.clone()
                })
                .collect();
            report.check(
                Repetition::run(&one_worker, false).fingerprint() == untraced.fingerprint(),
                "sharded outcome differs between 1 and 2 engine workers",
            );
        }
        layer_metrics(&mut report, &specs, &traced, &untraced);
        check_finite(&mut report);
        book_operations(&mut report, &[&untraced, &traced]);
        return (report, Some(traced));
    }

    // Half the extra set-ups run before the repetitions and half after, so the median
    // spans the run's whole interval rather than one moment of host load.
    let setup_once = || {
        specs
            .iter()
            .map(|spec| {
                let params = spec.params.clone().with_rounds(0);
                run_kind_cell(spec.kind, &params, spec.joins, false)
                    .host
                    .setup_ns
            })
            .sum::<u64>() as f64
    };
    let mut setup_samples: Vec<f64> = (0..SETUP_SAMPLES_PER_SIDE).map(|_| setup_once()).collect();
    // Whole repetitions until the budget is spent: another one starts only if it is
    // expected to end within the budget.
    let budget_ns = options.seconds.saturating_mul(1_000_000_000);
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        let rep_start = Instant::now();
        reps.push(Repetition::run(&specs, false));
        let rep_ns = nanos_since(rep_start);
        if nanos_since(start).saturating_add(rep_ns) > budget_ns {
            break;
        }
    }
    setup_samples.extend((0..SETUP_SAMPLES_PER_SIDE).map(|_| setup_once()));
    setup_samples.extend(reps.iter().map(|rep| rep.setup_ns() as f64));
    let peak_rss = peak_rss_bytes();

    let first = &reps[0];
    check_outcome(&mut report, options.workload, &specs, first);
    for (index, rep) in reps.iter().enumerate().skip(1) {
        report.check(
            rep.fingerprint() == first.fingerprint(),
            format!("repetition {index} simulated a different outcome than repetition 0"),
        );
    }
    end_to_end_metrics(
        &mut report,
        options,
        &specs,
        &reps,
        &setup_samples,
        peak_rss,
    );
    check_finite(&mut report);
    let rep_refs: Vec<&Repetition> = reps.iter().collect();
    book_operations(&mut report, &rep_refs);
    report.notes.push(format!("repetitions: {}", reps.len()));
    (report, None)
}

/// Every reported value must be a finite number.
fn check_finite(report: &mut Report) {
    let broken: Vec<&str> = report
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    report.check(broken.is_empty(), format!("metrics not finite: {broken:?}"));
}

/// Attempted operations are node-rounds; a repetition that failed a check fails all of
/// its node-rounds.
fn book_operations(report: &mut Report, reps: &[&Repetition]) {
    report.attempted = reps.iter().map(|rep| rep.node_rounds()).sum::<u64>().max(1);
    if !report.failures.is_empty() {
        report.failed = report.attempted;
    }
}

/// The correctness checks on one repetition's simulated outcome.
fn check_outcome(report: &mut Report, workload: Workload, specs: &[CellSpec], rep: &Repetition) {
    for (spec, cell) in specs.iter().zip(&rep.cells) {
        report.check(
            cell.sim.samples.len() as u64 == spec.params.rounds / spec.params.sample_every,
            format!("{}: missing metric samples", spec.kind),
        );
        if spec.kind == ProtocolKind::Croupier && workload != Workload::StreamDynamics {
            let error = steady_estimation_error(cell);
            report.check(
                error < 0.05,
                format!(
                    "{}: croupier estimation error {error} >= 0.05",
                    workload.name()
                ),
            );
        }
        if let Some(settled) = settled_round(spec) {
            let min = cell
                .sim
                .samples
                .iter()
                .filter(|s| s.round >= settled)
                .filter_map(|s| s.largest_component)
                .fold(f64::INFINITY, f64::min);
            report.check(
                min >= 0.95,
                format!("largest component {min} < 0.95 after round {settled}"),
            );
        }
        if workload.has_stream() {
            let coverage = cell.sim.workload.as_ref().map_or(0.0, |w| w.coverage);
            report.check(
                coverage >= 0.99,
                format!("stream coverage {coverage} < 0.99"),
            );
        }
    }
}

/// Mean of a croupier cell's average estimation error over its samples after round 60.
/// The whole steady window rather than the last 10 samples: in `paper_mix`, which
/// samples every 5 rounds, that halved the seed-to-seed spread on the seeds that spread
/// most.
fn steady_estimation_error(cell: &CellResult) -> f64 {
    let steady: Vec<f64> = cell
        .sim
        .samples
        .iter()
        .filter(|s| s.round >= STEADY_FROM_ROUND)
        .map(|s| s.estimation.average)
        .collect();
    steady.iter().sum::<f64>() / steady.len().max(1) as f64
}

/// Nearest-rank percentile of an unsorted sample set.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set size of this process (`VmHWM`), in bytes.
fn peak_rss_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kib| kib * 1024.0)
}

fn end_to_end_metrics(
    report: &mut Report,
    options: &Options,
    specs: &[CellSpec],
    reps: &[Repetition],
    setup_samples: &[f64],
    peak_rss: f64,
) {
    let steady: Vec<f64> = reps
        .iter()
        .flat_map(|rep| &rep.cells)
        .flat_map(|cell| &cell.host.round_ns)
        .filter(|(round, _)| *round >= STEADY_FROM_ROUND)
        .map(|(_, ns)| *ns as f64 / 1e6)
        .collect();
    let node_rounds: u64 = reps.iter().map(Repetition::node_rounds).sum();
    let loop_ns: u64 = reps.iter().map(Repetition::loop_ns).sum();
    report.push(
        "node_rounds_per_s",
        node_rounds as f64 / (loop_ns as f64 / 1e9),
        "node-rounds/s",
    );
    report.push("round_ms_p50", percentile(&steady, 50.0), "ms");
    report.push("round_ms_p90", percentile(&steady, 90.0), "ms");
    report.notes.push(format!(
        "round_ms_p50/p90 over {} rounds >= {STEADY_FROM_ROUND}",
        steady.len()
    ));
    report.push("setup_s", percentile(setup_samples, 50.0) / 1e9, "s");
    report.notes.push(format!(
        "setup_s is the median of {} set-ups",
        setup_samples.len()
    ));
    let rep = &reps[0];
    let peak_nodes = rep
        .cells
        .iter()
        .map(|c| c.sim.peak_nodes)
        .max()
        .unwrap_or(1);
    report.push(
        "rss_bytes_per_node",
        peak_rss / peak_nodes.max(1) as f64,
        "B",
    );

    let croupier = specs
        .iter()
        .zip(&rep.cells)
        .find(|(spec, _)| spec.kind == ProtocolKind::Croupier)
        .map(|(_, cell)| cell)
        .expect("every workload runs croupier");
    report.push(
        "estimation_error",
        steady_estimation_error(croupier),
        "fraction",
    );
    let lcc_min = rep
        .cells
        .iter()
        .flat_map(|cell| &cell.sim.samples)
        .filter(|s| s.round >= STEADY_FROM_ROUND)
        .filter_map(|s| s.largest_component)
        .fold(f64::INFINITY, f64::min);
    report.push("largest_component_min", lcc_min, "fraction");
    let ginis: Vec<f64> = rep
        .cells
        .iter()
        .filter_map(|cell| cell.sim.samples.last().and_then(|s| s.indegree_gini))
        .collect();
    report.push(
        "indegree_gini",
        ginis.iter().sum::<f64>() / ginis.len().max(1) as f64,
        "gini",
    );
    let messages: u64 = rep.cells.iter().map(|c| c.sim.network.total()).sum();
    report.push(
        "msgs_per_node_round",
        messages as f64 / rep.node_rounds().max(1) as f64,
        "msgs",
    );
    let initiated: u64 = rep.cells.iter().map(|c| c.sim.exchanges.initiated).sum();
    let abandoned: u64 = rep.cells.iter().map(|c| c.sim.exchanges.abandoned).sum();
    report.push(
        "exchange_failure_share",
        abandoned as f64 / initiated.max(1) as f64,
        "fraction",
    );
    // Workloads without a stream publish nothing, so nothing is missed or late: they
    // report the neutral values coverage 1 and p95 latency 1 round.
    let stream = rep.cells.iter().find_map(|c| c.sim.workload.as_ref());
    report.push(
        "stream_coverage",
        stream.map_or(1.0, |w| w.coverage),
        "fraction",
    );
    report.push(
        "stream_latency_p95_rounds",
        stream.map_or(1.0, |w| w.latency_p95),
        "rounds",
    );
    if !options.workload.has_stream() {
        report
            .notes
            .push("stream_* are neutral values: this workload carries no stream".into());
    }
}

fn mean(total: f64, count: f64) -> f64 {
    if count > 0.0 {
        total / count
    } else {
        0.0
    }
}

fn layer_metrics(
    report: &mut Report,
    specs: &[CellSpec],
    traced: &Repetition,
    untraced: &Repetition,
) {
    let traces: Vec<_> = traced
        .cells
        .iter()
        .map(|cell| cell.trace.as_ref().expect("traced cells carry a trace"))
        .collect();
    let rounds: Vec<_> = traces.iter().flat_map(|t| &t.rounds).collect();
    let round_count = rounds.len() as f64;
    let node_rounds: f64 = rounds.iter().map(|r| r.live as f64).sum();

    // engine
    let wall_ms = |r: &&crate::cell::RoundRecord| r.wall_ns as f64 / 1e6;
    report.push(
        "engine.round_ms",
        mean(rounds.iter().map(wall_ms).sum(), round_count),
        "ms",
    );
    let steady: Vec<f64> = rounds
        .iter()
        .filter(|r| r.round >= STEADY_FROM_ROUND)
        .map(wall_ms)
        .collect();
    let cold: Vec<f64> = rounds
        .iter()
        .filter(|r| COLD_ROUNDS.contains(&r.round))
        .map(wall_ms)
        .collect();
    report.push(
        "engine.steady_over_cold",
        percentile(&steady, 50.0) / percentile(&cold, 50.0),
        "ratio",
    );
    let unattributed: f64 = specs
        .iter()
        .zip(&traces)
        .flat_map(|(spec, trace)| {
            let workers = spec.params.engine_threads.max(1) as f64;
            trace.rounds.iter().map(move |r| {
                r.wall_ns as f64
                    - r.nat.busy_ns() as f64
                    - r.hook_ns as f64
                    - r.protocol.busy_ns() as f64 / workers
            })
        })
        .sum();
    report.push(
        "engine.unattributed_ms_per_round",
        mean(unattributed / 1e6, round_count),
        "ms",
    );
    let per_round = |f: fn(&crate::cell::RoundRecord) -> u64| {
        mean(rounds.iter().map(|r| f(r) as f64).sum(), round_count)
    };
    report.push(
        "engine.delivered_per_round",
        per_round(|r| r.network.delivered),
        "msgs",
    );
    report.push(
        "engine.lost_per_round",
        per_round(|r| r.network.lost),
        "msgs",
    );
    report.push(
        "engine.dest_gone_per_round",
        per_round(|r| r.network.destination_gone),
        "msgs",
    );

    // protocol
    let mut calls = crate::trace::CallStats::default();
    for r in &rounds {
        calls.add(&r.protocol);
    }
    report.push(
        "protocol.busy_ms_per_round",
        mean(calls.busy_ns() as f64 / 1e6, round_count),
        "ms",
    );
    report.push(
        "protocol.on_round_ns",
        mean(calls.round_ns as f64, calls.rounds as f64),
        "ns",
    );
    report.push(
        "protocol.on_message_ns",
        mean(calls.message_ns as f64, calls.messages as f64),
        "ns",
    );
    report.push(
        "protocol.on_timer_ns",
        mean(calls.timer_ns as f64, calls.timers as f64),
        "ns",
    );
    report.push(
        "protocol.messages_per_node_round",
        mean(calls.sent as f64, node_rounds),
        "msgs",
    );
    report.push(
        "protocol.timers_per_node_round",
        mean(calls.timers as f64, node_rounds),
        "timers",
    );
    let retries: u64 = traced.cells.iter().map(|c| c.sim.exchanges.retries).sum();
    report.push(
        "protocol.retries_per_node_round",
        mean(retries as f64, node_rounds),
        "retries",
    );
    let initiated: u64 = traced.cells.iter().map(|c| c.sim.exchanges.initiated).sum();
    let abandoned: u64 = traced.cells.iter().map(|c| c.sim.exchanges.abandoned).sum();
    report.push(
        "protocol.exchange_completion",
        1.0 - mean(abandoned as f64, initiated as f64),
        "fraction",
    );

    // croupier state
    let states: Vec<_> = traces.iter().flat_map(|t| &t.croupier).collect();
    let state_count = states.len() as f64;
    report.push(
        "croupier.estimator_cache_mean",
        mean(states.iter().map(|s| s.cache_mean).sum(), state_count),
        "entries",
    );
    report.push(
        "croupier.estimator_cache_max",
        states.iter().map(|s| s.cache_max).max().unwrap_or(0) as f64,
        "entries",
    );
    report.push(
        "croupier.view_fill",
        mean(states.iter().map(|s| s.view_fill).sum(), state_count),
        "fraction",
    );

    // nat
    let mut nat = crate::trace::FilterStats::default();
    for r in &rounds {
        nat.add(&r.nat);
    }
    report.push(
        "nat.busy_ms_per_round",
        mean(nat.busy_ns() as f64 / 1e6, round_count),
        "ms",
    );
    report.push(
        "nat.can_deliver_ns",
        mean(nat.verdict_ns as f64, nat.verdicts as f64),
        "ns",
    );
    report.push(
        "nat.on_send_ns",
        mean(nat.send_ns as f64, nat.sends as f64),
        "ns",
    );
    report.push(
        "nat.blocked_share",
        mean(nat.blocked as f64, nat.verdicts as f64),
        "fraction",
    );
    let sum_sim = |f: fn(&crate::cell::SimOutcome) -> u64| -> f64 {
        traced.cells.iter().map(|c| f(&c.sim) as f64).sum()
    };
    report.push(
        "nat.stale_binding_failures",
        sum_sim(|s| s.nat.stale_binding_failures),
        "count",
    );
    report.push(
        "nat.hairpin_blocked",
        sum_sim(|s| s.nat.hairpin_blocked),
        "count",
    );

    // faults
    report.push("faults.drops", sum_sim(|s| s.faults.total_drops()), "count");
    report.push(
        "faults.duplicates",
        sum_sim(|s| s.faults.duplicates),
        "count",
    );
    report.push("faults.reorders", sum_sim(|s| s.faults.reorders), "count");
    report.push(
        "faults.corruptions",
        sum_sim(|s| s.faults.corruptions),
        "count",
    );

    // hook and the dissemination stream riding it
    let hooked: Vec<_> = traces
        .iter()
        .filter(|t| t.has_hook)
        .flat_map(|t| &t.rounds)
        .collect();
    report.push(
        "hook.busy_ms_per_round",
        mean(
            hooked.iter().map(|r| r.hook_ns as f64 / 1e6).sum(),
            hooked.len() as f64,
        ),
        "ms",
    );
    report.push(
        "hook.busy_ms_max",
        hooked.iter().map(|r| r.hook_ns).max().unwrap_or(0) as f64 / 1e6,
        "ms",
    );
    let stream = traced
        .cells
        .iter()
        .zip(&traces)
        .find_map(|(c, t)| c.sim.workload.as_ref().map(|w| (w, t.rounds.len() as f64)));
    let (transfers, blocked_share, dropped, duplicates) =
        stream.map_or((0.0, 0.0, 0.0, 0.0), |(w, n)| {
            let attempts = (w.total_deliveries + w.nat_blocked + w.fault_dropped) as f64;
            (
                mean(w.total_deliveries as f64, n),
                mean(w.nat_blocked as f64, attempts),
                w.fault_dropped as f64,
                w.duplicate_factor,
            )
        });
    report.push("workload.transfers_per_round", transfers, "transfers");
    report.push("workload.nat_blocked_share", blocked_share, "fraction");
    report.push("workload.fault_dropped", dropped, "count");
    report.push("workload.duplicate_factor", duplicates, "ratio");

    // metrics
    let mut times = crate::cell::MetricsTimes::default();
    let (mut rebuilds, mut fast) = (0u64, 0u64);
    for t in &traces {
        let m = &t.metrics;
        times.samples += m.samples;
        times.capture_ns += m.capture_ns;
        times.incremental_ns += m.incremental_ns;
        times.csr_build_ns += m.csr_build_ns;
        times.apl_ns += m.apl_ns;
        times.clustering_ns += m.clustering_ns;
        times.total_ns += m.total_ns;
        rebuilds += t.incremental_updates.0;
        fast += t.incremental_updates.1;
    }
    let per_sample = |ns: u64| mean(ns as f64 / 1e6, times.samples as f64);
    report.push("metrics.capture_ms", per_sample(times.capture_ns), "ms");
    report.push("metrics.csr_build_ms", per_sample(times.csr_build_ns), "ms");
    report.push("metrics.apl_ms", per_sample(times.apl_ns), "ms");
    report.push(
        "metrics.clustering_ms",
        per_sample(times.clustering_ns),
        "ms",
    );
    report.push(
        "metrics.incremental_ms",
        per_sample(times.incremental_ns),
        "ms",
    );
    report.push(
        "metrics.incremental_rebuild_share",
        mean(rebuilds as f64, (rebuilds + fast) as f64),
        "fraction",
    );
    report.push(
        "metrics.share_of_wall",
        mean(times.total_ns as f64, traced.loop_ns() as f64),
        "fraction",
    );

    report.push(
        "trace.overhead",
        mean(traced.loop_ns() as f64, untraced.loop_ns() as f64),
        "ratio",
    );
}
