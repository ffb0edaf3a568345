//! One protocol run ("cell") driven round by round through the workspace's public API.
//!
//! [`run_cell`] composes the layers exactly as `croupier_experiments::runner` does for
//! the same [`ExperimentParams`] — NAT topology as delivery filter, an installed (possibly
//! inactive) fault plane, scenario and workload executors on a composite round hook,
//! Poisson or immediate joins, churn, and the synchronous metrics sampling path — so its
//! samples are bit-identical to `run_kind`'s (checked by `tests/cross_check.rs`). What it
//! adds is ownership of the round loop: each round is one timed engine call, and in a
//! traced run each layer is wrapped at its seam (see [`crate::trace`]).

use std::cell::RefCell;
use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use croupier::CroupierNode;
use croupier_baselines::{CyclonNode, GozarNode, NylonNode};
use croupier_experiments::protocols::{ProtocolConfigs, ProtocolKind};
use croupier_experiments::runner::{ExperimentParams, RoundSample};
use croupier_experiments::scenario::{JoinEvent, JoinSchedule, ScenarioExecutor};
use croupier_experiments::workload::{WorkloadExecutor, WorkloadReport, WorkloadState};
use croupier_metrics::{
    draw_path_sources, estimation_errors, indegree_gini, IncrementalComponents,
    IncrementalIndegree, MetricsContext, OverlaySnapshot,
};
use croupier_nat::{NatTopology, NatTopologyBuilder, TopologyStats};
use croupier_simulator::rng::Stream;
use croupier_simulator::{
    CompositeRoundHook, FaultPlane, FaultReport, NatClass, NetworkStats, NodeId, Protocol, PssNode,
    RoundHook, Seed, ShardedSimulation, SimDuration, SimTime, Simulation, SimulationConfig,
    SimulationEngine,
};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::trace::{
    nanos_since, offset_ns, CallStats, FilterStats, HookCall, Span, SpanLog, TracedFilter,
    TracedHook, TracedNode,
};

/// How a cell's initial population joins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Joins {
    /// The runner's Poisson join process (`ExperimentParams` inter-arrival means).
    Poisson,
    /// Every node joins at time zero, before the first round.
    AtStart,
}

/// What the harness reads from a node beyond the [`PssNode`] surface.
pub trait Probe: PssNode {
    /// The Croupier state behind this node, if it runs Croupier.
    fn croupier(&self) -> Option<&CroupierNode> {
        None
    }

    /// Callback counters, if the node is wrapped in a [`TracedNode`].
    fn call_stats(&self) -> Option<&CallStats> {
        None
    }
}

impl Probe for CroupierNode {
    fn croupier(&self) -> Option<&CroupierNode> {
        Some(self)
    }
}
impl Probe for CyclonNode {}
impl Probe for GozarNode {}
impl Probe for NylonNode {}

impl<P: Probe> Probe for TracedNode<P> {
    fn croupier(&self) -> Option<&CroupierNode> {
        self.inner().croupier()
    }

    fn call_stats(&self) -> Option<&CallStats> {
        Some(self.stats())
    }
}

/// Exchange counters summed over every node that ever ran, departed nodes included.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExchangeTally {
    /// Gossip rounds executed, i.e. exchanges initiated.
    pub initiated: u64,
    /// Exchanges abandoned.
    pub abandoned: u64,
    /// Timeout retries fired.
    pub retries: u64,
}

impl ExchangeTally {
    fn add_node<P: PssNode>(&mut self, node: &P) {
        self.initiated += node.rounds_executed();
        self.abandoned += node.exchanges_abandoned();
        self.retries += node.retries_fired();
    }
}

/// Everything a cell simulated. Two runs of one cell with one seed must produce equal
/// outcomes whatever the engine worker count, wrapper or host load.
#[derive(Clone, Debug, Default)]
pub struct SimOutcome {
    /// Metric samples, in round order.
    pub samples: Vec<RoundSample>,
    /// Messages handed to the network, by fate.
    pub network: NetworkStats,
    /// Fault-plane injections (protocol counters are in [`exchanges`](Self::exchanges)).
    pub faults: FaultReport,
    /// NAT topology counters at the end of the run.
    pub nat: TopologyStats,
    /// Exchange counters over every node that ran.
    pub exchanges: ExchangeTally,
    /// Σ over rounds of the live population after the round.
    pub node_rounds: u64,
    /// Largest live population seen.
    pub peak_nodes: usize,
    /// Dissemination report, when the cell carries a stream.
    pub workload: Option<WorkloadReport>,
}

impl SimOutcome {
    /// A complete textual fingerprint (floats rendered exactly), used to compare runs.
    pub fn fingerprint(&self) -> String {
        format!("{self:?}")
    }
}

/// Host-side measurements of one cell.
#[derive(Clone, Debug, Default)]
pub struct HostTiming {
    /// Topology build, node construction and `add_node` of the initial population.
    pub setup_ns: u64,
    /// `(round, ns)` of each engine call advancing one round.
    pub round_ns: Vec<(u64, u64)>,
    /// Wall time of the whole round loop: rounds, joins, churn and metrics sampling.
    pub loop_ns: u64,
}

/// Croupier state read at one sample.
#[derive(Clone, Copy, Debug, Default)]
pub struct CroupierState {
    /// Mean cached neighbour estimates per node.
    pub cache_mean: f64,
    /// Largest cache.
    pub cache_max: usize,
    /// Filled view slots ÷ view capacity, over both views of every node.
    pub view_fill: f64,
}

/// Per-round layer accounting of a traced cell.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundRecord {
    /// The round.
    pub round: u64,
    /// Wall time of the engine call.
    pub wall_ns: u64,
    /// Live nodes after the round.
    pub live: usize,
    /// Protocol callback counters accrued this round (all workers summed).
    pub protocol: CallStats,
    /// Delivery-filter counters accrued this round.
    pub nat: FilterStats,
    /// Round-hook wall time this round.
    pub hook_ns: u64,
    /// Network counters accrued this round.
    pub network: NetworkStats,
}

/// Wall time of one metrics call, summed over a cell's samples.
#[derive(Clone, Copy, Debug, Default)]
pub struct MetricsTimes {
    /// Samples taken.
    pub samples: u64,
    /// Snapshot capture.
    pub capture_ns: u64,
    /// Incremental component and in-degree tracker updates.
    pub incremental_ns: u64,
    /// CSR build.
    pub csr_build_ns: u64,
    /// Average path length (multi-source BFS).
    pub apl_ns: u64,
    /// Clustering coefficient.
    pub clustering_ns: u64,
    /// Whole samples, end to end.
    pub total_ns: u64,
}

/// Everything a traced cell adds to an untraced one.
#[derive(Debug)]
pub struct CellTrace {
    /// Span log (rounds, hook barriers, metrics calls).
    pub spans: SpanLog,
    /// Per-round layer accounting.
    pub rounds: Vec<RoundRecord>,
    /// Metrics call times.
    pub metrics: MetricsTimes,
    /// Croupier state at each sample (empty for other protocols).
    pub croupier: Vec<CroupierState>,
    /// `(full rebuilds, fast updates)` of the incremental trackers, summed.
    pub incremental_updates: (u64, u64),
    /// Whether the cell ran a round hook.
    pub has_hook: bool,
}

/// The result of one cell.
#[derive(Debug)]
pub struct CellResult {
    /// Simulated outcome.
    pub sim: SimOutcome,
    /// Host timing.
    pub host: HostTiming,
    /// Layer trace, for traced cells.
    pub trace: Option<CellTrace>,
}

/// Layer probes live only in traced cells.
struct Tracer {
    filter: Rc<RefCell<FilterStats>>,
    hook_calls: Option<Rc<RefCell<Vec<HookCall>>>>,
    data: CellTrace,
    /// Cumulative protocol counters of departed nodes.
    departed_calls: CallStats,
    prev_calls: CallStats,
    prev_filter: FilterStats,
    prev_network: NetworkStats,
}

/// A cell under construction or running: the experiment runner's per-run state, with
/// the round loop owned by the harness.
struct Cell<P: Protocol + PssNode, E: SimulationEngine<P>> {
    params: ExperimentParams,
    sim: E,
    topology: NatTopology,
    alive_public: Vec<NodeId>,
    alive_private: Vec<NodeId>,
    next_id: u64,
    churn_carry: f64,
    workload_rng: SmallRng,
    metric_rng: SmallRng,
    snapshot: OverlaySnapshot,
    metrics: MetricsContext,
    components: IncrementalComponents,
    indegree: IncrementalIndegree,
    sources: Vec<u32>,
    workload_state: Option<Arc<Mutex<WorkloadState>>>,
    events: Vec<JoinEvent>,
    next_event: usize,
    departed: ExchangeTally,
    peak_nodes: usize,
    /// The stream's publishers (the lowest public ids) are exempt from churn: they are
    /// the stream's ingest points, and the workload executor never replaces a departed
    /// publisher.
    pinned_publishers: usize,
    tracer: Option<Tracer>,
    _protocol: PhantomData<fn() -> P>,
}

impl<P: Probe, E: SimulationEngine<P>> Cell<P, E> {
    /// Builds the engine, NAT world, fault plane and hooks, generates the join schedule
    /// from the seed and adds every node that joins at time zero.
    fn new<F>(params: &ExperimentParams, joins: Joins, traced: bool, make_node: &mut F) -> Self
    where
        F: FnMut(NodeId, NatClass) -> P,
    {
        let epoch = Instant::now();
        let topology = NatTopologyBuilder::new(params.seed ^ 0x004e_4154).build();
        let mut sim = E::from_config(
            SimulationConfig::default()
                .with_seed(params.seed)
                .with_round_period(SimDuration::from_secs(1))
                .with_engine_threads(params.engine_threads),
        );
        let filter_stats = if traced {
            let (filter, stats) = TracedFilter::new(topology.clone());
            sim.set_delivery_filter(filter);
            Some(stats)
        } else {
            sim.set_delivery_filter(topology.clone());
            None
        };
        let seed = Seed::new(params.seed);
        let fault_plane = FaultPlane::new(seed);
        sim.set_fault_plane(fault_plane.clone());

        // The runner's hook composition: scenario first, then the workload, so the
        // stream always sees the post-dynamics NAT world of the closing round.
        let scenario_hook = params.scenario.as_ref().map(|script| {
            let rng = seed.stream_rng(Stream::Custom(0x5C3A));
            Box::new(
                ScenarioExecutor::new(script, topology.clone(), rng)
                    .with_fault_plane(fault_plane.clone()),
            ) as Box<dyn RoundHook>
        });
        let mut workload_state = None;
        let workload_hook = params.workload.map(|spec| {
            let (executor, state) =
                WorkloadExecutor::new(spec, topology.clone(), fault_plane.clone());
            workload_state = Some(state);
            Box::new(executor) as Box<dyn RoundHook>
        });
        let sampled = workload_hook.is_some();
        let hook: Option<Box<dyn RoundHook>> = match (scenario_hook, workload_hook) {
            (Some(scenario), Some(workload)) => Some(Box::new(
                CompositeRoundHook::new().with(scenario).with(workload),
            )),
            (scenario, workload) => scenario.or(workload),
        };
        let mut hook_calls = None;
        if let Some(mut hook) = hook {
            if traced {
                let (wrapped, calls) = TracedHook::new(hook, epoch);
                hook_calls = Some(calls);
                hook = Box::new(wrapped);
            }
            if sampled {
                sim.set_sampled_round_hook(hook);
            } else {
                sim.set_round_hook(hook);
            }
        }

        let mut snapshot = OverlaySnapshot::default();
        if params.incremental_components || params.incremental_indegree {
            snapshot.enable_delta_tracking();
        }
        let mut workload_rng = seed.stream_rng(Stream::Workload);
        let round_ms = sim.config().round_period.as_millis().max(1);
        let mut schedule = match joins {
            Joins::AtStart => JoinSchedule::immediate(params.n_public, params.n_private),
            Joins::Poisson => JoinSchedule::poisson(
                params.n_public,
                params.public_interarrival_ms,
                params.n_private,
                params.private_interarrival_ms,
                &mut workload_rng,
            ),
        };
        if let Some(script) = &params.scenario {
            schedule.extend(script.flash_crowd_joins(params.total_nodes(), round_ms));
        }
        let has_hook = hook_calls.is_some();
        let tracer = filter_stats.map(|filter| Tracer {
            filter,
            hook_calls,
            data: CellTrace {
                spans: SpanLog::new(epoch),
                rounds: Vec::new(),
                metrics: MetricsTimes::default(),
                croupier: Vec::new(),
                incremental_updates: (0, 0),
                has_hook,
            },
            departed_calls: CallStats::default(),
            prev_calls: CallStats::default(),
            prev_filter: FilterStats::default(),
            prev_network: NetworkStats::default(),
        });
        let mut cell = Cell {
            params: params.clone(),
            sim,
            topology,
            alive_public: Vec::new(),
            alive_private: Vec::new(),
            next_id: 0,
            churn_carry: 0.0,
            workload_rng,
            metric_rng: seed.stream_rng(Stream::Custom(0xE7)),
            snapshot,
            metrics: MetricsContext::new(params.engine_threads.max(1)),
            components: IncrementalComponents::new(),
            indegree: IncrementalIndegree::new(),
            sources: Vec::new(),
            workload_state,
            events: schedule.events().to_vec(),
            next_event: 0,
            departed: ExchangeTally::default(),
            peak_nodes: 0,
            pinned_publishers: params.workload.map_or(0, |w| w.publishers),
            tracer,
            _protocol: PhantomData,
        };
        while cell.next_event < cell.events.len()
            && cell.events[cell.next_event].at == SimTime::ZERO
        {
            let class = cell.events[cell.next_event].class;
            cell.next_event += 1;
            cell.add_node(class, make_node);
        }
        cell
    }

    fn add_node<F>(&mut self, class: NatClass, make_node: &mut F)
    where
        F: FnMut(NodeId, NatClass) -> P,
    {
        let id = NodeId::new(self.next_id);
        self.next_id += 1;
        self.topology.add_node(id, class);
        if class.is_public() {
            self.sim.register_public(id);
            self.alive_public.push(id);
        } else {
            self.alive_private.push(id);
        }
        self.sim.add_node(id, make_node(id, class));
    }

    fn remove_random_node(&mut self, class: NatClass) -> bool {
        let (pool, pinned) = match class {
            NatClass::Public => (&mut self.alive_public, self.pinned_publishers),
            NatClass::Private => (&mut self.alive_private, 0),
        };
        if pool.len() <= pinned {
            return false;
        }
        // `swap_remove` never moves an element below the drawn index, so the pinned
        // prefix stays in place.
        let index = self.workload_rng.gen_range(pinned..pool.len());
        let id = pool.swap_remove(index);
        if let Some(node) = self.sim.remove_node(id) {
            self.departed.add_node(&node);
            if let (Some(tracer), Some(stats)) = (self.tracer.as_mut(), node.call_stats()) {
                tracer.departed_calls.add(stats);
            }
        }
        true
    }

    /// The runner's churn: replace a fraction of the population with fresh nodes of the
    /// same class, drawing from the workload stream.
    fn apply_churn<F>(&mut self, make_node: &mut F)
    where
        F: FnMut(NodeId, NatClass) -> P,
    {
        let Some(churn) = self.params.churn else {
            return;
        };
        let alive = self.alive_public.len() + self.alive_private.len();
        self.churn_carry += churn.fraction_per_round * alive as f64;
        let replacements = self.churn_carry.floor() as usize;
        self.churn_carry -= replacements as f64;
        for _ in 0..replacements {
            let public_fraction = self.alive_public.len() as f64
                / (self.alive_public.len() + self.alive_private.len()).max(1) as f64;
            let class = if self.workload_rng.gen_range(0.0..1.0) < public_fraction {
                NatClass::Public
            } else {
                NatClass::Private
            };
            if self.remove_random_node(class) {
                self.add_node(class, make_node);
            }
        }
    }

    fn true_ratio(&self) -> f64 {
        if self.params.scenario.is_some() {
            return self.topology.stats().public_private_ratio();
        }
        let total = self.alive_public.len() + self.alive_private.len();
        if total == 0 {
            0.0
        } else {
            self.alive_public.len() as f64 / total as f64
        }
    }

    /// Advances one round: pending joins, then the engine up to the round's barrier.
    /// Returns the wall time of the engine calls.
    fn advance<F>(&mut self, round: u64, make_node: &mut F) -> u64
    where
        F: FnMut(NodeId, NatClass) -> P,
    {
        let round_ms = self.sim.config().round_period.as_millis().max(1);
        let boundary = SimTime::from_millis(round * round_ms);
        let mut engine_ns = 0;
        while self.next_event < self.events.len() && self.events[self.next_event].at <= boundary {
            let event = self.events[self.next_event];
            self.next_event += 1;
            let start = Instant::now();
            self.sim.run_until(event.at);
            engine_ns += nanos_since(start);
            self.add_node(event.class, make_node);
        }
        let start = Instant::now();
        if self.sim.now() == SimTime::from_millis((round - 1) * round_ms) {
            self.sim.run_for_rounds(1);
        } else {
            self.sim.run_until(boundary);
        }
        engine_ns + nanos_since(start)
    }

    /// Times `f` as a metrics span under `parent` when tracing.
    fn metrics_call<T>(
        &mut self,
        name: &'static str,
        round: u64,
        parent: Option<usize>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let value = f(self);
        let elapsed = nanos_since(start);
        if let Some(tracer) = self.tracer.as_mut() {
            let epoch = tracer.data.spans.epoch();
            tracer.data.spans.push(Span {
                layer: "metrics",
                name,
                round,
                start_ns: offset_ns(epoch, start),
                end_ns: offset_ns(epoch, start) + elapsed,
                parent,
            });
        }
        (value, elapsed)
    }

    /// The runner's synchronous sample: capture, incremental trackers, BFS source draw,
    /// then the full-graph analysis.
    fn sample(&mut self, round: u64) -> RoundSample {
        let sample_start = Instant::now();
        let parent = self.tracer.as_mut().map(|tracer| {
            let at = tracer.data.spans.now_ns();
            tracer.data.spans.push(Span {
                layer: "metrics",
                name: "sample",
                round,
                start_ns: at,
                end_ns: at,
                parent: None,
            })
        });
        let min_rounds = self.params.min_rounds_for_metrics;
        let ((), capture_ns) = self.metrics_call("capture", round, parent, |c| {
            c.snapshot.capture_into(&c.sim, min_rounds)
        });
        let tracked = self.params.incremental_components || self.params.incremental_indegree;
        let ((incremental_component, incremental_gini), incremental_ns) = if tracked {
            self.metrics_call("incremental", round, parent, |c| {
                let component = c.params.incremental_components.then(|| {
                    c.components.update(&c.snapshot);
                    c.components.largest_component_fraction()
                });
                let gini = c.params.incremental_indegree.then(|| {
                    c.indegree.update(&c.snapshot);
                    c.indegree.gini()
                });
                (component, gini)
            })
        } else {
            ((None, None), 0)
        };
        let mut sources = std::mem::take(&mut self.sources);
        match self.params.graph_metric_sources {
            Some(count) => draw_path_sources(
                self.snapshot.node_count(),
                count,
                &mut self.metric_rng,
                &mut sources,
            ),
            None => sources.clear(),
        }
        let true_ratio = self.true_ratio();
        let (estimation, _) = self.metrics_call("estimation", round, parent, |c| {
            estimation_errors(&c.snapshot, true_ratio)
        });
        let mut csr_build_ns = 0;
        let mut apl_ns = 0;
        let mut clustering_ns = 0;
        let (avg_path_length, clustering, largest_component, gini) =
            if self.params.graph_metric_sources.is_some() {
                let ((), build) =
                    self.metrics_call("csr_build", round, parent, |c| c.metrics.build(&c.snapshot));
                let (apl, apl_time) = self.metrics_call("apl", round, parent, |c| {
                    c.metrics.average_path_length_with_sources(&sources)
                });
                let (cc, cc_time) = self.metrics_call("clustering", round, parent, |c| {
                    c.metrics.average_clustering_coefficient()
                });
                csr_build_ns = build;
                apl_ns = apl_time;
                clustering_ns = cc_time;
                let component = incremental_component
                    .unwrap_or_else(|| self.metrics.largest_component_fraction());
                let gini = incremental_gini.unwrap_or_else(|| indegree_gini(&self.snapshot));
                (apl, Some(cc), Some(component), Some(gini))
            } else {
                (None, None, incremental_component, incremental_gini)
            };
        self.sources = sources;
        let sample = RoundSample {
            round,
            node_count: self.sim.len(),
            true_ratio,
            estimation,
            avg_path_length,
            clustering,
            largest_component,
            indegree_gini: gini,
        };
        let croupier = self
            .tracer
            .is_some()
            .then(|| self.croupier_state())
            .flatten();
        if let Some(tracer) = self.tracer.as_mut() {
            let times = &mut tracer.data.metrics;
            times.samples += 1;
            times.capture_ns += capture_ns;
            times.incremental_ns += incremental_ns;
            times.csr_build_ns += csr_build_ns;
            times.apl_ns += apl_ns;
            times.clustering_ns += clustering_ns;
            times.total_ns += nanos_since(sample_start);
            if let Some(state) = croupier {
                tracer.data.croupier.push(state);
            }
            if let Some(index) = parent {
                let end = tracer.data.spans.now_ns();
                tracer.data.spans.close(index, end);
            }
        }
        sample
    }

    /// Reads estimator cache sizes and view fill from every Croupier node.
    fn croupier_state(&self) -> Option<CroupierState> {
        let mut nodes = 0usize;
        let mut cache_sum = 0usize;
        let mut cache_max = 0usize;
        let mut filled = 0usize;
        let mut capacity = 0usize;
        self.sim.for_each_node(&mut |_, node| {
            if let Some(croupier) = node.croupier() {
                nodes += 1;
                let cached = croupier.estimator().cached_count();
                cache_sum += cached;
                cache_max = cache_max.max(cached);
                filled += croupier.public_view().len() + croupier.private_view().len();
                capacity += croupier.public_view().capacity() + croupier.private_view().capacity();
            }
        });
        (nodes > 0).then(|| CroupierState {
            cache_mean: cache_sum as f64 / nodes as f64,
            cache_max,
            view_fill: filled as f64 / capacity.max(1) as f64,
        })
    }

    /// Books one traced round: span, protocol and filter deltas summed at the barrier.
    fn record_round(&mut self, round: u64, start: Instant, wall_ns: u64) {
        let Some(tracer) = self.tracer.as_mut() else {
            return;
        };
        let mut calls = tracer.departed_calls;
        self.sim.for_each_node(&mut |_, node| {
            if let Some(stats) = node.call_stats() {
                calls.add(stats);
            }
        });
        let filter = *tracer.filter.borrow();
        let network = self.sim.network_stats();
        let epoch = tracer.data.spans.epoch();
        let start_ns = offset_ns(epoch, start);
        let round_span = tracer.data.spans.push(Span {
            layer: "engine",
            name: "round",
            round,
            start_ns,
            end_ns: start_ns + wall_ns,
            parent: None,
        });
        let mut hook_ns = 0;
        if let Some(hook_calls) = &tracer.hook_calls {
            for call in hook_calls.borrow_mut().drain(..) {
                hook_ns += call.end_ns - call.start_ns;
                tracer.data.spans.push(Span {
                    layer: "hook",
                    name: "round_barrier",
                    round: call.round,
                    start_ns: call.start_ns,
                    end_ns: call.end_ns,
                    parent: Some(round_span),
                });
            }
        }
        tracer.data.rounds.push(RoundRecord {
            round,
            wall_ns,
            live: self.sim.len(),
            protocol: calls.minus(&tracer.prev_calls),
            nat: filter.minus(&tracer.prev_filter),
            hook_ns,
            network: NetworkStats {
                delivered: network.delivered - tracer.prev_network.delivered,
                lost: network.lost - tracer.prev_network.lost,
                blocked_by_nat: network.blocked_by_nat - tracer.prev_network.blocked_by_nat,
                destination_gone: network.destination_gone - tracer.prev_network.destination_gone,
            },
        });
        tracer.prev_calls = calls;
        tracer.prev_filter = filter;
        tracer.prev_network = network;
    }

    /// Runs every round, sampling on the configured period, and collects the outcome.
    fn run<F>(mut self, setup_ns: u64, make_node: &mut F) -> CellResult
    where
        F: FnMut(NodeId, NatClass) -> P,
    {
        let mut samples = Vec::new();
        let mut round_ns = Vec::with_capacity(self.params.rounds as usize);
        let mut node_rounds = 0u64;
        let loop_start = Instant::now();
        for round in 1..=self.params.rounds {
            let start = Instant::now();
            let wall = self.advance(round, make_node);
            round_ns.push((round, wall));
            self.record_round(round, start, wall);
            if let Some(churn) = self.params.churn {
                if round >= churn.start_round {
                    self.apply_churn(make_node);
                }
            }
            let live = self.sim.len();
            node_rounds += live as u64;
            self.peak_nodes = self.peak_nodes.max(live);
            if round % self.params.sample_every == 0 {
                samples.push(self.sample(round));
            }
        }
        let loop_ns = nanos_since(loop_start);

        let mut exchanges = self.departed;
        self.sim
            .for_each_node(&mut |_, node| exchanges.add_node(node));
        let workload = self.workload_state.as_ref().map(|state| {
            let mut live: Vec<NodeId> = Vec::with_capacity(self.sim.len());
            self.sim.for_each_node(&mut |id, _| live.push(id));
            live.sort_unstable();
            WorkloadExecutor::report(state, &live)
        });
        let trace = self.tracer.take().map(|mut tracer| {
            let components = (
                self.components.rebuild_count(),
                self.components.fast_update_count(),
            );
            let indegree = (
                self.indegree.rebuild_count(),
                self.indegree.fast_update_count(),
            );
            tracer.data.incremental_updates =
                (components.0 + indegree.0, components.1 + indegree.1);
            tracer.data
        });
        CellResult {
            sim: SimOutcome {
                samples,
                network: self.sim.network_stats(),
                faults: self.sim.fault_report(),
                nat: self.topology.stats(),
                exchanges,
                node_rounds,
                peak_nodes: self.peak_nodes,
                workload,
            },
            host: HostTiming {
                setup_ns,
                round_ns,
                loop_ns,
            },
            trace,
        }
    }
}

/// Builds a cell (timed as set-up) and runs it on the engine `params` selects.
pub fn run_cell<P, F>(
    params: &ExperimentParams,
    joins: Joins,
    traced: bool,
    mut make_node: F,
) -> CellResult
where
    P: Probe + Send,
    P::Message: Send,
    F: FnMut(NodeId, NatClass) -> P,
{
    fn go<P: Probe, E: SimulationEngine<P>>(
        params: &ExperimentParams,
        joins: Joins,
        traced: bool,
        make_node: &mut impl FnMut(NodeId, NatClass) -> P,
    ) -> CellResult {
        let start = Instant::now();
        let cell = Cell::<P, E>::new(params, joins, traced, make_node);
        let setup_ns = nanos_since(start);
        cell.run(setup_ns, make_node)
    }
    if params.engine_threads == 0 {
        go::<P, Simulation<P>>(params, joins, traced, &mut make_node)
    } else {
        go::<P, ShardedSimulation<P>>(params, joins, traced, &mut make_node)
    }
}

/// Runs one cell of protocol `kind` with the default configurations `run_kind` uses.
/// With `params.rounds == 0` it only sets the cell up, which is how extra set-up
/// samples are taken.
pub fn run_kind_cell(
    kind: ProtocolKind,
    params: &ExperimentParams,
    joins: Joins,
    traced: bool,
) -> CellResult {
    let configs = ProtocolConfigs::default();
    let croupier = configs.croupier.clone();
    let baseline = configs.baseline.clone();
    macro_rules! dispatch {
        ($make:expr) => {{
            let make = $make;
            if traced {
                run_cell(params, joins, true, move |id, class| {
                    TracedNode::new(make(id, class))
                })
            } else {
                run_cell(params, joins, false, make)
            }
        }};
    }
    match kind {
        ProtocolKind::Croupier => {
            dispatch!(move |id, class| CroupierNode::new(id, class, croupier.clone()))
        }
        ProtocolKind::Cyclon => {
            dispatch!(move |id, _class| CyclonNode::new(id, baseline.clone()))
        }
        ProtocolKind::Gozar => {
            dispatch!(move |id, class| GozarNode::new(id, class, baseline.clone()))
        }
        ProtocolKind::Nylon => {
            dispatch!(move |id, class| NylonNode::new(id, class, baseline.clone()))
        }
    }
}
