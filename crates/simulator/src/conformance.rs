//! The engine conformance suite: one generic body per clause of the [`SimulationEngine`]
//! contract, instantiated by [`engine_conformance_tests!`] in each engine's test module
//! so the event engine and the sharded engine (with one and with two workers) are held to
//! the same assertions. Engine-specific behaviour — exact delivery instants, bit-identity
//! across worker counts — stays in the engines' own test modules, which share the
//! [`Probe`] protocol and the [`pair`] fixture defined here.

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;

use rand::rngs::SmallRng;

use crate::engine::SimulationConfig;
use crate::engine_api::{HookOps, RoundHook, SimulationEngine};
use crate::latency::ConstantLatency;
use crate::protocol::{Context, Protocol, PssNode, TimerKey, WireSize};
use crate::time::{SimDuration, SimTime};
use crate::types::{NatClass, NodeId};

/// Test protocol: arms one 10 ms timer on start, sends its round counter to a fixed
/// `target` every round, and records what it receives. Its sampling rule returns the
/// target.
pub(crate) struct Probe {
    pub(crate) target: Option<NodeId>,
    /// Virtual time of the node's `on_start` callback, i.e. its join instant.
    pub(crate) started_at: SimTime,
    pub(crate) rounds: u64,
    pub(crate) received: Vec<(NodeId, u32)>,
    pub(crate) timer_fired: bool,
}

impl Probe {
    pub(crate) fn new(target: Option<NodeId>) -> Self {
        Probe {
            target,
            started_at: SimTime::ZERO,
            rounds: 0,
            received: Vec::new(),
            timer_fired: false,
        }
    }
}

/// The message a [`Probe`] sends: its round counter, 100 bytes on the wire.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Counter(u32);

impl WireSize for Counter {
    fn wire_size(&self) -> usize {
        100
    }
}

impl Protocol for Probe {
    type Message = Counter;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>) {
        self.started_at = ctx.now();
        ctx.set_timer(SimDuration::from_millis(10), TimerKey::new(1));
    }

    fn on_round(&mut self, ctx: &mut Context<'_, Self::Message>) {
        self.rounds += 1;
        if let Some(target) = self.target {
            ctx.send(target, Counter(self.rounds as u32));
        }
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Message,
        _ctx: &mut Context<'_, Self::Message>,
    ) {
        self.received.push((from, msg.0));
    }

    fn on_timer(&mut self, key: TimerKey, _ctx: &mut Context<'_, Self::Message>) {
        assert_eq!(key, TimerKey::new(1));
        self.timer_fired = true;
    }
}

impl PssNode for Probe {
    fn nat_class(&self) -> NatClass {
        NatClass::Public
    }

    fn known_peers(&self) -> Vec<NodeId> {
        self.target.into_iter().collect()
    }

    fn draw_sample(&mut self, _rng: &mut SmallRng) -> Option<NodeId> {
        self.target
    }

    fn rounds_executed(&self) -> u64 {
        self.rounds
    }
}

/// Seed 3, `threads` workers, and rounds exactly at the barrier instants `n * 1 s` (no
/// jitter, no random phase).
pub(crate) fn config(threads: usize) -> SimulationConfig {
    SimulationConfig::default()
        .with_seed(3)
        .with_round_jitter(0.0)
        .with_random_phase(false)
        .with_engine_threads(threads)
}

/// Nodes 1 and 2, each targeting the other, over a constant 10 ms latency.
pub(crate) fn pair<E: SimulationEngine<Probe>>(threads: usize) -> E {
    let mut sim = E::from_config(config(threads));
    sim.set_latency_model(ConstantLatency::new(SimDuration::from_millis(10)));
    sim.add_node(NodeId::new(1), Probe::new(Some(NodeId::new(2))));
    sim.add_node(NodeId::new(2), Probe::new(Some(NodeId::new(1))));
    sim
}

/// Records every barrier the engine hands to the hook.
struct Recorder(Rc<RefCell<Vec<(u64, SimTime)>>>);

impl RoundHook for Recorder {
    fn on_round_barrier(&mut self, round: u64, now: SimTime) {
        self.0.borrow_mut().push((round, now));
    }
}

/// Installs a [`RoundHook`] on `sim` that logs every `(round, instant)` it is handed.
pub(crate) fn record_barriers<E: SimulationEngine<Probe>>(
    sim: &mut E,
) -> Rc<RefCell<Vec<(u64, SimTime)>>> {
    let log = Rc::new(RefCell::new(Vec::new()));
    sim.set_round_hook(Box::new(Recorder(Rc::clone(&log))));
    log
}

/// Draws one sample from node 1 per barrier and logs it.
struct DrawProbe(Rc<RefCell<Vec<Option<NodeId>>>>);

impl RoundHook for DrawProbe {
    fn on_round_barrier(&mut self, _round: u64, _now: SimTime) {}

    fn on_round_barrier_with(&mut self, _round: u64, _now: SimTime, ops: &mut dyn HookOps) {
        self.0.borrow_mut().push(ops.draw_sample(NodeId::new(1)));
    }
}

/// Probes the whole `HookOps` seam at each barrier: the live-id walk, liveness queries,
/// a protocol-rule sample draw and ledger charging.
struct SeamProbe(Rc<RefCell<Vec<Option<NodeId>>>>);

impl RoundHook for SeamProbe {
    fn on_round_barrier(&mut self, _round: u64, _now: SimTime) {}

    fn on_round_barrier_with(&mut self, _round: u64, _now: SimTime, ops: &mut dyn HookOps) {
        let mut ids = Vec::new();
        ops.live_node_ids_into(&mut ids);
        assert_eq!(ids, vec![NodeId::new(1), NodeId::new(2)]);
        assert!(ops.is_live(NodeId::new(1)));
        assert!(!ops.is_live(NodeId::new(99)));
        self.0.borrow_mut().push(ops.draw_sample(NodeId::new(1)));
        ops.record_transfer(NodeId::new(1), NodeId::new(2), 500);
        ops.record_blocked(NodeId::new(2));
    }
}

pub(crate) fn joined_at_records_join_time<E: SimulationEngine<Probe>>(threads: usize) {
    let mut sim = pair::<E>(threads);
    sim.run_until(SimTime::from_secs(3));
    sim.add_node(NodeId::new(7), Probe::new(None));
    let joined_at = |sim: &E, id| sim.node(NodeId::new(id)).map(|p| p.started_at);
    assert_eq!(joined_at(&sim, 7), Some(SimTime::from_secs(3)));
    assert_eq!(joined_at(&sim, 1), Some(SimTime::ZERO));
}

pub(crate) fn run_until_advances_clock_even_without_events<E: SimulationEngine<Probe>>(
    threads: usize,
) {
    let mut sim = E::from_config(config(threads));
    sim.run_until(SimTime::from_secs(42));
    assert_eq!(sim.now(), SimTime::from_secs(42));
}

pub(crate) fn sample_from_uses_protocol_rule<E: SimulationEngine<Probe>>(threads: usize) {
    let mut sim = pair::<E>(threads);
    assert_eq!(sim.draw_sample(NodeId::new(1)), Some(NodeId::new(2)));
    sim.run_for_rounds(5);
    assert_eq!(sim.draw_sample(NodeId::new(1)), Some(NodeId::new(2)));
    assert_eq!(sim.draw_sample(NodeId::new(99)), None);
}

pub(crate) fn traffic_ledger_accounts_bytes<E: SimulationEngine<Probe>>(threads: usize) {
    let mut sim = pair::<E>(threads);
    sim.run_for_rounds(10);
    let ledger = sim.traffic_snapshot();
    for (id, node) in sim.nodes() {
        // Every round sends one 100-byte message; every delivery is charged in full.
        let t = ledger.node_or_default(id);
        assert!(node.rounds >= 8, "ten rounds of 100-byte sends: {t:?}");
        assert_eq!(t.bytes_sent, 100 * node.rounds);
        assert!(t.bytes_received > 0);
        assert_eq!(t.bytes_received, 100 * node.received.len() as u64);
    }
    assert_eq!(ledger.total_bytes_sent() % 100, 0);
}

/// Adding a live id again panics. Every worker count but the last is checked under
/// `catch_unwind`; the last panics through to the calling test's `should_panic`.
pub(crate) fn duplicate_node_panics<E: SimulationEngine<Probe>>(worker_counts: &[usize]) {
    let add_twice = |threads| {
        let mut sim = pair::<E>(threads);
        sim.add_node(NodeId::new(1), Probe::new(None));
    };
    let (&last, rest) = worker_counts
        .split_last()
        .expect("at least one worker count");
    for &threads in rest {
        let payload = panic::catch_unwind(AssertUnwindSafe(|| add_twice(threads)))
            .expect_err("adding a live id twice must panic");
        let message = payload.downcast_ref::<String>().map_or("", String::as_str);
        assert!(
            message.contains("already part of the simulation"),
            "{message}"
        );
    }
    add_twice(last);
}

pub(crate) fn removed_node_stops_receiving<E: SimulationEngine<Probe>>(threads: usize) {
    let mut sim = pair::<E>(threads);
    sim.run_for_rounds(3);
    assert!(sim.remove_node(NodeId::new(2)).is_some());
    assert!(sim.remove_node(NodeId::new(2)).is_none());
    assert!(!sim.contains(NodeId::new(2)));
    assert!(sim.node(NodeId::new(2)).is_none());
    assert_eq!(sim.len(), 1);
    // Node 1 keeps sending to the dead node; those messages count as destination_gone.
    sim.run_for_rounds(5);
    assert!(sim.network_stats().destination_gone > 0);
}

pub(crate) fn round_hook_fires_once_per_barrier<E: SimulationEngine<Probe>>(threads: usize) {
    let mut sim = pair::<E>(threads);
    let log = record_barriers(&mut sim);
    // Split the run across several run_until calls, including a no-op window and calls
    // that re-reach an already-fired barrier: no barrier may fire twice.
    sim.run_until(SimTime::from_millis(2_500));
    sim.run_until(SimTime::from_millis(2_500));
    sim.run_until(SimTime::from_secs(5));
    let now = sim.now();
    sim.run_until(now);
    let expected: Vec<(u64, SimTime)> = (1..=5).map(|n| (n, SimTime::from_secs(n))).collect();
    assert_eq!(*log.borrow(), expected);
}

pub(crate) fn round_hook_fires_on_an_empty_queue<E: SimulationEngine<Probe>>(threads: usize) {
    let mut sim = E::from_config(config(threads));
    let log = record_barriers(&mut sim);
    sim.run_until(SimTime::from_secs(4));
    assert_eq!(log.borrow().len(), 4, "no events, but every barrier fires");
    assert_eq!(sim.now(), SimTime::from_secs(4));
}

pub(crate) fn round_hook_installed_mid_run_skips_past_barriers<E: SimulationEngine<Probe>>(
    threads: usize,
) {
    let mut sim = pair::<E>(threads);
    sim.run_until(SimTime::from_secs(3));
    let log = record_barriers(&mut sim);
    sim.run_until(SimTime::from_secs(5));
    let rounds: Vec<u64> = log.borrow().iter().map(|(r, _)| *r).collect();
    assert_eq!(rounds, vec![4, 5], "barriers 1..3 predate the hook");
}

pub(crate) fn sampled_round_hook_serves_draws_and_charges_the_ledger<E: SimulationEngine<Probe>>(
    threads: usize,
) {
    let mut sim = pair::<E>(threads);
    let samples = Rc::new(RefCell::new(Vec::new()));
    sim.set_sampled_round_hook(Box::new(SeamProbe(Rc::clone(&samples))));
    sim.run_until(SimTime::from_secs(2));
    // Probe's sampling rule always returns the target.
    assert_eq!(
        samples.borrow().as_slice(),
        &[Some(NodeId::new(2)), Some(NodeId::new(2))]
    );
    let ledger = sim.traffic_snapshot();
    let t1 = ledger.node_or_default(NodeId::new(1));
    let t2 = ledger.node_or_default(NodeId::new(2));
    // Two barriers × 500 workload bytes on top of the protocol's own 100-byte sends.
    assert!(t1.bytes_sent >= 1_000, "sent {}", t1.bytes_sent);
    assert!(t2.bytes_received >= 1_000, "received {}", t2.bytes_received);
    assert_eq!(t2.messages_dropped, 2, "one blocked record per barrier");
}

pub(crate) fn plain_round_hook_has_no_sampling_rule<E: SimulationEngine<Probe>>(threads: usize) {
    let mut sim = pair::<E>(threads);
    let draws = Rc::new(RefCell::new(Vec::new()));
    let install_and_run = |sim: &mut E, sampled: bool| {
        draws.borrow_mut().clear();
        let hook = Box::new(DrawProbe(Rc::clone(&draws)));
        if sampled {
            sim.set_sampled_round_hook(hook);
        } else {
            sim.set_round_hook(hook);
        }
        sim.run_for_rounds(2);
        draws.borrow().clone()
    };
    assert_eq!(
        install_and_run(&mut sim, false),
        [None, None],
        "the plain installer must not capture a sampling rule"
    );
    assert_eq!(
        install_and_run(&mut sim, true),
        [Some(NodeId::new(2)), Some(NodeId::new(2))],
        "the sampled installer must serve protocol-rule draws"
    );
    assert_eq!(
        install_and_run(&mut sim, false),
        [None, None],
        "set_round_hook must clear the captured sampler"
    );
}

pub(crate) fn nodes_visits_each_live_node_exactly_once<E: SimulationEngine<Probe>>(threads: usize) {
    let mut sim = E::from_config(config(threads));
    for i in 0..10 {
        sim.add_node(NodeId::new(i), Probe::new(Some(NodeId::new((i + 1) % 10))));
    }
    sim.run_for_rounds(2);
    sim.remove_node(NodeId::new(3));
    sim.remove_node(NodeId::new(7));
    sim.add_node(NodeId::new(12), Probe::new(Some(NodeId::new(0))));
    sim.run_for_rounds(2);

    let visited: Vec<NodeId> = sim.nodes().map(|(id, _)| id).collect();
    let mut sorted = visited.clone();
    sorted.sort();
    let live: Vec<NodeId> = [0, 1, 2, 4, 5, 6, 8, 9, 12].map(NodeId::new).to_vec();
    assert_eq!(sorted, live, "each live node exactly once, no removed node");
    assert_eq!(sim.len(), visited.len());
    for (id, proto) in sim.nodes() {
        assert!(std::ptr::eq(
            sim.node(id).expect("visited ids are live"),
            proto
        ));
    }
    let mut walked = Vec::new();
    sim.for_each_node(&mut |id, _| walked.push(id));
    assert_eq!(walked, visited, "for_each_node walks in nodes() order");
}

/// Instantiates the conformance suite as `#[test]` functions in the invoking module: each
/// check runs on engine type `$engine` once per worker count in `$workers`.
macro_rules! engine_conformance_tests {
    ($engine:ty, $workers:expr) => {
        $crate::conformance::engine_conformance_tests!(
            @each $engine,
            $workers,
            joined_at_records_join_time,
            run_until_advances_clock_even_without_events,
            sample_from_uses_protocol_rule,
            traffic_ledger_accounts_bytes,
            removed_node_stops_receiving,
            round_hook_fires_once_per_barrier,
            round_hook_fires_on_an_empty_queue,
            round_hook_installed_mid_run_skips_past_barriers,
            sampled_round_hook_serves_draws_and_charges_the_ledger,
            plain_round_hook_has_no_sampling_rule,
            nodes_visits_each_live_node_exactly_once,
        );

        #[test]
        #[should_panic(expected = "already part of the simulation")]
        fn duplicate_node_panics() {
            $crate::conformance::duplicate_node_panics::<$engine>(&$workers);
        }
    };
    (@each $engine:ty, $workers:expr, $($check:ident),+ $(,)?) => {
        $(
            #[test]
            fn $check() {
                for threads in $workers {
                    $crate::conformance::$check::<$engine>(threads);
                }
            }
        )+
    };
}

pub(crate) use engine_conformance_tests;
