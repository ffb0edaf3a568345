//! The discrete-event simulation engine.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::arena::NodeArena;
use crate::bootstrap::BootstrapRegistry;
use crate::engine_api::{HookOps, RoundHook, SimulationEngine};
use crate::event::Event;
use crate::faults::{FaultPlane, FaultReport};
use crate::latency::{KingLatencyModel, LatencyModel};
use crate::loss::{LossModel, NoLoss};
use crate::network::{DeliveryFilter, DeliveryVerdict, OpenInternet};
use crate::protocol::{Context, Outgoing, Protocol, PssNode, TimerRequest, WireSize};
use crate::rng::{Seed, Stream};
use crate::scheduler::EventQueue;
use crate::time::{SimDuration, SimTime};
use crate::traffic::TrafficLedger;
use crate::transport::{ContextParams, SimTransport};
use crate::types::NodeId;

/// Configuration of a simulation run.
///
/// # Examples
///
/// ```
/// use croupier_simulator::{SimulationConfig, SimDuration};
///
/// let cfg = SimulationConfig::default()
///     .with_seed(1)
///     .with_round_period(SimDuration::from_secs(1))
///     .with_round_jitter(0.05);
/// assert_eq!(cfg.round_period, SimDuration::from_secs(1));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimulationConfig {
    /// Master seed for all random streams.
    pub seed: Seed,
    /// Gossip round period (the paper uses one second).
    pub round_period: SimDuration,
    /// Clock-skew modelled as a uniform fractional jitter applied to each node's round
    /// period (0.05 means each round fires within ±5 % of the nominal period).
    pub round_jitter: f64,
    /// Whether nodes start their first round at a random phase within one period of their
    /// join time (decorrelates rounds, as on a real deployment).
    pub random_phase: bool,
    /// Number of worker threads used by the sharded engine
    /// ([`ShardedSimulation`](crate::ShardedSimulation)); the event-driven engine ignores
    /// it. Values below one are treated as one.
    pub engine_threads: usize,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            seed: Seed::default(),
            round_period: SimDuration::from_secs(1),
            round_jitter: 0.02,
            random_phase: true,
            engine_threads: 1,
        }
    }
}

impl SimulationConfig {
    /// Replaces the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Seed::new(seed);
        self
    }

    /// Replaces the gossip round period.
    pub fn with_round_period(mut self, period: SimDuration) -> Self {
        self.round_period = period;
        self
    }

    /// Replaces the clock-skew jitter fraction.
    ///
    /// # Panics
    ///
    /// Panics if `jitter` is negative or not finite.
    pub fn with_round_jitter(mut self, jitter: f64) -> Self {
        assert!(
            jitter.is_finite() && jitter >= 0.0,
            "jitter must be a non-negative number"
        );
        self.round_jitter = jitter;
        self
    }

    /// Enables or disables random initial round phase.
    pub fn with_random_phase(mut self, random_phase: bool) -> Self {
        self.random_phase = random_phase;
        self
    }

    /// Sets the number of worker threads for the sharded engine.
    pub fn with_engine_threads(mut self, threads: usize) -> Self {
        self.engine_threads = threads;
        self
    }
}

/// Counters describing what happened to the messages handed to the network.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Messages delivered to their destination.
    pub delivered: u64,
    /// Messages dropped by the loss model.
    pub lost: u64,
    /// Messages filtered by a NAT or firewall.
    pub blocked_by_nat: u64,
    /// Messages whose destination had left the system.
    pub destination_gone: u64,
}

impl NetworkStats {
    /// Total number of messages handed to the network.
    pub fn total(&self) -> u64 {
        self.delivered + self.lost + self.blocked_by_nat + self.destination_gone
    }

    /// Adds the counters of `other` into this one; used to aggregate per-shard statistics.
    pub fn merge(&mut self, other: NetworkStats) {
        self.delivered += other.delivered;
        self.lost += other.lost;
        self.blocked_by_nat += other.blocked_by_nat;
        self.destination_gone += other.destination_gone;
    }
}

struct NodeSlot<P> {
    id: NodeId,
    proto: P,
    rng: SmallRng,
}

/// Arena index of a node id (the raw id itself; ids are dense by convention).
fn slot_index(id: NodeId) -> usize {
    id.as_u64() as usize
}

/// The discrete-event simulation engine.
///
/// The engine owns every node's protocol instance, the event queue, the network models and
/// the traffic ledger. Node state lives in a flat dense [`NodeArena`] indexed by the raw
/// node id, so the per-event lookup on the hot path is a direct indexed load; node ids
/// should therefore be assigned densely from zero (experiments already do). It is driven
/// through [`SimulationEngine`]; see the crate-level documentation for a full example.
pub struct Simulation<P: Protocol> {
    cfg: SimulationConfig,
    now: SimTime,
    queue: EventQueue<P::Message>,
    nodes: NodeArena<NodeSlot<P>>,
    latency: Box<dyn LatencyModel>,
    loss: Box<dyn LossModel>,
    filter: Box<dyn DeliveryFilter>,
    bootstrap: BootstrapRegistry,
    traffic: TrafficLedger,
    latency_rng: SmallRng,
    loss_rng: SmallRng,
    sched_rng: SmallRng,
    stats: NetworkStats,
    /// Recycled effect buffers threaded through every protocol callback (see
    /// [`Context::with_buffers`]); their capacity persists across events, so the
    /// per-event effect collection allocates nothing in steady state.
    outbox_buf: Vec<Outgoing<P::Message>>,
    timers_buf: Vec<TimerRequest>,
    /// Fault-injection plane, if installed; judged per outgoing message in event order
    /// (which is already canonical for this engine).
    faults: Option<FaultPlane>,
    /// Round-barrier hook, if installed; `None` keeps
    /// [`run_until`](SimulationEngine::run_until) on the original barrier-free hot loop.
    hook: Option<Box<dyn RoundHook>>,
    /// The protocol's peer-sampling rule, captured (monomorphised where `P: PssNode`
    /// holds) by [`set_sampled_round_hook`](SimulationEngine::set_sampled_round_hook) so
    /// the `P: Protocol`-only barrier loop can serve [`HookOps::draw_sample`].
    hook_sampler: Option<fn(&mut P, &mut SmallRng) -> Option<NodeId>>,
    /// Index of the last barrier handed to the hook (barrier `n` fires at `n * period`).
    barriers_fired: u64,
}

impl<P: Protocol> Simulation<P> {
    /// [`run_until`](SimulationEngine::run_until) with an installed [`RoundHook`]: the
    /// event loop is split at every barrier instant `n * round_period <= deadline`. The
    /// hook fires *before* any event scheduled at or after the barrier instant dispatches
    /// — the same observation point as the sharded engine's phase barrier, where events
    /// at exactly the window edge belong to the next phase.
    fn run_until_with_barriers(&mut self, deadline: SimTime) {
        let period = self.cfg.round_period.as_millis().max(1);
        loop {
            let barrier =
                SimTime::from_millis(self.barriers_fired.saturating_add(1).saturating_mul(period));
            let next_event = self.queue.peek_time();
            if barrier <= deadline && next_event.is_none_or(|at| barrier <= at) {
                if barrier > self.now {
                    self.now = barrier;
                }
                self.barriers_fired += 1;
                let round = self.barriers_fired;
                // Take/restore so the hook can borrow the engine as `&mut dyn HookOps`.
                if let Some(mut hook) = self.hook.take() {
                    hook.on_round_barrier_with(round, barrier, self);
                    self.hook = Some(hook);
                }
                continue;
            }
            match next_event {
                Some(at) if at <= deadline => {
                    let scheduled = self.queue.pop().expect("peeked event must exist");
                    self.now = scheduled.at;
                    self.dispatch(scheduled.event);
                }
                _ => break,
            }
        }
        if deadline > self.now {
            self.now = deadline;
        }
    }

    fn dispatch(&mut self, event: Event<P::Message>) {
        match event {
            Event::Round { node } => {
                if self.nodes.contains(slot_index(node)) {
                    self.execute(node, |proto, ctx| proto.on_round(ctx));
                    let next = self.next_round_delay();
                    self.queue.schedule(self.now + next, Event::Round { node });
                }
            }
            Event::Timer { node, key } => {
                if self.nodes.contains(slot_index(node)) {
                    self.execute(node, |proto, ctx| proto.on_timer(key, ctx));
                }
            }
            Event::Deliver { from, to, msg } => {
                if !self.nodes.contains(slot_index(to)) {
                    self.stats.destination_gone += 1;
                    self.traffic.record_dropped(from);
                    return;
                }
                match self.filter.can_deliver(from, to, self.now) {
                    DeliveryVerdict::Deliver => {
                        self.stats.delivered += 1;
                        self.traffic.record_received(to, msg.wire_size());
                        self.execute(to, |proto, ctx| proto.on_message(from, msg, ctx));
                    }
                    DeliveryVerdict::BlockedByNat => {
                        self.stats.blocked_by_nat += 1;
                        self.traffic.record_dropped(from);
                    }
                    DeliveryVerdict::NoSuchDestination => {
                        self.stats.destination_gone += 1;
                        self.traffic.record_dropped(from);
                    }
                }
            }
        }
    }

    fn next_round_delay(&mut self) -> SimDuration {
        let period = self.cfg.round_period.as_millis() as f64;
        if self.cfg.round_jitter > 0.0 {
            let jitter = self
                .sched_rng
                .gen_range(-self.cfg.round_jitter..self.cfg.round_jitter);
            SimDuration::from_millis_f64((period * (1.0 + jitter)).max(1.0))
        } else {
            self.cfg.round_period
        }
    }

    /// Runs `callback` on the protocol instance of `node` with a [`Context`] backed by the
    /// engine's recycled effect buffers, then applies the side effects (messages, timers)
    /// the callback produced.
    fn execute<F>(&mut self, node: NodeId, callback: F)
    where
        F: FnOnce(&mut P, &mut Context<'_, P::Message>),
    {
        let outbox_buf = std::mem::take(&mut self.outbox_buf);
        let timers_buf = std::mem::take(&mut self.timers_buf);
        let (mut outgoing, mut timers) = {
            let slot = self
                .nodes
                .get_mut(slot_index(node))
                .expect("execute() requires a live node");
            let mut transport = SimTransport::with_buffers(
                ContextParams {
                    node,
                    now: self.now,
                    round_period: self.cfg.round_period,
                    rng: &mut slot.rng,
                    bootstrap: &self.bootstrap,
                },
                outbox_buf,
                timers_buf,
            );
            let mut ctx = Context::new(&mut transport);
            callback(&mut slot.proto, &mut ctx);
            transport.into_effects()
        };
        self.apply_effects(node, &mut outgoing, &mut timers);
        self.outbox_buf = outgoing;
        self.timers_buf = timers;
    }

    /// Drains the effect buffers into the network and the event queue; the emptied buffers
    /// keep their capacity and return to the engine's pool.
    fn apply_effects(
        &mut self,
        from: NodeId,
        outgoing: &mut Vec<Outgoing<P::Message>>,
        timers: &mut Vec<TimerRequest>,
    ) {
        let mut session = self.faults.as_ref().and_then(FaultPlane::begin);
        for Outgoing { to, mut msg } in outgoing.drain(..) {
            self.traffic.record_sent(from, msg.wire_size());
            self.filter.on_send(from, to, self.now);
            if self.loss.drops(from, to, &mut self.loss_rng) {
                self.stats.lost += 1;
                self.traffic.record_dropped(from);
                continue;
            }
            let mut extra_delay = SimDuration::ZERO;
            let mut duplicate = false;
            if let Some(session) = session.as_mut() {
                let decision = session.judge(from, to);
                if decision.drop {
                    self.stats.lost += 1;
                    self.traffic.record_dropped(from);
                    continue;
                }
                if decision.corrupt {
                    msg.fault_mutate(session.rng());
                }
                extra_delay = decision.extra_delay;
                duplicate = decision.duplicate;
            }
            let latency = self.latency.sample(from, to, &mut self.latency_rng);
            if duplicate {
                // The copy travels at the base latency; the original may additionally be
                // delayed by a reordering spike.
                self.queue.schedule(
                    self.now + latency,
                    Event::Deliver {
                        from,
                        to,
                        msg: msg.clone(),
                    },
                );
            }
            self.queue.schedule(
                self.now + latency + extra_delay,
                Event::Deliver { from, to, msg },
            );
        }
        for TimerRequest { delay, key } in timers.drain(..) {
            self.queue
                .schedule(self.now + delay, Event::Timer { node: from, key });
        }
    }
}

impl<P: Protocol> HookOps for Simulation<P> {
    fn draw_sample(&mut self, node: NodeId) -> Option<NodeId> {
        let sampler = self.hook_sampler?;
        let slot = self.nodes.get_mut(slot_index(node))?;
        sampler(&mut slot.proto, &mut slot.rng)
    }

    fn is_live(&self, node: NodeId) -> bool {
        self.contains(node)
    }

    fn live_node_ids_into(&self, out: &mut Vec<NodeId>) {
        out.extend(self.nodes.iter().map(|(_, slot)| slot.id));
    }

    fn record_transfer(&mut self, from: NodeId, to: NodeId, bytes: usize) {
        self.traffic.record_sent(from, bytes);
        self.traffic.record_received(to, bytes);
    }

    fn record_blocked(&mut self, from: NodeId) {
        self.traffic.record_dropped(from);
    }
}

impl<P: Protocol> SimulationEngine<P> for Simulation<P> {
    /// Creates an engine with a King-like latency model, no message loss and no NAT
    /// filtering; the `set_*` methods replace the network models.
    fn from_config(cfg: SimulationConfig) -> Self {
        Simulation {
            cfg,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            nodes: NodeArena::new(),
            latency: Box::new(KingLatencyModel::new()),
            loss: Box::new(NoLoss),
            filter: Box::new(OpenInternet),
            bootstrap: BootstrapRegistry::new(),
            traffic: TrafficLedger::new(),
            latency_rng: cfg.seed.stream_rng(Stream::Latency),
            loss_rng: cfg.seed.stream_rng(Stream::Loss),
            sched_rng: cfg.seed.stream_rng(Stream::Scheduling),
            stats: NetworkStats::default(),
            outbox_buf: Vec::new(),
            timers_buf: Vec::new(),
            faults: None,
            hook: None,
            hook_sampler: None,
            barriers_fired: 0,
        }
    }

    fn set_latency_model<L: LatencyModel + Send + Sync + 'static>(&mut self, model: L) {
        self.latency = Box::new(model);
    }

    fn set_loss_model<L: LossModel + Send + Sync + 'static>(&mut self, model: L) {
        self.loss = Box::new(model);
    }

    fn set_delivery_filter<D: DeliveryFilter + 'static>(&mut self, filter: D) {
        self.filter = Box::new(filter);
    }

    /// Barriers at or before the current instant never fire.
    fn set_round_hook(&mut self, hook: Box<dyn RoundHook>) {
        let period = self.cfg.round_period.as_millis().max(1);
        self.barriers_fired = self.now.as_millis() / period;
        self.hook = Some(hook);
        self.hook_sampler = None;
    }

    fn set_sampled_round_hook(&mut self, hook: Box<dyn RoundHook>)
    where
        P: PssNode,
    {
        self.set_round_hook(hook);
        self.hook_sampler = Some(P::draw_sample);
    }

    /// The plane judges every outgoing message after the loss model, in event order; an
    /// inactive plane costs one atomic load per effect batch.
    fn set_fault_plane(&mut self, plane: FaultPlane) {
        self.faults = Some(plane);
    }

    fn fault_report(&self) -> FaultReport {
        self.faults
            .as_ref()
            .map(FaultPlane::report)
            .unwrap_or_default()
    }

    fn config(&self) -> &SimulationConfig {
        &self.cfg
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }

    fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains(slot_index(node))
    }

    fn node(&self, node: NodeId) -> Option<&P> {
        self.nodes.get(slot_index(node)).map(|slot| &slot.proto)
    }

    fn nodes<'a>(&'a self) -> impl Iterator<Item = (NodeId, &'a P)>
    where
        P: 'a,
    {
        self.nodes.iter().map(|(_, slot)| (slot.id, &slot.proto))
    }

    fn register_public(&mut self, node: NodeId) {
        self.bootstrap.register(node);
    }

    fn add_node(&mut self, id: NodeId, proto: P) {
        assert!(
            !self.nodes.contains(slot_index(id)),
            "node {id} is already part of the simulation"
        );
        let slot = NodeSlot {
            id,
            proto,
            rng: self.cfg.seed.node_rng(id),
        };
        self.nodes.insert(slot_index(id), slot);
        self.filter.on_node_added(id);
        self.execute(id, |proto, ctx| proto.on_start(ctx));
        let phase = if self.cfg.random_phase {
            let period_ms = self.cfg.round_period.as_millis().max(1);
            SimDuration::from_millis(self.sched_rng.gen_range(0..period_ms))
        } else {
            self.cfg.round_period
        };
        self.queue
            .schedule(self.now + phase, Event::Round { node: id });
    }

    fn remove_node(&mut self, id: NodeId) -> Option<P> {
        let slot = self.nodes.remove(slot_index(id))?;
        self.bootstrap.unregister(id);
        self.filter.on_node_removed(id);
        Some(slot.proto)
    }

    fn run_until(&mut self, deadline: SimTime) {
        if self.hook.is_some() {
            self.run_until_with_barriers(deadline);
            return;
        }
        while let Some(at) = self.queue.peek_time() {
            if at > deadline {
                break;
            }
            let scheduled = self.queue.pop().expect("peeked event must exist");
            self.now = scheduled.at;
            self.dispatch(scheduled.event);
        }
        if deadline > self.now {
            self.now = deadline;
        }
    }

    fn node_id_upper_bound(&self) -> u64 {
        // Slots are addressed by the raw node id, so the arena bound is the id bound.
        self.nodes.slot_upper_bound() as u64
    }

    fn network_stats(&self) -> NetworkStats {
        self.stats
    }

    fn traffic_snapshot(&self) -> TrafficLedger {
        self.traffic.clone()
    }

    fn traffic_snapshot_into(&self, out: &mut TrafficLedger) {
        out.reset_window(self.traffic.window_start());
        out.merge_from(&self.traffic);
    }

    fn reset_traffic_window(&mut self) {
        let now = self.now;
        self.traffic.reset_window(now);
    }

    fn draw_sample(&mut self, node: NodeId) -> Option<NodeId>
    where
        P: PssNode,
    {
        let slot = self.nodes.get_mut(slot_index(node))?;
        slot.proto.draw_sample(&mut slot.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::{engine_conformance_tests, pair, Probe};
    use crate::latency::ConstantLatency;
    use crate::loss::BernoulliLoss;

    // The event engine ignores the worker count.
    engine_conformance_tests!(Simulation<Probe>, [0]);

    fn two_node_sim() -> Simulation<Probe> {
        pair(0)
    }

    fn received(sim: &Simulation<Probe>, id: u64) -> usize {
        sim.node(NodeId::new(id)).unwrap().received.len()
    }

    #[test]
    fn rounds_fire_periodically() {
        let mut sim = two_node_sim();
        sim.run_for(SimDuration::from_secs(10));
        for (_, node) in sim.nodes() {
            assert_eq!(node.rounds, 10);
        }
    }

    #[test]
    fn fault_plane_drops_everything_at_full_loss() {
        use crate::faults::{FaultPlane, FaultProfile};
        use crate::rng::Seed;
        let mut sim = two_node_sim();
        let plane = FaultPlane::new(Seed::new(3));
        plane.set_default_profile(FaultProfile::lossy(1.0));
        sim.set_fault_plane(plane);
        sim.run_for(SimDuration::from_secs(5));
        for (_, node) in sim.nodes() {
            assert!(node.received.is_empty(), "a message survived 100% loss");
        }
        let report = sim.fault_report();
        assert!(report.injected_drops > 0);
        let stats = sim.network_stats();
        assert_eq!(stats.delivered, 0);
        assert_eq!(
            stats.lost, report.injected_drops,
            "fault drops count as lost"
        );
    }

    #[test]
    fn fault_plane_duplicates_double_delivery() {
        use crate::faults::{FaultPlane, FaultProfile};
        use crate::rng::Seed;
        let mut sim = two_node_sim();
        let plane = FaultPlane::new(Seed::new(3));
        plane.set_default_profile(FaultProfile::default().with_duplicate(1.0));
        sim.set_fault_plane(plane);
        // Rounds at t = 1..5 s, 10 ms latency; flush the in-flight round-5 copies.
        sim.run_for(SimDuration::from_secs(5));
        sim.run_for(SimDuration::from_millis(20));
        assert_eq!(received(&sim, 1), 10);
        assert_eq!(received(&sim, 2), 10);
        assert_eq!(sim.fault_report().duplicates, 10);
        assert_eq!(sim.network_stats().delivered, 20);
    }

    #[test]
    fn fault_plane_clear_restores_clean_delivery() {
        use crate::faults::{FaultPlane, FaultProfile};
        use crate::rng::Seed;
        let mut sim = two_node_sim();
        let plane = FaultPlane::new(Seed::new(3));
        plane.set_default_profile(FaultProfile::lossy(1.0));
        sim.set_fault_plane(plane.clone());
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(sim.network_stats().delivered, 0);
        let dropped_so_far = sim.fault_report().injected_drops;
        plane.clear();
        sim.run_for(SimDuration::from_secs(5));
        let stats = sim.network_stats();
        assert!(stats.delivered > 0, "clear() must stop injection");
        assert_eq!(
            sim.fault_report().injected_drops,
            dropped_so_far,
            "counters persist across clear() but must not grow"
        );
    }

    #[test]
    fn messages_are_delivered_with_latency() {
        let mut sim = two_node_sim();
        // Rounds fire at t = 1..5 s; each message takes 10 ms, so the round-5 messages are
        // still in flight when the clock stops at exactly 5 s.
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(received(&sim, 1), 4);
        assert_eq!(received(&sim, 2), 4);
        assert_eq!(sim.network_stats().delivered, 8);
        // Running a little longer flushes the in-flight messages.
        sim.run_for(SimDuration::from_millis(20));
        assert_eq!(sim.network_stats().delivered, 10);
        assert_eq!(sim.network_stats().total(), 10);
    }

    #[test]
    fn timers_fire_once() {
        let mut sim = two_node_sim();
        sim.run_for(SimDuration::from_millis(50));
        assert!(sim.node(NodeId::new(1)).unwrap().timer_fired);
        assert!(sim.node(NodeId::new(2)).unwrap().timer_fired);
    }

    #[test]
    fn loss_model_drops_messages() {
        let mut sim = Simulation::from_config(
            SimulationConfig::default()
                .with_seed(4)
                .with_round_jitter(0.0)
                .with_random_phase(false),
        );
        sim.set_latency_model(ConstantLatency::new(SimDuration::from_millis(1)));
        sim.set_loss_model(BernoulliLoss::new(1.0));
        sim.add_node(NodeId::new(1), Probe::new(Some(NodeId::new(2))));
        sim.add_node(NodeId::new(2), Probe::new(None));
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(sim.network_stats().delivered, 0);
        assert_eq!(sim.network_stats().lost, 5);
        assert_eq!(received(&sim, 2), 0);
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run = || {
            let mut sim = two_node_sim();
            sim.run_for(SimDuration::from_secs(20));
            (
                sim.network_stats(),
                sim.node(NodeId::new(1)).unwrap().received.clone(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn round_hook_fires_before_events_at_the_barrier_instant() {
        use std::cell::RefCell;
        use std::rc::Rc;
        // With zero jitter and no random phase, rounds fire exactly at 1 s, 2 s, ... —
        // i.e. exactly at the barrier instants. The hook must run before the round
        // callbacks scheduled at the same instant (events at the barrier belong to the
        // next phase, as in the sharded engine), which a trace shared between a probe
        // protocol and the hook makes observable.
        let trace: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(Vec::new()));

        struct Tracer(Rc<RefCell<Vec<&'static str>>>);
        impl Protocol for Tracer {
            type Message = crate::conformance::Counter;
            fn on_start(&mut self, _ctx: &mut Context<'_, Self::Message>) {}
            fn on_round(&mut self, _ctx: &mut Context<'_, Self::Message>) {
                self.0.borrow_mut().push("round");
            }
            fn on_message(
                &mut self,
                _from: NodeId,
                _msg: Self::Message,
                _ctx: &mut Context<'_, Self::Message>,
            ) {
            }
        }
        struct BarrierTracer(Rc<RefCell<Vec<&'static str>>>);
        impl RoundHook for BarrierTracer {
            fn on_round_barrier(&mut self, _round: u64, _now: SimTime) {
                self.0.borrow_mut().push("barrier");
            }
        }

        let mut sim = Simulation::from_config(crate::conformance::config(0));
        sim.add_node(NodeId::new(0), Tracer(Rc::clone(&trace)));
        sim.set_round_hook(Box::new(BarrierTracer(Rc::clone(&trace))));
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(
            trace.borrow().as_slice(),
            &["barrier", "round", "barrier", "round"],
            "each barrier precedes the round callbacks at the same instant"
        );
    }
}
