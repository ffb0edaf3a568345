//! The sharded, phase-parallel execution engine.
//!
//! [`ShardedSimulation`] trades the event engine's exact event interleaving for
//! round-synchronous parallelism: virtual time is cut into windows of one gossip period
//! ("phases"), nodes are striped over `engine_threads` shards (`shard = id mod S`,
//! stored densely at `id div S` in each shard's [`NodeArena`]), and every phase runs all
//! shards in parallel on scoped worker threads. Messages never cross shard boundaries
//! mid-phase: workers buffer them in per-`(src-shard, dst-shard)` outboxes and sort each
//! outbox into the canonical order — `(send time, sender id, per-sender sequence
//! number)` — before the barrier. At the barrier the coordinator k-way merges the
//! pre-sorted runs, runs the delivery filter and sender-side traffic accounting over
//! them sequentially in canonical order, and stages the survivors per destination shard;
//! each shard then inserts its own staged deliveries into its own event queue (in
//! parallel for large batches). Only the stateful filter/accounting pass is inherently
//! sequential — the sort and the insertion, which dominated the old single-threaded
//! barrier at 100k nodes, now scale with the worker count.
//!
//! # Determinism across worker counts
//!
//! A run is bit-identical for any `engine_threads` on the same seed because no observable
//! decision depends on shard composition:
//!
//! * **Node state** only changes in the node's own callbacks; within a phase, callbacks of
//!   different nodes are independent (effects are buffered until the barrier), so the order
//!   in which a worker interleaves *different* nodes is invisible.
//! * **Randomness** is per-node: protocol draws come from the node's own stream (as in the
//!   event engine), and latency/loss draws come from a dedicated per-node network stream
//!   ([`Seed::node_stream_rng`](crate::rng::Seed::node_stream_rng)) consumed in the node's
//!   own emission order. The models' [`sample_shared`](LatencyModel::sample_shared) /
//!   [`drops_shared`](LossModel::drops_shared) paths are `&self` and derive any per-node
//!   state by hashing ids, never lazily from a shared stream.
//! * **Same-node event ordering** is `(time, insertion order)` in the shard queue, and every
//!   insertion affecting one node happens at a globally fixed point: barrier merges insert
//!   in canonical order, and a node's own callbacks insert its timers/rounds in callback
//!   order. Neither depends on how nodes are distributed over shards.
//! * **Cross-shard mutation** (delivery filter, sender-side ledger, loss/NAT statistics) is
//!   confined to the single-threaded barrier and processed in the canonical merge order;
//!   receiver-side counters live in per-shard ledgers and are commutative sums, merged on
//!   demand.
//!
//! # Differences from the event engine
//!
//! The quantisation is observable: a message is never executed in the phase it was sent in
//! (its delivery is clamped to the next round barrier if its sampled latency lands
//! earlier), and the delivery filter is consulted at the barrier rather than at the exact
//! delivery instant. Runs are therefore deterministic and *statistically* equivalent to the
//! event engine, but not bit-identical to it — `tests/determinism.rs` pins down exactly the
//! guarantee that holds: sharded runs are bit-identical to each other across worker counts.

use std::cell::{Cell, RefCell};

use rand::rngs::SmallRng;
use rand::Rng;

use crate::arena::NodeArena;
use crate::bootstrap::BootstrapRegistry;
use crate::engine::{NetworkStats, SimulationConfig};
use crate::engine_api::{HookOps, RoundHook, SimulationEngine};
use crate::event::Event;
use crate::faults::{FaultPlane, FaultReport};
use crate::latency::{KingLatencyModel, LatencyModel};
use crate::loss::{LossModel, NoLoss};
use crate::network::{DeliveryFilter, DeliveryVerdict, OpenInternet};
use crate::protocol::{Context, Outgoing, Protocol, PssNode, TimerRequest, WireSize};
use crate::rng::Stream;
use crate::scheduler::EventQueue;
use crate::time::{SimDuration, SimTime};
use crate::traffic::TrafficLedger;
use crate::transport::{ContextParams, SimTransport};
use crate::types::NodeId;

/// Per-node state owned by a shard.
struct NodeState<P> {
    id: NodeId,
    proto: P,
    /// The node's protocol stream (same derivation as in the event engine).
    rng: SmallRng,
    /// The node's latency/loss stream, consumed once per emitted message.
    net_rng: SmallRng,
    /// The node's round-phase and clock-skew stream.
    sched_rng: SmallRng,
    /// Monotone per-node counter stamped on emitted messages; the canonical merge order
    /// tie-breaker for messages a node sends at the same instant.
    msg_seq: u64,
}

/// A message buffered in a shard outbox between a send and the next round barrier.
struct PendingMessage<M> {
    from: NodeId,
    to: NodeId,
    msg: M,
    sent_at: SimTime,
    deliver_at: SimTime,
    seq: u64,
    lost: bool,
    wire: usize,
}

/// One shard: a stripe of nodes, their event queue, and this phase's outboxes.
struct Shard<P: Protocol> {
    /// Total number of shards (the stripe modulus).
    stride: u64,
    nodes: NodeArena<NodeState<P>>,
    queue: EventQueue<P::Message>,
    /// Outgoing messages buffered during the current phase, bucketed by destination shard.
    /// Drained (capacity retained) at every round barrier.
    outboxes: Vec<Vec<PendingMessage<P::Message>>>,
    /// Recycled effect buffers threaded through every protocol callback on this shard
    /// (see [`Context::with_buffers`]); capacity persists across events.
    ctx_outbox: Vec<Outgoing<P::Message>>,
    ctx_timers: Vec<TimerRequest>,
    /// Receiver-side traffic counters (received bytes, drops charged at delivery time).
    traffic: TrafficLedger,
    /// Receiver-side delivery statistics.
    stats: NetworkStats,
}

fn local_index(node: NodeId, stride: u64) -> usize {
    (node.as_u64() / stride) as usize
}

/// The read-only environment every worker shares during a phase: the configuration, the
/// bootstrap registry and the network models (consulted only through their `*_shared`,
/// order-independent paths).
struct PhaseEnv<'a> {
    cfg: &'a SimulationConfig,
    bootstrap: &'a BootstrapRegistry,
    latency: &'a (dyn LatencyModel + Sync),
    loss: &'a (dyn LossModel + Sync),
}

fn next_round_delay(cfg: &SimulationConfig, rng: &mut SmallRng) -> SimDuration {
    let period = cfg.round_period.as_millis() as f64;
    if cfg.round_jitter > 0.0 {
        let jitter = rng.gen_range(-cfg.round_jitter..cfg.round_jitter);
        SimDuration::from_millis_f64((period * (1.0 + jitter)).max(1.0))
    } else {
        cfg.round_period
    }
}

impl<P: Protocol> Shard<P> {
    fn new(stride: u64) -> Self {
        Shard {
            stride,
            nodes: NodeArena::new(),
            queue: EventQueue::new(),
            outboxes: (0..stride).map(|_| Vec::new()).collect(),
            ctx_outbox: Vec::new(),
            ctx_timers: Vec::new(),
            traffic: TrafficLedger::new(),
            stats: NetworkStats::default(),
        }
    }

    /// Runs `callback` on one node and converts its effects: timers go straight into this
    /// shard's queue (they are node-local), messages become [`PendingMessage`]s — with
    /// loss and latency already sampled from the node's private network stream — pushed
    /// directly into the destination shard's outbox bucket. The context's effect buffers
    /// come from the shard's pool, so steady-state execution allocates nothing.
    fn execute<F>(&mut self, local: usize, at: SimTime, env: &PhaseEnv<'_>, callback: F)
    where
        F: FnOnce(&mut P, &mut Context<'_, P::Message>),
    {
        let outbox_buf = std::mem::take(&mut self.ctx_outbox);
        let timers_buf = std::mem::take(&mut self.ctx_timers);
        let (id, mut outgoing, mut timers) = {
            let state = self
                .nodes
                .get_mut(local)
                .expect("execute() requires a live node");
            let mut transport = SimTransport::with_buffers(
                ContextParams {
                    node: state.id,
                    now: at,
                    round_period: env.cfg.round_period,
                    rng: &mut state.rng,
                    bootstrap: env.bootstrap,
                },
                outbox_buf,
                timers_buf,
            );
            let mut ctx = Context::new(&mut transport);
            callback(&mut state.proto, &mut ctx);
            let (outgoing, timers) = transport.into_effects();
            (state.id, outgoing, timers)
        };
        for TimerRequest { delay, key } in timers.drain(..) {
            self.queue
                .schedule(at + delay, Event::Timer { node: id, key });
        }
        let stride = self.stride;
        let state = self.nodes.get_mut(local).expect("node still live");
        for Outgoing { to, msg } in outgoing.drain(..) {
            let wire = msg.wire_size();
            let seq = state.msg_seq;
            state.msg_seq += 1;
            let lost = env.loss.drops_shared(id, to, &mut state.net_rng);
            let deliver_at = if lost {
                at
            } else {
                at + env.latency.sample_shared(id, to, &mut state.net_rng)
            };
            let dst = (to.as_u64() % stride) as usize;
            self.outboxes[dst].push(PendingMessage {
                from: id,
                to,
                msg,
                sent_at: at,
                deliver_at,
                seq,
                lost,
                wire,
            });
        }
        self.ctx_outbox = outgoing;
        self.ctx_timers = timers;
    }

    /// Processes every event of this shard scheduled before `window_end`.
    fn run_phase(&mut self, window_end: SimTime, env: &PhaseEnv<'_>) {
        let stride = self.stride;
        while let Some(at) = self.queue.peek_time() {
            if at >= window_end {
                break;
            }
            let scheduled = self.queue.pop().expect("peeked event must exist");
            match scheduled.event {
                Event::Round { node } => {
                    let local = local_index(node, stride);
                    if self.nodes.contains(local) {
                        self.execute(local, scheduled.at, env, |proto, ctx| proto.on_round(ctx));
                        let state = self.nodes.get_mut(local).expect("node still live");
                        let next = next_round_delay(env.cfg, &mut state.sched_rng);
                        self.queue
                            .schedule(scheduled.at + next, Event::Round { node });
                    }
                }
                Event::Timer { node, key } => {
                    let local = local_index(node, stride);
                    if self.nodes.contains(local) {
                        self.execute(local, scheduled.at, env, |proto, ctx| {
                            proto.on_timer(key, ctx)
                        });
                    }
                }
                Event::Deliver { from, to, msg } => {
                    let local = local_index(to, stride);
                    if self.nodes.contains(local) {
                        self.stats.delivered += 1;
                        self.traffic.record_received(to, msg.wire_size());
                        self.execute(local, scheduled.at, env, |proto, ctx| {
                            proto.on_message(from, msg, ctx)
                        });
                    } else {
                        self.stats.destination_gone += 1;
                        self.traffic.record_dropped(from);
                    }
                }
            }
        }
        // Sort this phase's outboxes into *descending* canonical order on the worker:
        // the barrier then k-way merges `S²` pre-sorted runs instead of sorting the
        // whole batch on the coordinating thread. The sort — the dominant barrier cost
        // at 100k nodes — thus parallelises with the phase itself. Descending order
        // lets the merge consume each run by `Vec::pop` (cheapest possible by-value
        // cursor, and no per-barrier iterator allocation).
        for outbox in &mut self.outboxes {
            outbox.sort_unstable_by(|a, b| {
                (b.sent_at, b.from, b.seq).cmp(&(a.sent_at, a.from, a.seq))
            });
        }
    }
}

/// The sharded, phase-parallel simulation engine, driven through [`SimulationEngine`].
/// See the module documentation for the execution model and the determinism argument.
///
/// # Examples
///
/// ```
/// use croupier_simulator::{
///     Context, NodeId, Protocol, ShardedSimulation, SimulationConfig, SimulationEngine,
///     WireSize,
/// };
///
/// struct Ping(u64);
///
/// #[derive(Clone, Debug)]
/// struct Msg;
///
/// impl WireSize for Msg {
///     fn wire_size(&self) -> usize {
///         28
///     }
/// }
///
/// impl Protocol for Ping {
///     type Message = Msg;
///     fn on_start(&mut self, _ctx: &mut Context<'_, Msg>) {}
///     fn on_round(&mut self, ctx: &mut Context<'_, Msg>) {
///         if let Some(peer) = ctx.bootstrap_sample(1).first().copied() {
///             ctx.send(peer, Msg);
///         }
///     }
///     fn on_message(&mut self, _from: NodeId, _msg: Msg, _ctx: &mut Context<'_, Msg>) {
///         self.0 += 1;
///     }
/// }
///
/// let cfg = SimulationConfig::default().with_seed(7).with_engine_threads(2);
/// let mut sim = ShardedSimulation::from_config(cfg);
/// for i in 0..16 {
///     sim.register_public(NodeId::new(i));
///     sim.add_node(NodeId::new(i), Ping(0));
/// }
/// sim.run_for_rounds(10);
/// let received: u64 = sim.nodes().map(|(_, p)| p.0).sum();
/// assert!(received > 0);
/// ```
pub struct ShardedSimulation<P: Protocol> {
    cfg: SimulationConfig,
    now: SimTime,
    /// Index of the next phase to execute; phase `p` covers `[p*T, (p+1)*T)`.
    next_phase: u64,
    shards: Vec<Shard<P>>,
    latency: Box<dyn LatencyModel + Send + Sync>,
    loss: Box<dyn LossModel + Send + Sync>,
    filter: Box<dyn DeliveryFilter>,
    bootstrap: BootstrapRegistry,
    /// Sender-side traffic counters, written at the barrier in canonical order.
    barrier_traffic: TrafficLedger,
    /// Loss/NAT statistics, written at the barrier in canonical order.
    barrier_stats: NetworkStats,
    /// Recycled barrier batch: the per-phase canonical-order merge of every shard's
    /// outboxes. Drained by [`merge_batch`](Self::merge_batch) with its capacity
    /// retained, so the barrier allocates nothing once the per-phase message volume has
    /// peaked.
    merge_buf: Vec<PendingMessage<P::Message>>,
    /// Recycled backing store for the k-way merge's head heap (one entry per
    /// `(src, dst)` outbox run).
    heap_buf: Vec<std::cmp::Reverse<(SimTime, NodeId, u64, usize)>>,
    /// Recycled per-destination-shard staging lists for the barrier's partitioned queue
    /// insertion: the sequential filter pass appends surviving deliveries here in
    /// canonical order, then every shard drains its own list into its own queue — in
    /// parallel when the batch is large enough to pay for the threads.
    delivery_bufs: Vec<Vec<(SimTime, Event<P::Message>)>>,
    /// Cached ascending id list served by [`node_ids_ref`](Self::node_ids_ref); rebuilt
    /// lazily after a membership change (`node_ids_valid` false).
    cached_node_ids: RefCell<Vec<NodeId>>,
    node_ids_valid: Cell<bool>,
    /// Round-barrier hook, if installed; runs on the coordinating thread right after each
    /// phase's canonical merge, so its effects are worker-count independent.
    hook: Option<Box<dyn RoundHook>>,
    /// The protocol's peer-sampling rule, captured (monomorphised where `P: PssNode`
    /// holds) by [`set_sampled_round_hook`](SimulationEngine::set_sampled_round_hook) so
    /// the `P: Protocol`-only barrier loop can serve [`HookOps::draw_sample`].
    hook_sampler: Option<fn(&mut P, &mut SmallRng) -> Option<NodeId>>,
    /// Fault-injection plane, if installed; judged during the barrier's sequential
    /// canonical-order pass, so injected faults are worker-count independent too.
    faults: Option<FaultPlane>,
}

impl<P: Protocol + Send> ShardedSimulation<P>
where
    P::Message: Send,
{
    fn locate(&self, node: NodeId) -> (usize, usize) {
        let stride = self.shards.len() as u64;
        ((node.as_u64() % stride) as usize, local_index(node, stride))
    }

    /// Borrows the ascending list of live ids, rebuilding it first if a membership change
    /// invalidated it. A rebuild walks the stripes in lockstep (shard `s` stores id
    /// `local * stride + s` at slot `local`), so ascending order falls out of the
    /// traversal and no sort is needed.
    ///
    /// The borrow is released when the returned guard drops; membership changes require
    /// `&mut self`, so the guard cannot observe a stale list.
    fn node_ids_ref(&self) -> std::cell::Ref<'_, [NodeId]> {
        if !self.node_ids_valid.get() {
            let mut ids = self.cached_node_ids.borrow_mut();
            ids.clear();
            let stride = self.shards.len() as u64;
            let max_slots = self
                .shards
                .iter()
                .map(|s| s.nodes.slot_upper_bound())
                .max()
                .unwrap_or(0);
            for local in 0..max_slots {
                for (s, shard) in self.shards.iter().enumerate() {
                    if shard.nodes.contains(local) {
                        ids.push(NodeId::new(local as u64 * stride + s as u64));
                    }
                }
            }
            self.node_ids_valid.set(true);
        }
        std::cell::Ref::map(self.cached_node_ids.borrow(), Vec::as_slice)
    }

    fn period_ms(&self) -> u64 {
        self.cfg.round_period.as_millis().max(1)
    }

    /// End of phase `p`, i.e. the instant `(p + 1) * round_period`.
    fn phase_end(&self, phase: u64) -> SimTime {
        SimTime::from_millis(self.period_ms().saturating_mul(phase + 1))
    }

    /// Executes one phase: all shards in parallel, then the barrier merge.
    fn run_one_phase(&mut self) {
        let phase = self.next_phase;
        let window_end = self.phase_end(phase);
        let cfg = self.cfg;
        {
            let env = PhaseEnv {
                cfg: &cfg,
                bootstrap: &self.bootstrap,
                latency: self.latency.as_ref(),
                loss: self.loss.as_ref(),
            };
            let shards = &mut self.shards;
            if shards.len() == 1 {
                shards[0].run_phase(window_end, &env);
            } else if shards.iter().any(|s| !s.queue.is_empty()) {
                let env = &env;
                std::thread::scope(|scope| {
                    for shard in shards.iter_mut() {
                        scope.spawn(move || shard.run_phase(window_end, env));
                    }
                });
            }
        }
        let mut batch = std::mem::take(&mut self.merge_buf);
        self.gather_sorted(&mut batch);
        self.next_phase = phase + 1;
        if window_end > self.now {
            self.now = window_end;
        }
        self.merge_batch(&mut batch, window_end);
        self.merge_buf = batch;
        // Take/restore so the hook can borrow the engine as `&mut dyn HookOps`.
        if let Some(mut hook) = self.hook.take() {
            // After the canonical merge: the hook observes every effect of the closing
            // phase, and its own effects govern the next phase — for any worker count.
            hook.on_round_barrier_with(phase + 1, window_end, self);
            self.hook = Some(hook);
        }
    }

    /// Collects every shard's outboxes into `batch` in the canonical
    /// `(send time, sender, sequence)` order by k-way merging the `S²` runs the workers
    /// pre-sorted (descending) at the end of [`Shard::run_phase`]. The keys are globally
    /// unique (the per-sender sequence number breaks same-instant ties), so merging
    /// sorted runs yields exactly the order the old full coordinator-side sort produced
    /// — at O(n log S²) comparisons instead of O(n log n), with the O(n log n) part done
    /// in parallel on the workers. The runs being descending, each run's head is its
    /// `last()` element and advancing is `Vec::pop`, so the merge is allocation-free
    /// (the heap's backing store is recycled in `heap_buf`).
    fn gather_sorted(&mut self, batch: &mut Vec<PendingMessage<P::Message>>) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let stride = self.shards.len();
        let mut heads = std::mem::take(&mut self.heap_buf);
        heads.clear();
        for idx in 0..stride * stride {
            if let Some(m) = self.shards[idx / stride].outboxes[idx % stride].last() {
                heads.push(Reverse((m.sent_at, m.from, m.seq, idx)));
            }
        }
        let mut heap = BinaryHeap::from(heads);
        while let Some(Reverse((_, _, _, idx))) = heap.pop() {
            let run = &mut self.shards[idx / stride].outboxes[idx % stride];
            let message = run.pop().expect("a heap entry implies a run head");
            if let Some(m) = run.last() {
                heap.push(Reverse((m.sent_at, m.from, m.seq, idx)));
            }
            batch.push(message);
        }
        self.heap_buf = heap.into_vec();
    }

    /// The barrier: walks `batch` (already in canonical order) once, performing
    /// sender-side accounting and filtering, then schedules surviving deliveries no
    /// earlier than `earliest` — partitioned by destination shard, in parallel when the
    /// batch is large. Drains `batch` in place so its capacity is reused phase after
    /// phase.
    ///
    /// The accounting/filter pass is sequential by design: the delivery filter and the
    /// sender-side ledger are stateful, and processing them in canonical order is what
    /// makes runs bit-identical across worker counts. Queue insertion, by contrast, is
    /// freely partitionable — each staged list holds one destination shard's deliveries
    /// in canonical relative order, and scheduling them list-order into that shard's
    /// queue reproduces the exact `(time, insertion order)` tie-breaking of a sequential
    /// interleaved insertion, because messages for different shards never share a queue.
    fn merge_batch(&mut self, batch: &mut Vec<PendingMessage<P::Message>>, earliest: SimTime) {
        let stride = self.shards.len() as u64;
        let mut staged = std::mem::take(&mut self.delivery_bufs);
        // One fault session per barrier: the plane is judged message by message in the
        // same canonical order as the filter, so its RNG draws — and therefore every
        // injected fault — are identical for any worker-thread count.
        let mut session = self.faults.as_ref().and_then(FaultPlane::begin);
        for mut message in batch.drain(..) {
            self.barrier_traffic.record_sent(message.from, message.wire);
            self.filter
                .on_send(message.from, message.to, message.sent_at);
            if message.lost {
                self.barrier_stats.lost += 1;
                self.barrier_traffic.record_dropped(message.from);
                continue;
            }
            let mut extra_delay = SimDuration::ZERO;
            let mut duplicate = false;
            if let Some(session) = session.as_mut() {
                let decision = session.judge(message.from, message.to);
                if decision.drop {
                    self.barrier_stats.lost += 1;
                    self.barrier_traffic.record_dropped(message.from);
                    continue;
                }
                if decision.corrupt {
                    message.msg.fault_mutate(session.rng());
                }
                extra_delay = decision.extra_delay;
                duplicate = decision.duplicate;
            }
            let exec_at = message.deliver_at.max(earliest);
            // NAT verdicts are per-message, judged once at the undelayed delivery
            // instant; a reorder spike shifts when the datagram arrives, not whether
            // the mapping that admits it exists.
            match self.filter.can_deliver(message.from, message.to, exec_at) {
                DeliveryVerdict::Deliver => {
                    let dst = (message.to.as_u64() % stride) as usize;
                    if duplicate {
                        // The duplicate travels at the base latency; only the original
                        // can additionally be held back by a reordering spike.
                        staged[dst].push((
                            exec_at,
                            Event::Deliver {
                                from: message.from,
                                to: message.to,
                                msg: message.msg.clone(),
                            },
                        ));
                    }
                    staged[dst].push((
                        exec_at + extra_delay,
                        Event::Deliver {
                            from: message.from,
                            to: message.to,
                            msg: message.msg,
                        },
                    ));
                }
                DeliveryVerdict::BlockedByNat => {
                    self.barrier_stats.blocked_by_nat += 1;
                    self.barrier_traffic.record_dropped(message.from);
                }
                DeliveryVerdict::NoSuchDestination => {
                    self.barrier_stats.destination_gone += 1;
                    self.barrier_traffic.record_dropped(message.from);
                }
            }
        }
        let total: usize = staged.iter().map(Vec::len).sum();
        if self.shards.len() > 1 && total >= PARALLEL_INSERT_THRESHOLD {
            std::thread::scope(|scope| {
                for (shard, stage) in self.shards.iter_mut().zip(staged.iter_mut()) {
                    if !stage.is_empty() {
                        scope.spawn(move || {
                            for (at, event) in stage.drain(..) {
                                shard.queue.schedule(at, event);
                            }
                        });
                    }
                }
            });
        } else {
            for (shard, stage) in self.shards.iter_mut().zip(staged.iter_mut()) {
                for (at, event) in stage.drain(..) {
                    shard.queue.schedule(at, event);
                }
            }
        }
        self.delivery_bufs = staged;
    }
}

/// Smallest per-barrier delivery count for which the partitioned queue insertion spawns
/// worker threads; smaller batches insert inline, since a thread spawn costs more than
/// scheduling a few thousand heap entries. The choice only affects wall-clock, never
/// outcomes: both paths insert identical per-queue sequences.
const PARALLEL_INSERT_THRESHOLD: usize = 4096;

impl<P: Protocol + Send> HookOps for ShardedSimulation<P>
where
    P::Message: Send,
{
    fn draw_sample(&mut self, node: NodeId) -> Option<NodeId> {
        let sampler = self.hook_sampler?;
        let (shard, local) = self.locate(node);
        let state = self.shards[shard].nodes.get_mut(local)?;
        sampler(&mut state.proto, &mut state.rng)
    }

    fn is_live(&self, node: NodeId) -> bool {
        self.contains(node)
    }

    fn live_node_ids_into(&self, out: &mut Vec<NodeId>) {
        out.extend_from_slice(&self.node_ids_ref());
    }

    fn record_transfer(&mut self, from: NodeId, to: NodeId, bytes: usize) {
        // Both sides go to the barrier ledger: the snapshot merge is a commutative sum
        // over all ledgers, so which ledger holds a counter is unobservable.
        self.barrier_traffic.record_sent(from, bytes);
        self.barrier_traffic.record_received(to, bytes);
    }

    fn record_blocked(&mut self, from: NodeId) {
        self.barrier_traffic.record_dropped(from);
    }
}

impl<P: Protocol + Send> SimulationEngine<P> for ShardedSimulation<P>
where
    P::Message: Send,
{
    /// Creates a sharded engine with `cfg.engine_threads` worker shards (at least one), a
    /// King-like latency model, no message loss and no NAT filtering.
    fn from_config(cfg: SimulationConfig) -> Self {
        let workers = cfg.engine_threads.max(1);
        ShardedSimulation {
            cfg,
            now: SimTime::ZERO,
            next_phase: 0,
            shards: (0..workers).map(|_| Shard::new(workers as u64)).collect(),
            latency: Box::new(KingLatencyModel::new()),
            loss: Box::new(NoLoss),
            filter: Box::new(OpenInternet),
            bootstrap: BootstrapRegistry::new(),
            barrier_traffic: TrafficLedger::new(),
            barrier_stats: NetworkStats::default(),
            merge_buf: Vec::new(),
            heap_buf: Vec::new(),
            delivery_bufs: (0..workers).map(|_| Vec::new()).collect(),
            cached_node_ids: RefCell::new(Vec::new()),
            node_ids_valid: Cell::new(false),
            hook: None,
            hook_sampler: None,
            faults: None,
        }
    }

    /// Workers sample the model concurrently through [`LatencyModel::sample_shared`].
    fn set_latency_model<L: LatencyModel + Send + Sync + 'static>(&mut self, model: L) {
        self.latency = Box::new(model);
    }

    /// Workers consult the model concurrently through [`LossModel::drops_shared`].
    fn set_loss_model<L: LossModel + Send + Sync + 'static>(&mut self, model: L) {
        self.loss = Box::new(model);
    }

    /// The filter runs on the coordinating thread only, at the round barriers, in the
    /// canonical merge order.
    fn set_delivery_filter<D: DeliveryFilter + 'static>(&mut self, filter: D) {
        self.filter = Box::new(filter);
    }

    /// The hook runs on the coordinating thread after each phase's canonical cross-shard
    /// merge. Phases that already ran never replay their barriers.
    fn set_round_hook(&mut self, hook: Box<dyn RoundHook>) {
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

    /// The plane judges each message during the barrier's sequential canonical-order
    /// pass, which keeps fault injection bit-identical across worker counts.
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
        self.shards.iter().map(|s| s.nodes.len()).sum()
    }

    fn contains(&self, node: NodeId) -> bool {
        let (shard, local) = self.locate(node);
        self.shards[shard].nodes.contains(local)
    }

    fn node(&self, node: NodeId) -> Option<&P> {
        let (shard, local) = self.locate(node);
        self.shards[shard].nodes.get(local).map(|s| &s.proto)
    }

    /// Walks the shards one after another, each in ascending local-slot order.
    fn nodes<'a>(&'a self) -> impl Iterator<Item = (NodeId, &'a P)>
    where
        P: 'a,
    {
        self.shards
            .iter()
            .flat_map(|s| s.nodes.iter().map(|(_, st)| (st.id, &st.proto)))
    }

    fn register_public(&mut self, node: NodeId) {
        self.bootstrap.register(node);
    }

    fn add_node(&mut self, id: NodeId, proto: P) {
        let (shard_idx, local) = self.locate(id);
        assert!(
            !self.shards[shard_idx].nodes.contains(local),
            "node {id} is already part of the simulation"
        );
        self.filter.on_node_added(id);
        let seed = self.cfg.seed;
        let state = NodeState {
            id,
            proto,
            rng: seed.node_rng(id),
            net_rng: seed.node_stream_rng(id, Stream::Latency),
            sched_rng: seed.node_stream_rng(id, Stream::Scheduling),
            msg_seq: 0,
        };
        self.shards[shard_idx].nodes.insert(local, state);
        self.node_ids_valid.set(false);
        let now = self.now;
        let cfg = self.cfg;
        {
            let env = PhaseEnv {
                cfg: &cfg,
                bootstrap: &self.bootstrap,
                latency: self.latency.as_ref(),
                loss: self.loss.as_ref(),
            };
            self.shards[shard_idx].execute(local, now, &env, |proto, ctx| proto.on_start(ctx));
        }
        // `on_start`'s messages landed in the joining node's shard outboxes; merge them
        // immediately so they are delivered like any other send. The outboxes are
        // bucketed by destination, so concatenation interleaves the node's sequence
        // numbers — restore the canonical order with an explicit (tiny) sort.
        let mut batch = std::mem::take(&mut self.merge_buf);
        for outbox in &mut self.shards[shard_idx].outboxes {
            batch.append(outbox);
        }
        batch.sort_unstable_by_key(|m| (m.sent_at, m.from, m.seq));
        self.merge_batch(&mut batch, now);
        self.merge_buf = batch;
        let shard = &mut self.shards[shard_idx];
        let state = shard.nodes.get_mut(local).expect("node just inserted");
        let phase = if cfg.random_phase {
            let period_ms = cfg.round_period.as_millis().max(1);
            SimDuration::from_millis(state.sched_rng.gen_range(0..period_ms))
        } else {
            cfg.round_period
        };
        shard.queue.schedule(now + phase, Event::Round { node: id });
    }

    fn remove_node(&mut self, id: NodeId) -> Option<P> {
        let (shard, local) = self.locate(id);
        let state = self.shards[shard].nodes.remove(local)?;
        self.node_ids_valid.set(false);
        self.bootstrap.unregister(id);
        self.filter.on_node_removed(id);
        Some(state.proto)
    }

    /// Executes every phase whose window closes at or before `deadline`.
    fn run_until(&mut self, deadline: SimTime) {
        loop {
            let window_end = self.phase_end(self.next_phase);
            if window_end > deadline {
                break;
            }
            if self.hook.is_none() && self.shards.iter().all(|s| s.queue.is_empty()) {
                // Nothing queued anywhere (and rounds self-perpetuate, so nothing ever
                // will be until a node is added): skip ahead instead of spinning phases.
                // With a hook installed the phases must still run one by one, because
                // every barrier owes the hook a callback.
                self.next_phase = deadline.as_millis() / self.period_ms();
                break;
            }
            self.run_one_phase();
        }
        if deadline > self.now {
            self.now = deadline;
        }
    }

    fn node_id_upper_bound(&self) -> u64 {
        // Shard `s` stores id `i` at local slot `i / stride`, so a shard whose arena has
        // `len` slots has seen ids up to `(len - 1) * stride + s`. The maximum over the
        // shards equals the highest id ever inserted plus one, which makes the bound
        // identical across worker counts for the same population.
        let stride = self.shards.len() as u64;
        self.shards
            .iter()
            .enumerate()
            .map(|(s, shard)| match shard.nodes.slot_upper_bound() as u64 {
                0 => 0,
                len => (len - 1) * stride + s as u64 + 1,
            })
            .max()
            .unwrap_or(0)
    }

    fn network_stats(&self) -> NetworkStats {
        let mut stats = self.barrier_stats;
        for shard in &self.shards {
            stats.merge(shard.stats);
        }
        stats
    }

    /// Merges the barrier-side sender counters and every shard's receiver counters.
    fn traffic_snapshot(&self) -> TrafficLedger {
        let mut merged = TrafficLedger::new();
        self.traffic_snapshot_into(&mut merged);
        merged
    }

    fn traffic_snapshot_into(&self, out: &mut TrafficLedger) {
        out.reset_window(self.barrier_traffic.window_start());
        out.merge_from(&self.barrier_traffic);
        for shard in &self.shards {
            out.merge_from(&shard.traffic);
        }
    }

    fn reset_traffic_window(&mut self) {
        let now = self.now;
        self.barrier_traffic.reset_window(now);
        for shard in &mut self.shards {
            shard.traffic.reset_window(now);
        }
    }

    fn draw_sample(&mut self, node: NodeId) -> Option<NodeId>
    where
        P: PssNode,
    {
        let (shard, local) = self.locate(node);
        let state = self.shards[shard].nodes.get_mut(local)?;
        state.proto.draw_sample(&mut state.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::{engine_conformance_tests, record_barriers, Probe};
    use crate::latency::ConstantLatency;
    use crate::loss::BernoulliLoss;

    engine_conformance_tests!(ShardedSimulation<Probe>, [1, 2]);

    /// Node `i` of an `n`-node ring, sending to its successor.
    fn ring_node(i: u64, n: u64) -> Probe {
        Probe::new(Some(NodeId::new((i + 1) % n)))
    }

    fn ring_sim(n: u64, threads: usize) -> ShardedSimulation<Probe> {
        let mut sim = ShardedSimulation::from_config(
            SimulationConfig::default()
                .with_seed(11)
                .with_engine_threads(threads),
        );
        sim.set_latency_model(ConstantLatency::new(SimDuration::from_millis(10)));
        for i in 0..n {
            sim.add_node(NodeId::new(i), ring_node(i, n));
        }
        sim
    }

    /// Per-node observable state: `(id, rounds executed, messages received)`.
    type NodeTrace = (u64, u64, Vec<(NodeId, u32)>);

    /// Everything observable about a run, for bit-identity comparisons.
    type Fingerprint = (Vec<NodeTrace>, NetworkStats, TrafficLedger);

    fn fingerprint(sim: &ShardedSimulation<Probe>) -> Fingerprint {
        let mut nodes: Vec<NodeTrace> = sim
            .nodes()
            .map(|(id, p)| (id.as_u64(), p.rounds, p.received.clone()))
            .collect();
        nodes.sort();
        (nodes, sim.network_stats(), sim.traffic_snapshot())
    }

    #[test]
    fn rounds_fire_and_messages_flow() {
        let mut sim = ring_sim(8, 2);
        sim.run_for_rounds(10);
        for (_, node) in sim.nodes() {
            assert!(node.rounds >= 8, "rounds executed: {}", node.rounds);
            assert!(!node.received.is_empty());
            assert!(node.timer_fired);
        }
        let stats = sim.network_stats();
        assert!(stats.delivered > 0);
        assert_eq!(stats.total(), stats.delivered, "no loss, no NAT, no deaths");
    }

    #[test]
    fn runs_are_bit_identical_across_worker_counts() {
        let run = |threads: usize| {
            let mut sim = ring_sim(13, threads);
            sim.run_for_rounds(25);
            fingerprint(&sim)
        };
        let one = run(1);
        let two = run(2);
        let four = run(4);
        assert_eq!(one, two, "1 vs 2 workers diverged");
        assert_eq!(one, four, "1 vs 4 workers diverged");
        assert!(one.1.delivered > 0);
    }

    #[test]
    fn fault_injection_is_bit_identical_across_worker_counts() {
        use crate::faults::FaultProfile;
        use crate::rng::Seed;
        use crate::time::SimDuration;
        let run = |threads: usize| {
            let mut sim = ring_sim(13, threads);
            let plane = FaultPlane::new(Seed::new(11));
            plane.set_default_profile(
                FaultProfile::default()
                    .with_drop(0.1)
                    .with_duplicate(0.1)
                    .with_reorder(0.2, SimDuration::from_millis(500))
                    .with_burst(crate::faults::BurstLoss {
                        enter_probability: 0.05,
                        exit_probability: 0.3,
                        good_loss: 0.0,
                        bad_loss: 0.6,
                    }),
            );
            sim.set_fault_plane(plane);
            sim.run_for_rounds(25);
            (fingerprint(&sim), sim.fault_report())
        };
        let one = run(1);
        let two = run(2);
        let four = run(4);
        let eight = run(8);
        assert_eq!(one, two, "1 vs 2 workers diverged under faults");
        assert_eq!(one, four, "1 vs 4 workers diverged under faults");
        assert_eq!(one, eight, "1 vs 8 workers diverged under faults");
        let report = one.1;
        assert!(report.injected_drops > 0, "drop class never fired");
        assert!(report.burst_drops > 0, "burst class never fired");
        assert!(report.duplicates > 0, "duplicate class never fired");
        assert!(report.reorders > 0, "reorder class never fired");
        // Fault drops land in the loss counter; totals stay conserved.
        let stats = one.0 .1;
        assert!(stats.lost >= report.total_drops());
    }

    #[test]
    fn node_id_upper_bound_survives_churn_identically_across_worker_counts() {
        let run = |threads: usize| {
            let mut sim = ring_sim(12, threads);
            sim.run_for_rounds(3);
            assert_eq!(sim.node_id_upper_bound(), 12);
            for id in [2u64, 7, 11] {
                sim.remove_node(NodeId::new(id));
            }
            assert_eq!(
                sim.node_id_upper_bound(),
                12,
                "removals leave vacant slots; the bound must not shrink"
            );
            sim.add_node(NodeId::new(7), ring_node(7, 12)); // reuses the vacant slot
            sim.add_node(NodeId::new(12), ring_node(12, 12)); // grows the id space
            sim.run_for_rounds(2);
            sim.node_id_upper_bound()
        };
        assert_eq!(run(1), 13);
        assert_eq!(run(2), 13, "the bound must not depend on the shard stride");
        assert_eq!(run(4), 13, "the bound must not depend on the shard stride");
    }

    #[test]
    fn bit_identity_holds_with_default_king_latency_and_loss() {
        let run = |threads: usize| {
            let mut sim = ShardedSimulation::from_config(
                SimulationConfig::default()
                    .with_seed(23)
                    .with_engine_threads(threads),
            );
            sim.set_loss_model(BernoulliLoss::new(0.2));
            for i in 0..10 {
                sim.add_node(NodeId::new(i), ring_node(i, 10));
            }
            sim.run_for_rounds(20);
            fingerprint(&sim)
        };
        let a = run(1);
        let b = run(3);
        assert_eq!(a, b);
        assert!(a.1.lost > 0, "a 20% loss model should drop something");
    }

    #[test]
    fn reset_traffic_window_clears_all_shards() {
        let mut sim = ring_sim(4, 2);
        sim.run_for_rounds(5);
        assert!(!sim.traffic_snapshot().is_empty());
        sim.reset_traffic_window();
        let ledger = sim.traffic_snapshot();
        assert!(ledger.is_empty());
        assert_eq!(ledger.window_start(), sim.now());
    }

    #[test]
    fn round_hook_runs_do_not_perturb_bit_identity() {
        // A hook that only observes must leave the run byte-for-byte unchanged, and the
        // barrier sequence itself must be identical across worker counts.
        let run = |threads: usize| {
            let mut sim = ring_sim(13, threads);
            let log = record_barriers(&mut sim);
            sim.run_for_rounds(15);
            let barriers = log.borrow().clone();
            (fingerprint(&sim), barriers)
        };
        let baseline = {
            let mut sim = ring_sim(13, 1);
            sim.run_for_rounds(15);
            fingerprint(&sim)
        };
        let (fp1, log1) = run(1);
        let (fp4, log4) = run(4);
        assert_eq!(fp1, baseline, "observer hook changed the run");
        assert_eq!(fp1, fp4, "1 vs 4 workers diverged under a hook");
        assert_eq!(log1, log4, "barrier sequences diverged");
        assert_eq!(log1.len(), 15);
    }

    #[test]
    fn node_ids_are_sorted_and_accessors_agree() {
        let mut sim = ring_sim(9, 4);
        let live_ids = |sim: &ShardedSimulation<Probe>| {
            let mut ids = Vec::new();
            sim.live_node_ids_into(&mut ids);
            ids
        };
        let ids = live_ids(&sim);
        assert_eq!(ids.len(), 9);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(&*sim.node_ids_ref(), ids.as_slice(), "borrowed = owned");
        assert!(sim.node(NodeId::new(5)).is_some());
        assert_eq!(sim.shards.len(), 4);
        // The cache invalidates on membership changes, through either accessor.
        sim.remove_node(NodeId::new(5)).unwrap();
        assert_eq!(sim.node_ids_ref().len(), 8);
        assert!(!sim.node_ids_ref().contains(&NodeId::new(5)));
        sim.add_node(NodeId::new(20), ring_node(20, 9));
        assert_eq!(live_ids(&sim).len(), 9);
        assert!(sim.node_ids_ref().contains(&NodeId::new(20)));
    }
}
