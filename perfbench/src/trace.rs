//! The traced run's instruments: forwarding wrappers placed at each layer's public seam,
//! and the span log they feed.
//!
//! Every wrapper forwards each call unchanged and only adds wall-clock timing and call
//! counts, so a traced run's simulated outputs are bit-identical to the untraced run's
//! (the harness asserts this on every traced run). Protocol timings accumulate in the
//! wrapped node's own counters and are summed by the harness between rounds, so engine
//! worker threads never share a counter.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use croupier_simulator::{
    Context, DeliveryFilter, DeliveryVerdict, HookOps, NatClass, NodeId, Protocol, PssNode,
    RoundHook, SimTime, TimerKey,
};
use rand::rngs::SmallRng;

/// Nanoseconds since `start`, saturating at `u64::MAX`.
pub fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds from `epoch` to `at` (zero if `at` is earlier).
pub fn offset_ns(epoch: Instant, at: Instant) -> u64 {
    u64::try_from(at.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// Per-node protocol callback counters kept by [`TracedNode`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallStats {
    /// `on_round` calls (exchanges initiated).
    pub rounds: u64,
    /// Nanoseconds inside `on_round`.
    pub round_ns: u64,
    /// `on_message` calls.
    pub messages: u64,
    /// Nanoseconds inside `on_message`.
    pub message_ns: u64,
    /// `on_timer` calls (timers that fired).
    pub timers: u64,
    /// Nanoseconds inside `on_timer`.
    pub timer_ns: u64,
    /// Messages queued by any callback.
    pub sent: u64,
}

impl CallStats {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &CallStats) {
        self.rounds += other.rounds;
        self.round_ns += other.round_ns;
        self.messages += other.messages;
        self.message_ns += other.message_ns;
        self.timers += other.timers;
        self.timer_ns += other.timer_ns;
        self.sent += other.sent;
    }

    /// Total nanoseconds inside protocol callbacks.
    pub fn busy_ns(&self) -> u64 {
        self.round_ns + self.message_ns + self.timer_ns
    }

    /// The counts accrued since `earlier`.
    pub fn minus(&self, earlier: &CallStats) -> CallStats {
        CallStats {
            rounds: self.rounds - earlier.rounds,
            round_ns: self.round_ns - earlier.round_ns,
            messages: self.messages - earlier.messages,
            message_ns: self.message_ns - earlier.message_ns,
            timers: self.timers - earlier.timers,
            timer_ns: self.timer_ns - earlier.timer_ns,
            sent: self.sent - earlier.sent,
        }
    }
}

/// A forwarding [`Protocol`] + [`PssNode`] wrapper that times every callback.
pub struct TracedNode<P> {
    inner: P,
    stats: CallStats,
}

impl<P> TracedNode<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        TracedNode {
            inner,
            stats: CallStats::default(),
        }
    }

    /// The wrapped protocol instance.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// This node's callback counters since it joined.
    pub fn stats(&self) -> &CallStats {
        &self.stats
    }
}

impl<P: Protocol> TracedNode<P> {
    /// Runs one callback, charging its time to `slot` and its sends to `stats.sent`.
    fn timed(
        &mut self,
        ctx: &mut Context<'_, P::Message>,
        slot: fn(&mut CallStats) -> (&mut u64, &mut u64),
        call: impl FnOnce(&mut P, &mut Context<'_, P::Message>),
    ) {
        let queued = ctx.outbox().len();
        let start = Instant::now();
        call(&mut self.inner, ctx);
        let elapsed = nanos_since(start);
        let sent = ctx.outbox().len().saturating_sub(queued) as u64;
        let (count, ns) = slot(&mut self.stats);
        *count += 1;
        *ns += elapsed;
        self.stats.sent += sent;
    }
}

impl<P: Protocol> Protocol for TracedNode<P> {
    type Message = P::Message;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>) {
        let queued = ctx.outbox().len();
        self.inner.on_start(ctx);
        self.stats.sent += ctx.outbox().len().saturating_sub(queued) as u64;
    }

    fn on_round(&mut self, ctx: &mut Context<'_, Self::Message>) {
        self.timed(
            ctx,
            |s| (&mut s.rounds, &mut s.round_ns),
            |p, ctx| p.on_round(ctx),
        );
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Message,
        ctx: &mut Context<'_, Self::Message>,
    ) {
        self.timed(
            ctx,
            |s| (&mut s.messages, &mut s.message_ns),
            |p, ctx| p.on_message(from, msg, ctx),
        );
    }

    fn on_timer(&mut self, key: TimerKey, ctx: &mut Context<'_, Self::Message>) {
        self.timed(
            ctx,
            |s| (&mut s.timers, &mut s.timer_ns),
            |p, ctx| p.on_timer(key, ctx),
        );
    }
}

impl<P: PssNode> PssNode for TracedNode<P> {
    fn nat_class(&self) -> NatClass {
        self.inner.nat_class()
    }

    fn known_peers(&self) -> Vec<NodeId> {
        self.inner.known_peers()
    }

    fn for_each_known_peer(&self, visit: &mut dyn FnMut(NodeId)) {
        self.inner.for_each_known_peer(visit);
    }

    fn ratio_estimate(&self) -> Option<f64> {
        self.inner.ratio_estimate()
    }

    fn draw_sample(&mut self, rng: &mut SmallRng) -> Option<NodeId> {
        self.inner.draw_sample(rng)
    }

    fn rounds_executed(&self) -> u64 {
        self.inner.rounds_executed()
    }

    fn retries_fired(&self) -> u64 {
        self.inner.retries_fired()
    }

    fn exchanges_abandoned(&self) -> u64 {
        self.inner.exchanges_abandoned()
    }
}

/// Counters of the NAT delivery filter, shared between [`TracedFilter`] (owned by the
/// engine) and the harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// `on_send` calls.
    pub sends: u64,
    /// Nanoseconds inside `on_send`.
    pub send_ns: u64,
    /// `can_deliver` calls (verdicts).
    pub verdicts: u64,
    /// Nanoseconds inside `can_deliver`.
    pub verdict_ns: u64,
    /// Verdicts that were [`DeliveryVerdict::BlockedByNat`].
    pub blocked: u64,
}

impl FilterStats {
    /// Total nanoseconds inside the filter.
    pub fn busy_ns(&self) -> u64 {
        self.send_ns + self.verdict_ns
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &FilterStats) {
        self.sends += other.sends;
        self.send_ns += other.send_ns;
        self.verdicts += other.verdicts;
        self.verdict_ns += other.verdict_ns;
        self.blocked += other.blocked;
    }

    /// The counts accrued since `earlier`.
    pub fn minus(&self, earlier: &FilterStats) -> FilterStats {
        FilterStats {
            sends: self.sends - earlier.sends,
            send_ns: self.send_ns - earlier.send_ns,
            verdicts: self.verdicts - earlier.verdicts,
            verdict_ns: self.verdict_ns - earlier.verdict_ns,
            blocked: self.blocked - earlier.blocked,
        }
    }
}

/// A forwarding [`DeliveryFilter`] that times the wrapped filter (the `NatTopology`).
/// Engines consult the filter from the coordinating thread only, so a shared cell is
/// enough.
pub struct TracedFilter<D> {
    inner: D,
    stats: Rc<RefCell<FilterStats>>,
}

impl<D> TracedFilter<D> {
    /// Wraps `inner`, returning the wrapper and its shared counters.
    pub fn new(inner: D) -> (Self, Rc<RefCell<FilterStats>>) {
        let stats = Rc::new(RefCell::new(FilterStats::default()));
        (
            TracedFilter {
                inner,
                stats: Rc::clone(&stats),
            },
            stats,
        )
    }
}

impl<D: DeliveryFilter> DeliveryFilter for TracedFilter<D> {
    fn on_send(&mut self, from: NodeId, to: NodeId, now: SimTime) {
        let start = Instant::now();
        self.inner.on_send(from, to, now);
        let elapsed = nanos_since(start);
        let mut stats = self.stats.borrow_mut();
        stats.sends += 1;
        stats.send_ns += elapsed;
    }

    fn can_deliver(&mut self, from: NodeId, to: NodeId, now: SimTime) -> DeliveryVerdict {
        let start = Instant::now();
        let verdict = self.inner.can_deliver(from, to, now);
        let elapsed = nanos_since(start);
        let mut stats = self.stats.borrow_mut();
        stats.verdicts += 1;
        stats.verdict_ns += elapsed;
        if verdict == DeliveryVerdict::BlockedByNat {
            stats.blocked += 1;
        }
        verdict
    }

    fn on_node_removed(&mut self, node: NodeId) {
        self.inner.on_node_removed(node);
    }

    fn on_node_added(&mut self, node: NodeId) {
        self.inner.on_node_added(node);
    }
}

/// One barrier call of the wrapped hook: the round it closed and its wall-clock interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HookCall {
    /// The round the barrier closed.
    pub round: u64,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end_ns: u64,
}

/// A forwarding [`RoundHook`] that records one [`HookCall`] per barrier.
pub struct TracedHook {
    inner: Box<dyn RoundHook>,
    epoch: Instant,
    calls: Rc<RefCell<Vec<HookCall>>>,
}

impl TracedHook {
    /// Wraps `inner`; call intervals are measured from `epoch`.
    pub fn new(inner: Box<dyn RoundHook>, epoch: Instant) -> (Self, Rc<RefCell<Vec<HookCall>>>) {
        let calls = Rc::new(RefCell::new(Vec::new()));
        (
            TracedHook {
                inner,
                epoch,
                calls: Rc::clone(&calls),
            },
            calls,
        )
    }

    fn record(&self, round: u64, start: Instant) {
        self.calls.borrow_mut().push(HookCall {
            round,
            start_ns: offset_ns(self.epoch, start),
            end_ns: nanos_since(self.epoch),
        });
    }
}

impl RoundHook for TracedHook {
    fn on_round_barrier(&mut self, round: u64, now: SimTime) {
        let start = Instant::now();
        self.inner.on_round_barrier(round, now);
        self.record(round, start);
    }

    fn on_round_barrier_with(&mut self, round: u64, now: SimTime, ops: &mut dyn HookOps) {
        let start = Instant::now();
        self.inner.on_round_barrier_with(round, now, ops);
        self.record(round, start);
    }
}

/// One recorded span. Spans of one round share `round` as their identifier; `parent` is
/// the index of the enclosing span in the log.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name (module of the workspace the span times).
    pub layer: &'static str,
    /// What was timed.
    pub name: &'static str,
    /// Round the span belongs to.
    pub round: u64,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
}

/// In-memory span log of one traced cell; written out when the run ends.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    /// The log's time origin.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        nanos_since(self.epoch)
    }

    /// Appends a finished span and returns its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Sets the end of span `index` (spans opened before their children finish).
    pub fn close(&mut self, index: usize, end_ns: u64) {
        self.spans[index].end_ns = end_ns;
    }

    /// The recorded spans, in push order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}
