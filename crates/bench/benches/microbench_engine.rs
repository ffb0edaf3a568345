//! Engine-level benchmarks: gossip-round throughput of the sharded phase-parallel engine
//! across worker-thread counts at 10k and 100k nodes, plus targeted hot-path variants.
//!
//! Each `engine/*` benchmark drives a full Croupier deployment (20 % public, NAT topology
//! attached) and times `run_for_rounds(1)`, i.e. one complete phase of every node's gossip
//! round plus message delivery and the barrier merge. Comparing `threads_1` against
//! `threads_4` on a multi-core machine shows the sharding speedup;
//! `BENCH_microbench_engine.json` (emitted by the criterion shim) feeds the CI
//! `bench-regression` job.
//!
//! PR 4 added two guarded variants for its hot paths:
//!
//! * `queue/*` — pure scheduler throughput: a fixed schedule/pop churn on the bucketed
//!   time-wheel and on the retained reference heap, so a regression in either structure
//!   (or an accidental divergence in their relative cost) is caught directly;
//! * `engine/payload_heavy` — an oversized shuffle configuration (view 20, subsets of 16,
//!   20 piggy-backed estimates) that pushes the descriptor lists past their inline
//!   capacity, guarding the `InlineVec` heap-spill path.
//!
//! Thread counts beyond the machine's core count cannot speed anything up — on a
//! single-core container every `threads_*` row measures the same serial work plus
//! scheduling overhead, so judge scaling only on hardware with at least as many cores as
//! the largest thread count (the committed `ci/bench-baseline/` numbers record whatever
//! machine produced them; see the workflow comment for the `--update` refresh flow).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, record_informational, Criterion};
use croupier::{CroupierConfig, CroupierNode};
use croupier_experiments::workload::{WorkloadExecutor, WorkloadSpec};
use croupier_nat::NatTopologyBuilder;
use croupier_simulator::event::Event;
use croupier_simulator::scheduler::reference::ReferenceEventQueue;
use croupier_simulator::scheduler::EventQueue;
use croupier_simulator::{
    FaultPlane, NatClass, NodeId, Seed, ShardedSimulation, SimTime, SimulationConfig,
    SimulationEngine,
};

/// Fraction of public nodes, matching the paper's default ratio.
const PUBLIC_EVERY: u64 = 5;

/// Delegates to the system allocator while tracking this thread's live heap bytes; feeds
/// the informational `bytes_per_node` report entries. The measured builds run with one
/// worker thread, whose sharded path executes inline on the measuring thread, so the
/// thread-local counter sees the whole deployment.
struct TrackingAllocator;

thread_local! {
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

// SAFETY: pure delegation to `System`; the counter is a thread-local `Cell` adjustment
// with a `try_with` guard for TLS teardown.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + layout.size() as i64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE_BYTES.try_with(|c| c.set(c.get() - layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = LIVE_BYTES.try_with(|c| {
            c.set(c.get() + new_size as i64 - layout.size() as i64);
        });
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

fn live_bytes() -> i64 {
    LIVE_BYTES.with(|c| c.get())
}

fn build_sim_with(
    nodes: u64,
    threads: usize,
    config: CroupierConfig,
) -> ShardedSimulation<CroupierNode> {
    let topology = NatTopologyBuilder::new(0xE17).build();
    let mut sim = ShardedSimulation::from_config(
        SimulationConfig::default()
            .with_seed(0xE17)
            .with_engine_threads(threads),
    );
    sim.set_delivery_filter(topology.clone());
    for i in 0..nodes {
        let id = NodeId::new(i);
        let class = if i % PUBLIC_EVERY == 0 {
            NatClass::Public
        } else {
            NatClass::Private
        };
        topology.add_node(id, class);
        if class.is_public() {
            sim.register_public(id);
        }
        sim.add_node(id, CroupierNode::new(id, class, config.clone()));
    }
    // Warm the views so the timed rounds exercise steady-state shuffling, not cold starts.
    sim.run_for_rounds(3);
    sim
}

fn build_sim(nodes: u64, threads: usize) -> ShardedSimulation<CroupierNode> {
    build_sim_with(nodes, threads, CroupierConfig::default())
}

fn bench_round_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    // A 100k-node round takes on the order of a second; a larger budget keeps the minimum
    // (the regression gate's metric) based on several iterations rather than one or two.
    group.measurement_time(Duration::from_secs(6));
    for &nodes in &[10_000u64, 100_000] {
        for &threads in &[1usize, 2, 4, 8] {
            let mut sim = build_sim(nodes, threads);
            group.bench_function(format!("{}k_nodes/threads_{threads}", nodes / 1_000), |b| {
                b.iter(|| sim.run_for_rounds(1))
            });
        }
    }
    // Payload-heavy: oversized subsets spill the inline payload lists to the heap; the
    // spill path must stay within a constant factor of the inline path.
    let heavy = CroupierConfig::default()
        .with_view_size(20)
        .with_shuffle_size(16)
        .with_estimate_share_size(20);
    let mut sim = build_sim_with(10_000, 1, heavy);
    group.bench_function("payload_heavy/10k_nodes/threads_1", |b| {
        b.iter(|| sim.run_for_rounds(1))
    });
    // Fault plane installed but never activated — the configuration every experiment run
    // now carries. The disabled path is one atomic load per delivery flush, so this row
    // guards that path against regressions relative to its own baseline. Its absolute
    // number is NOT comparable against `10k_nodes/threads_1`: it runs after the 100k
    // rows, whose allocator churn inflates everything that follows. The ≤3 % overhead
    // claim in DESIGN.md §15.6 is established by the interleaved A/B in
    // `examples/fault_overhead_check.rs` instead.
    let mut sim = build_sim(10_000, 1);
    sim.set_fault_plane(FaultPlane::new(Seed::new(0xE17)));
    group.bench_function("fault_plane_inactive/10k_nodes/threads_1", |b| {
        b.iter(|| sim.run_for_rounds(1))
    });
    group.finish();
}

/// Reports the steady-state heap footprint per node as informational JSON entries: the
/// live-bytes delta of building and warming a whole single-worker deployment, divided by
/// its node count. This is the number the million-node tier budget rests on — the packed
/// descriptor/estimate layouts and the u32 NAT binding tables show up here directly.
fn report_bytes_per_node(_c: &mut Criterion) {
    for &nodes in &[10_000u64, 100_000] {
        let before = live_bytes();
        let sim = build_sim(nodes, 1);
        let per_node = (live_bytes() - before).max(0) as f64 / nodes as f64;
        record_informational(
            format!("engine/{}k_nodes/bytes_per_node", nodes / 1_000),
            per_node,
        );
        drop(sim);
    }
}

/// A queue-depth-heavy schedule/pop churn: `events_per_tick` events in flight per tick
/// over a ~1 s horizon, cursor sweeping the whole wheel ring. Mirrors the per-shard event
/// load of a large deployment without any protocol work on top.
macro_rules! queue_churn {
    ($queue:expr, $ticks:expr, $events_per_tick:expr) => {{
        let queue = $queue;
        let mut popped = 0u64;
        for t in 0..$ticks {
            for e in 0..$events_per_tick {
                queue.schedule(
                    SimTime::from_millis(t + 1 + (t + e) % 1_000),
                    Event::Deliver {
                        from: NodeId::new(e),
                        to: NodeId::new(t),
                        msg: (),
                    },
                );
            }
            while queue.peek_time().is_some_and(|due| due.as_millis() <= t) {
                queue.pop();
                popped += 1;
            }
        }
        while queue.pop().is_some() {
            popped += 1;
        }
        popped
    }};
}

/// One gossip round of a 10k-node deployment with a continuously publishing
/// dissemination stream riding the round barriers: measures the workload engine's
/// per-round cost (publish, sampled push fan-out, anti-entropy pull, chunk sealing) on
/// top of the gossip itself. Compare against `engine/10k_nodes/threads_1` to see the
/// workload plane's overhead.
fn bench_workload_steady_state(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(4));
    let topology = NatTopologyBuilder::new(0xE17).build();
    let mut sim: ShardedSimulation<CroupierNode> = ShardedSimulation::from_config(
        SimulationConfig::default()
            .with_seed(0xE17)
            .with_engine_threads(1),
    );
    sim.set_delivery_filter(topology.clone());
    let plane = FaultPlane::new(Seed::new(0xE17));
    sim.set_fault_plane(plane.clone());
    let config = CroupierConfig::default();
    for i in 0..10_000u64 {
        let id = NodeId::new(i);
        let class = if i % PUBLIC_EVERY == 0 {
            NatClass::Public
        } else {
            NatClass::Private
        };
        topology.add_node(id, class);
        if class.is_public() {
            sim.register_public(id);
        }
        sim.add_node(id, CroupierNode::new(id, class, config.clone()));
    }
    // Publish from round 1 indefinitely, so every timed round carries a full seal
    // window's worth of active chunks (rate × K in steady state).
    let spec = WorkloadSpec::default()
        .with_window(1, u64::MAX / 2)
        .with_rate(4.0)
        .with_fanout(4)
        .with_coverage_rounds(10);
    let (executor, _state) = WorkloadExecutor::new(spec, topology.clone(), plane);
    sim.set_sampled_round_hook(Box::new(executor));
    // Warm past the first seal so the timed rounds see the steady-state chunk set.
    sim.run_for_rounds(13);
    group.bench_function("steady_state/10k_nodes/threads_1", |b| {
        b.iter(|| sim.run_for_rounds(1))
    });
    group.finish();
}

fn bench_queue_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(4));
    const TICKS: u64 = 2_000;
    const PER_TICK: u64 = 100;
    group.bench_function("wheel/depth_100k", |b| {
        b.iter(|| {
            let mut queue: EventQueue<()> = EventQueue::new();
            black_box(queue_churn!(&mut queue, TICKS, PER_TICK))
        })
    });
    group.bench_function("reference_heap/depth_100k", |b| {
        b.iter(|| {
            let mut queue: ReferenceEventQueue<()> = ReferenceEventQueue::new();
            black_box(queue_churn!(&mut queue, TICKS, PER_TICK))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_round_throughput,
    bench_workload_steady_state,
    bench_queue_depth,
    report_bytes_per_node
);
criterion_main!(benches);
