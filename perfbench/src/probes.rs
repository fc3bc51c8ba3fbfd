//! Direct timed calls into single layers, made only in the traced run.
//!
//! Each probe calls one public entry point in a loop sized by
//! calibration, repeats the loop, and reports the median. Memory-model
//! probes run unthrottled (rate 2^50 B/s, no per-charge overhead, no
//! per-thread copy cap) so they time the runtime's CPU path, not the
//! modelled bandwidth.

use converse::{Chare, CompletionLatch, EntryId, EntryOptions, ExecCtx, Mapping, RuntimeBuilder};
use hetmem::{
    AccessMode, BandwidthRegulator, Memory, MonotonicClock, NodeSpec, Topology, DDR4, HBM,
};
use projections::{LaneId, SpanKind, TraceCollector};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Rate used wherever a probe must not be throttled by the model.
pub const UNTHROTTLED: u64 = 1 << 50;

/// Timed loops per probe.
const LOOPS: usize = 15;

/// Median nanoseconds per call of `op`. The loop length is doubled
/// until one loop takes at least 2 ms; then [`LOOPS`] loops are timed.
/// `between` runs untimed after every loop (to drain recorders).
fn ns_per_call(mut op: impl FnMut(), mut between: impl FnMut()) -> f64 {
    let mut calls = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..calls {
            op();
        }
        let elapsed = t.elapsed();
        between();
        if elapsed.as_micros() >= 2_000 || calls >= 1 << 24 {
            break;
        }
        calls *= 2;
    }
    let per_loop: Vec<f64> = (0..LOOPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                op();
            }
            let ns = t.elapsed().as_nanos() as f64 / calls as f64;
            between();
            ns
        })
        .collect();
    crate::metrics::median(&per_loop).expect("loops > 0")
}

/// Two nodes of ample capacity at `UNTHROTTLED`, with `slice_bytes`
/// charge slicing and no copy cap.
pub fn unthrottled_topology(slice_bytes: u64) -> Topology {
    Topology::new(vec![
        NodeSpec::new("DDR4", 1 << 30, UNTHROTTLED),
        NodeSpec::new("MCDRAM", 1 << 30, UNTHROTTLED),
    ])
    .with_slice_bytes(slice_bytes)
}

/// `BandwidthRegulator::charge` of one block, ns per call.
pub fn charge_ns(block_bytes: u64, slice_bytes: u64) -> f64 {
    let reg = BandwidthRegulator::new(UNTHROTTLED, slice_bytes, Arc::new(MonotonicClock::new()));
    ns_per_call(
        || {
            black_box(reg.charge(black_box(block_bytes)));
        },
        || {},
    )
}

/// `BlockRegistry::access` plus guard drop on one block, ns per pair.
pub fn access_ns(block_bytes: usize, slice_bytes: u64) -> f64 {
    let mem = Memory::new(unthrottled_topology(slice_bytes));
    let buf = mem
        .alloc_on_node(block_bytes, DDR4)
        .expect("probe block fits");
    let id = mem.registry().register(buf, "probe");
    ns_per_call(
        || {
            let guard = mem.registry().access(id, AccessMode::ReadWrite);
            black_box(guard.len());
        },
        || {},
    )
}

/// `MigrationEngine::migrate` of one block back and forth between
/// DDR4 and HBM, in GiB/s of block bytes moved.
pub fn migrate_gibps(block_bytes: usize, slice_bytes: u64) -> f64 {
    let mem = Memory::new(unthrottled_topology(slice_bytes));
    let buf = mem
        .alloc_on_node(block_bytes, DDR4)
        .expect("probe block fits");
    let id = mem.registry().register(buf, "probe");
    let engine = mem.migration_engine();
    let mut to_hbm = true;
    let ns = ns_per_call(
        || {
            let dst = if to_hbm { HBM } else { DDR4 };
            to_hbm = !to_hbm;
            engine
                .migrate(id, dst, false, true)
                .expect("unthrottled probe migration");
        },
        || {},
    );
    block_bytes as f64 / ns * 1e9 / f64::from(1u32 << 30)
}

struct Ping;

impl Chare for Ping {
    type Msg = Arc<CompletionLatch>;

    fn execute(&mut self, _entry: EntryId, latch: Arc<CompletionLatch>, _ctx: &mut ExecCtx<'_>) {
        latch.count_down();
    }
}

/// Messages per timed batch of [`dispatch_ns`].
const DISPATCH_BATCH: usize = 256;

/// Converse send → trivial entry method → latch, ns per message. The
/// driver sends a batch of [`DISPATCH_BATCH`] messages round-robin over
/// `pes` PEs and waits for one latch counting them all, so the figure
/// is the per-message cost of a busy runtime rather than the wake-up
/// latency of an idle PE.
pub fn dispatch_ns(pes: usize) -> f64 {
    let rt = RuntimeBuilder::new(pes).build();
    let array = rt
        .array_builder::<Ping>()
        .entry(EntryId(0), EntryOptions::default())
        .mapping(Mapping::RoundRobin)
        .build(pes, |_| Ping);
    let ns = ns_per_call(
        || {
            let latch = Arc::new(CompletionLatch::new(DISPATCH_BATCH));
            for i in 0..DISPATCH_BATCH {
                rt.send(array, i % pes, EntryId(0), Arc::clone(&latch));
            }
            latch.wait();
        },
        || {
            // The runtime's own recorder keeps every Idle/Entry span.
            rt.collector().finish();
        },
    );
    rt.shutdown();
    ns / DISPATCH_BATCH as f64
}

/// `Tracer::record` of one span, ns per call.
pub fn record_ns() -> f64 {
    let collector = TraceCollector::new();
    let tracer = collector.tracer(LaneId::worker(0));
    let mut t = 0u64;
    ns_per_call(
        || {
            t += 1;
            tracer.record(SpanKind::Compute, t, t + 1, 0);
        },
        || {
            collector.finish();
        },
    )
}

/// `kernels::dgemm::dgemm_block` at edge `n`, GFLOP/s.
pub fn dgemm_gflops(n: usize, seed: u64) -> f64 {
    let a: Vec<f64> = (0..n * n)
        .map(|i| crate::workloads::unit(seed, 1, i, 0))
        .collect();
    let b: Vec<f64> = (0..n * n)
        .map(|i| crate::workloads::unit(seed, 2, i, 0))
        .collect();
    let mut c = vec![0.0; n * n];
    let ns = ns_per_call(
        // C accumulates across calls; with inputs in [0, 1) it stays
        // far from overflow for any loop length used here.
        || kernels::dgemm::dgemm_block(n, black_box(&a), black_box(&b), black_box(&mut c)),
        || {},
    );
    2.0 * (n * n * n) as f64 / ns
}
