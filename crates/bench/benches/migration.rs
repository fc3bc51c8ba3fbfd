//! Criterion micro-benchmark behind Figure 7: block migration cost by
//! size and direction through the scaled memory model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetmem::{Memory, MigrationEngine, NodeSpec, Topology, DDR4, HBM};
use std::sync::Arc;

/// `[DDR4, MCDRAM]` at 2^50 B/s with no per-charge overhead and no
/// single-thread copy cap: a migration costs only its host CPU time.
fn unthrottled() -> Topology {
    Topology::new(vec![
        NodeSpec::new("DDR4", 1 << 30, 1 << 50),
        NodeSpec::new("MCDRAM", 1 << 30, 1 << 50),
    ])
}

fn bench_migration(c: &mut Criterion) {
    let mut group = c.benchmark_group("migration");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));

    for size_kib in [64u64, 256, 1024] {
        let size = (size_kib << 10) as usize;
        // Round trip DDR4→HBM→DDR4 so state is restored per iteration.
        group.bench_with_input(
            BenchmarkId::new("round_trip", format!("{size_kib}KiB")),
            &size,
            |b, &size| {
                let mem = Memory::new(Topology::knl_flat_scaled());
                let engine = mem.migration_engine();
                let buf = mem.alloc_on_node(size, DDR4).unwrap();
                let id = mem.registry().register(buf, "bench");
                b.iter(|| {
                    engine.migrate(id, HBM, true, true).unwrap();
                    engine.migrate(id, DDR4, true, true).unwrap();
                });
            },
        );
    }

    // The paper's future-work optimisation: pooled destination buffers.
    // Allocation carries no modelled cost, so this runs on an
    // unthrottled two-node topology: what it measures is the host CPU
    // the pool saves (allocate + zero-fill + free per move).
    for size_kib in [4u64, 32, 512] {
        let size = (size_kib << 10) as usize;
        for pooled in [false, true] {
            let name = if pooled { "pooled" } else { "alloc-free" };
            group.bench_with_input(
                BenchmarkId::new(format!("pool/{name}"), format!("{size_kib}KiB")),
                &size,
                |b, &size| {
                    let mem = Memory::new(unthrottled());
                    let engine = if pooled {
                        MigrationEngine::with_pools(Arc::clone(&mem))
                    } else {
                        mem.migration_engine()
                    };
                    let buf = mem.alloc_on_node(size, DDR4).unwrap();
                    let id = mem.registry().register(buf, "bench");
                    b.iter(|| {
                        engine.migrate(id, HBM, true, true).unwrap();
                        engine.migrate(id, DDR4, true, true).unwrap();
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_migration);
criterion_main!(benches);
