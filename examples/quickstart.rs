//! Quickstart: the smallest end-to-end use of the heterogeneity-aware
//! runtime.
//!
//! Six chares each own a 1 MiB data block; HBM only holds two blocks at
//! a time, so the runtime must stream blocks DDR4 → HBM → DDR4 around
//! each task. Compare the naive baseline (no movement) with the
//! asynchronous multiple-IO-thread strategy.
//!
//! Run with: `cargo run --release --example quickstart`

use hetrt::converse::{Chare, CompletionLatch, Dep, EntryId, EntryOptions, ExecCtx};
use hetrt::core::{IoHandle, OocConfig, OocRuntime, Placement, StrategyKind};
use hetrt::hetmem::{AccessMode, Memory, Topology};
use std::sync::Arc;

const EP_SQUARE: EntryId = EntryId(0);
const BLOCK_ELEMS: usize = 128 * 1024; // 1 MiB of f64
/// Streaming passes per task: like the paper's tiled kernels, each task
/// touches its block several times per residency — that is what makes
/// one DDR4→HBM→DDR4 round trip worth its cost.
const PASSES: usize = 8;

/// A chare that squares every element of its block — a stand-in for
/// any bandwidth-bound kernel.
struct Squarer {
    data: IoHandle<f64>,
    latch: Arc<CompletionLatch>,
    mem: Arc<Memory>,
}

impl Chare for Squarer {
    type Msg = ();

    fn execute(&mut self, _entry: EntryId, _msg: (), ctx: &mut ExecCtx<'_>) {
        let mut guard = self.data.access(AccessMode::ReadWrite);
        // Tell the memory model what this kernel streams (PASSES read +
        // write passes), charged at the node the block sits on *now*.
        let bytes = guard.len() as u64;
        for _ in 0..PASSES {
            self.mem.regulator(guard.node()).charge(bytes);
            self.mem.regulator(guard.node()).charge_write(bytes);
        }
        // The actual arithmetic: x <- x^(2^PASSES) staged as PASSES
        // squaring sweeps (values stay tiny: inputs are in [0, 1)).
        for _ in 0..PASSES {
            for x in guard.as_mut_slice::<f64>() {
                *x *= *x;
            }
        }
        drop(guard);
        println!(
            "chare {} done on PE {} (block was on {:?})",
            ctx.index(),
            ctx.pe(),
            self.data.node()
        );
        self.latch.count_down();
    }

    fn deps(&self, _entry: EntryId, _msg: &()) -> Vec<Dep> {
        // The `.ci` annotation: entry [prefetch] ... [readwrite: data]
        vec![self.data.dep(AccessMode::ReadWrite)]
    }
}

fn run(strategy: StrategyKind, placement: Placement) -> u64 {
    // 2.25 MiB of HBM: room for two 1 MiB blocks and change.
    let topology = Topology::knl_flat_scaled_with(2304 * 1024, 96 << 20);
    let mem = Memory::new(topology);
    let ooc = OocRuntime::new(Arc::clone(&mem), 2, strategy, OocConfig::default());
    let rt = ooc.runtime();

    let n = 6;
    let latch = Arc::new(CompletionLatch::new(n));
    let blocks: Vec<IoHandle<f64>> = (0..n)
        .map(|i| {
            let h = IoHandle::new(&mem, BLOCK_ELEMS, placement, format!("blk{i}"))
                .expect("allocate block");
            h.write(|xs| xs.iter_mut().for_each(|x| *x = 1.0 / (i + 2) as f64));
            h
        })
        .collect();

    let (latch2, blocks2, mem2) = (Arc::clone(&latch), blocks.clone(), Arc::clone(&mem));
    let array = rt
        .array_builder::<Squarer>()
        .entry(EP_SQUARE, EntryOptions::prefetch())
        .build(n, move |i| Squarer {
            data: blocks2[i].clone(),
            latch: Arc::clone(&latch2),
            mem: Arc::clone(&mem2),
        });

    let t0 = mem.clock().now();
    for i in 0..n {
        rt.send(array, i, EP_SQUARE, ());
    }
    latch.wait();
    let elapsed = mem.clock().now() - t0;

    for (i, h) in blocks.iter().enumerate() {
        let want = (1.0 / (i + 2) as f64).powi(1 << PASSES);
        h.read(|xs| {
            assert!(
                xs.iter()
                    .all(|&x| (x - want).abs() <= f64::EPSILON * want.abs()),
                "wrong result"
            );
        });
    }
    println!(
        "strategy {:<18} finished in {:>7.1} ms   {}",
        strategy.label(),
        elapsed as f64 / 1e6,
        ooc.stats().render()
    );
    ooc.shutdown();
    elapsed
}

fn main() {
    println!("== naive baseline: blocks overflow to DDR4 and stay there ==");
    let naive = run(StrategyKind::Baseline, Placement::PreferHbm { reserve: 0 });

    println!("\n== managed: runtime stages each block through HBM ==");
    let managed = run(StrategyKind::multi_io(2), Placement::DdrOnly);

    println!(
        "\nspeedup from heterogeneity-aware prefetch/evict: {:.2}x",
        naive as f64 / managed as f64
    );
}
