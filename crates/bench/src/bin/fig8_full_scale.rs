//! Figure 8 at the paper's literal scale, in virtual time.
//!
//! 64 PEs, 16 GB MCDRAM @ 420 GB/s, 96 GB DDR4 @ 90 GB/s; 32 GB total
//! stencil working set, 20 iterations, reduced working set (PEs × block
//! size) ∈ {2, 4, 8} GB — the exact §V-A configuration, replayed by the
//! deterministic discrete-event simulator. The sweep takes about 0.2 s
//! of host time in a release build on a 2-vCPU Xeon.

use bench::{emit, Scale, Table};
use vtsim::{stencil_workload, SimConfig, SimStrategy, Simulator, StencilSpec, Workload};

const GIB: u64 = 1 << 30;
const PES: usize = 64;
const PASSES: u64 = 4; // streaming passes per compute task (tiling)

/// (reduced-WSS GB, chare grid, block bytes): 64 PEs × block = reduced;
/// chare count × block = 32 GB total.
const SWEEPS: &[(&str, (usize, usize, usize), u64)] = &[
    ("2", (16, 8, 8), 32 * (1 << 20)), // 1024 chares x 32 MiB
    ("4", (8, 8, 8), 64 * (1 << 20)),  // 512 chares x 64 MiB
    ("8", (8, 8, 4), 128 * (1 << 20)), // 256 chares x 128 MiB
];

/// Build the workload and scale each task's compute traffic by PASSES.
fn workload(
    chares: (usize, usize, usize),
    block: u64,
    iterations: usize,
    hbm_fraction: f64,
) -> Workload {
    let mut wl = stencil_workload(&StencilSpec {
        chares,
        block_bytes: block,
        iterations,
        pes: PES,
        hbm_fraction,
        flops_ns: 0,
    });
    for t in &mut wl.tasks {
        for c in &mut t.charges {
            c.read_bytes *= PASSES;
            c.write_bytes *= PASSES;
        }
    }
    wl
}

fn main() {
    let (scale, save) = Scale::from_args();
    let iterations = scale.pick(5, 20, 20);

    let mut body = format!(
        "Figure 8 (full scale, virtual time) — Stencil3D on the paper's KNL:\n\
         64 PEs, 32 GB total, {iterations} iterations, {PASSES} streaming passes per task\n\n"
    );
    let mut table = Table::new(&[
        "reduced WSS (GB)",
        "naive (s)",
        "single-io",
        "no-io(sync)",
        "multi-io(64)",
    ]);
    for (label, chares, block) in SWEEPS {
        // Naive: 15 of 16 GB HBM filled, remainder overflows to DDR4.
        let hbm_frac = (15 * GIB) as f64 / (32 * GIB) as f64;
        let naive = Simulator::new(
            SimConfig::knl_paper(SimStrategy::Baseline),
            workload(*chares, *block, iterations, hbm_frac),
        )
        .run();
        let mut cells = vec![label.to_string(), format!("{:.2}", naive.makespan_sec())];
        for strategy in [
            SimStrategy::IoThreads { threads: 1 },
            SimStrategy::SyncFetch,
            SimStrategy::IoThreads { threads: PES },
        ] {
            let r = Simulator::new(
                SimConfig::knl_paper(strategy),
                workload(*chares, *block, iterations, 0.0),
            )
            .run();
            cells.push(format!("{:.2}x", r.speedup_over(&naive)));
        }
        table.row(cells);
    }
    body.push_str(&table.render());
    body.push_str("\npaper Figure 8: multi-io up to ~2x, sync close behind, single-io < 1x.\n");
    emit("fig8_full_scale", &body, save);
}
