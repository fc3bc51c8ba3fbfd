//! Blocked matrix multiplication over a 2-D chare grid — §V-B.
//!
//! Matrices A, B and C (N×N, N = grid·block) are split into
//! `grid × grid` square blocks. Chare (i,j) owns `C[i][j]`; its single
//! `[prefetch]` entry method depends on its whole A block-row
//! (`readonly`), whole B block-column (`readonly`) and C (`readwrite`),
//! and computes `C[i][j] = Σ_k A[i][k]·B[k][j]` with one blocked dgemm
//! per k ("the IO threads process the chares in a FIFO manner").
//!
//! A-row and B-column blocks are *shared read-only* across chares — the
//! paper's node-level nodegroup cache — and each fetched block feeds
//! `grid` compute passes. That high compute-traffic-to-fetch ratio is
//! why even a single IO thread performs well here ("when a data block
//! is fetched into HBM, it is consequently reused before eviction to
//! DDR4"), in contrast to stencil's private, use-once blocks.
//!
//! [`Matmul`] runs the k loop in *segments* (see [`crate::stencil`]):
//! a segment is one task per chare over a range of k, so a figure run
//! is one task per chare over `0..grid`, and a run that checkpoints
//! every N iterations sends each chare one task per N k-steps.

use crate::dgemm::{dgemm_block, dgemm_traffic_bytes};
use crate::segments;
use crate::traffic::charge_guard;
use converse::{ArrayId, Chare, CompletionLatch, Dep, EntryId, EntryOptions, ExecCtx, Mapping};
use hetmem::{AccessMode, BlockId, MemError, Memory, Topology};
use hetrt_core::{IoHandle, OocConfig, OocRuntime, Placement, StrategyKind};
use projections::TraceSummary;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// Entry: the row × column multiply over a range of k
/// (`entry [prefetch]`).
pub const EP_MULTIPLY: EntryId = EntryId(0);

/// Configuration of one matmul run.
#[derive(Clone)]
pub struct MatmulConfig {
    /// Chare grid edge (grid × grid chares, and blocks per matrix edge).
    pub grid: usize,
    /// Block edge in elements.
    pub block: usize,
    /// Worker PEs.
    pub pes: usize,
    /// Scheduling strategy.
    pub strategy: StrategyKind,
    /// Initial placement of all matrix blocks.
    pub placement: Placement,
    /// Memory-aware layer configuration.
    pub ooc: OocConfig,
    /// Memory topology.
    pub topology: Topology,
    /// Streaming passes per block per k-step: a tiled dgemm re-reads
    /// its operands several times, which is what makes the kernel
    /// bandwidth-sensitive at scale (§V: "matrix multiplication ...
    /// with vectorization becomes bandwidth sensitive").
    pub compute_passes: usize,
    /// Optional fault injector for chaos/resilience experiments;
    /// `None` runs fault-free.
    pub faults: Option<Arc<dyn hetmem::FaultInjector>>,
}

impl MatmulConfig {
    /// A small smoke-test configuration.
    pub fn tiny() -> Self {
        Self {
            grid: 2,
            block: 16,
            pes: 2,
            strategy: StrategyKind::Baseline,
            placement: Placement::HbmOnly,
            ooc: OocConfig::default(),
            topology: Topology::knl_flat_scaled(),
            compute_passes: 2,
            faults: None,
        }
    }

    /// Matrix edge N.
    pub fn n(&self) -> usize {
        self.grid * self.block
    }

    /// Bytes per block.
    pub fn block_bytes(&self) -> usize {
        self.block * self.block * 8
    }

    /// Total working set (3 matrices), bytes.
    pub fn total_bytes(&self) -> usize {
        3 * self.grid * self.grid * self.block_bytes()
    }
}

/// Results of one matmul run.
#[derive(Debug, Clone)]
pub struct MatmulReport {
    /// Wall (clock) time of the whole run, ns.
    pub total_ns: u64,
    /// Sum over all C entries.
    pub checksum: f64,
    /// Strategy statistics.
    pub stats: hetrt_core::OocStats,
    /// Trace summary.
    pub summary: TraceSummary,
    /// Memory subsystem statistics.
    pub mem_stats: hetmem::MemStats,
}

/// One multiply task: accumulate `C[i][j] += A[i][k]·B[k][j]` for
/// every k in `ks`, then count `latch` down.
struct Multiply {
    ks: Range<usize>,
    latch: Arc<CompletionLatch>,
}

struct MatmulChare {
    block: usize,
    compute_passes: usize,
    a_row: Vec<IoHandle<f64>>, // A[i][0..grid]
    b_col: Vec<IoHandle<f64>>, // B[0..grid][j]
    c: IoHandle<f64>,          // C[i][j]
    mem: Arc<Memory>,
}

impl Chare for MatmulChare {
    type Msg = Multiply;

    fn execute(&mut self, entry: EntryId, msg: Multiply, _ctx: &mut ExecCtx<'_>) {
        debug_assert_eq!(entry, EP_MULTIPLY);
        let n = self.block;
        let passes = self.compute_passes as u64;
        let block_bytes = (n * n * 8) as u64;
        let mut gc = self.c.access(AccessMode::ReadWrite);
        for k in msg.ks {
            let ga = self.a_row[k].access(AccessMode::ReadOnly);
            let gb = self.b_col[k].access(AccessMode::ReadOnly);
            // The bandwidth-sensitive traffic of one tiled block dgemm,
            // at each block's current node.
            let (_reads, writes) = dgemm_traffic_bytes(n);
            charge_guard(&self.mem, &ga, passes * block_bytes, 0);
            charge_guard(&self.mem, &gb, passes * block_bytes, 0);
            charge_guard(&self.mem, &gc, passes * block_bytes, passes * writes);
            dgemm_block(
                n,
                ga.as_slice::<f64>(),
                gb.as_slice::<f64>(),
                gc.as_mut_slice::<f64>(),
            );
        }
        drop(gc);
        msg.latch.count_down();
    }

    fn deps(&self, _entry: EntryId, msg: &Multiply) -> Vec<Dep> {
        let ks = msg.ks.clone();
        let mut deps: Vec<Dep> = self.a_row[ks.clone()]
            .iter()
            .map(|h| h.dep(AccessMode::ReadOnly))
            .collect();
        deps.extend(self.b_col[ks].iter().map(|h| h.dep(AccessMode::ReadOnly)));
        deps.push(self.c.dep(AccessMode::ReadWrite));
        deps
    }
}

/// A's entries in [`run_matmul`] and [`Matmul::new`].
fn default_a(r: usize, c: usize) -> f64 {
    ((r * 13 + c * 7) % 10) as f64 / 10.0
}

/// B's entries in [`run_matmul`] and [`Matmul::new`].
fn default_b(r: usize, c: usize) -> f64 {
    ((r * 3 + c * 11) % 10) as f64 / 10.0
}

/// Allocate and deterministically initialise a matrix of blocks,
/// block row-major.
fn make_blocks(
    mem: &Arc<Memory>,
    cfg: &MatmulConfig,
    name: &str,
    init: impl Fn(usize, usize) -> f64,
) -> Vec<IoHandle<f64>> {
    let (g, bs) = (cfg.grid, cfg.block);
    (0..g * g)
        .map(|idx| {
            let (bi, bj) = (idx / g, idx % g);
            let h: IoHandle<f64> =
                IoHandle::new(mem, bs * bs, cfg.placement, format!("{name}[{bi}][{bj}]"))
                    .expect("matrix block allocation");
            h.write(|xs| {
                for r in 0..bs {
                    for c in 0..bs {
                        xs[r * bs + c] = init(bi * bs + r, bj * bs + c);
                    }
                }
            });
            h
        })
        .collect()
}

/// A matmul run: the chare grid, the A/B/C blocks and the runtime under
/// them, driven in segments of k-steps. After `grid` k-steps C holds
/// the full product; a checkpoint captures A, B and the partially
/// accumulated C.
pub struct Matmul {
    cfg: MatmulConfig,
    ooc: OocRuntime,
    c: Vec<IoHandle<f64>>,
    array: ArrayId,
}

impl Matmul {
    /// A fresh run with the deterministic A and B of [`run_matmul`]; C
    /// starts at zero.
    pub fn new(cfg: MatmulConfig) -> Self {
        Self::with_init(cfg, default_a, default_b)
    }

    fn with_init(
        cfg: MatmulConfig,
        init_a: impl Fn(usize, usize) -> f64,
        init_b: impl Fn(usize, usize) -> f64,
    ) -> Self {
        let ooc = segments::build_runtime(
            &cfg.topology,
            cfg.faults.as_ref(),
            cfg.pes,
            cfg.strategy,
            cfg.ooc,
        );
        let a = make_blocks(ooc.memory(), &cfg, "A", init_a);
        let b = make_blocks(ooc.memory(), &cfg, "B", init_b);
        let c = make_blocks(ooc.memory(), &cfg, "C", |_, _| 0.0);
        Self::assemble(cfg, ooc, a, b, c)
    }

    /// Resume from a checkpoint of a run with the same configuration.
    /// Block ids follow allocation order: A row-major, then B, then C.
    /// A checkpoint with other than `3·grid²` blocks, or taken after
    /// k-step `grid`, is refused with [`MemError::CheckpointFailed`].
    pub fn resume(cfg: MatmulConfig, checkpoint: &Path) -> Result<Self, MemError> {
        let ooc = segments::build_runtime(
            &cfg.topology,
            cfg.faults.as_ref(),
            cfg.pes,
            cfg.strategy,
            cfg.ooc,
        );
        let blocks = cfg.grid * cfg.grid;
        segments::restore(&ooc, checkpoint, 3 * blocks, cfg.grid)?;
        let elems = cfg.block * cfg.block;
        let mut a = (0..3 * blocks)
            .map(|id| IoHandle::attach(ooc.memory(), BlockId(id as u32), elems))
            .collect::<Result<Vec<_>, _>>()?;
        let c = a.split_off(2 * blocks);
        let b = a.split_off(blocks);
        Ok(Self::assemble(cfg, ooc, a, b, c))
    }

    fn assemble(
        cfg: MatmulConfig,
        ooc: OocRuntime,
        a: Vec<IoHandle<f64>>,
        b: Vec<IoHandle<f64>>,
        c: Vec<IoHandle<f64>>,
    ) -> Self {
        let g = cfg.grid;
        let (block, compute_passes) = (cfg.block, cfg.compute_passes);
        let (c2, mem) = (c.clone(), Arc::clone(ooc.memory()));
        let array = ooc
            .runtime()
            .array_builder::<MatmulChare>()
            .entry(EP_MULTIPLY, EntryOptions::prefetch())
            .mapping(Mapping::RoundRobin)
            .build(g * g, move |idx| {
                let (i, j) = (idx / g, idx % g);
                MatmulChare {
                    block,
                    compute_passes,
                    a_row: a[i * g..(i + 1) * g].to_vec(),
                    b_col: (0..g).map(|k| b[k * g + j].clone()).collect(),
                    c: c2[idx].clone(),
                    mem: Arc::clone(&mem),
                }
            });
        Self { cfg, ooc, c, array }
    }

    /// The underlying runtime (iteration counter, stats, checkpoint).
    pub fn ooc(&self) -> &OocRuntime {
        &self.ooc
    }

    /// The memory subsystem.
    pub fn memory(&self) -> &Arc<Memory> {
        self.ooc.memory()
    }

    /// k-steps completed so far.
    pub fn completed_iterations(&self) -> u64 {
        self.ooc.iteration()
    }

    /// Run one k-step across the whole chare grid: a segment of
    /// length 1.
    pub fn step(&self) {
        let k = self.ooc.iteration() as usize;
        assert!(k < self.cfg.grid, "all k-steps already done");
        self.segment(k + 1);
    }

    /// Run all `grid` k-steps, stopping to checkpoint to `checkpoint`
    /// every [`OocConfig::checkpoint_every`] k-steps (never, if either
    /// is unset). Returns the wall ns spent in segments, each from its
    /// first send until its latch fired.
    pub fn run(&self, checkpoint: Option<&Path>) -> Result<u64, MemError> {
        segments::run(&self.ooc, self.cfg.grid, checkpoint, |until| {
            self.segment(until)
        })
    }

    fn segment(&self, until: usize) -> u64 {
        let ks = self.ooc.iteration() as usize..until;
        let rt = self.ooc.runtime();
        segments::segment(&self.ooc, self.c.len(), until, |idx, latch| {
            let ks = ks.clone();
            rt.send(self.array, idx, EP_MULTIPLY, Multiply { ks, latch });
        })
    }

    /// Full C contents, block row-major (bitwise comparison).
    pub fn c_contents(&self) -> Vec<Vec<f64>> {
        self.c.iter().map(|h| h.read(<[f64]>::to_vec)).collect()
    }

    /// Sum over all C entries.
    pub fn checksum(&self) -> f64 {
        self.c
            .iter()
            .map(|h| h.read(|xs| xs.iter().sum::<f64>()))
            .sum()
    }

    /// Stop the runtime. Also runs on drop.
    pub fn shutdown(&self) {
        self.ooc.shutdown();
    }
}

/// Run a matmul experiment end to end. Returns the report; panics if
/// the run does not complete.
pub fn run_matmul(cfg: &MatmulConfig) -> MatmulReport {
    run_matmul_with_init(cfg, default_a, default_b)
}

/// Run with explicit initialisers for A and B (tests use small exact
/// values).
pub fn run_matmul_with_init(
    cfg: &MatmulConfig,
    init_a: impl Fn(usize, usize) -> f64,
    init_b: impl Fn(usize, usize) -> f64,
) -> MatmulReport {
    let run = Matmul::with_init(cfg.clone(), init_a, init_b);
    let total_ns = run
        .run(None)
        .expect("a run without checkpoints cannot fail");
    let checksum = run.checksum();
    let stats = run.ooc.stats();
    let summary = run.ooc.finish_trace().summarize();
    let mem_stats = run.memory().stats();
    run.shutdown();

    MatmulReport {
        total_ns,
        checksum,
        stats,
        summary,
        mem_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dgemm::dgemm_naive;

    /// Reference product checksum for the default initialisers.
    fn reference_checksum(cfg: &MatmulConfig) -> f64 {
        let n = cfg.n();
        let mut a = vec![0.0; n * n];
        let mut b = vec![0.0; n * n];
        for r in 0..n {
            for c in 0..n {
                a[r * n + c] = default_a(r, c);
                b[r * n + c] = default_b(r, c);
            }
        }
        let mut c = vec![0.0; n * n];
        dgemm_naive(n, &a, &b, &mut c);
        c.iter().sum()
    }

    #[test]
    fn baseline_matches_reference_product() {
        let cfg = MatmulConfig::tiny();
        let r = run_matmul(&cfg);
        let want = reference_checksum(&cfg);
        assert!(
            (r.checksum - want).abs() < 1e-6 * want.abs().max(1.0),
            "checksum {} != reference {want}",
            r.checksum
        );
    }

    #[test]
    fn managed_strategies_match_reference() {
        let mut cfg = MatmulConfig::tiny();
        let want = reference_checksum(&cfg);
        for strategy in [
            StrategyKind::SyncFetch,
            StrategyKind::single_io(),
            StrategyKind::multi_io(2),
        ] {
            cfg.strategy = strategy;
            cfg.placement = Placement::DdrOnly;
            let r = run_matmul(&cfg);
            assert!(
                (r.checksum - want).abs() < 1e-6 * want.abs().max(1.0),
                "{strategy:?}: {} != {want}",
                r.checksum
            );
            assert_eq!(
                r.stats.completed,
                (cfg.grid * cfg.grid) as u64,
                "{strategy:?} completed count"
            );
        }
    }

    #[test]
    fn read_only_blocks_are_reused_across_chares() {
        // With single IO thread and shared A/B blocks, the number of
        // fetches must be well below tasks × deps: reuse keeps blocks
        // resident (the paper's §V-B observation).
        let cfg = MatmulConfig {
            grid: 3,
            block: 8,
            pes: 2,
            strategy: StrategyKind::single_io(),
            placement: Placement::DdrOnly,
            ooc: OocConfig::default(),
            topology: Topology::knl_flat_scaled(),
            compute_passes: 2,
            faults: None,
        };
        let r = run_matmul(&cfg);
        let tasks = (cfg.grid * cfg.grid) as u64;
        assert_eq!(r.stats.completed, tasks);
        // Each task declares 2·grid+1 dependences; shared A/B blocks
        // must be fetched far fewer times than they are depended upon.
        let deps_total = tasks * (2 * cfg.grid as u64 + 1);
        assert!(
            r.stats.fetches < deps_total * 2 / 3,
            "fetches {} should be well below {deps_total}",
            r.stats.fetches,
        );
    }

    #[test]
    fn config_geometry() {
        let cfg = MatmulConfig {
            grid: 4,
            block: 32,
            ..MatmulConfig::tiny()
        };
        assert_eq!(cfg.n(), 128);
        assert_eq!(cfg.block_bytes(), 8192);
        assert_eq!(cfg.total_bytes(), 3 * 16 * 8192);
    }

    fn checkpointed(cfg: MatmulConfig, every: u64) -> MatmulConfig {
        MatmulConfig {
            ooc: OocConfig {
                checkpoint_every: every,
                ..cfg.ooc
            },
            ..cfg
        }
    }

    fn grid3() -> MatmulConfig {
        MatmulConfig {
            grid: 3,
            block: 8,
            strategy: StrategyKind::single_io(),
            placement: Placement::DdrOnly,
            ..MatmulConfig::tiny()
        }
    }

    #[test]
    fn segmented_matmul_matches_reference_product() {
        // One task per chare per k-step.
        let path = crate::segments::temp_checkpoint("matmul-reference");
        let cfg = checkpointed(
            MatmulConfig {
                strategy: StrategyKind::SyncFetch,
                placement: Placement::DdrOnly,
                ..MatmulConfig::tiny()
            },
            1,
        );
        let want = reference_checksum(&cfg);
        let run = Matmul::new(cfg);
        run.run(Some(&path)).unwrap();
        let got = run.checksum();
        assert!(
            (got - want).abs() < 1e-6 * want.abs().max(1.0),
            "checksum {got} != reference {want}"
        );
        run.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn multi_segment_run_matches_single_segment_run() {
        let path = crate::segments::temp_checkpoint("matmul-segments");
        let single = Matmul::new(grid3());
        single.run(None).unwrap();
        let want = single.c_contents();
        single.shutdown();

        let run = Matmul::new(checkpointed(grid3(), 2));
        run.run(Some(&path)).unwrap();
        assert_eq!(run.c_contents(), want);
        // Segments 0..2 and 2..3: one task per chare each.
        assert_eq!(run.ooc().stats().completed, 2 * 9);
        run.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn matmul_restored_mid_run_finishes_bitwise_identical() {
        let path = crate::segments::temp_checkpoint("matmul-midrun");
        let cfg = checkpointed(grid3(), 1);

        let reference = Matmul::new(grid3());
        reference.run(None).unwrap();
        let want = reference.c_contents();
        reference.shutdown();

        let crashed = Matmul::new(cfg.clone());
        crashed.step();
        crashed.ooc().checkpoint(&path).unwrap();
        crashed.step(); // work past the checkpoint is lost with the "crash"
        crashed.shutdown();
        drop(crashed);

        let resumed = Matmul::resume(cfg, &path).unwrap();
        assert_eq!(resumed.completed_iterations(), 1);
        resumed.run(None).unwrap();
        assert_eq!(resumed.c_contents(), want, "restart must be bitwise exact");
        resumed.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_refuses_a_checkpoint_of_another_configuration() {
        let path = crate::segments::temp_checkpoint("matmul-mismatch");
        let run = Matmul::new(MatmulConfig::tiny());
        run.run(None).unwrap();
        run.ooc().checkpoint(&path).unwrap();
        // The same blocks, claiming one k-step more than the grid has.
        run.ooc().set_iteration(3);
        let past_the_end = crate::segments::temp_checkpoint("matmul-past-end");
        run.ooc().checkpoint(&past_the_end).unwrap();
        run.shutdown();

        let bigger_grid = MatmulConfig {
            grid: 3,
            ..MatmulConfig::tiny()
        };
        for (cfg, path) in [(bigger_grid, &path), (MatmulConfig::tiny(), &past_the_end)] {
            assert!(matches!(
                Matmul::resume(cfg, path),
                Err(MemError::CheckpointFailed { .. })
            ));
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&past_the_end);
    }
}
