//! Stencil3D over a chare grid — the paper's §V-A workload.
//!
//! A `cx × cy × cz` grid of chares each owns a `bx × by × bz` block of
//! doubles. Every iteration (Algorithm 2 of the paper):
//!
//! 1. receive one halo plane from each face-neighbour,
//! 2. once all have arrived, run the `[prefetch]`-annotated
//!    `compute_kernel` — a 7-point Jacobi update over the block, with a
//!    `readwrite` dependence on the block (so the runtime stages it
//!    into HBM first),
//! 3. send the updated boundary planes to the neighbours for the next
//!    iteration.
//!
//! Each chare reads and writes only its own block ("the update of grid
//! elements by each chare is done independently, i.e. each chare reads
//! and writes to independent data blocks in each iteration"), which is
//! why the single-IO-thread strategy suffers here: no reuse, every task
//! needs its own fetch.
//!
//! [`Stencil`] runs the chares in *segments*: each chare gets one
//! `Start { until, latch }`, pipelines its iterations up to `until` and
//! counts the latch down there. A figure run is a single segment. With
//! a checkpoint path and [`OocConfig::checkpoint_every`] > 0, a segment
//! ends at the next checkpoint iteration; the runtime is quiescent
//! between segments, which is the consistent cut a checkpoint captures
//! and a resumed run continues from, bitwise identically.

use crate::segments;
use converse::{ArrayId, Chare, CompletionLatch, Dep, EntryId, EntryOptions, ExecCtx, Mapping};
use hetmem::{AccessMode, BlockId, MemError, Memory, Topology};
use hetrt_core::{IoHandle, OocConfig, OocRuntime, Placement, StrategyKind};
use projections::TraceSummary;
use std::path::Path;
use std::sync::Arc;

/// Entry: halo plane delivery (plain entry method).
pub const EP_HALO: EntryId = EntryId(0);
/// Entry: the bandwidth-sensitive update (`entry [prefetch]`).
pub const EP_COMPUTE: EntryId = EntryId(1);
/// Entry: kick-off of a segment (send the current iteration's halos).
pub const EP_START: EntryId = EntryId(2);

/// Messages between stencil chares.
pub enum StencilMsg {
    /// Run from the chare's current iteration up to `until`, then
    /// count `latch` down.
    Start {
        /// Iteration the segment stops at (exclusive).
        until: usize,
        /// Counted down once per chare on reaching `until`.
        latch: Arc<CompletionLatch>,
    },
    /// A neighbour's boundary plane for `iter`.
    Halo {
        /// Iteration the plane belongs to.
        iter: usize,
        /// Receiving face (0:-x 1:+x 2:-y 3:+y 4:-z 5:+z).
        face: usize,
        /// Plane values.
        data: Vec<f64>,
    },
    /// All halos for `iter` arrived: run the update.
    Compute {
        /// Iteration to compute.
        iter: usize,
    },
}

/// Configuration of one stencil run.
#[derive(Clone)]
pub struct StencilConfig {
    /// Chare grid dimensions.
    pub chares: (usize, usize, usize),
    /// Per-chare block dimensions (elements).
    pub block: (usize, usize, usize),
    /// Jacobi iterations.
    pub iterations: usize,
    /// Worker PEs.
    pub pes: usize,
    /// Scheduling strategy.
    pub strategy: StrategyKind,
    /// Initial placement of the blocks.
    pub placement: Placement,
    /// Memory-aware layer configuration.
    pub ooc: OocConfig,
    /// Memory topology.
    pub topology: Topology,
    /// Streaming passes over the block per compute task. The paper
    /// runs tiled computations that touch each fetched block several
    /// times ("to mimic tiling patterns that increase computation",
    /// §V-A) — this is what amortises one DDR4→HBM→DDR4 round trip
    /// against several block-passes at HBM speed.
    pub compute_passes: usize,
    /// Optional fault injector for chaos/resilience experiments;
    /// `None` runs fault-free.
    pub faults: Option<Arc<dyn hetmem::FaultInjector>>,
}

impl StencilConfig {
    /// A small smoke-test configuration.
    pub fn tiny() -> Self {
        Self {
            chares: (2, 2, 1),
            block: (8, 8, 8),
            iterations: 3,
            pes: 2,
            strategy: StrategyKind::Baseline,
            placement: Placement::HbmOnly,
            ooc: OocConfig::default(),
            topology: Topology::knl_flat_scaled(),
            compute_passes: 2,
            faults: None,
        }
    }

    /// Number of chares.
    pub fn chare_count(&self) -> usize {
        self.chares.0 * self.chares.1 * self.chares.2
    }

    /// Bytes per block.
    pub fn block_bytes(&self) -> usize {
        self.block.0 * self.block.1 * self.block.2 * 8
    }

    /// Total working-set bytes (the paper's "total working set size").
    pub fn total_bytes(&self) -> usize {
        self.chare_count() * self.block_bytes()
    }
}

/// Results of one stencil run.
#[derive(Debug, Clone)]
pub struct StencilReport {
    /// Wall (clock) time of the whole run, ns.
    pub total_ns: u64,
    /// Mean time per iteration, ns.
    pub per_iteration_ns: f64,
    /// Sum over all grid values after the last iteration.
    pub checksum: f64,
    /// Strategy statistics.
    pub stats: hetrt_core::OocStats,
    /// Trace summary (compute vs overhead breakdown).
    pub summary: TraceSummary,
    /// ASCII rendering of the per-lane timeline (the Projections view).
    pub timeline: String,
    /// Memory subsystem statistics.
    pub mem_stats: hetmem::MemStats,
}

struct StencilChare {
    bdims: (usize, usize, usize),
    compute_passes: usize,
    block: IoHandle<f64>,
    mem: Arc<Memory>,
    array: Option<ArrayId>,
    iter: usize,
    /// The running segment's `until` and latch: set once EP_START has
    /// sent this chare's halo planes for `iter`, cleared on reaching
    /// `until`. No compute fires while it is `None`: halos can arrive
    /// *before* our own Start message (the driver's send loop races
    /// with already-running workers, and neighbours that started the
    /// next segment send its first halos), and computing early would
    /// make Start extract post-update planes for the neighbours.
    segment: Option<(usize, Arc<CompletionLatch>)>,
    /// Halo planes, double-buffered by iteration parity.
    halos: [Vec<Option<Vec<f64>>>; 2],
    received: [usize; 2],
    neighbors: Vec<(usize, usize)>, // (face, chare index)
    scratch: Vec<f64>,
}

/// Face order: 0:-x 1:+x 2:-y 3:+y 4:-z 5:+z. `face ^ 1` is opposite.
pub(crate) fn neighbors_of(
    coord: (usize, usize, usize),
    dims: (usize, usize, usize),
) -> Vec<(usize, usize)> {
    let (x, y, z) = coord;
    let (cx, cy, cz) = dims;
    let idx = |x: usize, y: usize, z: usize| (z * cy + y) * cx + x;
    let mut out = Vec::new();
    if x > 0 {
        out.push((0, idx(x - 1, y, z)));
    }
    if x + 1 < cx {
        out.push((1, idx(x + 1, y, z)));
    }
    if y > 0 {
        out.push((2, idx(x, y - 1, z)));
    }
    if y + 1 < cy {
        out.push((3, idx(x, y + 1, z)));
    }
    if z > 0 {
        out.push((4, idx(x, y, z - 1)));
    }
    if z + 1 < cz {
        out.push((5, idx(x, y, z + 1)));
    }
    out
}

pub(crate) fn plane_len(face: usize, (bx, by, bz): (usize, usize, usize)) -> usize {
    match face / 2 {
        0 => by * bz,
        1 => bx * bz,
        _ => bx * by,
    }
}

/// Extract the boundary plane of `block` facing `face`.
pub(crate) fn extract_plane(face: usize, dims: (usize, usize, usize), block: &[f64]) -> Vec<f64> {
    let (bx, by, bz) = dims;
    let at = |x: usize, y: usize, z: usize| block[(z * by + y) * bx + x];
    let mut out = Vec::with_capacity(plane_len(face, dims));
    match face {
        0 | 1 => {
            let x = if face == 0 { 0 } else { bx - 1 };
            for z in 0..bz {
                for y in 0..by {
                    out.push(at(x, y, z));
                }
            }
        }
        2 | 3 => {
            let y = if face == 2 { 0 } else { by - 1 };
            for z in 0..bz {
                for x in 0..bx {
                    out.push(at(x, y, z));
                }
            }
        }
        _ => {
            let z = if face == 4 { 0 } else { bz - 1 };
            for y in 0..by {
                for x in 0..bx {
                    out.push(at(x, y, z));
                }
            }
        }
    }
    out
}

/// 7-point Jacobi update of `block` given optional halo planes per
/// face; missing halos (domain boundary) reuse the cell's own value.
///
/// The sweep goes row by row along x. Each (y, z) row reads four
/// neighbour rows (an interior row, the matching row of a halo plane,
/// or the row itself when that face has no halo) and, at its two ends,
/// one x-halo cell each. With the ends peeled off, the interior of the
/// row is a branch-free loop the compiler vectorises. Every cell sums
/// its terms in the same order, so results do not depend on the sweep.
pub(crate) fn jacobi_update(
    dims: (usize, usize, usize),
    block: &mut [f64],
    scratch: &mut Vec<f64>,
    halos: &[Option<Vec<f64>>],
) {
    let (bx, by, bz) = dims;
    scratch.clear();
    scratch.extend_from_slice(block);
    let old = scratch.as_slice();
    let row = |y: usize, z: usize| &old[(z * by + y) * bx..][..bx];
    let halo_row = |face: usize, r: usize| halos[face].as_ref().map(|p| &p[r * bx..][..bx]);
    let halo_cell = |face: usize, y: usize, z: usize| halos[face].as_ref().map(|p| p[z * by + y]);
    let last = bx - 1;
    for z in 0..bz {
        for y in 0..by {
            let c = row(y, z);
            let ym = if y > 0 {
                row(y - 1, z)
            } else {
                halo_row(2, z).unwrap_or(c)
            };
            let yp = if y + 1 < by {
                row(y + 1, z)
            } else {
                halo_row(3, z).unwrap_or(c)
            };
            let zm = if z > 0 {
                row(y, z - 1)
            } else {
                halo_row(4, y).unwrap_or(c)
            };
            let zp = if z + 1 < bz {
                row(y, z + 1)
            } else {
                halo_row(5, y).unwrap_or(c)
            };
            let cell =
                |x: usize, xm: f64, xp: f64| (c[x] + xm + xp + ym[x] + yp[x] + zm[x] + zp[x]) / 7.0;
            let out = &mut block[(z * by + y) * bx..][..bx];
            let x_lo = halo_cell(0, y, z).unwrap_or(c[0]);
            let x_hi = halo_cell(1, y, z).unwrap_or(c[last]);
            if bx == 1 {
                out[0] = cell(0, x_lo, x_hi);
                continue;
            }
            out[0] = cell(0, x_lo, c[1]);
            for x in 1..last {
                out[x] = cell(x, c[x - 1], c[x + 1]);
            }
            out[last] = cell(last, c[last - 1], x_hi);
        }
    }
}

impl StencilChare {
    fn send_halos(&self, iter: usize, ctx: &ExecCtx<'_>, block_vals: &[f64]) {
        let array = self.array.expect("array id set before start");
        for &(face, nbr) in &self.neighbors {
            let data = extract_plane(face, self.bdims, block_vals);
            ctx.send(
                array,
                nbr,
                EP_HALO,
                StencilMsg::Halo {
                    iter,
                    face: face ^ 1, // my +x plane is their -x halo
                    data,
                },
            );
        }
    }

    fn maybe_fire_compute(&mut self, ctx: &ExecCtx<'_>) {
        if self.segment.is_none() {
            return;
        }
        let parity = self.iter % 2;
        if self.received[parity] == self.neighbors.len() {
            let array = self.array.expect("array id set");
            ctx.send(
                array,
                ctx.index(),
                EP_COMPUTE,
                StencilMsg::Compute { iter: self.iter },
            );
        }
    }
}

impl Chare for StencilChare {
    type Msg = StencilMsg;

    fn execute(&mut self, entry: EntryId, msg: StencilMsg, ctx: &mut ExecCtx<'_>) {
        match (entry, msg) {
            (EP_START, StencilMsg::Start { until, latch }) => {
                assert!(self.segment.is_none(), "duplicate Start");
                assert!(self.iter < until, "empty segment ending at {until}");
                let planes = self.block.read(|xs| {
                    self.neighbors
                        .iter()
                        .map(|&(face, _)| extract_plane(face, self.bdims, xs))
                        .collect::<Vec<_>>()
                });
                let array = self.array.expect("array id set");
                for (&(face, nbr), data) in self.neighbors.iter().zip(planes) {
                    ctx.send(
                        array,
                        nbr,
                        EP_HALO,
                        StencilMsg::Halo {
                            iter: self.iter,
                            face: face ^ 1,
                            data,
                        },
                    );
                }
                self.segment = Some((until, latch));
                self.maybe_fire_compute(ctx);
            }
            (EP_HALO, StencilMsg::Halo { iter, face, data }) => {
                let parity = iter % 2;
                assert!(
                    iter == self.iter || iter == self.iter + 1,
                    "halo from iteration {iter} while at {}",
                    self.iter
                );
                assert!(
                    self.halos[parity][face].is_none(),
                    "duplicate halo for face {face} iter {iter} (at {})",
                    self.iter
                );
                self.halos[parity][face] = Some(data);
                self.received[parity] += 1;
                if iter == self.iter {
                    self.maybe_fire_compute(ctx);
                }
            }
            (EP_COMPUTE, StencilMsg::Compute { iter }) => {
                let until = self.segment.as_ref().expect("compute before Start").0;
                assert_eq!(iter, self.iter, "compute fired out of order");
                let parity = iter % 2;
                for &(face, _) in &self.neighbors {
                    assert!(
                        self.halos[parity][face].is_some(),
                        "compute {iter} fired with face {face} halo missing"
                    );
                }
                // The bandwidth-sensitive part: one read + one write
                // pass over the block at its *current* node.
                let mut guard = self.block.access(AccessMode::ReadWrite);
                for _ in 0..self.compute_passes {
                    crate::traffic::charge_update_pass(&self.mem, &guard);
                }
                {
                    let halos = &self.halos[parity];
                    jacobi_update(
                        self.bdims,
                        guard.as_mut_slice::<f64>(),
                        &mut self.scratch,
                        halos,
                    );
                }
                // Consume this iteration's halos.
                for h in &mut self.halos[parity] {
                    *h = None;
                }
                self.received[parity] = 0;
                self.iter += 1;
                if self.iter == until {
                    drop(guard);
                    let (_, latch) = self.segment.take().expect("segment running");
                    latch.count_down();
                } else {
                    self.send_halos(self.iter, ctx, guard.as_slice::<f64>());
                    drop(guard);
                    self.maybe_fire_compute(ctx);
                }
            }
            (e, _) => panic!("unexpected entry {e:?} / message combination"),
        }
    }

    fn deps(&self, entry: EntryId, _msg: &StencilMsg) -> Vec<Dep> {
        debug_assert_eq!(entry, EP_COMPUTE);
        vec![self.block.dep(AccessMode::ReadWrite)]
    }
}

/// A stencil run: the chare grid, its blocks and the runtime under
/// them, driven in segments (see the [module docs](self)).
pub struct Stencil {
    cfg: StencilConfig,
    ooc: OocRuntime,
    blocks: Vec<IoHandle<f64>>,
    array: ArrayId,
}

impl Stencil {
    /// A fresh run: allocate and deterministically initialise every
    /// block.
    pub fn new(cfg: StencilConfig) -> Self {
        let ooc = segments::build_runtime(
            &cfg.topology,
            cfg.faults.as_ref(),
            cfg.pes,
            cfg.strategy,
            cfg.ooc,
        );
        let elems = cfg.block.0 * cfg.block.1 * cfg.block.2;
        let blocks = (0..cfg.chare_count())
            .map(|i| {
                let h = IoHandle::new(ooc.memory(), elems, cfg.placement, format!("stencil{i}"))
                    .expect("stencil block allocation");
                h.write(|xs| {
                    for (j, v) in xs.iter_mut().enumerate() {
                        *v = ((i * 31 + j * 7) % 1000) as f64 / 1000.0;
                    }
                });
                h
            })
            .collect();
        Self::assemble(cfg, ooc, blocks)
    }

    /// Resume from a checkpoint of a run with the same configuration:
    /// the blocks are restored (ids `0..chare_count` in allocation
    /// order) and the chares continue from the saved iteration. A
    /// checkpoint with another block count, or taken after
    /// `iterations`, is refused with [`MemError::CheckpointFailed`].
    pub fn resume(cfg: StencilConfig, checkpoint: &Path) -> Result<Self, MemError> {
        let ooc = segments::build_runtime(
            &cfg.topology,
            cfg.faults.as_ref(),
            cfg.pes,
            cfg.strategy,
            cfg.ooc,
        );
        segments::restore(&ooc, checkpoint, cfg.chare_count(), cfg.iterations)?;
        let elems = cfg.block.0 * cfg.block.1 * cfg.block.2;
        let blocks = (0..cfg.chare_count())
            .map(|i| IoHandle::attach(ooc.memory(), BlockId(i as u32), elems))
            .collect::<Result<_, _>>()?;
        Ok(Self::assemble(cfg, ooc, blocks))
    }

    /// Build the chare array, every chare at the runtime's iteration.
    fn assemble(cfg: StencilConfig, ooc: OocRuntime, blocks: Vec<IoHandle<f64>>) -> Self {
        let n = cfg.chare_count();
        let (cx, cy, _) = cfg.chares;
        let (chares, bdims, compute_passes) = (cfg.chares, cfg.block, cfg.compute_passes);
        let elems = bdims.0 * bdims.1 * bdims.2;
        let iter = ooc.iteration() as usize;
        let (blocks2, mem) = (blocks.clone(), Arc::clone(ooc.memory()));
        let rt = ooc.runtime();
        let array = rt
            .array_builder::<StencilChare>()
            .entry(EP_HALO, EntryOptions::default())
            .entry(EP_COMPUTE, EntryOptions::prefetch())
            .entry(EP_START, EntryOptions::default())
            .mapping(Mapping::Block)
            .build(n, move |i| StencilChare {
                bdims,
                compute_passes,
                block: blocks2[i].clone(),
                mem: Arc::clone(&mem),
                array: None,
                iter,
                segment: None,
                halos: [vec![None; 6], vec![None; 6]],
                received: [0, 0],
                neighbors: neighbors_of((i % cx, (i / cx) % cy, i / (cx * cy)), chares),
                scratch: Vec::with_capacity(elems),
            });
        let arr = rt.array::<StencilChare>(array);
        for i in 0..n {
            arr.with_chare(i, |c| c.array = Some(array));
        }
        Self {
            cfg,
            ooc,
            blocks,
            array,
        }
    }

    /// The underlying runtime (iteration counter, stats, checkpoint).
    pub fn ooc(&self) -> &OocRuntime {
        &self.ooc
    }

    /// The memory subsystem (fault-injection control in chaos tests).
    pub fn memory(&self) -> &Arc<Memory> {
        self.ooc.memory()
    }

    /// Iterations completed so far.
    pub fn completed_iterations(&self) -> u64 {
        self.ooc.iteration()
    }

    /// Run one iteration: a segment of length 1.
    pub fn step(&self) {
        self.segment(self.ooc.iteration() as usize + 1);
    }

    /// Run to `cfg.iterations`, stopping to checkpoint to `checkpoint`
    /// every [`OocConfig::checkpoint_every`] iterations (never, if
    /// either is unset). Returns the wall ns spent in segments, each
    /// from its first Start send until its latch fired.
    pub fn run(&self, checkpoint: Option<&Path>) -> Result<u64, MemError> {
        segments::run(&self.ooc, self.cfg.iterations, checkpoint, |until| {
            self.segment(until)
        })
    }

    fn segment(&self, until: usize) -> u64 {
        let rt = self.ooc.runtime();
        segments::segment(&self.ooc, self.blocks.len(), until, |i, latch| {
            rt.send(self.array, i, EP_START, StencilMsg::Start { until, latch });
        })
    }

    /// Full per-block contents (bitwise comparison across runs).
    pub fn block_contents(&self) -> Vec<Vec<f64>> {
        self.blocks
            .iter()
            .map(|b| b.read(<[f64]>::to_vec))
            .collect()
    }

    /// Stop the runtime. Also runs on drop.
    pub fn shutdown(&self) {
        self.ooc.shutdown();
    }
}

/// Run a stencil experiment and return full per-block contents
/// (cross-validation against a serial reference).
pub fn run_stencil_blocks(cfg: &StencilConfig) -> Vec<Vec<f64>> {
    let run = Stencil::new(cfg.clone());
    run.run(None)
        .expect("a run without checkpoints cannot fail");
    let blocks = run.block_contents();
    run.shutdown();
    blocks
}

/// Run a stencil experiment end to end.
pub fn run_stencil(cfg: &StencilConfig) -> StencilReport {
    let run = Stencil::new(cfg.clone());
    let total_ns = run
        .run(None)
        .expect("a run without checkpoints cannot fail");
    let checksum: f64 = run
        .blocks
        .iter()
        .map(|b| b.read(|xs| xs.iter().sum::<f64>()))
        .sum();
    let stats = run.ooc.stats();
    let trace = run.ooc.finish_trace();
    let timeline = projections::render::render_ascii(&trace, 96);
    let summary = trace.summarize();
    let mem_stats = run.memory().stats();
    run.shutdown();

    StencilReport {
        total_ns,
        per_iteration_ns: total_ns as f64 / cfg.iterations as f64,
        checksum,
        stats,
        summary,
        timeline,
        mem_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbors_enumeration() {
        // 2x2x1 grid: every chare has exactly 2 neighbours.
        for i in 0..4 {
            let coord = (i % 2, (i / 2) % 2, 0);
            assert_eq!(neighbors_of(coord, (2, 2, 1)).len(), 2);
        }
        // Interior chare of a 3x3x3 grid has all 6.
        assert_eq!(neighbors_of((1, 1, 1), (3, 3, 3)).len(), 6);
        // Single chare has none.
        assert!(neighbors_of((0, 0, 0), (1, 1, 1)).is_empty());
    }

    #[test]
    fn plane_extraction_shapes() {
        let dims = (2, 3, 4);
        let block: Vec<f64> = (0..24).map(|x| x as f64).collect();
        assert_eq!(extract_plane(0, dims, &block).len(), 12); // by*bz
        assert_eq!(extract_plane(3, dims, &block).len(), 8); // bx*bz
        assert_eq!(extract_plane(5, dims, &block).len(), 6); // bx*by
                                                             // -x plane holds x=0 values: indices where x==0.
        let p = extract_plane(0, dims, &block);
        assert_eq!(p[0], 0.0); // (0,0,0)
        assert_eq!(p[1], 2.0); // (0,1,0)
    }

    #[test]
    fn jacobi_preserves_uniform_field() {
        let dims = (4, 4, 4);
        let mut block = vec![2.5; 64];
        let mut scratch = Vec::new();
        let halos: Vec<Option<Vec<f64>>> = vec![None; 6];
        jacobi_update(dims, &mut block, &mut scratch, &halos);
        assert!(block.iter().all(|&v| (v - 2.5).abs() < 1e-12));
    }

    /// Per-cell oracle for the row-wise sweep: each cell looks up its
    /// six neighbours one by one, summing in the sweep's order.
    fn jacobi_per_cell(
        (bx, by, bz): (usize, usize, usize),
        old: &[f64],
        halos: &[Option<Vec<f64>>],
    ) -> Vec<f64> {
        let at = |x: usize, y: usize, z: usize| old[(z * by + y) * bx + x];
        let halo = |face: usize, i: usize, c: f64| halos[face].as_ref().map_or(c, |p| p[i]);
        let mut out = vec![0.0; old.len()];
        for z in 0..bz {
            for y in 0..by {
                for x in 0..bx {
                    let c = at(x, y, z);
                    let xm = if x > 0 {
                        at(x - 1, y, z)
                    } else {
                        halo(0, z * by + y, c)
                    };
                    let xp = if x + 1 < bx {
                        at(x + 1, y, z)
                    } else {
                        halo(1, z * by + y, c)
                    };
                    let ym = if y > 0 {
                        at(x, y - 1, z)
                    } else {
                        halo(2, z * bx + x, c)
                    };
                    let yp = if y + 1 < by {
                        at(x, y + 1, z)
                    } else {
                        halo(3, z * bx + x, c)
                    };
                    let zm = if z > 0 {
                        at(x, y, z - 1)
                    } else {
                        halo(4, y * bx + x, c)
                    };
                    let zp = if z + 1 < bz {
                        at(x, y, z + 1)
                    } else {
                        halo(5, y * bx + x, c)
                    };
                    out[(z * by + y) * bx + x] = (c + xm + xp + ym + yp + zm + zp) / 7.0;
                }
            }
        }
        out
    }

    #[test]
    fn row_sweep_matches_per_cell_oracle_bitwise() {
        // Values spread over magnitudes, so a changed summation order
        // would show up in the low bits.
        let value =
            |i: usize| ((i * 2_654_435_761) % 10_007) as f64 * 1.37e-3 + (i % 5) as f64 * 1e3;
        for dims in [(1, 1, 1), (1, 5, 3), (7, 1, 2), (3, 4, 1), (8, 8, 8)] {
            let old: Vec<f64> = (0..dims.0 * dims.1 * dims.2).map(value).collect();
            for mask in 0..64usize {
                let halos: Vec<Option<Vec<f64>>> = (0..6)
                    .map(|face| {
                        (mask >> face & 1 == 1).then(|| {
                            (0..plane_len(face, dims))
                                .map(|i| value(1000 * (face + 1) + i))
                                .collect()
                        })
                    })
                    .collect();
                let want = jacobi_per_cell(dims, &old, &halos);
                let mut block = old.clone();
                jacobi_update(dims, &mut block, &mut Vec::new(), &halos);
                for (i, (g, w)) in block.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{dims:?} mask {mask:06b} cell {i}: got {g} want {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn jacobi_averages_with_halos() {
        // 1x1x1 block with value 0 and six halos of value 7 → (0+6*7)/7 = 6.
        let dims = (1, 1, 1);
        let mut block = vec![0.0];
        let mut scratch = Vec::new();
        let halos: Vec<Option<Vec<f64>>> = (0..6).map(|_| Some(vec![7.0])).collect();
        jacobi_update(dims, &mut block, &mut scratch, &halos);
        assert!((block[0] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_run_completes_and_is_deterministic() {
        let cfg = StencilConfig::tiny();
        let r1 = run_stencil(&cfg);
        let r2 = run_stencil(&cfg);
        assert_eq!(r1.checksum, r2.checksum);
        assert!(r1.total_ns > 0);
    }

    #[test]
    fn managed_strategies_match_baseline_numerics() {
        let mut cfg = StencilConfig::tiny();
        let base = run_stencil(&cfg);
        for strategy in [
            StrategyKind::SyncFetch,
            StrategyKind::single_io(),
            StrategyKind::multi_io(2),
        ] {
            cfg.strategy = strategy;
            cfg.placement = Placement::DdrOnly;
            let r = run_stencil(&cfg);
            assert!(
                (r.checksum - base.checksum).abs() < 1e-9,
                "{strategy:?} checksum {} != baseline {}",
                r.checksum,
                base.checksum
            );
            assert_eq!(
                r.stats.completed,
                (cfg.chare_count() * cfg.iterations) as u64
            );
        }
    }

    #[test]
    fn conservation_under_neumann_boundaries() {
        // With self-valued boundaries the update is an average, so the
        // global max cannot grow and the min cannot shrink.
        let cfg = StencilConfig {
            iterations: 5,
            ..StencilConfig::tiny()
        };
        let r = run_stencil(&cfg);
        let elems = cfg.total_bytes() as f64 / 8.0;
        assert!(r.checksum >= 0.0);
        assert!(r.checksum <= elems); // initial values are < 1.0
    }

    fn checkpointed(cfg: StencilConfig, every: u64) -> StencilConfig {
        StencilConfig {
            ooc: OocConfig {
                checkpoint_every: every,
                ..cfg.ooc
            },
            ..cfg
        }
    }

    #[test]
    fn multi_segment_run_matches_single_segment_run() {
        // Segments of 2, 2 and 1 iterations over a grid where every
        // chare has several neighbours, so halos for the next segment
        // race with the Start messages at each stop.
        let path = crate::segments::temp_checkpoint("stencil-segments");
        let cfg = checkpointed(
            StencilConfig {
                chares: (3, 3, 3),
                iterations: 5,
                strategy: StrategyKind::multi_io(2),
                placement: Placement::DdrOnly,
                ..StencilConfig::tiny()
            },
            2,
        );
        let run = Stencil::new(cfg.clone());
        run.run(Some(&path)).unwrap();
        assert_eq!(run.completed_iterations(), 5);
        assert_eq!(run.ooc().stats().completed, 27 * 5);
        assert_eq!(run.block_contents(), run_stencil_blocks(&cfg));
        run.shutdown();
        // The uneven last segment ends without a checkpoint.
        let resumed = Stencil::resume(cfg, &path).unwrap();
        assert_eq!(resumed.completed_iterations(), 4);
        resumed.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stencil_restored_mid_run_finishes_bitwise_identical() {
        let path = crate::segments::temp_checkpoint("stencil-midrun");
        let base = StencilConfig {
            iterations: 6,
            strategy: StrategyKind::single_io(),
            placement: Placement::DdrOnly,
            ..StencilConfig::tiny()
        };
        let cfg = checkpointed(base.clone(), 2);

        // Uninterrupted reference run (no checkpointing at all).
        let reference = Stencil::new(base);
        reference.run(None).unwrap();
        let want = reference.block_contents();
        reference.shutdown();

        // "Crashing" run: checkpoint every 2 iterations, abandon after 3
        // (the last checkpoint covers iterations 1-2).
        let crashed = Stencil::new(cfg.clone());
        for _ in 0..3 {
            crashed.step();
            if crashed
                .ooc()
                .should_checkpoint(crashed.completed_iterations())
            {
                crashed.ooc().checkpoint(&path).unwrap();
            }
        }
        crashed.shutdown();
        drop(crashed);

        // Resume from the checkpoint and run to completion.
        let resumed = Stencil::resume(cfg, &path).unwrap();
        assert_eq!(resumed.completed_iterations(), 2);
        resumed.run(Some(&path)).unwrap();
        assert_eq!(resumed.completed_iterations(), 6);
        assert_eq!(
            resumed.block_contents(),
            want,
            "restart must be bitwise exact"
        );
        assert!(resumed.ooc().stats().restores >= 1);
        resumed.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_refuses_a_checkpoint_of_another_configuration() {
        let path = crate::segments::temp_checkpoint("stencil-mismatch");
        let cfg = checkpointed(
            StencilConfig {
                iterations: 4,
                ..StencilConfig::tiny()
            },
            4,
        );
        let run = Stencil::new(cfg.clone());
        run.run(Some(&path)).unwrap();
        run.shutdown();

        let fewer_chares = StencilConfig {
            chares: (1, 2, 1),
            ..cfg.clone()
        };
        let fewer_iterations = StencilConfig {
            iterations: 3,
            ..cfg
        };
        for wrong in [fewer_chares, fewer_iterations] {
            assert!(matches!(
                Stencil::resume(wrong, &path),
                Err(MemError::CheckpointFailed { .. })
            ));
        }
        let _ = std::fs::remove_file(&path);
    }
}
