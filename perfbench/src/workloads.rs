//! The four workloads: problem definitions, single-PE references,
//! timed solves with their correctness checks, and the per-layer
//! numbers a traced solve yields. NOTES.md records why each workload
//! exists and how it was sized.

use crate::metrics::{self, SolveCheck};
use crate::probes;
use crate::trace::Recorder;
use hetmem::{
    BlockId, FaultAction, FaultInjector, MemStats, NodeId, NodeSpec, Topology, DDR4, HBM,
};
use hetrt_core::{OocConfig, OocStats, Placement, StrategyKind};
use kernels::matmul::{run_matmul_with_init, MatmulConfig};
use kernels::stencil::{run_stencil, StencilConfig};
use projections::{LaneKind, SpanKind, TraceSummary};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use vtsim::{
    matmul_workload, stencil_workload, MatmulSpec, SimConfig, SimStrategy, Simulator, StencilSpec,
    Workload,
};

const MIB: f64 = 1024.0 * 1024.0;

/// A driver call still running after this long counts as timed out.
/// It is far above any healthy solve (the slowest is about 4 s).
pub const SOLVE_TIMEOUT: Duration = Duration::from_secs(60);

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig. 8 stencil: private use-once blocks, modelled copy pipeline.
    StencilPrivate,
    /// Fig. 9 matmul: shared read-only blocks, one IO thread.
    MatmulShared,
    /// Unthrottled tiny-block stencil: the runtime's CPU path.
    DispatchTiny,
    /// Both paper-scale sweeps in virtual time.
    VtsimPaper,
}

impl Kind {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Kind; 4] = [
        Kind::StencilPrivate,
        Kind::MatmulShared,
        Kind::DispatchTiny,
        Kind::VtsimPaper,
    ];

    /// The name used on the command line and in BENCHMARK.json.
    pub fn name(self) -> &'static str {
        match self {
            Kind::StencilPrivate => "stencil-private",
            Kind::MatmulShared => "matmul-shared",
            Kind::DispatchTiny => "dispatch-tiny",
            Kind::VtsimPaper => "vtsim-paper",
        }
    }

    /// Inverse of [`Kind::name`].
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A uniform value in `[0, 1)` from `(seed, stream, i, j)` (splitmix64).
pub fn unit(seed: u64, stream: u64, i: usize, j: usize) -> f64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ (j as u64).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// One named per-layer value. A workload reports only the metrics that
/// apply to it.
pub type LayerValue = (&'static str, f64);

/// Counts migrations by direction; never injects a fault.
#[derive(Debug, Default)]
struct MigrationCounter {
    to_hbm: AtomicU64,
    to_ddr: AtomicU64,
}

impl FaultInjector for MigrationCounter {
    fn on_migration(&self, _block: BlockId, dst: NodeId) -> FaultAction {
        let cell = if dst == HBM {
            &self.to_hbm
        } else {
            &self.to_ddr
        };
        cell.fetch_add(1, Ordering::Relaxed);
        FaultAction::Proceed
    }
}

/// A threaded problem: which driver, with which configuration.
#[derive(Clone)]
pub enum Problem {
    /// `run_stencil` with this configuration.
    Stencil(StencilConfig),
    /// `run_matmul_with_init` with this configuration; A and B are
    /// generated from the seed.
    Matmul(MatmulConfig, u64),
}

/// What a driver call reports, reduced to what the benchmark uses.
struct Outcome {
    total_ns: u64,
    checksum: f64,
    stats: OocStats,
    summary: TraceSummary,
    mem: MemStats,
}

impl Problem {
    fn new(kind: Kind, seed: u64) -> Problem {
        match kind {
            // 64 chares x 512 KiB = 32 MiB, twice the 16 MiB HBM.
            Kind::StencilPrivate => Problem::Stencil(StencilConfig {
                chares: (4, 4, 4),
                block: (64, 32, 32),
                iterations: 3,
                pes: 8,
                strategy: StrategyKind::multi_io(8),
                placement: Placement::DdrOnly,
                ooc: OocConfig::default(),
                topology: Topology::knl_flat_scaled(),
                compute_passes: 4,
                faults: None,
            }),
            // 3 x 100 blocks x 32 KiB = 9.4 MiB over 6 MiB of HBM.
            Kind::MatmulShared => Problem::Matmul(
                MatmulConfig {
                    grid: 10,
                    block: 64,
                    pes: 8,
                    strategy: StrategyKind::single_io(),
                    placement: Placement::DdrOnly,
                    ooc: OocConfig::default(),
                    topology: Topology::knl_flat_scaled_with(6 << 20, 96 << 20),
                    compute_passes: 6,
                    faults: None,
                },
                seed,
            ),
            // 128 chares x 4 KiB; HBM holds 64 blocks, half the set.
            // Both nodes run at 2^50 B/s: no time is modelled.
            Kind::DispatchTiny => Problem::Stencil(StencilConfig {
                chares: (8, 4, 4),
                block: (8, 8, 8),
                iterations: 400,
                pes: 1,
                strategy: StrategyKind::SyncFetch,
                placement: Placement::DdrOnly,
                ooc: OocConfig::default(),
                topology: Topology::new(vec![
                    NodeSpec::new("DDR4", 1 << 30, probes::UNTHROTTLED),
                    NodeSpec::new("MCDRAM", 64 * 4096, probes::UNTHROTTLED),
                ]),
                compute_passes: 1,
                faults: None,
            }),
            Kind::VtsimPaper => unreachable!("vtsim-paper has no threaded problem"),
        }
    }

    fn with_faults(&self, faults: Option<Arc<dyn FaultInjector>>) -> Problem {
        let mut p = self.clone();
        match &mut p {
            Problem::Stencil(c) => c.faults = faults,
            Problem::Matmul(c, _) => c.faults = faults,
        }
        p
    }

    /// The same problem on one PE, no runtime management, unthrottled
    /// memory: the numeric reference.
    fn reference(&self) -> Problem {
        let slice = self.topology().slice_bytes();
        let mut p = self.with_faults(None);
        match &mut p {
            Problem::Stencil(c) => {
                c.pes = 1;
                c.strategy = StrategyKind::Baseline;
                c.placement = Placement::DdrOnly;
                c.topology = probes::unthrottled_topology(slice);
            }
            Problem::Matmul(c, _) => {
                c.pes = 1;
                c.strategy = StrategyKind::Baseline;
                c.placement = Placement::DdrOnly;
                c.topology = probes::unthrottled_topology(slice);
            }
        }
        p
    }

    fn topology(&self) -> &Topology {
        match self {
            Problem::Stencil(c) => &c.topology,
            Problem::Matmul(c, _) => &c.topology,
        }
    }

    fn pes(&self) -> usize {
        match self {
            Problem::Stencil(c) => c.pes,
            Problem::Matmul(c, _) => c.pes,
        }
    }

    fn block_bytes(&self) -> usize {
        match self {
            Problem::Stencil(c) => c.block_bytes(),
            Problem::Matmul(c, _) => c.block_bytes(),
        }
    }

    /// Tasks one solve completes.
    fn tasks(&self) -> u64 {
        match self {
            Problem::Stencil(c) => (c.chare_count() * c.iterations) as u64,
            Problem::Matmul(c, _) => (c.grid * c.grid) as u64,
        }
    }

    /// Declared dependences over all tasks: one per stencil task; a
    /// whole A row, B column and C block per matmul task.
    fn declared_deps(&self) -> u64 {
        match self {
            Problem::Stencil(_) => self.tasks(),
            Problem::Matmul(c, _) => self.tasks() * (2 * c.grid + 1) as u64,
        }
    }

    /// Checksum tolerance, as the figure binaries use.
    fn rel_tol(&self) -> f64 {
        match self {
            Problem::Stencil(_) => 1e-9,
            Problem::Matmul(..) => 1e-6,
        }
    }

    fn run(&self) -> Outcome {
        match self {
            Problem::Stencil(c) => {
                let r = run_stencil(c);
                Outcome {
                    total_ns: r.total_ns,
                    checksum: r.checksum,
                    stats: r.stats,
                    summary: r.summary,
                    mem: r.mem_stats,
                }
            }
            Problem::Matmul(c, seed) => {
                let (sa, sb) = (*seed, *seed);
                let r = run_matmul_with_init(
                    c,
                    move |i, j| unit(sa, 0, i, j),
                    move |i, j| unit(sb, 1, i, j),
                );
                Outcome {
                    total_ns: r.total_ns,
                    checksum: r.checksum,
                    stats: r.stats,
                    summary: r.summary,
                    mem: r.mem_stats,
                }
            }
        }
    }
}

/// Why a driver call produced nothing.
enum Failure {
    /// Still running after [`SOLVE_TIMEOUT`].
    TimedOut,
    /// Panicked, with the panic message.
    Panicked(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::TimedOut => write!(f, "timed out after {} s", SOLVE_TIMEOUT.as_secs()),
            Failure::Panicked(msg) => write!(f, "driver panicked: {msg}"),
        }
    }
}

/// Run `f` on its own thread and return its result with its wall time,
/// in seconds. On timeout the thread is left running and the caller
/// must end the process.
fn guarded<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Result<(T, f64), Failure> {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let t0 = Instant::now();
        let out = f();
        let wall = t0.elapsed().as_secs_f64();
        let _ = tx.send((out, wall));
    });
    match rx.recv_timeout(SOLVE_TIMEOUT) {
        Err(mpsc::RecvTimeoutError::Timeout) => Err(Failure::TimedOut),
        received => match (received, handle.join()) {
            (Ok(v), Ok(())) => Ok(v),
            (_, Err(e)) => Err(Failure::Panicked(
                e.downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "(non-string payload)".into()),
            )),
            (Err(_), Ok(())) => Err(Failure::Panicked("ended without a result".into())),
        },
    }
}

/// Restart the process's resident-set high-water mark (`VmHWM`) from
/// its current resident set, so the next reading covers one solve.
fn reset_peak_rss() {
    // Best effort: where the kernel refuses, the reading below simply
    // covers the whole process lifetime instead.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's resident-set high-water mark (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One timed solve of any workload.
pub struct Solve {
    /// Solve time, s (see NOTES.md for each workload's definition).
    pub solve_s: f64,
    /// Set-up time, s.
    pub setup_s: f64,
    /// Resident-set high-water mark over the solve and its set-up, MiB.
    pub peak_rss_mib: f64,
    /// Every check this solve missed.
    pub misses: Vec<String>,
    /// True when the driver call timed out: the run must end now.
    pub timed_out: bool,
    /// Per-layer values, from traced solves only.
    pub layers: Vec<LayerValue>,
}

impl Solve {
    fn failed(reason: String, timed_out: bool) -> Solve {
        Solve {
            solve_s: 0.0,
            setup_s: 0.0,
            peak_rss_mib: 0.0,
            misses: vec![reason],
            timed_out,
            layers: Vec::new(),
        }
    }
}

/// A workload prepared for solving: the problem and its reference.
pub enum Prepared {
    /// A threaded driver workload.
    Threaded {
        /// Which workload.
        kind: Kind,
        /// Its problem.
        problem: Box<Problem>,
        /// Single-PE reference checksum.
        reference: f64,
    },
    /// The vtsim sweep.
    Vtsim,
}

/// Build the workload's inputs and compute its reference.
pub fn prepare(kind: Kind, seed: u64, rec: &Recorder) -> Result<Prepared, String> {
    if kind == Kind::VtsimPaper {
        return Ok(Prepared::Vtsim);
    }
    let problem = rec.span("setup::problem", || Problem::new(kind, seed));
    let reference = problem.reference();
    let (out, _) = rec.span("kernels::reference", || {
        guarded(move || reference.run().checksum).map_err(|e| e.to_string())
    })?;
    Ok(Prepared::Threaded {
        kind,
        problem: Box::new(problem),
        reference: out,
    })
}

impl Prepared {
    /// One timed solve, traced when `rec` is enabled.
    pub fn solve(&self, rec: &Recorder) -> Solve {
        match self {
            Prepared::Threaded {
                kind,
                problem,
                reference,
            } => threaded_solve(*kind, problem, *reference, rec),
            Prepared::Vtsim => vtsim_solve(rec),
        }
    }

    /// Per-run layer probes (traced run only), at the workload's block
    /// size and PE count.
    pub fn probes(&self, seed: u64, rec: &Recorder) -> Vec<LayerValue> {
        let Prepared::Threaded { kind, problem, .. } = self else {
            return Vec::new();
        };
        let p = problem.as_ref();
        let bytes = p.block_bytes();
        let slice = p.topology().slice_bytes();
        let mut out = vec![
            (
                "hetmem.charge_ns",
                rec.span("hetmem::BandwidthRegulator::charge", || {
                    probes::charge_ns(bytes as u64, slice)
                }),
            ),
            (
                "hetmem.access_ns",
                rec.span("hetmem::BlockRegistry::access", || {
                    probes::access_ns(bytes, slice)
                }),
            ),
            (
                "hetmem.migrate_gibps",
                rec.span("hetmem::MigrationEngine::migrate", || {
                    probes::migrate_gibps(bytes, slice)
                }),
            ),
            (
                "converse.dispatch_ns",
                rec.span("converse::send_dispatch", || probes::dispatch_ns(p.pes())),
            ),
            (
                "projections.record_ns",
                rec.span("projections::Tracer::record", probes::record_ns),
            ),
        ];
        if let (Kind::MatmulShared, Problem::Matmul(c, _)) = (kind, p) {
            let gflops = rec.span("kernels::dgemm_block", || {
                probes::dgemm_gflops(c.block, seed)
            });
            out.push(("kernels.dgemm_gflops", gflops));
        }
        out
    }

    /// Lane-time per task the probes do not explain (dispatch-tiny
    /// only): `core.cpu_us_per_task` and `core.unaccounted_us_per_task`.
    pub fn unaccounted(&self, layers: &[LayerValue], probes: &[LayerValue]) -> Vec<LayerValue> {
        let get =
            |xs: &[LayerValue], n: &str| xs.iter().find(|(k, _)| *k == n).map_or(0.0, |(_, v)| *v);
        let Prepared::Threaded {
            kind: Kind::DispatchTiny,
            problem,
            ..
        } = self
        else {
            return Vec::new();
        };
        let Problem::Stencil(c) = problem.as_ref() else {
            return Vec::new();
        };
        let tasks = problem.tasks() as f64;
        let chares = c.chare_count() as f64;
        let halos: usize = (0..c.chare_count())
            .map(|i| {
                let (cx, cy, cz) = c.chares;
                let (x, y, z) = (i % cx, (i / cx) % cy, i / (cx * cy));
                [x > 0, x + 1 < cx, y > 0, y + 1 < cy, z > 0, z + 1 < cz]
                    .iter()
                    .filter(|b| **b)
                    .count()
            })
            .sum::<usize>()
            * c.iterations;
        let migrations =
            get(layers, "hetmem.migrations.to_hbm") + get(layers, "hetmem.migrations.to_ddr");
        let migrate_ns = problem.block_bytes() as f64
            / (get(probes, "hetmem.migrate_gibps") * f64::from(1u32 << 30))
            * 1e9;
        // Per solve: two regulator charges per pass per task (read and
        // write); one block access per task plus one per chare at Start;
        // deliveries of Start, every halo, and each compute message twice
        // (intercepted, then admitted).
        let accounted_ns = 2.0 * c.compute_passes as f64 * tasks * get(probes, "hetmem.charge_ns")
            + (tasks + chares) * get(probes, "hetmem.access_ns")
            + migrations * migrate_ns
            + (chares + halos as f64 + 2.0 * tasks) * get(probes, "converse.dispatch_ns")
            + get(layers, "projections.spans") * get(probes, "projections.record_ns");
        let cpu_us = get(layers, "core.us_per_task") * c.pes as f64;
        vec![
            ("core.cpu_us_per_task", cpu_us),
            (
                "core.unaccounted_us_per_task",
                cpu_us - accounted_ns / tasks / 1e3,
            ),
        ]
    }
}

fn threaded_solve(kind: Kind, base: &Problem, reference: f64, rec: &Recorder) -> Solve {
    let counter = Arc::new(MigrationCounter::default());
    let problem = if rec.enabled() {
        base.with_faults(Some(Arc::clone(&counter) as Arc<dyn FaultInjector>))
    } else {
        base.clone()
    };
    let driver = match kind {
        Kind::MatmulShared => "kernels::run_matmul_with_init",
        _ => "kernels::run_stencil",
    };
    let expected_tasks = problem.tasks();
    reset_peak_rss();
    let result = rec.span(driver, || guarded(move || problem.run()));
    let peak_rss_mib = peak_rss_mib();
    let (out, wall_s) = match result {
        Ok(v) => v,
        Err(e) => {
            return Solve::failed(e.to_string(), matches!(e, Failure::TimedOut));
        }
    };
    let solve_s = out.total_ns as f64 / 1e9;
    let hbm = &out.mem.nodes[HBM.index()];
    let check = SolveCheck {
        checksum: out.checksum,
        reference,
        rel_tol: base.rel_tol(),
        completed: (out.stats.completed, expected_tasks),
        degraded: out.stats.degraded_tasks,
        rejected: out.stats.rejected_tasks,
        hbm_peak: (hbm.peak_used_bytes, hbm.capacity_bytes),
    };
    let layers = if rec.enabled() {
        rec.counters(
            driver,
            "report",
            format!(
                "{{\"total_ns\":{},\"wall_ns\":{},\"checksum\":{},\"reference\":{}}}",
                out.total_ns,
                (wall_s * 1e9) as u64,
                out.checksum,
                reference
            ),
        );
        rec.counters(driver, "OocStats", json(&out.stats));
        rec.counters(driver, "MemStats", json(&out.mem));
        rec.counters(driver, "TraceSummary", json(&out.summary));
        layer_values(base, &out, &counter)
    } else {
        Vec::new()
    };
    Solve {
        solve_s,
        setup_s: (wall_s - solve_s).max(0.0),
        peak_rss_mib,
        misses: check.misses(),
        timed_out: false,
        layers,
    }
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("counter snapshot serialises")
}

/// Per-layer numbers of one traced threaded solve.
fn layer_values(p: &Problem, o: &Outcome, migrations: &MigrationCounter) -> Vec<LayerValue> {
    let ddr = &o.mem.nodes[DDR4.index()];
    let hbm = &o.mem.nodes[HBM.index()];
    let total = &o.summary.total;
    let solve_s = o.total_ns as f64 / 1e9;
    let idle_ns: u64 = o
        .summary
        .lanes
        .iter()
        .filter(|l| l.lane.kind == LaneKind::Worker)
        .map(|l| l.breakdown.get(SpanKind::Idle))
        .sum();
    let spans: usize = o.summary.lanes.iter().map(|l| l.span_count).sum();
    let s = |kind: SpanKind| total.get(kind) as f64 / 1e9;
    let st = &o.stats;
    vec![
        ("hetmem.ddr.charged_mib", ddr.bytes_charged as f64 / MIB),
        ("hetmem.hbm.charged_mib", hbm.bytes_charged as f64 / MIB),
        (
            "hetmem.hbm_share",
            metrics::hbm_share(hbm.bytes_charged, ddr.bytes_charged),
        ),
        ("hetmem.ddr.wait_s", ddr.charge_wait_ns as f64 / 1e9),
        ("hetmem.hbm.wait_s", hbm.charge_wait_ns as f64 / 1e9),
        ("hetmem.hbm.peak_mib", hbm.peak_used_bytes as f64 / MIB),
        (
            "hetmem.migrations.to_hbm",
            migrations.to_hbm.load(Ordering::Relaxed) as f64,
        ),
        (
            "hetmem.migrations.to_ddr",
            migrations.to_ddr.load(Ordering::Relaxed) as f64,
        ),
        (
            "converse.worker_idle_frac",
            metrics::ratio(idle_ns as f64 / 1e9, p.pes() as f64 * solve_s),
        ),
        ("converse.entry_s", s(SpanKind::Entry)),
        ("core.fetches", st.fetches as f64),
        ("core.evictions", st.evictions as f64),
        ("core.fetch_mib", st.fetch_bytes as f64 / MIB),
        (
            "core.reuse_ratio",
            metrics::reuse_ratio(st.fetches, p.declared_deps()),
        ),
        ("core.queue_wait_ms", st.mean_queue_wait_ms()),
        (
            "core.no_space_ratio",
            metrics::no_space_ratio(st.no_space_events, st.fetches),
        ),
        ("core.fetch_s", s(SpanKind::Fetch)),
        ("core.evict_s", s(SpanKind::Evict)),
        ("core.pre_s", s(SpanKind::Preprocess)),
        ("core.post_s", s(SpanKind::Postprocess)),
        (
            "core.us_per_task",
            metrics::us_per_task(solve_s, st.completed),
        ),
        ("kernels.compute_s", s(SpanKind::Compute)),
        ("projections.spans", spans as f64),
    ]
}

// ---------------------------------------------------------------- vtsim

const GIB: u64 = 1 << 30;

/// Fig. 8 sweep (`fig8_full_scale`): reduced-WSS label, chare grid,
/// block bytes; 64 PEs, 20 iterations, 4 streaming passes per task.
const FIG8_ROWS: [(&str, (usize, usize, usize), u64); 3] = [
    ("2", (16, 8, 8), 32 << 20),
    ("4", (8, 8, 8), 64 << 20),
    ("8", (8, 8, 4), 128 << 20),
];
/// Fig. 9 sweep (`fig9_full_scale`): grids giving 24–54 GB totals.
const FIG9_GRIDS: [usize; 4] = [16, 20, 22, 24];

/// EXPERIMENTS.md, Fig. 8 vtsim table: naive seconds, then speedups of
/// single-io, sync, multi-io(64), at the printed precision.
const FIG8_TABLE: [[&str; 4]; 3] = [
    ["31.1", "0.58", "1.04", "1.76"],
    ["31.1", "0.58", "1.05", "1.75"],
    ["31.1", "0.58", "1.05", "1.75"],
];
/// EXPERIMENTS.md, Fig. 9 vtsim table: naive seconds, then speedups of
/// ddr4-only, single-io, sync, multi-io(64).
const FIG9_TABLE: [[&str; 5]; 4] = [
    ["50.3", "0.54", "1.26", "1.25", "1.26"],
    ["134.5", "0.72", "1.55", "1.54", "1.55"],
    ["182.4", "0.76", "1.67", "1.67", "1.67"],
    ["248.4", "0.80", "1.85", "1.85", "1.63"],
];

/// Virtual makespans (ns) of every simulation in sweep order: Fig. 8
/// rows of (naive, single-io, sync, multi-io), then Fig. 9 rows of
/// (naive, ddr4-only, single-io, sync, multi-io). The simulator is
/// deterministic, so these must match exactly.
const EXPECTED_MAKESPAN_NS: [u64; 32] = [
    // fig8 reduced WSS 2 GB
    31_128_898_560,
    53_336_539_567,
    29_836_115_331,
    17_717_580_554,
    // fig8 reduced WSS 4 GB
    31_128_893_120,
    53_339_738_972,
    29_785_142_149,
    17_738_607_956,
    // fig8 reduced WSS 8 GB
    31_128_890_400,
    53_346_132_661,
    29_630_954_965,
    17_780_673_064,
    // fig9 grid 16
    50_333_272_346,
    92_997_561_472,
    40_014_737_737,
    40_160_220_773,
    40_031_823_179,
    // fig9 grid 20
    134_491_118_132,
    186_216_122_255,
    86_759_650_565,
    87_085_213_131,
    86_787_824_306,
    // fig9 grid 22
    182_423_708_451,
    240_781_570_936,
    109_402_464_271,
    109_530_859_472,
    109_259_805_791,
    // fig9 grid 24
    248_419_205_325,
    312_418_019_968,
    134_038_786_854,
    134_106_545_734,
    152_508_743_945,
];

/// One simulation of the sweep: strategy, and how to build its input.
struct SimCase {
    strategy: SimStrategy,
    input: SimInput,
}

enum SimInput {
    Stencil {
        chares: (usize, usize, usize),
        block: u64,
        hbm_fraction: f64,
    },
    Matmul {
        grid: usize,
        hbm_fraction: f64,
    },
}

impl SimInput {
    fn build(&self) -> Workload {
        match *self {
            SimInput::Stencil {
                chares,
                block,
                hbm_fraction,
            } => {
                let mut wl = stencil_workload(&StencilSpec {
                    chares,
                    block_bytes: block,
                    iterations: 20,
                    pes: 64,
                    hbm_fraction,
                    flops_ns: 0,
                });
                for t in &mut wl.tasks {
                    for c in &mut t.charges {
                        c.read_bytes *= 4;
                        c.write_bytes *= 4;
                    }
                }
                wl
            }
            SimInput::Matmul { grid, hbm_fraction } => matmul_workload(&MatmulSpec {
                grid,
                block_bytes: 32 << 20,
                pes: 64,
                hbm_fraction,
                flops_ns: 610_000_000,
                passes: 16,
            }),
        }
    }
}

fn sim_cases() -> Vec<SimCase> {
    let managed = [
        SimStrategy::IoThreads { threads: 1 },
        SimStrategy::SyncFetch,
        SimStrategy::IoThreads { threads: 64 },
    ];
    let mut cases = Vec::new();
    for &(_, chares, block) in &FIG8_ROWS {
        let stencil = |hbm_fraction| SimInput::Stencil {
            chares,
            block,
            hbm_fraction,
        };
        cases.push(SimCase {
            strategy: SimStrategy::Baseline,
            input: stencil(15.0 / 32.0),
        });
        cases.extend(managed.iter().map(|&strategy| SimCase {
            strategy,
            input: stencil(0.0),
        }));
    }
    for &grid in &FIG9_GRIDS {
        let total = 3 * (grid * grid) as u64 * (32 << 20);
        let matmul = |hbm_fraction| SimInput::Matmul { grid, hbm_fraction };
        cases.push(SimCase {
            strategy: SimStrategy::Baseline,
            input: matmul((15 * GIB) as f64 / total as f64),
        });
        cases.push(SimCase {
            strategy: SimStrategy::Baseline,
            input: matmul(0.0),
        });
        cases.extend(managed.iter().map(|&strategy| SimCase {
            strategy,
            input: matmul(0.0),
        }));
    }
    cases
}

/// Checks of one sweep's makespans against the stored values and the
/// EXPERIMENTS.md tables.
fn vtsim_misses(makespans: &[u64]) -> Vec<String> {
    let mut out = Vec::new();
    if makespans != EXPECTED_MAKESPAN_NS {
        out.push(format!(
            "virtual makespans {makespans:?} differ from the stored values"
        ));
    }
    let speedup = |base: u64, this: u64| format!("{:.2}", base as f64 / this as f64);
    let secs = |ns: u64| format!("{:.1}", ns as f64 / 1e9);
    let (fig8, fig9) = makespans.split_at(12);
    for ((ms, want), (label, ..)) in fig8.chunks(4).zip(FIG8_TABLE).zip(FIG8_ROWS) {
        let got = [
            secs(ms[0]),
            speedup(ms[0], ms[1]),
            speedup(ms[0], ms[2]),
            speedup(ms[0], ms[3]),
        ];
        if got != want {
            out.push(format!(
                "fig8 reduced WSS {label} GB: {got:?}, EXPERIMENTS.md has {want:?}"
            ));
        }
    }
    for ((ms, want), grid) in fig9.chunks(5).zip(FIG9_TABLE).zip(FIG9_GRIDS) {
        let got = [
            secs(ms[0]),
            speedup(ms[0], ms[1]),
            speedup(ms[0], ms[2]),
            speedup(ms[0], ms[3]),
            speedup(ms[0], ms[4]),
        ];
        if got != want {
            out.push(format!(
                "fig9 grid {grid}: {got:?}, EXPERIMENTS.md has {want:?}"
            ));
        }
    }
    out
}

fn vtsim_solve(rec: &Recorder) -> Solve {
    let (mut setup_s, mut solve_s) = (0.0, 0.0);
    let mut makespans = Vec::new();
    let (mut tasks, mut fetches, mut util) = (0u64, 0u64, 0.0);
    let cases = sim_cases();
    reset_peak_rss();
    for case in &cases {
        let t0 = Instant::now();
        let wl = rec.span("vtsim::workload", || case.input.build());
        let sim = rec.span("vtsim::Simulator::new", || {
            Simulator::new(SimConfig::knl_paper(case.strategy), wl)
        });
        let t1 = Instant::now();
        let report = rec.span("vtsim::Simulator::run", || sim.run());
        let t2 = Instant::now();
        setup_s += (t1 - t0).as_secs_f64();
        solve_s += (t2 - t1).as_secs_f64();
        makespans.push(report.makespan_ns);
        tasks += report.tasks as u64;
        fetches += report.fetches;
        util += report.pe_utilization();
        if rec.enabled() {
            rec.counters("vtsim::Simulator::run", "SimReport", json(&report));
        }
    }
    let layers = if rec.enabled() {
        vec![
            ("vtsim.tasks", tasks as f64),
            ("vtsim.fetches", fetches as f64),
            ("vtsim.pe_util", util / cases.len() as f64),
            ("vtsim.tasks_per_s", metrics::ratio(tasks as f64, solve_s)),
        ]
    } else {
        Vec::new()
    };
    Solve {
        solve_s,
        setup_s,
        peak_rss_mib: peak_rss_mib(),
        misses: vtsim_misses(&makespans),
        timed_out: false,
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_makespans_reproduce_the_experiments_tables() {
        assert!(vtsim_misses(&EXPECTED_MAKESPAN_NS).is_empty());
        assert_eq!(sim_cases().len(), EXPECTED_MAKESPAN_NS.len());
        // A 1% slower multi-io run in the first Fig. 8 row changes its
        // printed speedup as well as the stored value.
        let mut slower = EXPECTED_MAKESPAN_NS;
        slower[3] += slower[3] / 100;
        assert_eq!(vtsim_misses(&slower).len(), 2);
    }

    #[test]
    fn geometry_matches_the_notes() {
        let stencil = Problem::new(Kind::StencilPrivate, 1);
        assert_eq!((stencil.tasks(), stencil.block_bytes()), (192, 512 << 10));
        let matmul = Problem::new(Kind::MatmulShared, 1);
        assert_eq!((matmul.tasks(), matmul.declared_deps()), (100, 2100));
        let tiny = Problem::new(Kind::DispatchTiny, 1);
        assert_eq!((tiny.tasks(), tiny.block_bytes()), (51_200, 4096));
    }

    #[test]
    fn unit_is_seeded_and_in_range() {
        let xs: Vec<f64> = (0..1000).map(|i| unit(7, 0, i, 3)).collect();
        assert!(xs.iter().all(|x| (0.0..1.0).contains(x)));
        assert_eq!(unit(7, 0, 5, 3), unit(7, 0, 5, 3));
        assert_ne!(unit(7, 0, 5, 3), unit(8, 0, 5, 3));
        assert_ne!(unit(7, 0, 5, 3), unit(7, 1, 5, 3));
    }
}
