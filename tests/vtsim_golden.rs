//! Golden virtual-time results for `vtsim`.
//!
//! The simulator is deterministic: the order in which same-time events
//! are handled decides which task an IO thread or PE admits first, and
//! so every makespan. These reduced versions of the paper-scale sweeps
//! (`fig8_full_scale`, `fig9_full_scale`) plus a 128-PE stencil pin
//! that order: any change to the event loop that moves one event
//! changes one of the pinned numbers.

use hetrt::vtsim::{
    matmul_workload, stencil_workload, MatmulSpec, SimConfig, SimReport, SimStrategy, Simulator,
    StencilSpec, Workload,
};

const GIB: u64 = 1 << 30;
const MIB: u64 = 1 << 20;

/// What a case pins: makespan, fetches, evictions, total queue wait
/// and the sum of PE busy time, all in virtual ns or counts.
type Golden = (u64, u64, u64, u64, u64);

fn golden(r: &SimReport) -> Golden {
    (
        r.makespan_ns,
        r.fetches,
        r.evictions,
        r.queue_wait_ns,
        r.pe_busy_ns.iter().sum(),
    )
}

fn run(cfg: SimConfig, wl: Workload) -> Golden {
    golden(&Simulator::new(cfg, wl).run())
}

/// The three managed strategies of the paper's figures at `pes` PEs.
fn managed(pes: usize) -> [SimStrategy; 3] {
    [
        SimStrategy::IoThreads { threads: 1 },
        SimStrategy::SyncFetch,
        SimStrategy::IoThreads { threads: pes },
    ]
}

/// Fig. 8 stencil on the paper's KNL (as in `fig8_full_scale`), at 5
/// iterations: 64 PEs, 32 GB total, 4 streaming passes per task.
fn fig8_stencil(chares: (usize, usize, usize), block: u64, hbm_fraction: f64) -> Workload {
    let mut wl = stencil_workload(&StencilSpec {
        chares,
        block_bytes: block,
        iterations: 5,
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

#[test]
fn fig8_reduced_makespans_are_pinned() {
    // Per reduced-WSS row (2, 4, 8 GB): naive, single-io, sync,
    // multi-io(64).
    #[rustfmt::skip]
    const EXPECTED: [Golden; 12] = [
        (7_782_224_640, 0, 0, 3_568_805_739_152, 283_220_092_368),
        (13_336_534_447, 5_120, 5_120, 11_640_323_803_900, 16_380_963_840),
        (7_420_821_891, 5_120, 5_120, 6_448_279_338_148, 933_987_914_433),
        (4_445_173_514, 5_120, 5_120, 3_593_165_287_022, 559_703_757_750),
        (7_782_223_280, 0, 0, 1_550_473_960_309, 281_763_047_063),
        (13_339_733_852, 2_560, 2_560, 5_532_416_776_184, 16_380_958_720),
        (7_369_871_749, 2_560, 2_560, 3_028_805_448_764, 917_248_478_626),
        (4_466_208_596, 2_560, 2_560, 1_568_737_312_692, 555_276_548_464),
        (7_782_222_600, 0, 0, 484_219_098_773, 271_872_978_080),
        (13_346_131_381, 1_280, 1_280, 2_349_728_645_040, 16_380_954_880),
        (7_215_699_925, 1_280, 1_280, 1_276_197_069_008, 869_230_445_581),
        (4_508_281_384, 1_280, 1_280, 517_166_383_573, 546_422_467_979),
    ];
    let rows = [
        ((16, 8, 8), 32 * MIB),
        ((8, 8, 8), 64 * MIB),
        ((8, 8, 4), 128 * MIB),
    ];
    let mut got = Vec::new();
    for (chares, block) in rows {
        got.push(run(
            SimConfig::knl_paper(SimStrategy::Baseline),
            fig8_stencil(chares, block, 15.0 / 32.0),
        ));
        for strategy in managed(64) {
            got.push(run(
                SimConfig::knl_paper(strategy),
                fig8_stencil(chares, block, 0.0),
            ));
        }
    }
    assert_eq!(got, EXPECTED);
}

#[test]
fn fig9_grid16_makespans_are_pinned() {
    // Naive, ddr4-only, single-io, sync, multi-io(64).
    #[rustfmt::skip]
    const EXPECTED: [Golden; 5] = [
        (50_333_272_346, 0, 0, 9_143_380_259_808, 3_187_057_428_128),
        (92_997_561_472, 0, 0, 17_164_790_425_056, 5_906_371_931_296),
        (40_014_737_737, 4_608, 4_608, 184_589_872_087, 2_534_988_461_470),
        (40_160_220_773, 4_608, 4_608, 7_469_797_743_313, 2_580_386_726_445),
        (40_031_823_179, 4_608, 4_608, 77_311_018_930, 2_547_234_100_534),
    ];
    let grid = 16;
    let spec = |hbm_fraction| MatmulSpec {
        grid,
        block_bytes: 32 * MIB,
        pes: 64,
        hbm_fraction,
        flops_ns: 610_000_000,
        passes: 16,
    };
    let total = 3 * (grid * grid) as u64 * 32 * MIB;
    let mut got = vec![
        run(
            SimConfig::knl_paper(SimStrategy::Baseline),
            matmul_workload(&spec((15 * GIB) as f64 / total as f64)),
        ),
        run(
            SimConfig::knl_paper(SimStrategy::Baseline),
            matmul_workload(&spec(0.0)),
        ),
    ];
    for strategy in managed(64) {
        got.push(run(
            SimConfig::knl_paper(strategy),
            matmul_workload(&spec(0.0)),
        ));
    }
    assert_eq!(got, EXPECTED);
}

#[test]
fn wide_stencil_makespans_are_pinned() {
    // SyncFetch, then one IO thread per PE.
    #[rustfmt::skip]
    const EXPECTED: [Golden; 2] = [
        (10_183_389_560, 5_120, 5_120, 3_760_176_827_921, 2_531_856_576_756),
        (8_772_373_140, 5_120, 5_120, 2_115_987_807_604, 2_194_700_705_552),
    ];
    // 512 chares of 64 MiB (32 GB) over 128 PEs, 10 iterations.
    let wl = || {
        stencil_workload(&StencilSpec {
            chares: (8, 8, 8),
            block_bytes: 64 * MIB,
            iterations: 10,
            pes: 128,
            hbm_fraction: 0.0,
            flops_ns: 0,
        })
    };
    let got: Vec<Golden> = [
        SimStrategy::SyncFetch,
        SimStrategy::IoThreads { threads: 128 },
    ]
    .into_iter()
    .map(|strategy| {
        let mut cfg = SimConfig::knl_paper(strategy);
        cfg.pes = 128;
        run(cfg, wl())
    })
    .collect();
    assert_eq!(got, EXPECTED);
}
