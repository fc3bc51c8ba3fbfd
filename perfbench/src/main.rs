//! `perfbench` — the hetrt benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stencil-private|matmul-shared|dispatch-tiny|vtsim-paper|all> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Runs one workload for `--seconds`, checks every solve, prints each
//! metric by name and unit, and ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` alternates untraced and traced
//! solves, runs the layer probes, writes the benchmark-side spans to
//! `perfbench/out/`, and reports the per-layer metrics. `--workload all`
//! runs every workload in turn. See NOTES.md.

mod metrics;
mod probes;
mod trace;
mod workloads;

use serde::Serialize;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Recorder;
use workloads::{Kind, LayerValue, Solve};

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 4] = [
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("success_ratio", "ratio"),
];

/// Per-layer metrics, reported with `--trace 1`.
const PER_LAYER: [(&str, &str); 39] = [
    ("hetmem.ddr.charged_mib", "MiB"),
    ("hetmem.hbm.charged_mib", "MiB"),
    ("hetmem.hbm_share", "ratio"),
    ("hetmem.ddr.wait_s", "s"),
    ("hetmem.hbm.wait_s", "s"),
    ("hetmem.hbm.peak_mib", "MiB"),
    ("hetmem.migrations.to_hbm", "count"),
    ("hetmem.migrations.to_ddr", "count"),
    ("hetmem.charge_ns", "ns"),
    ("hetmem.access_ns", "ns"),
    ("hetmem.migrate_gibps", "GiB/s"),
    ("converse.worker_idle_frac", "ratio"),
    ("converse.entry_s", "s"),
    ("converse.dispatch_ns", "ns"),
    ("core.fetches", "count"),
    ("core.evictions", "count"),
    ("core.fetch_mib", "MiB"),
    ("core.reuse_ratio", "ratio"),
    ("core.queue_wait_ms", "ms"),
    ("core.no_space_ratio", "ratio"),
    ("core.fetch_s", "s"),
    ("core.evict_s", "s"),
    ("core.pre_s", "s"),
    ("core.post_s", "s"),
    ("core.us_per_task", "us"),
    ("core.cpu_us_per_task", "us"),
    ("core.unaccounted_us_per_task", "us"),
    ("kernels.compute_s", "s"),
    ("kernels.dgemm_gflops", "GFLOP/s"),
    ("projections.spans", "count"),
    ("projections.record_ns", "ns"),
    ("vtsim.tasks", "count"),
    ("vtsim.fetches", "count"),
    ("vtsim.pe_util", "ratio"),
    ("vtsim.tasks_per_s", "1/s"),
    ("trace.solve_s", "s"),
    ("trace.untraced_solve_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.solves", "count"),
];

/// One reported metric.
#[derive(Debug, Serialize)]
struct Metric {
    value: f64,
    unit: String,
}

/// The result line: the last line of standard output.
#[derive(Debug, Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

/// A metric's name, value (`None` where it does not apply) and note.
type Row = (&'static str, Option<f64>, String);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 600),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && Kind::parse(&args.workload).is_none() {
        let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        return Err(format!(
            "--workload must be one of {} or all, not {:?}",
            names.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// Pin glibc's mmap threshold at its 128 KiB default. Left dynamic,
/// glibc raises it after each large free; freed multi-MiB buffers
/// (span vectors, migration buffers) then stay in the heap, and a
/// solve's peak RSS depends on how many solves ran before it (it
/// stepped from 25 to 32 MiB within one `dispatch-tiny` run). Pinned,
/// `peak_rss_mib` measures live memory.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` only sets an allocator tunable; it is called
    // first thing in `main`, before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() -> ExitCode {
    pin_mmap_threshold();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let line = match Kind::parse(&args.workload) {
        Some(kind) => run(kind, &args),
        None => run_all(&args),
    };
    println!(
        "{}",
        serde_json::to_string(&line).expect("result line serialises")
    );
    if line.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(kind: Kind, args: &Args) -> ResultLine {
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_parallelism={}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
    );
    let rec = Recorder::new(args.trace);
    let untraced_rec = Recorder::new(false);
    let mut tally = metrics::Tally::default();
    let (mut untraced, mut traced): (Vec<Solve>, Vec<Solve>) = (Vec::new(), Vec::new());
    let mut probes = Vec::new();

    match workloads::prepare(kind, args.seed, &rec) {
        Err(e) => tally.record(&[format!("reference: {e}")]),
        Ok(prepared) => {
            let budget = Duration::from_secs(args.seconds);
            let start = Instant::now();
            loop {
                // The traced run alternates untraced and traced solves
                // so both see the same host conditions.
                let traced_turn = args.trace && traced.len() < untraced.len();
                let solve = if traced_turn {
                    rec.span("benchmark::solve", || prepared.solve(&rec))
                } else {
                    prepared.solve(&untraced_rec)
                };
                tally.record(&solve.misses);
                let fatal = solve.timed_out;
                if traced_turn {
                    traced.push(solve);
                } else {
                    untraced.push(solve);
                }
                if fatal {
                    break;
                }
                if start.elapsed() >= budget && (!args.trace || !traced.is_empty()) {
                    break;
                }
            }
            if args.trace && tally.failed == 0 {
                probes = prepared.probes(args.seed, &rec);
                let layers = layer_medians(&traced.iter().collect::<Vec<_>>());
                probes.extend(prepared.unaccounted(&layers, &probes));
            }
        }
    }

    for r in &tally.reasons {
        println!("FAILED {r}");
    }
    // Timings come from solves that passed every check.
    let (untraced, traced) = (passed(&untraced), passed(&traced));
    let (table, values): (&[(&str, &str)], Vec<Row>) = if args.trace {
        let solve_traced = summary(&traced, |s| s.solve_s);
        let solve_untraced = summary(&untraced, |s| s.solve_s);
        let overhead = solve_traced
            .zip(solve_untraced)
            .map(|(t, u)| t.median - u.median);
        let mut values: Vec<_> = layer_medians(&traced)
            .into_iter()
            .chain(probes)
            .map(|(n, v)| (n, Some(v), String::new()))
            .collect();
        values.extend([
            (
                "trace.solve_s",
                solve_traced.map(|s| s.median),
                String::new(),
            ),
            (
                "trace.untraced_solve_s",
                solve_untraced.map(|s| s.median),
                String::new(),
            ),
            ("trace.overhead_s", overhead, String::new()),
            ("trace.solves", Some(traced.len() as f64), String::new()),
        ]);
        (&PER_LAYER, values)
    } else {
        let solve = summary(&untraced, |s| s.solve_s);
        let setup = summary(&untraced, |s| s.setup_s);
        let rss = summary(&untraced, |s| s.peak_rss_mib);
        for (name, f) in [
            ("solve_s", (|s: &Solve| s.solve_s) as fn(&Solve) -> f64),
            ("peak_rss_mib", |s| s.peak_rss_mib),
        ] {
            let xs: Vec<String> = untraced.iter().map(|s| format!("{:.4}", f(s))).collect();
            println!("  {name} samples: {}", xs.join(" "));
        }
        let describe = |s: Option<metrics::Summary>| {
            s.map_or("no successful solve".into(), |s| match s.tail {
                Some((p, v)) => format!("median of n={}, p{p} {v:.6}", s.n),
                None => format!(
                    "median of n={} (no percentile has 10 samples beyond it)",
                    s.n
                ),
            })
        };
        let fail = format!(
            "fail_ratio {} = {} failed / {} attempted",
            tally.fail_ratio(),
            tally.failed,
            tally.attempted
        );
        let values = vec![
            ("solve_s", solve.map(|s| s.median), describe(solve)),
            ("setup_s", setup.map(|s| s.median), describe(setup)),
            (
                "peak_rss_mib",
                rss.map(|s| s.median),
                format!("VmHWM per solve, {}", describe(rss)),
            ),
            ("success_ratio", Some(1.0 - tally.fail_ratio()), fail),
        ];
        (&END_TO_END, values)
    };

    // Every metric of the table is reported; one that does not apply
    // to this workload reads 0 in the result line and n/a here.
    let mut metrics = BTreeMap::new();
    for &(name, unit) in table {
        let (value, note) = values
            .iter()
            .find(|(n, ..)| *n == name)
            .map_or((None, ""), |(_, v, note)| (*v, note.as_str()));
        match value {
            Some(v) => println!("  {name:<30} {v:>16.6} {unit:<8} {note}"),
            None => println!("  {name:<30} {:>16} {unit:<8} {note}", "n/a"),
        }
        metrics.insert(
            name.to_string(),
            Metric {
                value: value.unwrap_or(0.0),
                unit: unit.to_string(),
            },
        );
    }
    if args.trace {
        write_trace(kind, args, &rec);
    }
    ResultLine {
        correct: tally.failed == 0 && tally.attempted > 0,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics,
    }
}

fn passed(xs: &[Solve]) -> Vec<&Solve> {
    xs.iter().filter(|s| s.misses.is_empty()).collect()
}

fn summary(xs: &[&Solve], f: impl Fn(&Solve) -> f64) -> Option<metrics::Summary> {
    metrics::summarize(&xs.iter().map(|s| f(s)).collect::<Vec<_>>())
}

/// Median of each per-layer value over the traced solves.
fn layer_medians(traced: &[&Solve]) -> Vec<LayerValue> {
    let Some(first) = traced.first() else {
        return Vec::new();
    };
    first
        .layers
        .iter()
        .map(|&(name, _)| {
            let xs: Vec<f64> = traced
                .iter()
                .filter_map(|s| s.layers.iter().find(|(n, _)| *n == name))
                .map(|(_, v)| *v)
                .collect();
            (name, metrics::median(&xs).expect("the first solve has it"))
        })
        .collect()
}

fn write_trace(kind: Kind, args: &Args, rec: &Recorder) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-seed{}.json", kind.name(), args.seed));
    let header = format!(
        "\"workload\":\"{}\",\"seed\":{},\"seconds\":{}",
        kind.name(),
        args.seed,
        args.seconds
    );
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, rec.to_json(&header))) {
        Ok(()) => println!("  spans written to {}", path.display()),
        Err(e) => println!("  could not write {}: {e}", path.display()),
    }
}

/// Run every workload in turn and fold the results into one line whose
/// metric names are prefixed with the workload. Stops at the first
/// workload that fails: a timed-out driver call may still be running.
fn run_all(args: &Args) -> ResultLine {
    let mut all = ResultLine {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
    };
    for kind in Kind::ALL {
        let r = run(kind, args);
        all.correct &= r.correct;
        all.attempted += r.attempted;
        all.failed += r.failed;
        for (name, m) in r.metrics {
            all.metrics.insert(format!("{}.{name}", kind.name()), m);
        }
        if !r.correct {
            println!("FAILED {}: later workloads not run", kind.name());
            break;
        }
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Deserialize)]
    struct BenchMetric {
        name: String,
        unit: String,
    }

    #[derive(Deserialize)]
    struct BenchWorkload {
        name: String,
    }

    #[derive(Deserialize)]
    struct BenchmarkJson {
        workloads: Vec<BenchWorkload>,
        end_to_end: Vec<BenchMetric>,
        per_layer: Vec<BenchMetric>,
    }

    /// BENCHMARK.json must name exactly what the program reports.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let spec: BenchmarkJson =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let names = |xs: &[BenchMetric]| -> Vec<(String, String)> {
            xs.iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect()
        };
        let table = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(names(&spec.end_to_end), table(&END_TO_END));
        assert_eq!(names(&spec.per_layer), table(&PER_LAYER));
        let workloads: Vec<String> = spec.workloads.into_iter().map(|w| w.name).collect();
        let ours: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_prints_every_digit() {
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "solve_s".to_string(),
            Metric {
                value: 2.512_345_678_9,
                unit: "s".into(),
            },
        );
        let line = ResultLine {
            correct: true,
            attempted: 6,
            failed: 0,
            metrics,
        };
        let text = serde_json::to_string(&line).unwrap();
        assert_eq!(
            text,
            "{\"correct\":true,\"attempted\":6,\"failed\":0,\"metrics\":{\"solve_s\":{\"value\":2.5123456789,\"unit\":\"s\"}}}"
        );
    }
}
