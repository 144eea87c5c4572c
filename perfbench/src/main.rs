//! The repository benchmark: three workloads over a Kronecker graph the
//! benchmark generates from its seed, read through the real file-backed
//! engines and driven through the public APIs of `gstore_tile`,
//! `gstore_core` and `gstore_server`.
//!
//! ```text
//! perfbench --workload sweep-raw|sweep-zeta|serve-mixed --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! carrying every end-to-end metric; with `--trace 1` it carries every
//! per-layer metric instead, from a separate run that records spans
//! around the benchmark's own calls into each layer (written to
//! `<work>/trace-<workload>-<seed>.jsonl`) and probes each layer alone.
//! Diagnostics go to standard error. See `perfbench/METRICS.md`.

mod check;
mod input;
mod point;
mod probes;
mod report;
mod serve;
mod setup;
mod stats;
mod sweep;
mod trace;

use gstore_core::EngineBuilder;
use gstore_graph::{GraphError, Result};
use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// Metrics every untraced run prints.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "bytes_per_edge",
    "rss_peak_mb",
    "bfs_s",
    "pagerank_s",
    "ops_per_s",
];

/// Metrics every traced run prints.
pub const PER_LAYER: [&str; 49] = [
    "tile.convert_s",
    "tile.convert_pwrites",
    "tile.recode_s",
    "tile.index_open_s",
    "tile.decode_medges_per_s",
    "io.sweep_read_mb_per_s.workers",
    "io.sweep_read_mb_per_s.uring",
    "io.batch_wait_ms.p50",
    "io.batch_wait_ms.p99",
    "io.tile_read_us.p50",
    "io.tile_read_us.p99",
    "io.uring_selected",
    "scr.cache_hit_frac.bfs",
    "scr.cache_hit_frac.pagerank",
    "scr.cache_hit_frac.wcc",
    "scr.read_amplification.bfs",
    "scr.read_amplification.pagerank",
    "scr.read_amplification.wcc",
    "scr.io_requests.bfs",
    "scr.io_requests.pagerank",
    "scr.io_requests.wcc",
    "scr.plan_us",
    "core.mem_s.bfs",
    "core.mem_s.pagerank",
    "core.mem_s.wcc",
    "core.iterations.bfs",
    "core.iterations.pagerank",
    "core.iterations.wcc",
    "core.edges_per_s.bfs",
    "core.edges_per_s.pagerank",
    "core.edges_per_s.wcc",
    "core.pointread.neighbors_us.p50",
    "core.pointread.neighbors_us.p90",
    "core.pointread.degree_us.p50",
    "core.pointread.qps_2v1",
    "core.pointread.cache_hit_frac",
    "core.pointread.tiles_per_read",
    "core.batch.read_amortization",
    "server.wire_overhead_ms.p50",
    "server.sweep_wait_s.p50",
    "server.batch_size_mean",
    "server.busy_replies",
    "server.err_replies",
    "trace.overhead_frac",
    "failed_frac",
    "wcc_s",
    "point_p50_ms",
    "point_p90_ms",
    "sweep_query_p50_s",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SweepRaw,
    SweepZeta,
    ServeMixed,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "sweep-raw" => Some(Workload::SweepRaw),
            "sweep-zeta" => Some(Workload::SweepZeta),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SweepRaw => "sweep-raw",
            Workload::SweepZeta => "sweep-zeta",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

/// One run's settings and its tracer.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Kronecker scale (vertices = 2^scale); [`input::SCALE`] unless testing.
    pub scale: u32,
    /// Scratch directory for the run's inputs and stores.
    pub work: PathBuf,
    pub tracer: Tracer,
}

impl Ctx {
    /// The workload's engine configuration.
    pub fn builder(&self, metrics: bool) -> EngineBuilder {
        match self.workload {
            Workload::ServeMixed => setup::serve_builder(metrics),
            _ => setup::sweep_builder(metrics),
        }
    }
}

fn parse_args(args: &[String]) -> Result<Ctx> {
    let bad = |m: String| GraphError::InvalidParameter(m);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| bad(format!("{flag} needs a value")))?;
        let num = |what: &str| -> Result<u64> {
            val.parse().map_err(|_| bad(format!("bad {what} {val:?}")))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(val).ok_or_else(|| bad(format!("unknown workload {val:?}")))?,
                )
            }
            "--seed" => seed = Some(num("seed")?),
            "--seconds" => {
                seconds = Some(
                    val.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad(format!("bad seconds {val:?}")))?,
                )
            }
            "--trace" => trace = num("trace flag")? != 0,
            _ => return Err(bad(format!("unknown flag {flag}"))),
        }
    }
    Ok(Ctx {
        workload: workload.ok_or_else(|| bad("--workload is required".into()))?,
        seed: seed.ok_or_else(|| bad("--seed is required".into()))?,
        seconds: seconds.ok_or_else(|| bad("--seconds is required".into()))?,
        trace,
        scale: input::SCALE,
        work: PathBuf::from(".perfbench_work"),
        tracer: Tracer::new(trace),
    })
}

/// Runs one workload and returns its full report (every metric it
/// measured, before filtering to the printed set).
pub fn run(ctx: &Ctx) -> Result<Report> {
    std::fs::create_dir_all(&ctx.work)?;
    let mut report = Report::default();
    let t0 = std::time::Instant::now();
    match ctx.workload {
        Workload::SweepRaw => sweep::run(ctx, false, &mut report)?,
        Workload::SweepZeta => sweep::run(ctx, true, &mut report)?,
        Workload::ServeMixed => serve::run(ctx, &mut report)?,
    }
    report.set(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "fraction",
    );
    report
        .notes
        .push(format!("run took {:.1} s", t0.elapsed().as_secs_f64()));
    if ctx.trace {
        let path = ctx
            .work
            .join(format!("trace-{}-{}.jsonl", ctx.workload.name(), ctx.seed));
        ctx.tracer.write(&path)?;
    }
    Ok(report)
}

/// `perfbench gen --scale K --seed N --dir D`: the input-generation child.
fn gen(args: &[String]) -> Result<()> {
    let get = |flag: &str| -> Result<&String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| GraphError::InvalidParameter(format!("gen needs {flag}")))
    };
    let num = |flag: &str| -> Result<u64> {
        get(flag)?
            .parse()
            .map_err(|_| GraphError::InvalidParameter(format!("bad {flag}")))
    };
    input::gen_main(
        &PathBuf::from(get("--dir")?),
        num("--scale")? as u32,
        num("--seed")?,
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("gen") {
        return match gen(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench gen: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let ctx = match parse_args(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = run(&ctx);
    // The scratch stores are large; keep only the trace files.
    for entry in std::fs::read_dir(&ctx.work).into_iter().flatten().flatten() {
        if entry.path().is_dir() {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
    match result {
        Ok(report) => {
            for note in &report.notes {
                eprintln!("perfbench: {note}");
            }
            let names: &[&str] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
            let missing: Vec<&str> = names
                .iter()
                .copied()
                .filter(|n| !report.get(n).is_some_and(f64::is_finite))
                .collect();
            if !missing.is_empty() {
                eprintln!("perfbench: no finite value for {missing:?}");
                return ExitCode::FAILURE;
            }
            println!("{}", report.json(Some(names)));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", ctx.workload.name());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod smoke {
    use super::*;

    /// Runs `workload` at kron-12 for a fraction of a second, untraced and
    /// traced, and checks every metric is emitted and nothing failed.
    fn smoke(workload: Workload) {
        for trace in [false, true] {
            let ctx = Ctx {
                workload,
                seed: 3,
                seconds: 0.2,
                trace,
                scale: 12,
                work: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                    .join("target/smoke")
                    .join(format!("{}-{trace}", workload.name())),
                tracer: Tracer::new(trace),
            };
            let report = run(&ctx).expect("workload runs");
            let names: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
            for name in names {
                let v = report.get(name);
                assert!(
                    v.is_some_and(f64::is_finite),
                    "{}: {name} missing or not finite ({v:?})",
                    workload.name()
                );
            }
            assert_eq!(report.get("failed_frac"), Some(0.0), "{:?}", report.notes);
            assert!(report.correct(), "{:?}", report.notes);
            let line = report.json(Some(names));
            assert!(line.starts_with("{\"correct\": true"), "{line}");
            std::fs::remove_dir_all(&ctx.work).expect("smoke work dir");
        }
    }

    /// The metric lists printed here are the ones `BENCHMARK.json` declares.
    #[test]
    fn benchmark_json_declares_the_printed_metrics() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let declared = |section: &str| -> Vec<String> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("quoted name")].to_string())
                .collect()
        };
        let mut e2e = declared("end_to_end");
        let mut layer = declared("per_layer");
        e2e.sort();
        layer.sort();
        let mut want_e2e: Vec<String> = END_TO_END.iter().map(|s| s.to_string()).collect();
        let mut want_layer: Vec<String> = PER_LAYER.iter().map(|s| s.to_string()).collect();
        want_e2e.sort();
        want_layer.sort();
        assert_eq!(e2e, want_e2e);
        assert_eq!(layer, want_layer);
    }

    #[test]
    fn smoke_sweep_raw() {
        smoke(Workload::SweepRaw);
    }

    #[test]
    fn smoke_sweep_zeta() {
        smoke(Workload::SweepZeta);
    }

    #[test]
    fn smoke_serve_mixed() {
        smoke(Workload::ServeMixed);
    }
}
