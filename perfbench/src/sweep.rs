//! `sweep-raw` and `sweep-zeta`: one closed-loop client running seeded
//! rotations of `bfs`, `pagerank:5` and `wcc` against a file-backed store
//! larger than the SCR budget. The traced run adds a short in-process
//! point-read phase: `neighbors` and `degree` on uniform keys against a
//! filled hot-tile cache, so tile assembly and decode show (the Zipf-hot,
//! wire-facing point path is serve-mixed's).

use crate::check::{Answer, Reference};
use crate::input::{Inputs, KeyStream};
use crate::point::{check_points, fresh_reader, latencies, point_loop, MIN_POINT_SAMPLES};
use crate::probes;
use crate::report::Report;
use crate::setup::{
    build_store, bytes_per_edge, peak_rss_mb, repeat_setup, sweep_builder, sync_store, Built,
    MAX_ITERS,
};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::Ctx;
use gstore_core::{GStoreEngine, PointReader, QuerySpec, RunStats, SweepQuery};
use gstore_graph::{Result, VertexId};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The traced run's point phase, as a share of `--seconds`.
const POINT_SHARE: f64 = 0.25;

/// Sweep kinds every workload reports per-kind metrics for.
pub const KINDS: [&str; 3] = ["bfs", "pagerank", "wcc"];

pub fn kind(spec: &QuerySpec) -> &'static str {
    match spec {
        QuerySpec::Bfs { .. } => "bfs",
        QuerySpec::PageRank { .. } => "pagerank",
        QuerySpec::Wcc => "wcc",
        QuerySpec::KCore { .. } => "kcore",
        QuerySpec::Degrees => "degrees",
        _ => "point",
    }
}

/// Queries in one sweep rotation.
const ROTATION_LEN: usize = 4;

/// The `i`-th query of the sweep rotation: `bfs`, `pagerank:5`, `bfs`,
/// `wcc`. BFS comes twice because its time varies by root (±20% on the
/// ζ store), so `bfs_s` needs more samples per run than the others.
pub fn rotation_spec(i: usize, roots: &[VertexId]) -> QuerySpec {
    match i % ROTATION_LEN {
        0 | 2 => QuerySpec::Bfs {
            root: roots[(i / 2) % roots.len()],
        },
        1 => QuerySpec::PageRank { iters: 5 },
        _ => QuerySpec::Wcc,
    }
}

/// One completed sweep query.
pub struct QueryRec {
    pub spec: QuerySpec,
    pub wall_s: f64,
    pub stats: RunStats,
}

/// First answer per spec; later answers to the same spec must agree.
pub type Answers = BTreeMap<String, (QuerySpec, Answer)>;

/// Keeps the first answer to `spec` and checks later ones against it.
pub fn remember(answers: &mut Answers, spec: QuerySpec, got: Answer, report: &mut Report) {
    match answers.get(&spec.to_string()) {
        Some((_, first)) => report.check(first.agrees(&got), || {
            format!("{spec} answered differently on a repeat run")
        }),
        None => {
            answers.insert(spec.to_string(), (spec, got));
        }
    }
}

/// Full rotations an untraced run completes at least, so every kind has
/// two samples even where one rotation outlasts the time budget.
const MIN_ROTATIONS: usize = 2;

/// Runs the rotation back to back for `seconds`, and through at least
/// `min_rotations` full rotations.
#[allow(clippy::too_many_arguments)]
pub fn sweep_loop(
    engine: &mut GStoreEngine,
    degrees: &[u64],
    roots: &[VertexId],
    seconds: f64,
    min_rotations: usize,
    tracer: &Tracer,
    answers: &mut Answers,
    report: &mut Report,
) -> Vec<QueryRec> {
    let tiling = *engine.index().layout.tiling();
    let start = Instant::now();
    let mut recs = Vec::new();
    let mut i = 0;
    while i < ROTATION_LEN * min_rotations || start.elapsed().as_secs_f64() < seconds {
        let spec = rotation_spec(i, roots);
        i += 1;
        let req = tracer.request();
        let t0 = Instant::now();
        let top = tracer.span("sweep.query", None, req);
        let mut q = match SweepQuery::new(&spec, tiling, Some(degrees)) {
            Ok(q) => q,
            Err(e) => {
                report.tally(false);
                report.notes.push(format!("{spec}: {e}"));
                continue;
            }
        };
        let run = {
            let _s = tracer.span("core.engine_run", top.id(), req);
            engine.run(q.algorithm_mut(), MAX_ITERS)
        };
        drop(top);
        let wall_s = t0.elapsed().as_secs_f64();
        match run {
            Ok(stats) => {
                report.tally(true);
                recs.push(QueryRec {
                    spec,
                    wall_s,
                    stats,
                });
                remember(answers, spec, Answer::of(&q), report);
            }
            Err(e) => {
                report.tally(false);
                report.notes.push(format!("{spec}: {e}"));
            }
        }
    }
    recs
}

/// Records grouped by kind.
pub fn by_kind(recs: &[QueryRec]) -> BTreeMap<&'static str, Vec<&QueryRec>> {
    let mut out: BTreeMap<&'static str, Vec<&QueryRec>> = BTreeMap::new();
    for r in recs {
        out.entry(kind(&r.spec)).or_default().push(r);
    }
    out
}

/// Median of `f` over the records of `kind` (NaN when there are none).
pub fn kind_median(recs: &[QueryRec], kind_name: &str, f: impl Fn(&QueryRec) -> f64) -> f64 {
    let xs: Vec<f64> = recs
        .iter()
        .filter(|r| kind(&r.spec) == kind_name)
        .map(f)
        .collect();
    median(&xs)
}

/// Median wall time per sweep kind (`bfs_s`, `pagerank_s`, `wcc_s`).
pub fn set_kind_walls(recs: &[QueryRec], report: &mut Report) {
    for k in KINDS {
        report.set(format!("{k}_s"), kind_median(recs, k, |r| r.wall_s), "s");
    }
}

/// Per-kind SCR and compute metrics from a set of query records.
pub fn layer_metrics(recs: &[QueryRec], data_bytes: u64, report: &mut Report) {
    for k in KINDS {
        let frac = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        report.set(
            format!("scr.cache_hit_frac.{k}"),
            kind_median(recs, k, |r| {
                frac(r.stats.tiles_from_cache, r.stats.tiles_processed)
            }),
            "fraction",
        );
        report.set(
            format!("scr.read_amplification.{k}"),
            kind_median(recs, k, |r| frac(r.stats.bytes_read, data_bytes)),
            "ratio",
        );
        report.set(
            format!("scr.io_requests.{k}"),
            kind_median(recs, k, |r| r.stats.io_requests as f64),
            "count",
        );
        report.set(
            format!("core.iterations.{k}"),
            kind_median(recs, k, |r| r.stats.iterations as f64),
            "count",
        );
        report.set(
            format!("core.edges_per_s.{k}"),
            kind_median(recs, k, |r| r.stats.edges_processed as f64 / r.wall_s),
            "1/s",
        );
    }
    let wcc_iters: Vec<String> = recs
        .iter()
        .filter(|r| kind(&r.spec) == "wcc")
        .map(|r| r.stats.iterations.to_string())
        .collect();
    report.notes.push(format!(
        "wcc iterations per query: [{}]",
        wcc_iters.join(", ")
    ));
}

/// Traced wall time over untraced, minus one: the median over kinds of
/// the ratio of per-kind median latencies.
pub fn overhead_frac(untraced: &[QueryRec], traced: &[QueryRec]) -> f64 {
    let ratios: Vec<f64> = by_kind(traced)
        .keys()
        .map(|k| {
            kind_median(traced, k, |r| r.wall_s) / kind_median(untraced, k, |r| r.wall_s) - 1.0
        })
        .filter(|x| x.is_finite())
        .collect();
    median(&ratios)
}

/// One timed set-up into `dir`: convert, recode when `zeta`, and open
/// the engine. Returns the store, the engine and the time taken.
fn setup(ctx: &Ctx, inputs: &Inputs, zeta: bool, dir: &Path) -> Result<(Built, GStoreEngine, f64)> {
    let req = ctx.tracer.request();
    let t0 = Instant::now();
    let top = ctx.tracer.span("setup", None, req);
    let built = build_store(inputs, dir, zeta, &ctx.tracer, top.id(), req)?;
    let engine = {
        let _s = ctx.tracer.span("core.engine_open", top.id(), req);
        sweep_builder(false).paths(&built.paths).build()?
    };
    drop(top);
    Ok((built, engine, t0.elapsed().as_secs_f64()))
}

pub fn run(ctx: &Ctx, zeta: bool, report: &mut Report) -> Result<()> {
    let clock = Instant::now();
    let inputs = Inputs::generate(&ctx.work.join("input"), ctx.scale, ctx.seed)?;
    let gen_s = clock.elapsed().as_secs_f64();
    let (built, mut engine, first_setup) = setup(ctx, &inputs, zeta, &ctx.work.join("store0"))?;
    sync_store(&built)?;
    let setup_done = clock.elapsed().as_secs_f64();
    let data_bytes = engine.index().data_bytes();
    let untraced = Tracer::new(false);
    let mut answers = Answers::new();
    // The untraced phase. A traced run gives its sweeps half the time and
    // one rotation, as the baseline of the tracing overhead, and follows
    // them with in-process point reads.
    let (sweep_secs, rotations) = if ctx.trace {
        (ctx.seconds / 2.0, 1)
    } else {
        (ctx.seconds, MIN_ROTATIONS)
    };
    let recs = sweep_loop(
        &mut engine,
        &built.degrees,
        &inputs.roots,
        sweep_secs,
        rotations,
        &untraced,
        &mut answers,
        report,
    );
    let points = if ctx.trace {
        let reader = engine.point_reader();
        warm_hot_cache(&reader)?;
        let mut keys = KeyStream::new(inputs.vertex_count, ctx.seed);
        point_loop(
            &reader,
            || keys.next_uniform_spec(),
            ctx.seconds * POINT_SHARE,
            MIN_POINT_SAMPLES,
            &untraced,
            "point",
        )
    } else {
        Vec::new()
    };
    report.set("rss_peak_mb", peak_rss_mb(), "MB");
    report.set("bytes_per_edge", bytes_per_edge(&built.paths)?, "B/edge");
    set_kind_walls(&recs, report);
    let walls: Vec<f64> = recs.iter().map(|r| r.wall_s).collect();
    report.set("sweep_query_p50_s", median(&walls), "s");
    let sweep_wall: f64 = recs.iter().map(|r| r.wall_s).sum();
    report.set("ops_per_s", recs.len() as f64 / sweep_wall, "1/s");
    if ctx.trace {
        set_point_metrics(&latencies(&points, 1e3, |_| true), report);
        check_points(&points, &fresh_reader(&built.raw)?, report);
        point_kind_notes(&points, report);
    }
    report.notes.push(format!(
        "{} sweeps, {} point reads",
        recs.len(),
        points.len()
    ));
    for (k, rs) in by_kind(&recs) {
        let walls: Vec<String> = rs
            .iter()
            .map(|r| format!("{:.3}/{}", r.wall_s, r.stats.iterations))
            .collect();
        report
            .notes
            .push(format!("{k} wall_s/iterations: [{}]", walls.join(", ")));
    }
    if ctx.trace {
        drop(engine);
        let mut traced = sweep_builder(true).paths(&built.paths).build()?;
        let traced_recs = sweep_loop(
            &mut traced,
            &built.degrees,
            &inputs.roots,
            ctx.seconds / 2.0,
            1,
            &ctx.tracer,
            &mut answers,
            report,
        );
        report.set(
            "trace.overhead_frac",
            overhead_frac(&recs, &traced_recs),
            "fraction",
        );
        layer_metrics(&traced_recs, data_bytes, report);
        probes::run_all(ctx, &inputs, &built, &traced, report)?;
    }
    let setup_times = repeat_setup(first_setup, |rep| {
        let dir = ctx.work.join(format!("store{rep}"));
        let (_, engine, s) = setup(ctx, &inputs, zeta, &dir)?;
        drop(engine);
        std::fs::remove_dir_all(&dir)?;
        Ok(s)
    })?;
    report.set("setup_s", median(&setup_times), "s");
    report
        .notes
        .push(format!("setup_s samples {setup_times:?}"));
    let measured = clock.elapsed().as_secs_f64();
    check_sweeps(&inputs, &built, zeta, &answers, report)?;
    report.notes.push(format!(
        "phases: gen {gen_s:.1} s, setup {:.1} s, measure and set-up again {:.1} s, checks {:.1} s",
        setup_done - gen_s,
        measured - setup_done,
        clock.elapsed().as_secs_f64() - measured
    ));
    Ok(())
}

/// Touches every tile once (one `neighbors` read per partition), so the
/// timed point phase runs against a filled hot-tile cache instead of
/// drifting from cold to warm while it measures.
fn warm_hot_cache(reader: &PointReader) -> Result<()> {
    let tiling = *reader.index().layout.tiling();
    for p in 0..tiling.partitions() {
        reader.neighbors(tiling.partition_base(p))?;
    }
    Ok(())
}

/// Per-op-kind point latency medians, for the diagnostics.
pub fn point_kind_notes(points: &[crate::point::PointRec], report: &mut Report) {
    let mut parts = Vec::new();
    for (name, pred) in [
        (
            "neighbors",
            (|s: &QuerySpec| matches!(s, QuerySpec::Neighbors { .. })) as fn(&QuerySpec) -> bool,
        ),
        ("degree", |s| matches!(s, QuerySpec::Degree { .. })),
    ] {
        let ms = latencies(points, 1e3, pred);
        parts.push(format!("{name} p50 {:.2} ms (n={})", median(&ms), ms.len()));
    }
    report
        .notes
        .push(format!("point kinds: {}", parts.join(", ")));
}

/// End-to-end point-read latency from a set of point records.
pub fn set_point_metrics(ms: &[f64], report: &mut Report) {
    report.set("point_p50_ms", median(ms), "ms");
    let (v, used) = tail(ms, 90.0);
    report.set("point_p90_ms", v, "ms");
    report
        .notes
        .push(format!("point tail: p{used} of {} samples", ms.len()));
}

/// Checks every kept answer against the reference and, on the ζ store,
/// against the raw store.
fn check_sweeps(
    inputs: &Inputs,
    built: &Built,
    zeta: bool,
    answers: &Answers,
    report: &mut Report,
) -> Result<()> {
    if zeta {
        let mut raw = sweep_builder(false).paths(&built.raw).build()?;
        let tiling = *raw.index().layout.tiling();
        for (spec, got) in answers.values() {
            let mut q = SweepQuery::new(spec, tiling, Some(&built.degrees))?;
            raw.run(q.algorithm_mut(), MAX_ITERS)?;
            report.check(Answer::of(&q).agrees(got), || {
                format!("{spec}: the ζ store disagrees with the raw store")
            });
        }
    }
    let mut reference = Reference::load(inputs)?;
    for (spec, got) in answers.values() {
        report.check(reference.agrees(spec, got), || {
            format!("{spec} disagrees with the reference")
        });
    }
    Ok(())
}
