//! `serve-mixed`: the raw store behind `gstore_server::serve` with the
//! CLI defaults, driven by two closed-loop loopback connections — one
//! issuing point reads, one issuing sweeps.

use crate::check::PR_TOL;
use crate::input::{Inputs, KeyStream};
use crate::point::{MIN_POINT_SAMPLES, WALK_SEED};
use crate::probes;
use crate::report::Report;
use crate::setup::{
    build_store, bytes_per_edge, peak_rss_mb, repeat_setup, serve_builder, sync_store, Built,
    MAX_ITERS,
};
use crate::stats::median;
use crate::sweep::{kind, layer_metrics, set_kind_walls, set_point_metrics, QueryRec, KINDS};
use crate::trace::Tracer;
use crate::Ctx;
use gstore_core::spec::run_point;
use gstore_core::{QuerySpec, QueryValue, SweepQuery};
use gstore_graph::{GraphError, Result, VertexId};
use gstore_metrics::ServeMetrics;
use gstore_server::{serve, Client, Reply, ServeOptions, ServerHandle};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// `BUSY` retries before a request counts as failed.
const BUSY_RETRIES: u32 = 200;

/// The sweep connection's rotation.
pub fn serve_rotation(i: usize, roots: &[VertexId]) -> QuerySpec {
    match i % 4 {
        0 => QuerySpec::Bfs {
            root: roots[(i / 4) % roots.len()],
        },
        1 => QuerySpec::PageRank { iters: 5 },
        2 => QuerySpec::Wcc,
        _ => QuerySpec::KCore { k: 2 },
    }
}

/// One request over the wire.
pub struct WireRec {
    pub spec: QuerySpec,
    pub wall_s: f64,
    pub reply: std::result::Result<Reply, String>,
}

/// What one drive of the two connections produced.
pub struct Drive {
    pub points: Vec<WireRec>,
    pub sweeps: Vec<WireRec>,
    pub wall_s: f64,
}

fn request(client: &mut Client, spec: QuerySpec, tracer: &Tracer, name: &str) -> WireRec {
    let req = tracer.request();
    let t0 = Instant::now();
    let reply = {
        let _s = tracer.span(name, None, req);
        client
            .query_retrying(&spec.to_string(), BUSY_RETRIES)
            .map_err(|e| e.to_string())
    };
    WireRec {
        spec,
        wall_s: t0.elapsed().as_secs_f64(),
        reply,
    }
}

/// Runs both connections until `seconds` have passed, the sweep
/// connection has completed at least `min_sweeps` requests and the point
/// connection at least `min_points`; the point connection keeps going
/// until the sweep connection stops.
pub fn drive(
    addr: &str,
    mut keys: KeyStream,
    sweep_spec: &(dyn Fn(usize) -> QuerySpec + Sync),
    min_sweeps: usize,
    min_points: usize,
    seconds: f64,
    tracer: &Tracer,
) -> Result<Drive> {
    let mut point_client = Client::connect(addr)?;
    let mut sweep_client = Client::connect(addr)?;
    let sweeps_done = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let (points, sweeps) = std::thread::scope(|s| {
        let pts = s.spawn(|| {
            let mut out = Vec::new();
            while !sweeps_done.load(Ordering::SeqCst)
                || out.len() < min_points
                || Instant::now() < deadline
            {
                out.push(request(
                    &mut point_client,
                    keys.next_spec(),
                    tracer,
                    "wire.point",
                ));
            }
            out
        });
        let sw = s.spawn(|| {
            let mut out = Vec::new();
            let mut i = 0;
            while i < min_sweeps || Instant::now() < deadline {
                out.push(request(
                    &mut sweep_client,
                    sweep_spec(i),
                    tracer,
                    "wire.sweep",
                ));
                i += 1;
            }
            sweeps_done.store(true, Ordering::SeqCst);
            out
        });
        let sweeps = sw.join().expect("sweep client thread");
        let points = pts.join().expect("point client thread");
        (points, sweeps)
    });
    Ok(Drive {
        points,
        sweeps,
        wall_s: t0.elapsed().as_secs_f64(),
    })
}

/// Starts a daemon over `built` with the CLI defaults.
pub fn start(built: &Built, metrics: bool) -> Result<ServerHandle> {
    let engine = serve_builder(metrics).paths(&built.paths).build()?;
    serve(
        engine,
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            walk_seed: WALK_SEED,
            ..ServeOptions::default()
        },
    )
}

/// In-process answers and timings for the specs a drive sent: point
/// specs replayed in order on a warm reader configured like the
/// daemon's, each distinct sweep spec run once on a solo engine.
pub struct InProcess {
    pub point_ms: Vec<f64>,
    pub point_values: Vec<Result<QueryValue>>,
    pub solo: HashMap<String, (f64, Result<QueryValue>)>,
    pub solo_recs: Vec<QueryRec>,
}

pub fn in_process(built: &Built, d: &Drive) -> Result<InProcess> {
    let mut engine = serve_builder(false).paths(&built.paths).build()?;
    let reader = engine.point_reader();
    let mut point_ms = Vec::new();
    let mut point_values = Vec::new();
    for r in &d.points {
        let t0 = Instant::now();
        point_values.push(run_point(&reader, &r.spec, WALK_SEED));
        point_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    drop(reader);
    let tiling = *engine.index().layout.tiling();
    // Warm the pool as the daemon's is after its first sweep.
    let mut warm = SweepQuery::new(&QuerySpec::Wcc, tiling, None)?;
    engine.run(warm.algorithm_mut(), MAX_ITERS)?;
    let mut solo = HashMap::new();
    let mut solo_recs = Vec::new();
    for r in &d.sweeps {
        let key = r.spec.to_string();
        if solo.contains_key(&key) {
            continue;
        }
        let mut q = SweepQuery::new(&r.spec, tiling, Some(&built.degrees))?;
        let t0 = Instant::now();
        let stats = engine.run(q.algorithm_mut(), MAX_ITERS);
        let wall_s = t0.elapsed().as_secs_f64();
        let value = stats.map(|stats| {
            solo_recs.push(QueryRec {
                spec: r.spec,
                wall_s,
                stats,
            });
            q.result()
        });
        solo.insert(key, (wall_s, value));
    }
    Ok(InProcess {
        point_ms,
        point_values,
        solo,
        solo_recs,
    })
}

/// Tallies every reply and checks it against the in-process answer.
pub fn check_drive(d: &Drive, ip: &InProcess, report: &mut Report) {
    for (r, want) in d.points.iter().zip(&ip.point_values) {
        let ok = matches!(&r.reply, Ok(Reply::Value(_)));
        report.tally(ok);
        if let (Ok(Reply::Value(got)), Ok(want)) = (&r.reply, want) {
            report.check(want.approx_eq(got, 0.0), || {
                format!("wire {} disagrees with in-process", r.spec)
            });
        }
    }
    for r in &d.sweeps {
        let ok = matches!(&r.reply, Ok(Reply::Value(_)));
        report.tally(ok);
        if let (Ok(Reply::Value(got)), Some((_, Ok(want)))) =
            (&r.reply, ip.solo.get(&r.spec.to_string()))
        {
            report.check(want.approx_eq(got, PR_TOL), || {
                format!("wire {} disagrees with a solo engine", r.spec)
            });
        }
    }
    let errors: Vec<String> = d
        .points
        .iter()
        .chain(&d.sweeps)
        .filter(|r| !matches!(&r.reply, Ok(Reply::Value(_))))
        .take(3)
        .map(|r| format!("{} -> {:?}", r.spec, r.reply))
        .collect();
    if !errors.is_empty() {
        report.notes.push(format!("failed replies: {errors:?}"));
    }
}

/// Server-layer metrics from a drive, its in-process twin and the
/// daemon's own `serve` counters.
pub fn server_metrics(d: &Drive, ip: &InProcess, serve: &ServeMetrics, report: &mut Report) {
    let wire_ms: Vec<f64> = d.points.iter().map(|r| r.wall_s * 1e3).collect();
    report.set(
        "server.wire_overhead_ms.p50",
        median(&wire_ms) - median(&ip.point_ms),
        "ms",
    );
    let waits: Vec<f64> = d
        .sweeps
        .iter()
        .filter_map(|r| {
            ip.solo
                .get(&r.spec.to_string())
                .map(|(solo, _)| r.wall_s - solo)
        })
        .collect();
    report.set("server.sweep_wait_s.p50", median(&waits), "s");
    report.set(
        "server.batch_size_mean",
        serve.batch_queries as f64 / serve.batches.max(1) as f64,
        "count",
    );
    report.set(
        "server.busy_replies",
        serve.queries_rejected as f64,
        "count",
    );
    report.set(
        "server.err_replies",
        (serve.point_errors + serve.query_errors) as f64,
        "count",
    );
}

/// Stops the daemon and returns its `serve` counters.
pub fn serve_metrics_of(handle: ServerHandle) -> Result<ServeMetrics> {
    let engine = handle.shutdown();
    engine
        .metrics()
        .map(|m| m.serve)
        .ok_or_else(|| GraphError::InvalidParameter("daemon engine built without metrics".into()))
}

/// One timed set-up into `dir`: convert and start the daemon. Returns
/// the store, the daemon and the time taken.
fn setup(ctx: &Ctx, inputs: &Inputs, dir: &Path) -> Result<(Built, ServerHandle, f64)> {
    let req = ctx.tracer.request();
    let t0 = Instant::now();
    let top = ctx.tracer.span("setup", None, req);
    let built = build_store(inputs, dir, false, &ctx.tracer, top.id(), req)?;
    let handle = {
        let _s = ctx.tracer.span("server.start", top.id(), req);
        start(&built, false)?
    };
    drop(top);
    Ok((built, handle, t0.elapsed().as_secs_f64()))
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<()> {
    let clock = Instant::now();
    let inputs = Inputs::generate(&ctx.work.join("input"), ctx.scale, ctx.seed)?;
    let gen_s = clock.elapsed().as_secs_f64();
    let (built, handle, first_setup) = setup(ctx, &inputs, &ctx.work.join("store0"))?;
    sync_store(&built)?;
    let setup_done = clock.elapsed().as_secs_f64();
    let roots = inputs.roots.clone();
    let rotation = move |i: usize| serve_rotation(i, &roots);
    let keys = || KeyStream::new(inputs.vertex_count, ctx.seed);
    let addr = handle.local_addr().to_string();
    let untraced = Tracer::new(false);
    if !ctx.trace {
        let d = drive(
            &addr,
            keys(),
            &rotation,
            4,
            MIN_POINT_SAMPLES,
            ctx.seconds,
            &untraced,
        )?;
        report.set("rss_peak_mb", peak_rss_mb(), "MB");
        handle.shutdown();
        report.set("bytes_per_edge", bytes_per_edge(&built.paths)?, "B/edge");
        set_wire_metrics(&d, report);
        let measured = clock.elapsed().as_secs_f64();
        let ip = in_process(&built, &d)?;
        check_drive(&d, &ip, report);
        report.notes.push(format!(
            "{} sweeps, {} point reads in {:.2} s",
            d.sweeps.len(),
            d.points.len(),
            d.wall_s
        ));
        report.notes.push(format!(
            "phases: gen {gen_s:.1} s, setup {:.1} s, measure {:.1} s, checks {:.1} s",
            setup_done - gen_s,
            measured - setup_done,
            clock.elapsed().as_secs_f64() - measured
        ));
    } else {
        let base = drive(
            &addr,
            keys(),
            &rotation,
            4,
            MIN_POINT_SAMPLES,
            ctx.seconds / 2.0,
            &untraced,
        )?;
        handle.shutdown();
        let traced = start(&built, true)?;
        let addr = traced.local_addr().to_string();
        let d = drive(
            &addr,
            keys(),
            &rotation,
            4,
            MIN_POINT_SAMPLES,
            ctx.seconds / 2.0,
            &ctx.tracer,
        )?;
        let serve_counters = serve_metrics_of(traced)?;
        report.set("trace.overhead_frac", wire_overhead(&base, &d), "fraction");
        set_wire_metrics(&base, report);
        let ip = in_process(&built, &d)?;
        check_drive(&d, &ip, report);
        let base_ip = in_process(&built, &base)?;
        check_drive(&base, &base_ip, report);
        server_metrics(&d, &ip, &serve_counters, report);
        let data_bytes = std::fs::metadata(&built.paths.tiles)?.len();
        layer_metrics(&ip.solo_recs, data_bytes, report);
        let engine = serve_builder(true).paths(&built.paths).build()?;
        probes::run_all(ctx, &inputs, &built, &engine, report)?;
    }
    let setup_times = repeat_setup(first_setup, |rep| {
        let dir = ctx.work.join(format!("store{rep}"));
        let (_, handle, s) = setup(ctx, &inputs, &dir)?;
        handle.shutdown();
        std::fs::remove_dir_all(&dir)?;
        Ok(s)
    })?;
    report.set("setup_s", median(&setup_times), "s");
    report
        .notes
        .push(format!("setup_s samples {setup_times:?}"));
    Ok(())
}

/// Latency and throughput metrics of a serve drive.
pub fn set_wire_metrics(d: &Drive, report: &mut Report) {
    let point_ms: Vec<f64> = d.points.iter().map(|r| r.wall_s * 1e3).collect();
    set_point_metrics(&point_ms, report);
    let sweep_walls: Vec<f64> = d.sweeps.iter().map(|r| r.wall_s).collect();
    report.set("sweep_query_p50_s", median(&sweep_walls), "s");
    let recs: Vec<QueryRec> = d
        .sweeps
        .iter()
        .map(|r| QueryRec {
            spec: r.spec,
            wall_s: r.wall_s,
            stats: Default::default(),
        })
        .collect();
    set_kind_walls(&recs, report);
    report.set(
        "ops_per_s",
        (d.points.len() + d.sweeps.len()) as f64 / d.wall_s,
        "1/s",
    );
}

/// Traced over untraced latency, minus one, over the point p50 and the
/// per-kind sweep medians (median of the ratios).
fn wire_overhead(base: &Drive, traced: &Drive) -> f64 {
    let p50 = |d: &Drive| median(&d.points.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let mut ratios = vec![p50(traced) / p50(base) - 1.0];
    for k in KINDS {
        let m = |d: &Drive| {
            median(
                &d.sweeps
                    .iter()
                    .filter(|r| kind(&r.spec) == k)
                    .map(|r| r.wall_s)
                    .collect::<Vec<_>>(),
            )
        };
        ratios.push(m(traced) / m(base) - 1.0);
    }
    ratios.retain(|x| x.is_finite());
    median(&ratios)
}
