//! Standalone probes of each layer, run in the traced run on the same
//! inputs as the workload and only through the layers' public functions.

use crate::input::{Inputs, KeyStream};
use crate::point::{point_loop, MIN_POINT_SAMPLES};
use crate::report::Report;
use crate::serve::{check_drive, drive, in_process, serve_metrics_of, server_metrics, start};
use crate::setup::{memory_engine, serve_builder, Built, IO_WORKERS, MAX_ITERS, SEGMENT_BYTES};
use crate::stats::{median, tail};
use crate::sweep::kind;
use crate::trace::Tracer;
use crate::Ctx;
use gstore_core::{DegreeCount, GStoreEngine, PointReader, QueryBatch, QuerySpec, SweepQuery};
use gstore_graph::Result;
use gstore_io::{
    AioEngine, AioRequest, FileBackend, IoBackend, IoEngine, StorageBackend, UringEngine,
};
use gstore_scr::{plan, CachePool, ScrConfig};
use gstore_tile::{recode_store_files, Codec, TileIndex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Queue depth of the probed I/O engines (the sweep engine's).
const IO_QUEUE_DEPTH: usize = 256;

/// Time box of each I/O and point-read probe phase.
const PROBE_SECONDS: f64 = 1.5;

/// Repetitions of the cheap probes reported as a median.
const REPS: usize = 9;

pub fn run_all(
    ctx: &Ctx,
    inputs: &Inputs,
    built: &Built,
    engine: &GStoreEngine,
    report: &mut Report,
) -> Result<()> {
    let req = ctx.tracer.request();
    let top = ctx.tracer.span("probes", None, req);
    let p = top.id();
    {
        let _s = ctx.tracer.span("probe.tile", p, req);
        tile(ctx, built, report)?;
    }
    {
        let _s = ctx.tracer.span("probe.io", p, req);
        io(ctx, inputs, built, engine, report)?;
    }
    {
        let _s = ctx.tracer.span("probe.scr_plan", p, req);
        scr_plan(built, report)?;
    }
    {
        let _s = ctx.tracer.span("probe.core_mem", p, req);
        core_mem(inputs, built, report)?;
    }
    {
        let _s = ctx.tracer.span("probe.pointread", p, req);
        pointread(ctx, inputs, built, report)?;
    }
    {
        let _s = ctx.tracer.span("probe.batch", p, req);
        batch(ctx, inputs, built, report)?;
    }
    if report.get("server.wire_overhead_ms.p50").is_none() {
        let _s = ctx.tracer.span("probe.server", p, req);
        server(ctx, inputs, built, report)?;
    }
    Ok(())
}

fn tile(ctx: &Ctx, built: &Built, report: &mut Report) -> Result<()> {
    report.set("tile.convert_s", built.convert_s, "s");
    report.set(
        "tile.convert_pwrites",
        built.convert_pwrites as f64,
        "count",
    );
    let recode_s = match built.recode_s {
        Some(s) => s,
        None => {
            let dir = ctx.work.join("recode-probe");
            let t0 = Instant::now();
            recode_store_files(&built.raw, &dir, "gz", Codec::ZetaGap)?;
            let s = t0.elapsed().as_secs_f64();
            std::fs::remove_dir_all(&dir)?;
            s
        }
    };
    report.set("tile.recode_s", recode_s, "s");
    let mut opens = Vec::new();
    for _ in 0..REPS {
        let t0 = Instant::now();
        std::hint::black_box(TileIndex::read(&built.paths.start)?);
        opens.push(t0.elapsed().as_secs_f64());
    }
    report.set("tile.index_open_s", median(&opens), "s");

    // One thread cursor-decoding every tile of the workload's store.
    let index = TileIndex::read(&built.paths.start)?;
    let data = std::fs::read(&built.paths.tiles)?;
    let mut block = [0u32; 256];
    let mut sink = 0u32;
    let mut edges = 0u64;
    let t0 = Instant::now();
    for t in 0..index.tile_count() {
        let r = index.tile_byte_range(t);
        let mut cur = index
            .codec
            .cursor(&data[r.start as usize..r.end as usize])?;
        loop {
            let n = cur.next_block(&mut block);
            if n == 0 {
                break;
            }
            edges += n as u64;
            sink = block[..n].iter().fold(sink, |a, &k| a ^ k);
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    report.set(
        "tile.decode_medges_per_s",
        edges as f64 / wall / 1e6,
        "Medges/s",
    );
    Ok(())
}

/// The store's full sweep as the engine issues it: SCR segments of
/// contiguous-tile runs, one request per run.
fn sweep_batches(index: &TileIndex, config: &ScrConfig) -> Vec<Vec<AioRequest>> {
    let all: Vec<u64> = (0..index.tile_count()).collect();
    let size = |t: u64| {
        let r = index.tile_byte_range(t);
        r.end - r.start
    };
    let p = plan(config, &all, &CachePool::new(0), size);
    p.segments
        .iter()
        .map(|seg| {
            let mut reqs: Vec<AioRequest> = Vec::new();
            let mut i = 0;
            while i < seg.len() {
                let mut j = i;
                while j + 1 < seg.len() && seg[j + 1] == seg[j] + 1 {
                    j += 1;
                }
                let r = index.tiles_byte_range(seg[i], seg[j] + 1);
                if r.end > r.start {
                    reqs.push(AioRequest {
                        tag: seg[i],
                        offset: r.start,
                        len: (r.end - r.start) as usize,
                    });
                }
                i = j + 1;
            }
            reqs
        })
        .filter(|reqs| !reqs.is_empty())
        .collect()
}

/// Pushes `batches` through `engine` for [`PROBE_SECONDS`] (at least one
/// pass); returns MB/s and per-batch wait times in ms.
fn drive_engine(engine: &dyn IoEngine, batches: &[Vec<AioRequest>]) -> Result<(f64, Vec<f64>)> {
    let mut bytes = 0u64;
    let mut waits = Vec::new();
    let t0 = Instant::now();
    'passes: loop {
        for batch in batches {
            let n = batch.len();
            let b0 = Instant::now();
            engine.submit(batch.clone());
            let mut got = 0;
            while got < n {
                let done = engine.poll(1, n - got).map_err(|e| {
                    gstore_graph::GraphError::InvalidParameter(format!("I/O engine died: {e:?}"))
                })?;
                for c in done {
                    bytes += c.result?.len() as u64;
                    got += 1;
                }
            }
            waits.push(b0.elapsed().as_secs_f64() * 1e3);
        }
        if t0.elapsed().as_secs_f64() >= PROBE_SECONDS {
            break 'passes;
        }
    }
    Ok((bytes as f64 / 1e6 / t0.elapsed().as_secs_f64(), waits))
}

fn io(
    ctx: &Ctx,
    inputs: &Inputs,
    built: &Built,
    engine: &GStoreEngine,
    report: &mut Report,
) -> Result<()> {
    let index = TileIndex::read(&built.paths.start)?;
    let backend: Arc<dyn StorageBackend> = Arc::new(FileBackend::open(&built.paths.tiles)?);
    let config = ScrConfig::new(SEGMENT_BYTES, 4 * SEGMENT_BYTES)?;
    let batches = sweep_batches(&index, &config);
    let workers = AioEngine::new(Arc::clone(&backend), IO_WORKERS, IO_QUEUE_DEPTH);
    let (w_mbps, w_waits) = drive_engine(&workers, &batches)?;
    drop(workers);
    report.set("io.sweep_read_mb_per_s.workers", w_mbps, "MB/s");
    let mut reg_lens = Vec::new();
    let mut len = 4096usize;
    while len <= SEGMENT_BYTES as usize {
        reg_lens.push(len);
        len *= 2;
    }
    let uring = UringEngine::with_recorder(
        Arc::clone(&backend),
        IO_QUEUE_DEPTH,
        false,
        false,
        &reg_lens,
        None,
        None,
    );
    let u_waits = match uring {
        Ok(u) => {
            let (u_mbps, u_waits) = drive_engine(&u, &batches)?;
            report.set("io.sweep_read_mb_per_s.uring", u_mbps, "MB/s");
            Some(u_waits)
        }
        Err(e) => {
            report.set("io.sweep_read_mb_per_s.uring", 0.0, "MB/s");
            report.notes.push(format!("io_uring unavailable: {e}"));
            None
        }
    };
    let uring_selected = engine.io_backend() == IoBackend::Uring;
    report.set("io.uring_selected", f64::from(uring_selected), "bool");
    let waits = match (uring_selected, u_waits) {
        (true, Some(u)) => u,
        _ => w_waits,
    };
    report.set("io.batch_wait_ms.p50", median(&waits), "ms");
    let (v, used) = tail(&waits, 99.0);
    report.set("io.batch_wait_ms.p99", v, "ms");
    report.notes.push(format!(
        "io.batch_wait tail: p{used} of {} batches",
        waits.len()
    ));

    // Tiles the Zipf-hot keys touch, read one at a time.
    let layout = &index.layout;
    let tiling = *layout.tiling();
    let mut keys = KeyStream::new(inputs.vertex_count, ctx.seed);
    let mut lat_us = Vec::new();
    let mut buf = Vec::new();
    let t0 = Instant::now();
    let mut i = 0usize;
    while t0.elapsed().as_secs_f64() < PROBE_SECONDS {
        let v = keys.hot_vertex();
        let tiles = layout.touching_tile_indices(tiling.partition_of(v));
        let t = tiles[i % tiles.len()];
        i += 1;
        let r = index.tile_byte_range(t);
        if r.end == r.start {
            continue;
        }
        buf.resize((r.end - r.start) as usize, 0);
        let b0 = Instant::now();
        backend.read_at(r.start, &mut buf)?;
        lat_us.push(b0.elapsed().as_secs_f64() * 1e6);
    }
    report.set("io.tile_read_us.p50", median(&lat_us), "us");
    report.set("io.tile_read_us.p99", tail(&lat_us, 99.0).0, "us");
    Ok(())
}

fn scr_plan(built: &Built, report: &mut Report) -> Result<()> {
    let index = TileIndex::read(&built.paths.start)?;
    let all: Vec<u64> = (0..index.tile_count()).collect();
    let size = |t: u64| {
        let r = index.tile_byte_range(t);
        r.end - r.start
    };
    let config = ScrConfig::new(SEGMENT_BYTES, 4 * SEGMENT_BYTES)?;
    let pool = CachePool::new(0);
    let mut us = Vec::new();
    for _ in 0..REPS {
        let t0 = Instant::now();
        std::hint::black_box(plan(&config, &all, &pool, size));
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    report.set("scr.plan_us", median(&us), "us");
    Ok(())
}

fn first_rotation(inputs: &Inputs) -> [QuerySpec; 3] {
    [
        QuerySpec::Bfs {
            root: inputs.roots[0],
        },
        QuerySpec::PageRank { iters: 5 },
        QuerySpec::Wcc,
    ]
}

fn core_mem(inputs: &Inputs, built: &Built, report: &mut Report) -> Result<()> {
    let mut engine = memory_engine(&built.paths)?;
    let tiling = *engine.index().layout.tiling();
    // Fill the pool so the timed runs read nothing from storage.
    let mut warm = DegreeCount::new(tiling);
    engine.run(&mut warm, MAX_ITERS)?;
    for spec in first_rotation(inputs) {
        let mut q = SweepQuery::new(&spec, tiling, Some(&built.degrees))?;
        let t0 = Instant::now();
        engine.run(q.algorithm_mut(), MAX_ITERS)?;
        report.set(
            format!("core.mem_s.{}", kind(&spec)),
            t0.elapsed().as_secs_f64(),
            "s",
        );
    }
    Ok(())
}

/// Successful point reads from `next()` for `seconds` and until `min`
/// were issued, as (spec, µs).
fn point_phase(
    reader: &PointReader,
    next: impl FnMut() -> QuerySpec,
    seconds: f64,
    min: usize,
) -> Vec<(QuerySpec, f64)> {
    point_loop(reader, next, seconds, min, &Tracer::new(false), "point")
        .into_iter()
        .filter(|r| r.value.is_ok())
        .map(|r| (r.spec, r.wall_s * 1e6))
        .collect()
}

fn pointread(ctx: &Ctx, inputs: &Inputs, built: &Built, report: &mut Report) -> Result<()> {
    let engine = serve_builder(true).paths(&built.paths).build()?;
    let reader = engine.point_reader();
    let mut keys = KeyStream::new(inputs.vertex_count, ctx.seed);
    // Warm the hot-tile cache, then count only the measured phases.
    point_phase(&reader, || keys.next_spec(), PROBE_SECONDS / 3.0, 0);
    engine.reset_metrics();

    // Latency by operation on the stream's Zipf keys.
    let us = |recs: Vec<(QuerySpec, f64)>| recs.into_iter().map(|(_, us)| us).collect::<Vec<_>>();
    let nbr = us(point_phase(
        &reader,
        || QuerySpec::Neighbors {
            vertex: keys.hot_vertex(),
        },
        PROBE_SECONDS / 2.0,
        MIN_POINT_SAMPLES,
    ));
    let deg = us(point_phase(
        &reader,
        || QuerySpec::Degree {
            vertex: keys.hot_vertex(),
        },
        PROBE_SECONDS / 2.0,
        0,
    ));
    report.set("core.pointread.neighbors_us.p50", median(&nbr), "us");
    let (v, used) = tail(&nbr, 90.0);
    report.set("core.pointread.neighbors_us.p90", v, "us");
    report.notes.push(format!(
        "pointread neighbors tail: p{used} of {} reads",
        nbr.len()
    ));
    report.set("core.pointread.degree_us.p50", median(&deg), "us");

    // Throughput of Zipf-keyed `neighbors`/`degree` at one and two threads
    // on the one warm reader, each thread with a fresh stream of its own.
    let hot_reads = |seed: u64| {
        let mut keys = KeyStream::new(inputs.vertex_count, seed);
        let mut i = 0u64;
        move || {
            i += 1;
            let vertex = keys.hot_vertex();
            if i % 2 == 1 {
                QuerySpec::Neighbors { vertex }
            } else {
                QuerySpec::Degree { vertex }
            }
        }
    };
    let qps_seconds = 2.0 * PROBE_SECONDS;
    let t0 = Instant::now();
    let one = point_phase(&reader, hot_reads(ctx.seed ^ 1), qps_seconds, 0).len();
    let qps1 = one as f64 / t0.elapsed().as_secs_f64();
    let done = AtomicU64::new(0);
    let t1 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let reader = &reader;
            let done = &done;
            let next = hot_reads(ctx.seed ^ (2 + t));
            s.spawn(move || {
                let n = point_phase(reader, next, qps_seconds, 0).len();
                done.fetch_add(n as u64, Ordering::Relaxed);
            });
        }
    });
    let qps2 = done.load(Ordering::Relaxed) as f64 / t1.elapsed().as_secs_f64();
    report.set("core.pointread.qps_2v1", qps2 / qps1, "ratio");
    let m = engine.metrics().map(|m| m.pointread).unwrap_or_default();
    let touched = m.cache_hits + m.tiles_fetched;
    report.set(
        "core.pointread.cache_hit_frac",
        m.cache_hits as f64 / touched.max(1) as f64,
        "fraction",
    );
    report.set(
        "core.pointread.tiles_per_read",
        touched as f64 / m.lookups.max(1) as f64,
        "count",
    );
    Ok(())
}

fn batch(ctx: &Ctx, inputs: &Inputs, built: &Built, report: &mut Report) -> Result<()> {
    let mut engine = ctx.builder(false).paths(&built.paths).build()?;
    let tiling = *engine.index().layout.tiling();
    let specs = [
        QuerySpec::Bfs {
            root: inputs.roots[0],
        },
        QuerySpec::PageRank { iters: 5 },
        QuerySpec::Wcc,
        QuerySpec::KCore { k: 2 },
    ];
    let mut queries = specs
        .iter()
        .map(|s| SweepQuery::new(s, tiling, Some(&built.degrees)))
        .collect::<Result<Vec<_>>>()?;
    let mut b = QueryBatch::new();
    for q in queries.iter_mut() {
        b.push(q.algorithm_mut())?;
    }
    let stats = engine.run_batch(&mut b, MAX_ITERS)?;
    report.set(
        "core.batch.read_amortization",
        stats.read_amortization(),
        "ratio",
    );
    Ok(())
}

fn server(ctx: &Ctx, inputs: &Inputs, built: &Built, report: &mut Report) -> Result<()> {
    let handle = start(built, true)?;
    let addr = handle.local_addr().to_string();
    let root = inputs.roots[0];
    let bfs = move |_: usize| QuerySpec::Bfs { root };
    let d = drive(
        &addr,
        KeyStream::new(inputs.vertex_count, ctx.seed),
        &bfs,
        1,
        1,
        PROBE_SECONDS,
        &ctx.tracer,
    )?;
    let serve = serve_metrics_of(handle)?;
    let ip = in_process(built, &d)?;
    check_drive(&d, &ip, report);
    server_metrics(&d, &ip, &serve, report);
    Ok(())
}
