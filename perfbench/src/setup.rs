//! Store construction and engine configuration shared by the workloads.
//!
//! The geometry and budgets are the `gstore` CLI defaults (tile bits 12,
//! group side 16, 4 MiB segments, 4 I/O workers, `IoBackend::Auto`, a
//! 64 MiB hot-tile cache) except for the sweep workloads' SCR budget,
//! which is cut to 12 MiB so the cache pool must evict and re-read.

use crate::input::Inputs;
use crate::trace::Tracer;
use gstore_core::{DegreeCount, EngineBuilder, GStoreEngine};
use gstore_graph::Result;
use gstore_scr::ScrConfig;
use gstore_tile::{
    convert_streaming, recode_store_files, Codec, ConversionOptions, StreamingOptions, TileIndex,
    TilePaths,
};
use std::path::Path;
use std::time::Instant;

pub const TILE_BITS: u32 = 12;
pub const GROUP_SIDE: u32 = 16;
pub const SEGMENT_BYTES: u64 = 4 << 20;
/// SCR budget of the sweep workloads: two 4 MiB segments in flight and a
/// 4 MiB cache pool, an eighth of kron-19's 32 MiB of raw tiles.
pub const SWEEP_BUDGET_BYTES: u64 = 12 << 20;
/// SCR budget of the serve workload: the CLI default.
pub const SERVE_BUDGET_BYTES: u64 = 256 << 20;
/// Hot-tile cache of every point reader: the CLI default.
pub const HOT_CACHE_BYTES: u64 = 64 << 20;
pub const IO_WORKERS: usize = 4;
/// Iteration cap of every sweep (never reached by the queries run).
pub const MAX_ITERS: u32 = 10_000;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The `setup_s` samples: `first`, the time of the set-up the workload
/// runs on, and [`SETUP_REPS`] − 1 more from `again(rep)`, which sets up
/// into a fresh directory, tears down and removes it. Call it after the
/// measured phases: memory a torn-down set-up frees stays with the
/// allocator, and a repeated daemon start before them added 0 or 32 MB to
/// `rss_peak_mb` depending on the seed.
pub fn repeat_setup(first: f64, mut again: impl FnMut(usize) -> Result<f64>) -> Result<Vec<f64>> {
    let mut times = vec![first];
    for rep in 1..SETUP_REPS {
        times.push(again(rep)?);
    }
    Ok(times)
}

/// A converted store and what its construction cost.
pub struct Built {
    /// The store the workload queries (raw, or ζ-recoded).
    pub paths: TilePaths,
    /// The raw store it was built from (equal to `paths` when raw).
    pub raw: TilePaths,
    pub degrees: Vec<u64>,
    pub convert_s: f64,
    pub convert_pwrites: u64,
    /// Recode time when the workload queries a ζ store.
    pub recode_s: Option<f64>,
}

/// Converts the edge list with the streaming converter into `dir` and,
/// when `zeta`, recodes the result to ζ. Spans go under `parent`.
pub fn build_store(
    inputs: &Inputs,
    dir: &Path,
    zeta: bool,
    tracer: &Tracer,
    parent: Option<u64>,
    request: u64,
) -> Result<Built> {
    let opts = StreamingOptions::new(ConversionOptions::new(TILE_BITS).with_group_side(GROUP_SIDE));
    let t0 = Instant::now();
    let report = {
        let _s = tracer.span("tile.convert", parent, request);
        convert_streaming(&inputs.el, dir, "g", &opts)?
    };
    let convert_s = t0.elapsed().as_secs_f64();
    let raw = report.paths.clone();
    let (paths, recode_s) = if zeta {
        let t1 = Instant::now();
        let (paths, _) = {
            let _s = tracer.span("tile.recode", parent, request);
            recode_store_files(&raw, dir, "gz", Codec::ZetaGap)?
        };
        (paths, Some(t1.elapsed().as_secs_f64()))
    } else {
        (raw.clone(), None)
    };
    let degrees = match &report.degrees {
        Some(d) => d.to_vec(),
        None => {
            // Too many overflow hubs for the compact form: one degree sweep.
            let _s = tracer.span("core.degree_sweep", parent, request);
            let mut engine = sweep_builder(false).paths(&raw).build()?;
            let mut dc = DegreeCount::new(*engine.index().layout.tiling());
            engine.run(&mut dc, MAX_ITERS)?;
            dc.degrees()
        }
    };
    Ok(Built {
        paths,
        raw,
        degrees,
        convert_s,
        convert_pwrites: report.write.pwrites,
        recode_s,
    })
}

fn scr(total: u64) -> ScrConfig {
    ScrConfig::new(SEGMENT_BYTES, total).expect("budget holds two segments")
}

/// The sweep workloads' engine: 12 MiB SCR budget, CLI defaults otherwise.
pub fn sweep_builder(metrics: bool) -> EngineBuilder {
    GStoreEngine::builder()
        .scr(scr(SWEEP_BUDGET_BYTES))
        .io_workers(IO_WORKERS)
        .point_read_cache_bytes(HOT_CACHE_BYTES)
        .metrics(metrics)
}

/// The serve workload's engine: the `gstore serve` defaults.
pub fn serve_builder(metrics: bool) -> EngineBuilder {
    GStoreEngine::builder()
        .scr(scr(SERVE_BUDGET_BYTES))
        .io_workers(IO_WORKERS)
        .point_read_cache_bytes(HOT_CACHE_BYTES)
        .metrics(metrics)
}

/// An engine over the whole store held in memory, with a budget larger
/// than the store: compute plus decode, no storage reads after the first.
pub fn memory_engine(paths: &TilePaths) -> Result<GStoreEngine> {
    let index = TileIndex::read(&paths.start)?;
    let data = std::fs::read(&paths.tiles)?;
    let total = 2 * SEGMENT_BYTES + 2 * data.len() as u64;
    GStoreEngine::builder()
        .scr(scr(total))
        .io_workers(IO_WORKERS)
        .backend(index, std::sync::Arc::new(gstore_io::MemBackend::new(data)))
        .build()
}

/// Flushes a store's files, so write-back of a fresh store does not run
/// under the measured phases (called after the timed set-up).
pub fn sync_store(built: &Built) -> Result<()> {
    for p in [&built.paths, &built.raw] {
        for f in [&p.tiles, &p.start] {
            std::fs::File::open(f)?.sync_all()?;
        }
    }
    Ok(())
}

/// On-disk tile and index bytes per stored edge.
pub fn bytes_per_edge(paths: &TilePaths) -> Result<f64> {
    let index = TileIndex::read(&paths.start)?;
    let bytes = std::fs::metadata(&paths.tiles)?.len() + std::fs::metadata(&paths.start)?.len();
    Ok(bytes as f64 / index.edge_count().max(1) as f64)
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss_kb: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut u = RUsage {
        times: [0; 4],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `RUsage` has the size and layout of Linux's `struct
    // rusage` on 64-bit targets (two timevals, then fourteen longs with
    // ru_maxrss first), and getrusage only writes into the struct.
    let rc = unsafe { getrusage(0, &mut u) };
    if rc != 0 {
        return f64::NAN;
    }
    u.maxrss_kb as f64 / 1024.0
}
