//! Closed-loop point reads through an in-process `PointReader`, and the
//! check of point replies against a fresh reader.

use crate::report::Report;
use crate::setup::HOT_CACHE_BYTES;
use crate::trace::Tracer;
use gstore_core::spec::run_point;
use gstore_core::{PointReader, QuerySpec, QueryValue};
use gstore_graph::Result;
use gstore_io::{FileBackend, StorageBackend};
use gstore_tile::{TileIndex, TilePaths};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of every `walk` (the daemon's default, so wire and in-process
/// walks agree).
pub const WALK_SEED: u64 = 42;

/// One point read: what was asked, how long it took, what came back.
pub struct PointRec {
    pub spec: QuerySpec,
    pub wall_s: f64,
    pub value: std::result::Result<QueryValue, String>,
}

/// Point reads every run collects at least, so that the tail rule
/// supports the reported p90 (ten samples beyond it).
pub const MIN_POINT_SAMPLES: usize = 100;

/// Issues point reads from `next` back to back for `seconds`, and until
/// at least `min` have completed.
pub fn point_loop(
    reader: &PointReader,
    mut next: impl FnMut() -> QuerySpec,
    seconds: f64,
    min: usize,
    tracer: &Tracer,
    name: &str,
) -> Vec<PointRec> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut out = Vec::new();
    while out.len() < min || Instant::now() < deadline {
        let spec = next();
        let req = tracer.request();
        let t0 = Instant::now();
        let value = {
            let _s = tracer.span(name, None, req);
            run_point(reader, &spec, WALK_SEED)
        };
        out.push(PointRec {
            spec,
            wall_s: t0.elapsed().as_secs_f64(),
            value: value.map_err(|e| e.to_string()),
        });
    }
    out
}

/// A reader of its own straight over the store files, for checks.
pub fn fresh_reader(paths: &TilePaths) -> Result<PointReader> {
    let index = TileIndex::read(&paths.start)?;
    let backend: Arc<dyn StorageBackend> = Arc::new(FileBackend::open(&paths.tiles)?);
    Ok(PointReader::new(index, backend, HOT_CACHE_BYTES))
}

/// Tallies every record and checks each answer against `reader`.
pub fn check_points(recs: &[PointRec], reader: &PointReader, report: &mut Report) {
    for r in recs {
        report.tally(r.value.is_ok());
        if let Ok(got) = &r.value {
            let ok =
                run_point(reader, &r.spec, WALK_SEED).is_ok_and(|want| want.approx_eq(got, 0.0));
            report.check(ok, || {
                format!("point {} disagrees with a fresh reader", r.spec)
            });
        }
    }
}

/// Latencies of the records matching `pred`, in `scale` units per second.
pub fn latencies(recs: &[PointRec], scale: f64, pred: impl Fn(&QuerySpec) -> bool) -> Vec<f64> {
    recs.iter()
        .filter(|r| pred(&r.spec))
        .map(|r| r.wall_s * scale)
        .collect()
}
