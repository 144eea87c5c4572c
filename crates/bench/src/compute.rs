//! Compute-phase measurement arms: per-edge atomic RMW updates vs the
//! column-sharded plain-write schedule, plus the `BENCH_compute.json`
//! emitter.
//!
//! Both arms sweep full PageRank iterations over every tile of the same
//! store through `gstore_core::compute::process_batch_queries` as a
//! one-query batch — the `atomic` arm pins the query to the fallback
//! executor (`force_atomic`), the `sharded` arm takes PageRank's default
//! column-sharded mode. The edges decoded are identical; the
//! difference — wall time per edge — is the cost of `lock`-prefixed
//! CAS loops the sharded schedule removes, tracked in
//! `BENCH_compute.json` and `cargo bench -p bench --bench compute_path`.

use crate::workloads::{degrees, Scale};
use gstore_core::{compute, Algorithm, GStoreEngine, PageRank, UpdateMode};
use gstore_graph::Result;
use gstore_tile::{TileIndex, TileStore};
use std::time::Instant;

/// One measured compute arm: wall time plus the batch counters summed
/// over all sweeps.
#[derive(Debug, Clone, Copy, Default)]
pub struct ComputeArmMeasure {
    pub wall_s: f64,
    /// Edges decoded and applied across all sweeps.
    pub edges: u64,
    /// Edges that ran through the sharded (plain-write) path.
    pub sharded_edges: u64,
    /// Edges that ran through the atomic fallback path.
    pub atomic_edges: u64,
    /// Plain writes issued where the atomic path would have RMW'd.
    pub plain_updates: u64,
    /// Physical-group visits across all shard schedules.
    pub groups_scheduled: u64,
}

impl ComputeArmMeasure {
    pub fn edges_per_s(&self) -> f64 {
        self.edges as f64 / self.wall_s.max(1e-12)
    }
}

/// The batch a full in-memory sweep processes: every tile, in linear
/// (group-major) index order, borrowing the store's data in place.
pub fn full_batch(store: &TileStore) -> (TileIndex, Vec<(u64, &[u8])>) {
    let index = TileIndex::raw(
        store.layout().clone(),
        store.encoding(),
        store.start_edge().to_vec(),
    );
    let batch = (0..store.tile_count())
        .map(|t| (t, store.tile_bytes(t)))
        .collect();
    (index, batch)
}

/// Runs `sweeps` full PageRank iterations over the store through one
/// compute executor and returns the measure plus the final ranks (so
/// callers can check the arms agree).
pub fn run_compute_arm(
    store: &TileStore,
    deg: &[u64],
    sweeps: u32,
    force_atomic: bool,
) -> (ComputeArmMeasure, Vec<f64>) {
    let (index, batch) = full_batch(store);
    let batch: Vec<(u64, &[u8], u64)> = batch.into_iter().map(|(t, b)| (t, b, 1)).collect();
    let mut pr = PageRank::new(*store.layout().tiling(), deg.to_vec(), 0.85);
    let mut arena = compute::DecodeArena::new(false);
    let mut m = ComputeArmMeasure::default();
    let t0 = Instant::now();
    for i in 0..sweeps {
        pr.begin_iteration(i);
        let query = compute::QueryRef {
            alg: &pr,
            mode: if force_atomic {
                UpdateMode::Atomic
            } else {
                pr.update_mode()
            },
        };
        let out = compute::process_batch_queries(&index, &[query], &batch, &mut arena).aggregate();
        m.edges += out.edges;
        m.sharded_edges += out.sharded_edges;
        m.atomic_edges += out.atomic_edges;
        m.plain_updates += out.plain_updates;
        m.groups_scheduled += out.groups_scheduled;
        pr.end_iteration(i);
    }
    m.wall_s = t0.elapsed().as_secs_f64();
    (m, pr.ranks().to_vec())
}

fn arm_json(m: &ComputeArmMeasure) -> String {
    format!(
        "{{ \"wall_s\": {:.6}, \"edges\": {}, \"edges_per_s\": {:.1}, \
         \"sharded_edges\": {}, \"atomic_edges\": {}, \"plain_updates\": {}, \
         \"groups_scheduled\": {} }}",
        m.wall_s,
        m.edges,
        m.edges_per_s(),
        m.sharded_edges,
        m.atomic_edges,
        m.plain_updates,
        m.groups_scheduled
    )
}

/// Runs both arms (best of `reps`) plus an instrumented engine PageRank
/// at `scale`, and renders the `BENCH_compute.json` payload: the
/// measured atomic-vs-sharded delta and the live engine's `compute`
/// counter group.
pub fn compute_json_for_scale(scale: &Scale) -> Result<String> {
    let el = scale.kron();
    let store = scale.store(&el);
    let deg = degrees(&el);
    let sweeps = 5;

    let reps = 3;
    let (mut atomic, _) = run_compute_arm(&store, &deg, sweeps, true);
    let (mut sharded, _) = run_compute_arm(&store, &deg, sweeps, false);
    for _ in 1..reps {
        let (a, _) = run_compute_arm(&store, &deg, sweeps, true);
        if a.wall_s < atomic.wall_s {
            atomic = a;
        }
        let (s, _) = run_compute_arm(&store, &deg, sweeps, false);
        if s.wall_s < sharded.wall_s {
            sharded = s;
        }
    }

    // A real engine run over the same graph: the live `compute` counter
    // group the acceptance criteria are stated against.
    let seg = (store.data_bytes() / 8).max(4096);
    let total = store.data_bytes() / 2 + 2 * seg + 4096;
    let cfg = GStoreEngine::builder().scr(gstore_scr::ScrConfig::new(seg, total)?);
    let tiling = *store.layout().tiling();
    let mut pr = PageRank::new(tiling, deg, 0.85).with_iterations(sweeps);
    let (_, _, m) = crate::model::run_gstore_instrumented(&store, cfg, 2, &mut pr, sweeps)?;
    let c = &m.compute;

    Ok(format!(
        "{{\n  \"schema\": \"gstore-bench-compute-v1\",\n  \"workload\": {{ \"kron_scale\": {}, \
         \"edge_factor\": {}, \"tile_bits\": {}, \"group_side\": {}, \"data_bytes\": {}, \
         \"sweeps\": {sweeps} }},\n  \
         \"atomic\": {},\n  \"sharded\": {},\n  \"speedup\": {:.4},\n  \
         \"engine\": {{ \"edges_processed\": {}, \"shard_conflicts_avoided\": {}, \
         \"atomic_fallback_edges\": {}, \"groups_scheduled\": {}, \"llc_resident_bytes\": {}, \
         \"sharded_fraction\": {:.6} }}\n}}\n",
        scale.kron_scale,
        scale.edge_factor,
        scale.tile_bits,
        scale.group_side,
        store.data_bytes(),
        arm_json(&atomic),
        arm_json(&sharded),
        atomic.wall_s / sharded.wall_s.max(1e-12),
        c.edges_processed,
        c.shard_conflicts_avoided,
        c.atomic_fallback_edges,
        c.groups_scheduled,
        c.llc_resident_bytes,
        c.sharded_fraction(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arms_process_identical_edges_and_agree_on_ranks() {
        let s = Scale::quick();
        let el = s.kron();
        let store = s.store(&el);
        let deg = degrees(&el);
        let (atomic, ranks_a) = run_compute_arm(&store, &deg, 3, true);
        let (sharded, ranks_s) = run_compute_arm(&store, &deg, 3, false);
        assert_eq!(atomic.edges, sharded.edges);
        assert!(atomic.edges > 0);
        // The atomic arm never shards; the sharded arm never falls back.
        assert_eq!(atomic.sharded_edges, 0);
        assert_eq!(atomic.plain_updates, 0);
        assert_eq!(sharded.atomic_edges, 0);
        assert!(sharded.plain_updates >= sharded.edges);
        assert!(sharded.groups_scheduled > 0);
        // Same fixed point modulo FP accumulation order.
        for (a, b) in ranks_a.iter().zip(&ranks_s) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn compute_json_has_schema_and_both_arms() {
        let s = Scale::quick();
        let json = compute_json_for_scale(&s).unwrap();
        for key in [
            "\"schema\": \"gstore-bench-compute-v1\"",
            "\"atomic\"",
            "\"sharded\"",
            "\"speedup\"",
            "\"plain_updates\"",
            "\"shard_conflicts_avoided\"",
            "\"atomic_fallback_edges\"",
            "\"llc_resident_bytes\"",
            "\"sharded_fraction\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // The live engine run shards everything: no fallback edges.
        assert!(json.contains("\"atomic_fallback_edges\": 0"));
    }
}
