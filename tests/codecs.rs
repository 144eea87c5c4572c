//! Raw-vs-coded equivalence: every query path — full sweeps, shared-scan
//! batches, and point reads — must be observably identical over a
//! bit-coded store and the raw store it encodes, including under
//! adversarial AIO completion timing (`JitterBackend`), and must leak no
//! pooled buffers.

use gstore::graph::gen::{generate_rmat, RmatParams};
use gstore::graph::CompactDegrees;
use gstore::io::JitterBackend;
use gstore::prelude::*;
use gstore::tile::{encode_store, Codec};
use std::sync::Arc;

fn fixture() -> (EdgeList, TileStore) {
    let el = generate_rmat(&RmatParams::kron(8, 4)).unwrap();
    let store = TileStore::build(&el, &ConversionOptions::new(4).with_group_side(2)).unwrap();
    (el, store)
}

/// Engine over `store` re-encoded with `codec`, served through a
/// jittered backend so completion reordering is exercised too.
fn engine_for(store: &TileStore, codec: Codec) -> GStoreEngine {
    let (index, data) = encode_store(store, codec).unwrap();
    let backend = Arc::new(JitterBackend::new(Arc::new(MemBackend::new(data)), 300));
    let seg = (store.data_bytes() / 4).max(256);
    GStoreEngine::builder()
        .scr(ScrConfig::new(seg, seg * 3).unwrap())
        .point_read_cache_bytes(1 << 16)
        .backend(index, backend)
        .io_workers(4)
        .build()
        .unwrap()
}

#[test]
fn compressed_sweeps_match_raw() {
    let (el, store) = fixture();
    let tiling = *store.layout().tiling();
    let deg = CompactDegrees::from_edge_list(&el).unwrap().to_vec();

    let mut bfs_raw = Bfs::new(tiling, 0);
    engine_for(&store, Codec::RawSnb)
        .run(&mut bfs_raw, 10_000)
        .unwrap();
    let mut wcc_raw = Wcc::new(tiling);
    engine_for(&store, Codec::RawSnb)
        .run(&mut wcc_raw, 10_000)
        .unwrap();
    let mut pr_raw = PageRank::new(tiling, deg.clone(), 0.85).with_iterations(5);
    engine_for(&store, Codec::RawSnb)
        .run(&mut pr_raw, 5)
        .unwrap();

    for codec in Codec::CODED {
        let mut bfs = Bfs::new(tiling, 0);
        let mut engine = engine_for(&store, codec);
        engine.run(&mut bfs, 10_000).unwrap();
        assert_eq!(bfs.depths(), bfs_raw.depths(), "{} bfs", codec.name());

        let mut wcc = Wcc::new(tiling);
        engine.run(&mut wcc, 10_000).unwrap();
        assert_eq!(wcc.labels(), wcc_raw.labels(), "{} wcc", codec.name());

        let mut pr = PageRank::new(tiling, deg.clone(), 0.85).with_iterations(5);
        engine.run(&mut pr, 5).unwrap();
        for (c, r) in pr.ranks().iter().zip(pr_raw.ranks()) {
            assert!((c - r).abs() < 1e-9, "{}: rank {c} vs {r}", codec.name());
        }

        assert_eq!(engine.aio_in_flight(), 0, "{}", codec.name());
        assert_eq!(
            engine.buffer_pool_stats().outstanding,
            0,
            "{} leaked buffers",
            codec.name()
        );
    }
}

#[test]
fn compressed_batches_match_raw() {
    let (el, store) = fixture();
    let tiling = *store.layout().tiling();
    let deg = CompactDegrees::from_edge_list(&el).unwrap().to_vec();

    let mut bfs_raw = Bfs::new(tiling, 0);
    engine_for(&store, Codec::RawSnb)
        .run(&mut bfs_raw, 10_000)
        .unwrap();
    let mut wcc_raw = Wcc::new(tiling);
    engine_for(&store, Codec::RawSnb)
        .run(&mut wcc_raw, 10_000)
        .unwrap();
    let mut pr_raw = PageRank::new(tiling, deg.clone(), 0.85).with_iterations(4);
    engine_for(&store, Codec::RawSnb)
        .run(&mut pr_raw, 4)
        .unwrap();

    for codec in Codec::CODED {
        let mut bfs = Bfs::new(tiling, 0);
        let mut wcc = Wcc::new(tiling);
        let mut pr = PageRank::new(tiling, deg.clone(), 0.85).with_iterations(4);
        let mut batch = QueryBatch::new();
        batch.push(&mut bfs).unwrap();
        batch.push(&mut wcc).unwrap();
        batch.push(&mut pr).unwrap();
        let mut engine = engine_for(&store, codec);
        let out = engine.run_batch(&mut batch, 10_000).unwrap();
        assert!(out.all_converged(), "{}", codec.name());
        assert_eq!(bfs.depths(), bfs_raw.depths(), "{} bfs", codec.name());
        assert_eq!(wcc.labels(), wcc_raw.labels(), "{} wcc", codec.name());
        for (c, r) in pr.ranks().iter().zip(pr_raw.ranks()) {
            assert!((c - r).abs() < 1e-9, "{}: rank {c} vs {r}", codec.name());
        }
        assert_eq!(
            engine.buffer_pool_stats().outstanding,
            0,
            "{}",
            codec.name()
        );
    }
}

#[test]
fn compressed_point_reads_match_raw() {
    let (el, store) = fixture();
    let csr = Csr::from_edge_list(&el, CsrDirection::Out);
    for codec in Codec::CODED {
        let engine = engine_for(&store, codec);
        let reader = engine.point_reader();
        for v in 0..el.vertex_count() {
            let mut got = reader.neighbors(v).unwrap();
            got.sort_unstable();
            let mut want = csr.neighbors(v).to_vec();
            want.sort_unstable();
            assert_eq!(got, want, "{}: neighbors of {v}", codec.name());
            assert_eq!(
                reader.degree(v).unwrap(),
                csr.degree(v),
                "{}: degree of {v}",
                codec.name()
            );
        }
        assert_eq!(
            reader.buffer_stats().outstanding,
            0,
            "{} leaked buffers",
            codec.name()
        );
    }
}

#[test]
fn coded_engines_report_codec_metrics() {
    // The flight recorder's codec group must see every decoded tile and
    // reconcile disk vs logical volume with the index's own accounting.
    let (el, store) = fixture();
    let tiling = *store.layout().tiling();
    let deg = CompactDegrees::from_edge_list(&el).unwrap().to_vec();
    let (index, data) = encode_store(&store, Codec::ZetaGap).unwrap();
    let seg = (store.data_bytes() / 4).max(256);
    let mut engine = GStoreEngine::builder()
        .scr(ScrConfig::new(seg, seg * 3).unwrap())
        .metrics(true)
        .backend(index, Arc::new(MemBackend::new(data)))
        .build()
        .unwrap();
    let mut pr = PageRank::new(tiling, deg, 0.85).with_iterations(3);
    engine.run(&mut pr, 3).unwrap();
    let m = engine.metrics().unwrap();
    assert!(m.codec.tiles_decoded > 0);
    assert!(m.codec.disk_bytes > 0);
    assert!(m.codec.logical_bytes > m.codec.disk_bytes);
    assert!(m.codec.compression_ratio() > 1.0);
    // Symmetric PageRank reads every off-diagonal tile from both shard
    // sides, so those tiles are decoded up front, and timed.
    assert!(m.codec.decode_ns > 0);
}
