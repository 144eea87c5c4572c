//! The compute phase: how a batch of resident tiles is turned into
//! algorithm updates (§V.C two-level parallelism).
//!
//! [`process_batch_queries`] is the one dispatcher. It serves a whole
//! query batch (a solo run is a batch of one): each tile carries a mask of
//! the queries whose frontier covers it, and two executors share the work.
//!
//! * **Column-sharded** (queries whose [`Algorithm::update_mode`] opts
//!   in): each tile becomes one or two *work items* keyed by the vertex
//!   partition its updates write — destination-column for
//!   destination-side writes, source-row for source-side writes.
//!   Partitions are assigned to `S` disjoint shards (greedy LPT on byte
//!   weight × fan-out, `S` = worker count), each shard runs sequentially,
//!   and shards run in parallel. Because a partition maps to exactly one
//!   shard, no two concurrent work items ever write the same vertex —
//!   metadata updates become plain load+store writes with no
//!   `lock`-prefixed RMW (see [`crate::atomics::AtomicF64::add_unsync`]).
//!   Within a shard, items are processed in ascending linear tile index,
//!   which *is* physical-group-major order (§V.A): one group's row/col
//!   metadata stays LLC-resident across its q×q tiles before the shard
//!   moves on.
//!
//! * **Atomic** (the fallback, and the only path for algorithms like BFS
//!   whose CAS-once writes are already cheap): tiles are split into
//!   byte-weighted contiguous chunks on the shared-index work queue, so
//!   one RMAT hub tile no longer serializes the whole batch.
//!
//! Both paths produce identical results for integer metadata; PageRank's
//! floating-point accumulation order differs between them (and with the
//! shard count), within the documented tolerance of the engine tests.
//!
//! **Decode once.** On a coded store every reader of a tile decodes its
//! bit stream again, and a batch reads a tile once per atomic query in its
//! mask, once per sharded query, and once more per source-side query when
//! the tile is off the diagonal (the symmetric store's two shard sides).
//! Tiles read twice or more are therefore decoded once, in parallel, into
//! a [`DecodeArena`] of raw SNB records before the executors run, and the
//! executors read them as raw views. The arena holds at most 2^18 keys
//! (1 MiB of records): a longer batch runs as consecutive sub-batches,
//! and a tile larger than the cap forms a sub-batch of its own. Tiles read
//! once keep streaming their cursor inside the executor. Raw stores skip
//! all of this.

use crate::algorithm::{Algorithm, ShardSides, UpdateMode};
use crate::view::TileView;
use gstore_tile::{Codec, TileIndex};
use rayon::prelude::*;
use std::sync::Mutex;
use std::time::Instant;

/// What one batch's compute pass did — the engine folds these into
/// [`crate::RunStats`] and the flight recorder's `compute` group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Edges decoded and applied (each stored tuple counted once).
    pub edges: u64,
    /// Edges that went through the sharded (plain-write) path.
    pub sharded_edges: u64,
    /// Edges that went through the atomic fallback path.
    pub atomic_edges: u64,
    /// Endpoint updates performed as plain writes where the atomic path
    /// would have used an atomic RMW — the contention avoided by sharding.
    pub plain_updates: u64,
    /// Physical-group visits across all shards' scheduling order (a group
    /// processed contiguously counts once per shard that touches it).
    pub groups_scheduled: u64,
}

impl BatchOutcome {
    fn absorb(&mut self, other: BatchOutcome) {
        self.edges += other.edges;
        self.sharded_edges += other.sharded_edges;
        self.atomic_edges += other.atomic_edges;
        self.plain_updates += other.plain_updates;
        self.groups_scheduled += other.groups_scheduled;
    }
}

/// One query's slot in a shared-scan compute dispatch: the algorithm and
/// the update mode the engine resolved for it (a force-atomic config pins
/// every slot to [`UpdateMode::Atomic`]).
pub struct QueryRef<'q> {
    pub alg: &'q dyn Algorithm,
    pub mode: UpdateMode,
}

/// Per-query outcomes of one shared batch. `groups_scheduled` belongs to
/// the shared schedule (a tile's group metadata is visited once for all
/// interested queries), so it is a batch-level number, not a per-query
/// one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MultiBatchOutcome {
    pub per_query: Vec<BatchOutcome>,
    pub groups_scheduled: u64,
    /// Wall time spent decoding shared tiles into a timed
    /// [`DecodeArena`] (0 on raw stores, when every tile was read once,
    /// and when the arena is untimed).
    pub decode_ns: u64,
}

impl MultiBatchOutcome {
    /// Sums the per-query outcomes into one batch-level outcome (each
    /// query's work counted — a tile feeding three queries contributes
    /// its edges three times, once per query that consumed it).
    pub fn aggregate(&self) -> BatchOutcome {
        let mut out = BatchOutcome {
            groups_scheduled: self.groups_scheduled,
            ..BatchOutcome::default()
        };
        for q in &self.per_query {
            out.edges += q.edges;
            out.sharded_edges += q.sharded_edges;
            out.atomic_edges += q.atomic_edges;
            out.plain_updates += q.plain_updates;
        }
        out
    }
}

/// Keys the [`DecodeArena`] holds for one sub-batch: 2^18 keys, 1 MiB of
/// SNB records.
const ARENA_CAP_KEYS: u64 = 1 << 18;

/// Reusable scratch that shared coded tiles are decoded into, as raw SNB
/// records at exact offsets taken from the tiles' count headers. It grows
/// to the largest sub-batch it has served — at most 2^18 keys, or one
/// tile's keys when a single tile is larger — and shrinks
/// back to the cap once such a tile has passed.
#[derive(Debug)]
pub struct DecodeArena {
    buf: Vec<u8>,
    cap_keys: u64,
    /// Whether to time decoding into [`MultiBatchOutcome::decode_ns`].
    timed: bool,
}

impl DecodeArena {
    /// An empty arena; `timed` turns on decode timing (the engine sets it
    /// when it records metrics).
    pub fn new(timed: bool) -> Self {
        DecodeArena {
            buf: Vec::new(),
            cap_keys: ARENA_CAP_KEYS,
            timed,
        }
    }

    /// A timed arena with a smaller cap, so tests reach sub-batching on
    /// small graphs.
    #[cfg(test)]
    fn with_cap(cap_keys: u64) -> Self {
        DecodeArena {
            cap_keys,
            ..DecodeArena::new(true)
        }
    }

    /// Bytes of SNB records the arena currently holds room for.
    #[cfg(test)]
    fn held_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Decodes every tile of `tiles` with a nonzero `keys` entry (its
    /// count header) into the arena, in parallel chunks weighted by coded
    /// bytes, and returns the sub-batch with those tiles redirected to
    /// raw SNB views of their records. Edge counts keep the header value
    /// even where a corrupt stream decodes fewer keys.
    fn decode<'s>(
        &'s mut self,
        index: &TileIndex,
        tiles: &[Tile<'s>],
        keys: &[u64],
    ) -> Vec<Tile<'s>> {
        let total = keys.iter().sum::<u64>() as usize * 4;
        let cap = self.cap_keys as usize * 4;
        if self.buf.len() > cap && total <= cap {
            self.buf.truncate(cap);
            self.buf.shrink_to_fit();
        }
        if self.buf.len() < total {
            self.buf.resize(total, 0);
        }
        // Carve one exact slot per decoded tile; each slot is locked by
        // exactly one chunk, so the locks never contend.
        let mut rest = &mut self.buf[..total];
        let mut slots: Vec<(usize, Mutex<&mut [u8]>)> = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            if k > 0 {
                let (slot, tail) = std::mem::take(&mut rest).split_at_mut(k as usize * 4);
                slots.push((i, Mutex::new(slot)));
                rest = tail;
            }
        }
        let tiling = index.layout.tiling();
        let written: Vec<usize> = rayon::par_weighted_chunks(
            &slots,
            |(i, _)| tiles[*i].bytes.len() as u64,
            |chunk| {
                chunk
                    .iter()
                    .map(|(i, slot)| {
                        let t = &tiles[*i];
                        let coord = index.layout.coord_at(t.t);
                        TileView::coded(tiling, coord, index.encoding, t.codec, t.bytes)
                            .decode_snb(&mut slot.lock().expect("a decode chunk panicked"))
                    })
                    .collect::<Vec<_>>()
            },
        )
        .into_iter()
        .flatten()
        .collect();
        let mut out = tiles.to_vec();
        for ((i, slot), n) in slots.into_iter().zip(written) {
            let records: &'s [u8] = slot.into_inner().expect("a decode chunk panicked");
            out[i].bytes = &records[..n * 4];
            out[i].codec = Codec::RawSnb;
        }
        out
    }
}

/// One tile as the executors read it: its bytes (coded, or SNB records in
/// the decode arena), their codec, the edge count from the tile's header,
/// and the mask of queries that consume it.
#[derive(Debug, Clone, Copy)]
struct Tile<'a> {
    t: u64,
    bytes: &'a [u8],
    codec: Codec,
    edges: u64,
    mask: u64,
}

/// The batch's queries split by update mode, as bit masks.
#[derive(Debug, Clone, Copy, Default)]
struct ModeMasks {
    atomic: u64,
    /// Sharded queries: every one applies destination-side updates.
    dst: u64,
    /// [`UpdateMode::ShardedBoth`] queries, which also apply source-side
    /// updates.
    both: u64,
}

impl ModeMasks {
    fn of(queries: &[QueryRef<'_>]) -> Self {
        let mut m = ModeMasks::default();
        for (q, qr) in queries.iter().enumerate() {
            match qr.mode {
                UpdateMode::Atomic => m.atomic |= 1 << q,
                UpdateMode::ShardedDst => m.dst |= 1 << q,
                UpdateMode::ShardedBoth => {
                    m.dst |= 1 << q;
                    m.both |= 1 << q;
                }
            }
        }
        m
    }

    /// How many times the executors read a tile: once per atomic query,
    /// once per sharded query, and once more per [`UpdateMode::ShardedBoth`]
    /// query off the diagonal, where the two sides are separate items.
    fn reads(&self, mask: u64, diagonal: bool) -> u32 {
        let src_items = if diagonal { 0 } else { mask & self.both };
        (mask & self.atomic).count_ones() + (mask & self.dst).count_ones() + src_items.count_ones()
    }
}

/// A sharded work item of the shared scan: one tile serving every query
/// whose bit is set. `dst_mask`/`src_mask` say which queries apply
/// destination-side / source-side updates from this item; all of them
/// write only partition `key`, so no two shards write one vertex (queries
/// are data-independent — they never write each other's metadata).
struct MultiItem<'a> {
    tile: Tile<'a>,
    key: u32,
    dst_mask: u64,
    src_mask: u64,
}

#[inline]
pub(crate) fn for_each_bit(mut bits: u64, mut f: impl FnMut(usize)) {
    while bits != 0 {
        f(bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
}

/// Processes one shared batch for a whole query batch: each item is
/// `(tile, bytes, mask)` where bit `q` of `mask` means query `q`'s
/// frontier covers the tile. Each tile is dispatched to all interested
/// queries back-to-back — while its group metadata is hot — with
/// atomic-mode queries on the byte-weighted fallback executor and sharded
/// queries on the column-sharded schedule. On a coded store, a tile the
/// batch reads more than once is decoded once into `arena` (see the
/// module docs).
pub fn process_batch_queries(
    index: &TileIndex,
    queries: &[QueryRef<'_>],
    batch: &[(u64, &[u8], u64)],
    arena: &mut DecodeArena,
) -> MultiBatchOutcome {
    let k = queries.len();
    assert!(k <= 64, "tile masks are u64: at most 64 queries per batch");
    let mut out = MultiBatchOutcome {
        per_query: vec![BatchOutcome::default(); k],
        ..MultiBatchOutcome::default()
    };
    let masks = ModeMasks::of(queries);
    let codec = index.codec;
    let tiles: Vec<Tile<'_>> = batch
        .iter()
        .map(|&(t, bytes, mask)| Tile {
            t,
            bytes,
            codec,
            edges: match codec {
                Codec::RawSnb => index.encoding.edge_count(bytes),
                c => c.edge_count(bytes).unwrap_or(0),
            },
            mask,
        })
        .collect();
    if codec == Codec::RawSnb {
        dispatch(index, queries, masks, &tiles, &mut out);
        return out;
    }

    let keys: Vec<u64> = tiles
        .iter()
        .map(|tile| {
            let coord = index.layout.coord_at(tile.t);
            arena_keys(tile, masks.reads(tile.mask, coord.row == coord.col))
        })
        .collect();
    let mut start = 0;
    while start < tiles.len() {
        let mut end = start;
        let mut held = 0u64;
        while end < tiles.len() && (held == 0 || held + keys[end] <= arena.cap_keys) {
            held += keys[end];
            end += 1;
        }
        if held == 0 {
            dispatch(index, queries, masks, &tiles[start..end], &mut out);
        } else {
            let t0 = arena.timed.then(Instant::now);
            let decoded = arena.decode(index, &tiles[start..end], &keys[start..end]);
            out.decode_ns += t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
            dispatch(index, queries, masks, &decoded, &mut out);
        }
        start = end;
    }
    out
}

/// Keys a tile the executors read `reads` times puts in the decode arena:
/// its header count if it is read twice or more, else 0. A header
/// claiming more keys than the stream has bits (every code is at least
/// one bit) is corrupt; such a tile streams, so it cannot inflate the
/// arena.
fn arena_keys(tile: &Tile<'_>, reads: u32) -> u64 {
    let plausible = tile.edges <= 8 * tile.bytes.len() as u64;
    if reads >= 2 && plausible {
        tile.edges
    } else {
        0
    }
}

/// Runs both executors over one (sub-)batch, folding into `out`.
fn dispatch(
    index: &TileIndex,
    queries: &[QueryRef<'_>],
    masks: ModeMasks,
    tiles: &[Tile<'_>],
    out: &mut MultiBatchOutcome,
) {
    let k = queries.len();
    let tiling = *index.layout.tiling();
    let encoding = index.encoding;

    // --- Atomic queries: byte-weighted chunks, each tile fed to every
    // interested atomic query. ---
    let atomic_tiles: Vec<Tile<'_>> = tiles
        .iter()
        .filter(|tile| tile.mask & masks.atomic != 0)
        .map(|&tile| Tile {
            mask: tile.mask & masks.atomic,
            ..tile
        })
        .collect();
    if !atomic_tiles.is_empty() {
        let per_chunk: Vec<Vec<u64>> = rayon::par_weighted_chunks(
            &atomic_tiles,
            |tile| (tile.bytes.len() as u64).max(1) * u64::from(tile.mask.count_ones()),
            |chunk| {
                let mut edges = vec![0u64; k];
                for tile in chunk {
                    let coord = index.layout.coord_at(tile.t);
                    let view = TileView::coded(&tiling, coord, encoding, tile.codec, tile.bytes);
                    for_each_bit(tile.mask, |q| {
                        queries[q].alg.process_tile(&view);
                        edges[q] += tile.edges;
                    });
                }
                edges
            },
        );
        for chunk in per_chunk {
            for (q, e) in chunk.into_iter().enumerate() {
                out.per_query[q].edges += e;
                out.per_query[q].atomic_edges += e;
            }
        }
        out.groups_scheduled += group_visits(index, atomic_tiles.iter().map(|tile| tile.t));
    }

    // --- Sharded queries: the column-sharded schedule, with each item
    // fanning out to every sharded query that wants the tile. ---
    let shard_count = rayon::current_num_threads().max(1);
    let shards = plan_multi_shards(index, masks, tiles, shard_count);
    let per_shard: Vec<(Vec<BatchOutcome>, u64)> = shards
        .par_iter()
        .map(|shard| run_multi_shard(index, queries, shard))
        .collect();
    for (per_query, groups) in per_shard {
        for (dst, src) in out.per_query.iter_mut().zip(per_query) {
            dst.absorb(src);
        }
        out.groups_scheduled += groups;
    }
}

/// Builds the sharded executor's per-shard item lists for one batch:
/// greedy LPT over partitions, weighted by bytes × fan-out, then
/// group-major (ascending tile) order within each shard. Empty when no
/// sharded query wants any tile.
fn plan_multi_shards<'a>(
    index: &TileIndex,
    masks: ModeMasks,
    tiles: &[Tile<'a>],
    shard_count: usize,
) -> Vec<Vec<MultiItem<'a>>> {
    let mut items: Vec<MultiItem<'a>> = Vec::with_capacity(tiles.len() * 2);
    for &tile in tiles {
        let dm = tile.mask & masks.dst;
        if dm == 0 {
            continue;
        }
        let bm = tile.mask & masks.both;
        let coord = index.layout.coord_at(tile.t);
        if coord.row == coord.col {
            items.push(MultiItem {
                tile,
                key: coord.col,
                dst_mask: dm,
                src_mask: bm,
            });
        } else {
            // Off-diagonal tiles split: one item per endpoint side, each
            // keyed by the partition it writes. Both items read the same
            // tile, which is why a coded tile read by both is decoded once
            // into the arena first.
            items.push(MultiItem {
                tile,
                key: coord.col,
                dst_mask: dm,
                src_mask: 0,
            });
            if bm != 0 {
                items.push(MultiItem {
                    tile,
                    key: coord.row,
                    dst_mask: 0,
                    src_mask: bm,
                });
            }
        }
    }
    if items.is_empty() {
        return Vec::new();
    }

    let partitions = index.layout.tiling().partitions() as usize;
    let mut weight = vec![0u64; partitions];
    for it in &items {
        let fanout = u64::from((it.dst_mask | it.src_mask).count_ones());
        weight[it.key as usize] += (it.tile.bytes.len() as u64).max(1) * fanout;
    }
    let mut order: Vec<u32> = (0..partitions as u32)
        .filter(|&p| weight[p as usize] > 0)
        .collect();
    order.sort_by_key(|&p| std::cmp::Reverse(weight[p as usize]));
    let shard_count = shard_count.min(order.len()).max(1);
    let mut shard_of = vec![usize::MAX; partitions];
    let mut load = vec![0u64; shard_count];
    for p in order {
        let lightest = (0..shard_count).min_by_key(|&s| load[s]).unwrap();
        shard_of[p as usize] = lightest;
        load[lightest] += weight[p as usize];
    }
    let mut shards: Vec<Vec<MultiItem<'a>>> = (0..shard_count).map(|_| Vec::new()).collect();
    for it in items {
        let s = shard_of[it.key as usize];
        shards[s].push(it);
    }
    // Ascending linear tile index == physical-group-major order: a
    // group's q×q resident tiles are consecutive, so its row/col
    // metadata is touched in one contiguous burst per shard.
    for shard in &mut shards {
        shard.sort_by_key(|it| it.tile.t);
    }
    shards
}

/// Runs one shard of the shared scan sequentially: every interested
/// query processes a tile back-to-back while the tile's group metadata is
/// LLC-resident.
fn run_multi_shard(
    index: &TileIndex,
    queries: &[QueryRef<'_>],
    items: &[MultiItem<'_>],
) -> (Vec<BatchOutcome>, u64) {
    let tiling = *index.layout.tiling();
    let encoding = index.encoding;
    let mut out = vec![BatchOutcome::default(); queries.len()];
    let mut groups = 0u64;
    let mut last_group = u64::MAX;
    for it in items {
        let tile = it.tile;
        let coord = index.layout.coord_at(tile.t);
        let view = TileView::coded(&tiling, coord, encoding, tile.codec, tile.bytes);
        let ec = tile.edges;
        for_each_bit(it.dst_mask | it.src_mask, |q| {
            let sides = ShardSides {
                src: (it.src_mask >> q) & 1 == 1,
                dst: (it.dst_mask >> q) & 1 == 1,
            };
            queries[q].alg.process_tile_sharded(&view, sides);
            // A tile's edges are counted once per consuming query, on its
            // destination-side item (every tile has exactly one).
            if sides.dst {
                out[q].edges += ec;
                out[q].sharded_edges += ec;
            }
            out[q].plain_updates += ec * (sides.src as u64 + sides.dst as u64);
        });
        let g = index.layout.group_of_tile(tile.t).tile_start;
        if g != last_group {
            groups += 1;
            last_group = g;
        }
    }
    (out, groups)
}

/// Counts physical-group visits over a tile sequence (a group processed
/// contiguously counts once).
fn group_visits(index: &TileIndex, tiles: impl Iterator<Item = u64>) -> u64 {
    let mut visits = 0;
    let mut last = u64::MAX;
    for t in tiles {
        let g = index.layout.group_of_tile(t).tile_start;
        if g != last {
            visits += 1;
            last = g;
        }
    }
    visits
}

/// Static estimate of the per-group metadata working set the group-major
/// schedule keeps LLC-resident: one group spans `q` row partitions and `q`
/// column partitions of `tile_span` vertices each, at ~16 bytes of
/// algorithmic metadata per vertex (rank+next, or label+degree).
pub fn llc_resident_estimate(index: &TileIndex) -> u64 {
    let tiling = index.layout.tiling();
    let q = index.layout.group_side() as u64;
    2 * q * tiling.tile_span() * 16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Bfs, KCore, PageRank, Wcc};
    use crate::inmem::store_from_edges;
    use crate::IterationOutcome;
    use gstore_graph::gen::{generate_rmat, RmatParams};
    use gstore_graph::{Edge, GraphKind};
    use gstore_tile::{encode_store, TileStore};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn index_of(store: &TileStore) -> TileIndex {
        TileIndex::raw(
            store.layout().clone(),
            store.encoding(),
            store.start_edge().to_vec(),
        )
    }

    fn full_batch(store: &TileStore) -> Vec<(u64, &[u8])> {
        (0..store.tile_count())
            .map(|t| (t, store.tile_bytes(t)))
            .collect()
    }

    /// Every tile of a (possibly coded) store's data blob, all masks `mask`.
    fn masked_batch<'a>(index: &TileIndex, data: &'a [u8], mask: u64) -> Vec<(u64, &'a [u8], u64)> {
        (0..index.layout.tile_count())
            .map(|t| {
                let r = index.tile_byte_range(t);
                (t, &data[r.start as usize..r.end as usize], mask)
            })
            .collect()
    }

    fn degrees(el: &gstore_graph::EdgeList) -> Vec<u64> {
        gstore_graph::degree::CompactDegrees::from_edge_list(el)
            .unwrap()
            .to_vec()
    }

    /// One solo query through the dispatcher: a one-slot batch, pinned to
    /// the atomic executor when `atomic` is set.
    fn run_one(
        index: &TileIndex,
        alg: &dyn Algorithm,
        batch: &[(u64, &[u8])],
        atomic: bool,
    ) -> BatchOutcome {
        let mode = if atomic {
            UpdateMode::Atomic
        } else {
            alg.update_mode()
        };
        let masked: Vec<(u64, &[u8], u64)> = batch.iter().map(|&(t, b)| (t, b, 1)).collect();
        let out = process_batch_queries(
            index,
            &[QueryRef { alg, mode }],
            &masked,
            &mut DecodeArena::new(true),
        );
        assert_eq!(out.per_query.len(), 1);
        out.aggregate()
    }

    fn tiles_of<'a>(index: &TileIndex, batch: &[(u64, &'a [u8])], mask: u64) -> Vec<Tile<'a>> {
        batch
            .iter()
            .map(|&(t, bytes)| Tile {
                t,
                bytes,
                codec: index.codec,
                edges: index.encoding.edge_count(bytes),
                mask,
            })
            .collect()
    }

    #[test]
    fn shard_plan_is_conflict_free_and_complete() {
        let both = ModeMasks {
            atomic: 0,
            dst: 1,
            both: 1,
        };
        for kind in [GraphKind::Undirected, GraphKind::Directed] {
            let el = generate_rmat(&RmatParams::kron(8, 8).with_kind(kind)).unwrap();
            let store = store_from_edges(&el, 3);
            let index = index_of(&store);
            let batch = full_batch(&store);
            let tiles = tiles_of(&index, &batch, 1);
            for shard_count in [1usize, 2, 7] {
                let shards = plan_multi_shards(&index, both, &tiles, shard_count);
                assert!(shards.len() <= shard_count);
                // No partition appears in two shards.
                let mut owner = std::collections::HashMap::new();
                for (s, shard) in shards.iter().enumerate() {
                    for it in shard {
                        assert_eq!(*owner.entry(it.key).or_insert(s), s, "partition split");
                    }
                }
                // Every tile has exactly one dst-side item (edge counting)
                // and off-diagonal tiles also one src-side item.
                let mut dst_items = std::collections::HashMap::new();
                let mut src_items = std::collections::HashMap::new();
                for it in shards.iter().flatten() {
                    if it.dst_mask != 0 {
                        *dst_items.entry(it.tile.t).or_insert(0) += 1;
                    }
                    if it.src_mask != 0 {
                        *src_items.entry(it.tile.t).or_insert(0) += 1;
                    }
                }
                for &(t, _) in &batch {
                    assert_eq!(dst_items.get(&t), Some(&1), "tile {t}");
                    assert_eq!(src_items.get(&t), Some(&1), "tile {t}");
                }
                // Group-major within each shard: tile indices ascend.
                for shard in &shards {
                    assert!(shard.windows(2).all(|w| w[0].tile.t <= w[1].tile.t));
                }
            }
        }
    }

    #[test]
    fn sharded_and_atomic_agree_per_batch() {
        // One full-batch sweep, both executors, same graph: WCC labels and
        // k-core degrees are integer metadata and must match exactly;
        // counters must reconcile.
        let el = generate_rmat(&RmatParams::kron(8, 8)).unwrap();
        let store = store_from_edges(&el, 3);
        let index = index_of(&store);
        let batch = full_batch(&store);

        let mut wcc_a = Wcc::new(*store.layout().tiling());
        let mut wcc_s = Wcc::new(*store.layout().tiling());
        wcc_a.begin_iteration(0);
        wcc_s.begin_iteration(0);
        let a = run_one(&index, &wcc_a, &batch, true);
        let s = run_one(&index, &wcc_s, &batch, false);
        assert_eq!(a.edges, s.edges);
        assert_eq!(a.edges, el.edge_count());
        assert_eq!(a.atomic_edges, a.edges);
        assert_eq!(a.plain_updates, 0);
        assert_eq!(s.sharded_edges, s.edges);
        assert_eq!(s.atomic_edges, 0);
        assert!(s.plain_updates > 0);
        assert!(s.groups_scheduled > 0);
        // One sweep of min-propagation from identical start labels is
        // order-independent on the *final* labels only at fixpoint; run
        // both to convergence instead.
        for _ in 0..200 {
            wcc_a.begin_iteration(0);
            run_one(&index, &wcc_a, &batch, true);
            if wcc_a.end_iteration(0) == IterationOutcome::Converged {
                break;
            }
        }
        for _ in 0..200 {
            wcc_s.begin_iteration(0);
            run_one(&index, &wcc_s, &batch, false);
            if wcc_s.end_iteration(0) == IterationOutcome::Converged {
                break;
            }
        }
        assert_eq!(wcc_a.labels(), wcc_s.labels());
    }

    #[test]
    fn kcore_sharded_batch_counts_exact_degrees() {
        let el = generate_rmat(&RmatParams::kron(7, 6)).unwrap();
        let store = store_from_edges(&el, 2);
        let index = index_of(&store);
        let batch = full_batch(&store);
        let mut kc_a = KCore::new(*store.layout().tiling(), 2);
        let mut kc_s = KCore::new(*store.layout().tiling(), 2);
        loop {
            kc_a.begin_iteration(0);
            run_one(&index, &kc_a, &batch, true);
            if kc_a.end_iteration(0) == IterationOutcome::Converged {
                break;
            }
        }
        loop {
            kc_s.begin_iteration(0);
            run_one(&index, &kc_s, &batch, false);
            if kc_s.end_iteration(0) == IterationOutcome::Converged {
                break;
            }
        }
        assert_eq!(kc_a.membership(), kc_s.membership());
    }

    #[test]
    fn pagerank_sharded_batch_matches_atomic_within_fp_tolerance() {
        for kind in [GraphKind::Undirected, GraphKind::Directed] {
            let el = generate_rmat(&RmatParams::kron(8, 8).with_kind(kind)).unwrap();
            let store = store_from_edges(&el, 3);
            let index = index_of(&store);
            let batch = full_batch(&store);
            let deg = degrees(&el);
            let mut pr_a =
                PageRank::new(*store.layout().tiling(), deg.clone(), 0.85).with_iterations(10);
            let mut pr_s = PageRank::new(*store.layout().tiling(), deg, 0.85).with_iterations(10);
            for i in 0..10 {
                pr_a.begin_iteration(i);
                run_one(&index, &pr_a, &batch, true);
                pr_a.end_iteration(i);
                pr_s.begin_iteration(i);
                let out = run_one(&index, &pr_s, &batch, false);
                assert_eq!(out.atomic_edges, 0, "PageRank must never fall back");
                pr_s.end_iteration(i);
            }
            for (a, s) in pr_a.ranks().iter().zip(pr_s.ranks()) {
                assert!((a - s).abs() < 1e-12, "{a} vs {s} ({kind:?})");
            }
        }
    }

    #[test]
    fn mixed_query_batch_isolates_per_query_state_and_counters() {
        // Three queries of three modes over one shared scan: each must end
        // with the same metadata as a solo run, and per-query counters
        // must reflect only the tiles its mask covered.
        let el = generate_rmat(&RmatParams::kron(8, 8)).unwrap();
        let store = store_from_edges(&el, 3);
        let index = index_of(&store);
        let batch = full_batch(&store);
        let deg = degrees(&el);

        let mut wcc_solo = Wcc::new(*store.layout().tiling());
        let mut kc_solo = KCore::new(*store.layout().tiling(), 2);
        let mut pr_solo =
            PageRank::new(*store.layout().tiling(), deg.clone(), 0.85).with_iterations(3);
        let mut wcc = Wcc::new(*store.layout().tiling());
        let mut kc = KCore::new(*store.layout().tiling(), 2);
        let mut pr = PageRank::new(*store.layout().tiling(), deg, 0.85).with_iterations(3);

        for iter in 0..3 {
            wcc_solo.begin_iteration(iter);
            let s_wcc = run_one(&index, &wcc_solo, &batch, false);
            wcc_solo.end_iteration(iter);
            kc_solo.begin_iteration(iter);
            let s_kc = run_one(&index, &kc_solo, &batch, true);
            kc_solo.end_iteration(iter);
            pr_solo.begin_iteration(iter);
            let s_pr = run_one(&index, &pr_solo, &batch, false);
            pr_solo.end_iteration(iter);

            wcc.begin_iteration(iter);
            kc.begin_iteration(iter);
            pr.begin_iteration(iter);
            let masked: Vec<(u64, &[u8], u64)> =
                batch.iter().map(|&(t, b)| (t, b, 0b111u64)).collect();
            let multi = process_batch_queries(
                &index,
                &[
                    QueryRef {
                        alg: &wcc,
                        mode: wcc.update_mode(),
                    },
                    QueryRef {
                        alg: &kc,
                        mode: UpdateMode::Atomic,
                    },
                    QueryRef {
                        alg: &pr,
                        mode: pr.update_mode(),
                    },
                ],
                &masked,
                &mut DecodeArena::new(true),
            );
            wcc.end_iteration(iter);
            kc.end_iteration(iter);
            pr.end_iteration(iter);
            assert_eq!(multi.decode_ns, 0, "raw stores never decode");

            // Per-query counters match each solo sweep's counters
            // (modulo groups_scheduled, which is batch-level).
            assert_eq!(
                BatchOutcome {
                    groups_scheduled: s_wcc.groups_scheduled,
                    ..multi.per_query[0]
                },
                s_wcc
            );
            assert_eq!(
                BatchOutcome {
                    groups_scheduled: s_kc.groups_scheduled,
                    ..multi.per_query[1]
                },
                s_kc
            );
            assert_eq!(multi.per_query[2].edges, s_pr.edges);
            assert_eq!(multi.per_query[2].sharded_edges, s_pr.sharded_edges);
            assert_eq!(multi.per_query[2].plain_updates, s_pr.plain_updates);
            let agg = multi.aggregate();
            assert_eq!(agg.edges, s_wcc.edges + s_kc.edges + s_pr.edges);
        }
        // Integer metadata is bitwise identical; PageRank shares the
        // sharded schedule shape but fan-out changes LPT weights, so only
        // an fp tolerance holds for it.
        assert_eq!(wcc.labels(), wcc_solo.labels());
        assert_eq!(kc.membership(), kc_solo.membership());
        for (a, b) in pr.ranks().iter().zip(pr_solo.ranks()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn query_masks_restrict_dispatch() {
        // Two WCC queries with disjoint tile masks: each processes only
        // its half of the batch, and counters reflect the split.
        let el = generate_rmat(&RmatParams::kron(7, 6)).unwrap();
        let store = store_from_edges(&el, 2);
        let index = index_of(&store);
        let batch = full_batch(&store);
        let wcc0 = Wcc::new(*store.layout().tiling());
        let wcc1 = Wcc::new(*store.layout().tiling());
        let masked: Vec<(u64, &[u8], u64)> = batch
            .iter()
            .map(|&(t, b)| (t, b, if t % 2 == 0 { 0b01 } else { 0b10 }))
            .collect();
        let multi = process_batch_queries(
            &index,
            &[
                QueryRef {
                    alg: &wcc0,
                    mode: wcc0.update_mode(),
                },
                QueryRef {
                    alg: &wcc1,
                    mode: wcc1.update_mode(),
                },
            ],
            &masked,
            &mut DecodeArena::new(true),
        );
        let edges_of = |t: u64| index.start_edge[t as usize + 1] - index.start_edge[t as usize];
        let even: u64 = (0..store.tile_count())
            .filter(|t| t % 2 == 0)
            .map(edges_of)
            .sum();
        let odd: u64 = (0..store.tile_count())
            .filter(|t| t % 2 == 1)
            .map(edges_of)
            .sum();
        assert_eq!(multi.per_query[0].edges, even);
        assert_eq!(multi.per_query[1].edges, odd);
        assert_eq!(multi.aggregate().edges, el.edge_count());
    }

    #[test]
    fn read_counts_follow_masks_and_sides() {
        let m = ModeMasks {
            atomic: 0b001,
            dst: 0b110,
            both: 0b100,
        };
        assert_eq!(m.reads(0b001, false), 1);
        assert_eq!(m.reads(0b010, false), 1);
        // A ShardedBoth query reads an off-diagonal tile once per side.
        assert_eq!(m.reads(0b100, false), 2);
        assert_eq!(m.reads(0b100, true), 1);
        assert_eq!(m.reads(0b111, false), 4);
        assert_eq!(m.reads(0b111, true), 3);
        assert_eq!(m.reads(0, false), 0);
    }

    /// Streaming keys of a coded view, in order.
    fn streamed(view: &TileView<'_>) -> Vec<Edge> {
        let mut out = Vec::new();
        view.for_each_edge(|s, d| out.push(Edge::new(s, d)));
        out
    }

    #[test]
    fn arena_views_match_streaming_keys_on_any_bytes() {
        // Valid, truncated, bit-flipped and random streams, for every
        // codec: the arena view must yield the keys the streaming view
        // yields, in order, and keep the header's edge count — including
        // where an Elias-Fano stream stops early.
        let tiling = gstore_tile::Tiling::new(1 << 16, 12, GraphKind::Directed).unwrap();
        let layout = gstore_tile::GroupedLayout::new(tiling, 2).unwrap();
        let index = TileIndex::raw(layout, gstore_tile::EdgeEncoding::Snb, vec![0; 1]);
        let tile_count = index.layout.tile_count();
        let mut rng = StdRng::seed_from_u64(7);
        for codec in Codec::CODED {
            let mut streams: Vec<Vec<u8>> = Vec::new();
            for case in 0..120 {
                let n = rng.gen_range(0usize..700);
                let mut raw = Vec::with_capacity(n * 4);
                for _ in 0..n {
                    let s: u16 = rng.gen_range(0u16..(1 << 12));
                    let d: u16 = rng.gen_range(0u16..(1 << 12));
                    raw.extend_from_slice(&s.to_le_bytes());
                    raw.extend_from_slice(&d.to_le_bytes());
                }
                let mut enc = codec.encode_tile(&raw).unwrap();
                match case % 4 {
                    0 => {}
                    1 => enc.truncate(rng.gen_range(0..enc.len().max(1))),
                    2 => {
                        for _ in 0..rng.gen_range(1usize..4) {
                            if !enc.is_empty() {
                                let i = rng.gen_range(0..enc.len());
                                enc[i] ^= 1 << rng.gen_range(0u32..8);
                            }
                        }
                    }
                    _ => {
                        let len = rng.gen_range(0usize..64);
                        enc = (0..len).map(|_| rng.gen::<u8>()).collect();
                    }
                }
                streams.push(enc);
            }
            let tiles: Vec<Tile<'_>> = streams
                .iter()
                .enumerate()
                .map(|(i, bytes)| Tile {
                    t: i as u64 % tile_count,
                    bytes,
                    codec,
                    edges: codec.edge_count(bytes).unwrap_or(0),
                    mask: 1,
                })
                .collect();
            let keys: Vec<u64> = tiles.iter().map(|t| arena_keys(t, 2)).collect();
            let mut arena = DecodeArena::new(true);
            let decoded = arena.decode(&index, &tiles, &keys);
            let (mut arena_decoded, mut stopped_early) = (0, 0);
            for (i, (orig, dec)) in tiles.iter().zip(&decoded).enumerate() {
                if i % 4 == 0 {
                    assert_eq!(keys[i], orig.edges, "valid streams go to the arena whole");
                }
                if keys[i] == 0 {
                    // Empty, or a corrupt header claiming more keys than
                    // the stream has bits: the tile keeps streaming.
                    assert_eq!(dec.codec, codec);
                    assert_eq!(dec.bytes, orig.bytes);
                    continue;
                }
                arena_decoded += 1;
                let coord = index.layout.coord_at(orig.t);
                let stream = TileView::coded(&tiling, coord, index.encoding, codec, orig.bytes);
                let view = TileView::coded(&tiling, coord, index.encoding, dec.codec, dec.bytes);
                assert_eq!(dec.codec, Codec::RawSnb);
                assert_eq!(
                    streamed(&view),
                    streamed(&stream),
                    "{} case {i}",
                    codec.name()
                );
                assert_eq!(dec.edges, stream.edge_count(), "{} case {i}", codec.name());
                if (dec.bytes.len() / 4) < dec.edges as usize {
                    stopped_early += 1;
                }
            }
            assert!(arena_decoded > 60, "{}: {arena_decoded}", codec.name());
            if codec == Codec::EliasFano {
                assert!(stopped_early > 0, "corrupt EF streams end early");
            }
        }
    }

    #[test]
    fn arena_never_exceeds_cap_or_largest_tile() {
        let el = generate_rmat(&RmatParams::kron(9, 8)).unwrap();
        let store = store_from_edges(&el, 3);
        let (index, data) = encode_store(&store, Codec::ZetaGap).unwrap();
        let batch = masked_batch(&index, &data, 1);
        let largest = (0..index.layout.tile_count())
            .map(|t| index.start_edge[t as usize + 1] - index.start_edge[t as usize])
            .max()
            .unwrap();
        let deg = degrees(&el);
        let pr = PageRank::new(*store.layout().tiling(), deg, 0.85);
        let query = [QueryRef {
            alg: &pr,
            mode: pr.update_mode(),
        }];
        for cap in [64u64, 1000, largest, ARENA_CAP_KEYS] {
            let mut arena = DecodeArena::with_cap(cap);
            let out = process_batch_queries(&index, &query, &batch, &mut arena);
            assert!(out.decode_ns > 0);
            assert_eq!(out.aggregate().edges, el.edge_count());
            assert!(
                arena.held_bytes() as u64 <= cap.max(largest) * 4,
                "cap {cap}: held {} bytes, largest tile {largest} keys",
                arena.held_bytes()
            );
            // A batch of small tiles only shrinks an arena a larger tile
            // grew past the cap.
            let small: Vec<(u64, &[u8], u64)> = batch
                .iter()
                .copied()
                .filter(|&(t, _, _)| {
                    index.start_edge[t as usize + 1] - index.start_edge[t as usize] <= cap
                })
                .collect();
            process_batch_queries(&index, &query, &small, &mut arena);
            assert!(arena.held_bytes() as u64 <= cap * 4, "cap {cap}");
        }
    }

    #[test]
    fn coded_sub_batches_match_raw_store() {
        // PageRank + WCC + k-core + BFS over one shared scan of a ζ, γ and
        // EF store, with an arena cap small enough to force many
        // sub-batches: metadata and edge counters match the raw store.
        let el = generate_rmat(&RmatParams::kron(8, 8)).unwrap();
        let store = store_from_edges(&el, 3);
        let tiling = *store.layout().tiling();
        let deg = degrees(&el);
        let run = |codec: Codec, cap: u64| {
            let (index, data) = encode_store(&store, codec).unwrap();
            let batch = masked_batch(&index, &data, 0b1111);
            let mut arena = DecodeArena::with_cap(cap);
            let mut pr = PageRank::new(tiling, deg.clone(), 0.85).with_iterations(4);
            let mut wcc = Wcc::new(tiling);
            let mut kc = KCore::new(tiling, 2);
            let mut bfs = Bfs::new(tiling, 0);
            let mut edges = 0;
            let mut decode_ns = 0;
            for iter in 0..4 {
                pr.begin_iteration(iter);
                wcc.begin_iteration(iter);
                kc.begin_iteration(iter);
                bfs.begin_iteration(iter);
                let out = process_batch_queries(
                    &index,
                    &[
                        QueryRef {
                            alg: &pr,
                            mode: pr.update_mode(),
                        },
                        QueryRef {
                            alg: &wcc,
                            mode: wcc.update_mode(),
                        },
                        QueryRef {
                            alg: &kc,
                            mode: kc.update_mode(),
                        },
                        QueryRef {
                            alg: &bfs,
                            mode: bfs.update_mode(),
                        },
                    ],
                    &batch,
                    &mut arena,
                );
                edges += out.aggregate().edges;
                decode_ns += out.decode_ns;
                pr.end_iteration(iter);
                wcc.end_iteration(iter);
                kc.end_iteration(iter);
                bfs.end_iteration(iter);
            }
            let ranks = pr.ranks().to_vec();
            (
                ranks,
                wcc.labels().to_vec(),
                kc.membership(),
                bfs.depths(),
                edges,
                decode_ns,
            )
        };
        let raw = run(Codec::RawSnb, ARENA_CAP_KEYS);
        assert_eq!(raw.5, 0);
        for codec in [Codec::ZetaGap, Codec::GammaGap, Codec::EliasFano] {
            for cap in [100, ARENA_CAP_KEYS] {
                let coded = run(codec, cap);
                for (a, b) in coded.0.iter().zip(&raw.0) {
                    assert!((a - b).abs() < 1e-9, "{}: rank {a} vs {b}", codec.name());
                }
                assert_eq!(coded.1, raw.1, "{} wcc", codec.name());
                assert_eq!(coded.2, raw.2, "{} kcore", codec.name());
                assert_eq!(coded.3, raw.3, "{} bfs", codec.name());
                assert_eq!(coded.4, raw.4, "{} edges", codec.name());
                assert!(coded.5 > 0, "{}: shared tiles decode", codec.name());
            }
        }
    }

    #[test]
    fn tiles_read_once_keep_streaming() {
        // A lone BFS and a directed PageRank read every tile once: no
        // arena decode.
        let el = generate_rmat(&RmatParams::kron(8, 8).with_kind(GraphKind::Directed)).unwrap();
        let store = store_from_edges(&el, 3);
        let tiling = *store.layout().tiling();
        let (index, data) = encode_store(&store, Codec::ZetaGap).unwrap();
        let batch = masked_batch(&index, &data, 1);
        let bfs = Bfs::new(tiling, 0);
        let pr = PageRank::new(tiling, degrees(&el), 0.85);
        for q in [
            QueryRef {
                alg: &bfs,
                mode: bfs.update_mode(),
            },
            QueryRef {
                alg: &pr,
                mode: pr.update_mode(),
            },
        ] {
            let mut arena = DecodeArena::new(true);
            let out = process_batch_queries(&index, &[q], &batch, &mut arena);
            assert_eq!(out.decode_ns, 0);
            assert_eq!(arena.held_bytes(), 0);
        }
    }

    #[test]
    fn llc_estimate_scales_with_group_side() {
        let el = generate_rmat(&RmatParams::kron(8, 4)).unwrap();
        let store = store_from_edges(&el, 3);
        let index = index_of(&store);
        let est = llc_resident_estimate(&index);
        let q = index.layout.group_side() as u64;
        assert_eq!(est, 2 * q * index.layout.tiling().tile_span() * 16);
        assert!(est > 0);
    }
}
