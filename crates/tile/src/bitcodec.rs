//! Bit-level tile codecs — WebGraph-style instantaneous codes over tile
//! contents (ROADMAP item 3; the paper's §VIII names tile compression as
//! future work).
//!
//! Every codec operates on one tile at a time. A tile's SNB edges pack
//! into `u32` keys `(src_local << 16) | dst_local`; sorting the keys makes
//! consecutive gaps small on skewed graphs, and the codecs exploit that:
//!
//! * [`Codec::RawSnb`] — identity; the tile bytes are the 4-byte SNB
//!   records, unsorted.
//! * [`Codec::DeltaVarint`] — sorted keys, delta gaps as LEB128 varints.
//!   The stream is byte-for-byte the PR-era [`crate::compress`] format,
//!   which is how legacy `.ctiles` stores migrate without recompression.
//! * [`Codec::GammaGap`] / [`Codec::ZetaGap`] — row-run bit streams
//!   written through a [`BitWriter`]: consecutive keys sharing a source
//!   local form a run, coded as γ(src delta), γ(run length), then the
//!   destination gaps in the codec's own code (γ, or ζ_k whose shallower
//!   unary prefix suits power-law gap distributions). Runs avoid paying
//!   the `src << 16` jump on every row change that flat key deltas would.
//! * [`Codec::EliasFano`] — the quasi-succinct monotone-sequence encoding
//!   over *packed* keys `(src << b) | dst`, where `b` (stored per tile) is
//!   just wide enough for the tile's largest destination: a 2^11-side tile
//!   shrinks its key universe 32× versus the fixed 16-bit packing, and the
//!   lower-bit width `l = ⌊log2(u/n)⌋` shrinks with it. Low bits are
//!   packed contiguously, high bits form a unary-gap bit vector, giving
//!   near-O(1) forward skip ([`TileCursor::skip_to`]) for point reads.
//!
//! Every coded stream starts with a byte-aligned LEB128 edge count, so
//! [`Codec::edge_count`] never touches the bit-level payload. Decoding is
//! streamed through [`TileCursor`]: the read path pulls fixed-size key
//! blocks straight out of the bit stream without ever materialising a
//! decompressed tile buffer.

use crate::compress::{compress_tile, decompress_tile, read_varint, write_varint};
use crate::snb::{SnbEdge, SNB_EDGE_BYTES};
use gstore_graph::{GraphError, Result};

/// ζ code shape parameter; k = 3 is WebGraph's default for web/social
/// gap distributions.
pub const ZETA_K: u32 = 3;

/// Upper bound on the per-tile edge count a coded stream may claim.
/// Tiles address 2^16 × 2^16 locals, and duplicate multi-edges are rare;
/// the bound keeps a corrupt count header from driving a near-endless
/// decode loop.
const MAX_TILE_EDGES: u64 = 1 << 33;

/// Identifies a tile codec; stored in the `.start` header (byte 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// Identity: raw 4-byte SNB records.
    RawSnb,
    /// Sorted-key deltas as byte-aligned LEB128 varints.
    DeltaVarint,
    /// Sorted-key deltas as Elias γ codes.
    GammaGap,
    /// Sorted-key deltas as ζ_k codes (k = [`ZETA_K`]).
    ZetaGap,
    /// Elias-Fano monotone-sequence encoding of the sorted keys.
    EliasFano,
}

impl Codec {
    /// Every codec, raw first.
    pub const ALL: [Codec; 5] = [
        Codec::RawSnb,
        Codec::DeltaVarint,
        Codec::GammaGap,
        Codec::ZetaGap,
        Codec::EliasFano,
    ];

    /// The compressed codecs (everything but the identity).
    pub const CODED: [Codec; 4] = [
        Codec::DeltaVarint,
        Codec::GammaGap,
        Codec::ZetaGap,
        Codec::EliasFano,
    ];

    /// Header tag. 0 is the raw format (and the value the v1 header's pad
    /// byte always held).
    #[inline]
    pub fn tag(self) -> u8 {
        match self {
            Codec::RawSnb => 0,
            Codec::DeltaVarint => 1,
            Codec::GammaGap => 2,
            Codec::ZetaGap => 3,
            Codec::EliasFano => 4,
        }
    }

    /// Inverse of [`Codec::tag`].
    pub fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            0 => Codec::RawSnb,
            1 => Codec::DeltaVarint,
            2 => Codec::GammaGap,
            3 => Codec::ZetaGap,
            4 => Codec::EliasFano,
            t => return Err(GraphError::Format(format!("unknown codec tag {t}"))),
        })
    }

    /// Stable lowercase name (CLI flag value, JSON field).
    pub fn name(self) -> &'static str {
        match self {
            Codec::RawSnb => "raw",
            Codec::DeltaVarint => "varint",
            Codec::GammaGap => "gamma",
            Codec::ZetaGap => "zeta",
            Codec::EliasFano => "ef",
        }
    }

    /// Parses a CLI spelling.
    pub fn parse(s: &str) -> Result<Self> {
        Ok(match s {
            "raw" | "snb" => Codec::RawSnb,
            "varint" | "delta-varint" => Codec::DeltaVarint,
            "gamma" => Codec::GammaGap,
            "zeta" => Codec::ZetaGap,
            "ef" | "elias-fano" => Codec::EliasFano,
            other => {
                return Err(GraphError::InvalidParameter(format!(
                    "unknown codec '{other}' (expected raw|varint|gamma|zeta|ef)"
                )))
            }
        })
    }

    /// Encodes one raw SNB tile into this codec's stream. Empty tiles
    /// (a large fraction of real grids) encode to zero bytes.
    pub fn encode_tile(self, raw: &[u8]) -> Result<Vec<u8>> {
        if raw.is_empty() {
            return Ok(Vec::new());
        }
        match self {
            Codec::RawSnb => {
                if !raw.len().is_multiple_of(SNB_EDGE_BYTES) {
                    return Err(GraphError::Format(format!(
                        "tile length {} is not a multiple of the SNB edge size",
                        raw.len()
                    )));
                }
                Ok(raw.to_vec())
            }
            Codec::DeltaVarint => compress_tile(raw),
            Codec::GammaGap => encode_gaps::<BitWriter>(raw, GapCode::Gamma),
            Codec::ZetaGap => encode_gaps::<BitWriter>(raw, GapCode::Zeta),
            Codec::EliasFano => encode_elias_fano::<BitWriter>(raw),
        }
    }

    /// Decodes a coded tile back to raw SNB bytes. Coded tiles come back
    /// sorted by `(src, dst)` — a reordering of the original multiset,
    /// transparent to order-independent tile algorithms.
    pub fn decode_tile(self, bytes: &[u8]) -> Result<Vec<u8>> {
        if bytes.is_empty() {
            return Ok(Vec::new());
        }
        match self {
            Codec::RawSnb => {
                if !bytes.len().is_multiple_of(SNB_EDGE_BYTES) {
                    return Err(GraphError::Format(format!(
                        "raw tile length {} is not a multiple of the SNB edge size",
                        bytes.len()
                    )));
                }
                Ok(bytes.to_vec())
            }
            Codec::DeltaVarint => decompress_tile(bytes),
            _ => {
                let mut cur = self.cursor(bytes)?;
                let mut out = Vec::with_capacity(cur.remaining() as usize * SNB_EDGE_BYTES);
                let mut block = [0u32; DECODE_BLOCK];
                loop {
                    let n = cur.next_block(&mut block);
                    if n == 0 {
                        break;
                    }
                    for &k in &block[..n] {
                        let e = SnbEdge::new((k >> 16) as u16, (k & 0xFFFF) as u16);
                        out.extend_from_slice(&e.to_bytes());
                    }
                }
                Ok(out)
            }
        }
    }

    /// Opens a streaming cursor over an encoded tile.
    pub fn cursor(self, bytes: &[u8]) -> Result<TileCursor<'_>> {
        TileCursor::new(self, bytes)
    }

    /// Number of edges a coded tile holds, from its count header alone.
    pub fn edge_count(self, bytes: &[u8]) -> Result<u64> {
        if self == Codec::RawSnb {
            return Ok((bytes.len() / SNB_EDGE_BYTES) as u64);
        }
        if bytes.is_empty() {
            return Ok(0);
        }
        let mut pos = 0usize;
        let n = read_varint(bytes, &mut pos)?;
        if n > MAX_TILE_EDGES {
            return Err(GraphError::Format(format!(
                "coded tile claims {n} edges, above the per-tile bound"
            )));
        }
        Ok(n)
    }
}

/// A pluggable tile codec: encodes a sorted in-tile edge list to a bit
/// stream and decodes it through a streaming cursor. The unit structs
/// ([`RawSnb`], [`DeltaVarint`], [`GammaGap`], [`ZetaGap`], [`EliasFano`])
/// implement it by delegating to the corresponding [`Codec`] variant;
/// [`codec_impl`] maps a header tag back to a static instance.
pub trait TileCodec: Send + Sync {
    /// The tag enum value this codec serialises as.
    fn codec(&self) -> Codec;

    /// Encodes one raw SNB tile into this codec's stream.
    fn encode_tile(&self, raw: &[u8]) -> Result<Vec<u8>> {
        self.codec().encode_tile(raw)
    }

    /// Decodes an encoded tile back to raw SNB bytes.
    fn decode_tile(&self, bytes: &[u8]) -> Result<Vec<u8>> {
        self.codec().decode_tile(bytes)
    }

    /// Opens a streaming cursor over an encoded tile.
    fn cursor<'a>(&self, bytes: &'a [u8]) -> Result<TileCursor<'a>> {
        self.codec().cursor(bytes)
    }
}

/// Identity codec: raw SNB records.
#[derive(Debug, Clone, Copy, Default)]
pub struct RawSnb;
/// Byte-aligned delta+varint codec (the PR-era scheme, migrated).
#[derive(Debug, Clone, Copy, Default)]
pub struct DeltaVarint;
/// Elias γ gap codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct GammaGap;
/// ζ_k gap codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZetaGap;
/// Elias-Fano monotone codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct EliasFano;

impl TileCodec for RawSnb {
    fn codec(&self) -> Codec {
        Codec::RawSnb
    }
}
impl TileCodec for DeltaVarint {
    fn codec(&self) -> Codec {
        Codec::DeltaVarint
    }
}
impl TileCodec for GammaGap {
    fn codec(&self) -> Codec {
        Codec::GammaGap
    }
}
impl TileCodec for ZetaGap {
    fn codec(&self) -> Codec {
        Codec::ZetaGap
    }
}
impl TileCodec for EliasFano {
    fn codec(&self) -> Codec {
        Codec::EliasFano
    }
}

/// Static [`TileCodec`] instance for a tag — one dynamic dispatch per
/// tile, never per edge.
pub fn codec_impl(c: Codec) -> &'static dyn TileCodec {
    match c {
        Codec::RawSnb => &RawSnb,
        Codec::DeltaVarint => &DeltaVarint,
        Codec::GammaGap => &GammaGap,
        Codec::ZetaGap => &ZetaGap,
        Codec::EliasFano => &EliasFano,
    }
}

/// Keys decoded per [`TileCursor::next_block`] call on the internal
/// helpers; matches the view layer's block size.
const DECODE_BLOCK: usize = 128;

// ---------------------------------------------------------------------------
// Bit stream primitives (MSB-first within each byte).
// ---------------------------------------------------------------------------

/// Bits one [`BitReader::peek64`] is guaranteed to cover: a peek starts at
/// a byte boundary and shifts out at most 7 bits of its first byte.
const PEEK_BITS: u32 = 57;

/// Appends bits MSB-first to a byte vector; the final partial byte is
/// zero-padded by [`BitWriter::finish`]. Bits gather in a `u64`
/// accumulator and leave it as whole bytes.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    /// Pending bits, right-aligned: the low `used` bits are the stream's
    /// next bits (higher bits are stale and never flushed).
    acc: u64,
    /// Pending bit count; below 8 between calls.
    used: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Continues a bit stream after byte-aligned header bytes.
    pub fn with_prefix(out: Vec<u8>) -> Self {
        BitWriter {
            out,
            acc: 0,
            used: 0,
        }
    }

    #[inline]
    pub fn write_bit(&mut self, bit: u64) {
        self.write_bits(bit, 1);
    }

    /// Writes the low `n` bits of `v`, MSB first. `n <= 64`.
    #[inline]
    pub fn write_bits(&mut self, v: u64, n: u32) {
        debug_assert!(n <= 64);
        if n > 56 {
            // Keep `used + n` within the accumulator.
            self.write_bits(v >> 32, n - 32);
            self.write_bits(v, 32);
            return;
        }
        if n == 0 {
            return;
        }
        self.acc = (self.acc << n) | (v & (u64::MAX >> (64 - n)));
        self.used += n;
        while self.used >= 8 {
            self.used -= 8;
            self.out.push((self.acc >> self.used) as u8);
        }
    }

    /// Writes `zeros` zero bits followed by a one (unary code).
    #[inline]
    pub fn write_unary(&mut self, mut zeros: u64) {
        while zeros >= 56 {
            self.write_bits(0, 56);
            zeros -= 56;
        }
        self.write_bits(1, zeros as u32 + 1);
    }

    /// Bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.out.len() as u64 * 8 + self.used as u64
    }

    /// Flushes the final partial byte (zero-padded) and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        if self.used > 0 {
            self.out.push((self.acc << (8 - self.used)) as u8);
        }
        self.out
    }
}

/// The bit stream the encoders write through: [`BitWriter`], and in
/// tests also the bit-at-a-time reference writer it must match byte for
/// byte.
trait BitSink {
    fn with_prefix(out: Vec<u8>) -> Self;
    fn write_bits(&mut self, v: u64, n: u32);
    fn write_unary(&mut self, zeros: u64);
    fn finish(self) -> Vec<u8>;
}

impl BitSink for BitWriter {
    fn with_prefix(out: Vec<u8>) -> Self {
        BitWriter::with_prefix(out)
    }
    #[inline]
    fn write_bits(&mut self, v: u64, n: u32) {
        BitWriter::write_bits(self, v, n)
    }
    #[inline]
    fn write_unary(&mut self, zeros: u64) {
        BitWriter::write_unary(self, zeros)
    }
    fn finish(self) -> Vec<u8> {
        BitWriter::finish(self)
    }
}

/// Reads bits MSB-first, a machine word at a time. Reads past the end
/// yield zeros — corrupt streams produce wrong keys, never unbounded work,
/// because every decode loop is bounded by the count header.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute bit position from the start of `bytes`.
    pos: u64,
}

impl<'a> BitReader<'a> {
    /// A reader positioned at `bit_pos` bits into `bytes`.
    pub fn at(bytes: &'a [u8], bit_pos: u64) -> Self {
        BitReader {
            bytes,
            pos: bit_pos,
        }
    }

    #[inline]
    pub fn bit_pos(&self) -> u64 {
        self.pos
    }

    /// Repositions to an absolute bit offset.
    #[inline]
    pub fn seek(&mut self, bit_pos: u64) {
        self.pos = bit_pos;
    }

    #[inline]
    fn end(&self) -> u64 {
        self.bytes.len() as u64 * 8
    }

    /// The next 64 bits, MSB-aligned, without consuming them. Only the top
    /// `64 - pos % 8` (at least 57) are stream bits; the rest, and every
    /// bit past the end of the stream, read as zero.
    #[inline]
    pub fn peek64(&self) -> u64 {
        let byte = (self.pos / 8) as usize;
        let word = match self.bytes.get(byte..byte.saturating_add(8)) {
            Some(b) => u64::from_be_bytes(b.try_into().expect("slice of 8 bytes")),
            None => {
                let mut buf = [0u8; 8];
                let tail = self.bytes.get(byte..).unwrap_or(&[]);
                buf[..tail.len()].copy_from_slice(tail);
                u64::from_be_bytes(buf)
            }
        };
        word << (self.pos % 8)
    }

    #[inline]
    pub fn read_bit(&mut self) -> u64 {
        self.read_bits(1)
    }

    /// Reads `n` bits MSB-first into the low bits of the result.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> u64 {
        debug_assert!(n <= 64);
        if n > PEEK_BITS {
            let hi = self.read_bits(n - 32);
            return (hi << 32) | self.read_bits(32);
        }
        if n == 0 {
            return 0;
        }
        let v = self.peek64() >> (64 - n);
        self.pos += n as u64;
        v
    }

    /// Counts zero bits up to the next one bit (which is consumed).
    /// Stream exhaustion terminates the count.
    #[inline]
    pub fn read_unary(&mut self) -> u64 {
        let w = self.peek64();
        if w != 0 {
            // Padding bits are zero, so this one bit is a stream bit.
            let zeros = w.leading_zeros() as u64;
            self.pos += zeros + 1;
            return zeros;
        }
        self.read_unary_long()
    }

    /// Cold path of [`BitReader::read_unary`]: a run of zeros longer than
    /// one peek, which only long Elias-Fano gaps and corrupt streams make.
    #[cold]
    fn read_unary_long(&mut self) -> u64 {
        let mut zeros = 0u64;
        while self.pos < self.end() {
            let w = self.peek64();
            if w != 0 {
                let z = w.leading_zeros() as u64;
                self.pos += z + 1;
                return zeros + z;
            }
            let step = (64 - self.pos % 8).min(self.end() - self.pos);
            zeros += step;
            self.pos += step;
        }
        zeros
    }

    /// Skips forward until `zeros` zero bits have been consumed, counting
    /// the one bits passed over: the Elias-Fano upper-bits select. Whole
    /// peeked words are skipped by popcount; the word holding the final
    /// zero is resolved by a select over its zero bits. Stops early at end
    /// of stream.
    pub fn skip_zeros(&mut self, mut zeros: u64, ones: &mut u64) {
        while zeros > 0 && self.pos < self.end() {
            let avail = (64 - self.pos % 8).min(self.end() - self.pos);
            let w = self.peek64();
            let set = w.count_ones() as u64;
            if avail - set < zeros {
                zeros -= avail - set;
                *ones += set;
                self.pos += avail;
                continue;
            }
            // The final zero lies in this word: clear the zeros before it
            // (bit-reversed, lowest first) and locate it.
            let mut inv = (!w & (u64::MAX << (64 - avail))).reverse_bits();
            for _ in 1..zeros {
                inv &= inv - 1;
            }
            let at = inv.trailing_zeros() as u64;
            *ones += at + 1 - zeros;
            self.pos += at + 1;
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Instantaneous codes over non-negative values (internally coded as v+1).
// ---------------------------------------------------------------------------

#[inline]
fn write_gamma(w: &mut impl BitSink, v: u64) {
    let x = v + 1;
    let n = 64 - x.leading_zeros(); // bit length of x, >= 1
    w.write_bits(0, n - 1);
    w.write_bits(x, n);
}

/// Longest γ unary prefix decoded from one peek: the whole code,
/// `2 * zeros + 1` bits, then fits in [`PEEK_BITS`].
const GAMMA_PEEK_ZEROS: u32 = 27;

#[inline]
fn read_gamma(r: &mut BitReader) -> u64 {
    let w = r.peek64();
    let zeros = w.leading_zeros();
    if zeros > GAMMA_PEEK_ZEROS {
        return read_gamma_long(r);
    }
    // Unary prefix and payload together: the top `2 * zeros + 1` bits are
    // `zeros` zeros and then x with its leading one.
    r.pos += 2 * zeros as u64 + 1;
    (w >> (63 - 2 * zeros)) - 1
}

/// Generic γ decode through the reader, the cold path for codes longer
/// than one peek. Source deltas and destination gaps stay below 2^17, so
/// only runs of 2^28 or more keys and corrupt streams reach it.
#[cold]
fn read_gamma_long(r: &mut BitReader) -> u64 {
    let zeros = r.read_unary() as u32;
    // The unary count gave the bit length; the leading one bit was
    // consumed, so read the remaining `zeros` payload bits.
    let x = (1u64 << zeros.min(63)) | r.read_bits(zeros.min(63));
    x - 1
}

/// Width of the ζ interval `[2^(hk), 2^((h+1)k))`, saturated at the top of
/// the u64 range when `(h+1)k` would overflow a shift (largest shard, or a
/// corrupt stream implying an out-of-range value).
#[inline]
fn zeta_interval(h: u32, k: u32) -> (u64, u64) {
    let lo = 1u64 << (h * k).min(63);
    let hi_bits = (h + 1) * k;
    let z = if hi_bits >= 64 {
        lo.wrapping_neg() // 2^64 - lo
    } else {
        (1u64 << hi_bits) - lo
    };
    (lo, z)
}

#[inline]
fn write_zeta(w: &mut impl BitSink, v: u64, k: u32) {
    let x = v + 1;
    let bits = 64 - x.leading_zeros(); // >= 1
    let h = (bits - 1) / k;
    w.write_unary(h as u64);
    // Minimal binary code of x - 2^(hk) over the interval
    // [0, 2^((h+1)k) - 2^(hk)).
    let (lo, z) = zeta_interval(h, k);
    if z <= 1 {
        return; // one-value interval (k = 1, h = 0): zero payload bits
    }
    let r = x - lo;
    let s = 64 - (z - 1).leading_zeros(); // ceil(log2(z)), <= 63
    let thresh = (1u64 << s) - z;
    if r < thresh {
        w.write_bits(r, s - 1);
    } else {
        w.write_bits(r + thresh, s);
    }
}

/// Generic ζ_k decode, code by code through the reader; for k = 3 it is
/// the cold path of [`read_zeta3`].
#[cold]
fn read_zeta(r: &mut BitReader, k: u32) -> u64 {
    let h = (r.read_unary() as u32).min(63 / k);
    let (lo, z) = zeta_interval(h, k);
    if z <= 1 {
        return lo - 1;
    }
    let s = 64 - (z - 1).leading_zeros();
    let thresh = (1u64 << s) - z;
    let mut v = r.read_bits(s - 1);
    if v >= thresh {
        v = (v << 1) | r.read_bit();
        v -= thresh;
    }
    lo + v - 1
}

/// Longest ζ_3 unary prefix decoded from one peek: the whole code, at
/// most `4h + 4` bits, then fits in [`PEEK_BITS`].
const ZETA3_PEEK_H: u32 = 12;

/// ζ_3 decode from a single peek. For k = 3 the interval width is
/// `z = 7 * 2^(3h)`, so the minimal binary code has `s = 3h + 3` bits and
/// threshold `2^s - z = 2^(3h)`: short codewords take `3h + 2` bits.
#[inline]
fn read_zeta3(r: &mut BitReader) -> u64 {
    const { assert!(ZETA_K == 3, "the stored ζ code is ζ_3") };
    let w = r.peek64();
    let h = w.leading_zeros();
    if h > ZETA3_PEEK_H {
        return read_zeta(r, ZETA_K);
    }
    let payload = w << (h + 1);
    let lo = 1u64 << (3 * h);
    let short = payload >> (64 - (3 * h + 2));
    let (v, len) = if short < lo {
        (short, 4 * h + 3)
    } else {
        ((payload >> (64 - (3 * h + 3))) - lo, 4 * h + 4)
    };
    r.pos += len as u64;
    lo + v - 1
}

// ---------------------------------------------------------------------------
// Per-tile encoders.
// ---------------------------------------------------------------------------

/// Sorted `(src << 16) | dst` keys of a raw SNB tile.
fn sorted_keys(raw: &[u8]) -> Result<Vec<u32>> {
    if !raw.len().is_multiple_of(SNB_EDGE_BYTES) {
        return Err(GraphError::Format(format!(
            "tile length {} is not a multiple of the SNB edge size",
            raw.len()
        )));
    }
    let mut keys: Vec<u32> = raw
        .chunks_exact(SNB_EDGE_BYTES)
        .map(|c| {
            let e = SnbEdge::from_bytes([c[0], c[1], c[2], c[3]]);
            (e.src as u32) << 16 | e.dst as u32
        })
        .collect();
    keys.sort_unstable();
    Ok(keys)
}

#[derive(Debug, Clone, Copy)]
enum GapCode {
    Gamma,
    Zeta,
}

impl GapCode {
    #[inline]
    fn write(self, w: &mut impl BitSink, v: u64) {
        match self {
            GapCode::Gamma => write_gamma(w, v),
            GapCode::Zeta => write_zeta(w, v, ZETA_K),
        }
    }
}

/// Row-run layout: keys sharing a source local form a run coded as
/// `γ(src_delta) γ(len - 1) code(first_dst) code(dst_gap)…`. Run headers
/// are always γ (source deltas and run lengths are small); destination
/// gaps use the codec's own code. The first run's `src_delta` is the
/// absolute source local.
fn encode_gaps<W: BitSink>(raw: &[u8], code: GapCode) -> Result<Vec<u8>> {
    let keys = sorted_keys(raw)?;
    let mut header = Vec::with_capacity(raw.len() / 4 + 8);
    write_varint(&mut header, keys.len() as u64);
    let mut w = W::with_prefix(header);
    let mut i = 0usize;
    // prev_src + 1 + delta == src; u64::MAX makes the first delta absolute.
    let mut prev_src = u64::MAX;
    while i < keys.len() {
        let src = (keys[i] >> 16) as u64;
        let run_end = keys[i..]
            .iter()
            .position(|&k| (k >> 16) as u64 != src)
            .map(|p| i + p)
            .unwrap_or(keys.len());
        write_gamma(&mut w, src.wrapping_sub(prev_src).wrapping_sub(1));
        write_gamma(&mut w, (run_end - i - 1) as u64);
        code.write(&mut w, (keys[i] & 0xFFFF) as u64);
        for pair in keys[i..run_end].windows(2) {
            code.write(&mut w, ((pair[1] & 0xFFFF) - (pair[0] & 0xFFFF)) as u64);
        }
        prev_src = src;
        i = run_end;
    }
    Ok(w.finish())
}

/// Destination bit width used for packed Elias-Fano keys: just wide
/// enough for the tile's largest destination local, never zero.
#[inline]
fn ef_dst_bits(keys: &[u32]) -> u32 {
    let max_dst = keys.iter().map(|&k| k & 0xFFFF).max().unwrap_or(0);
    (32 - max_dst.leading_zeros()).max(1)
}

fn encode_elias_fano<W: BitSink>(raw: &[u8]) -> Result<Vec<u8>> {
    let keys = sorted_keys(raw)?;
    let n = keys.len() as u64;
    let mut out = Vec::with_capacity(raw.len() / 4 + 16);
    write_varint(&mut out, n);
    if n == 0 {
        return Ok(out);
    }
    // Pack each key as (src << b) | dst: the sequence stays strictly
    // sorted (same src order, same dst order within a src) while the
    // universe shrinks by 2^(16 - b).
    let b = ef_dst_bits(&keys);
    let packed: Vec<u64> = keys
        .iter()
        .map(|&k| ((k as u64 >> 16) << b) | (k as u64 & 0xFFFF))
        .collect();
    let last = *packed.last().unwrap();
    write_varint(&mut out, last);
    out.push(b as u8);
    let l = ef_lower_bits(last + 1, n);
    let mut w = W::with_prefix(out);
    // Lower halves, packed contiguously: element i's bits live at
    // [i*l, (i+1)*l) past the payload start, giving random access.
    if l > 0 {
        let mask = (1u64 << l) - 1;
        for &k in &packed {
            w.write_bits(k & mask, l);
        }
    }
    // Upper halves as unary gaps: high(k_i) - high(k_{i-1}) zeros, then a
    // one per element.
    let mut prev_high = 0u64;
    for &k in &packed {
        let high = k >> l;
        w.write_unary(high - prev_high);
        prev_high = high;
    }
    Ok(w.finish())
}

/// Elias-Fano lower-bit width: `⌊log2(u / n)⌋` for universe `u` and `n`
/// elements (0 when the sequence is dense).
#[inline]
fn ef_lower_bits(u: u64, n: u64) -> u32 {
    if n == 0 || u <= n {
        return 0;
    }
    63 - (u / n).leading_zeros()
}

// ---------------------------------------------------------------------------
// Streaming cursor.
// ---------------------------------------------------------------------------

/// Streaming decoder over one encoded tile. Yields the sorted
/// `(src_local << 16) | dst_local` keys (file order for [`Codec::RawSnb`])
/// without materialising the decompressed tile.
#[derive(Debug, Clone)]
pub enum TileCursor<'a> {
    Raw {
        bytes: &'a [u8],
        pos: usize,
    },
    Varint {
        bytes: &'a [u8],
        pos: usize,
        remaining: u64,
        key: u64,
    },
    Gamma(RunCursor<'a>),
    Zeta(RunCursor<'a>),
    Ef(EfCursor<'a>),
}

/// Decoder state for the γ/ζ row-run layout. The variant of
/// [`TileCursor`] holding it names the gap code.
#[derive(Debug, Clone)]
pub struct RunCursor<'a> {
    r: BitReader<'a>,
    /// Keys not yet yielded across all runs.
    remaining: u64,
    /// Keys left in the current run (0 → the next key starts a new run).
    run_remaining: u64,
    /// Current source local; `u64::MAX` before the first run so the first
    /// γ(src_delta) decodes as an absolute value.
    src: u64,
    dst: u64,
}

impl<'a> RunCursor<'a> {
    fn new(bytes: &'a [u8], pos: usize, n: u64) -> Self {
        RunCursor {
            r: BitReader::at(bytes, pos as u64 * 8),
            remaining: n,
            run_remaining: 0,
            src: u64::MAX,
            dst: 0,
        }
    }

    /// Decodes up to `out.len()` keys, reading destination gaps with
    /// `read_gap`. A run header is decoded once per run; the keys of a run
    /// then decode in a loop that only reads gaps.
    #[inline(always)]
    fn fill(&mut self, out: &mut [u32], read_gap: impl Fn(&mut BitReader) -> u64) -> usize {
        let n = self.remaining.min(out.len() as u64) as usize;
        let mut i = 0;
        while i < n {
            if self.run_remaining == 0 {
                self.src = self
                    .src
                    .wrapping_add(read_gamma(&mut self.r))
                    .wrapping_add(1)
                    .min(0xFFFF);
                // γ(len - 1): the keys of the run after this first one.
                self.run_remaining = read_gamma(&mut self.r);
                self.dst = read_gap(&mut self.r).min(0xFFFF);
                out[i] = ((self.src as u32) << 16) | self.dst as u32;
                i += 1;
                continue;
            }
            let m = self.run_remaining.min((n - i) as u64) as usize;
            let src = (self.src as u32) << 16;
            let mut dst = self.dst;
            for slot in &mut out[i..i + m] {
                dst = dst.saturating_add(read_gap(&mut self.r)).min(0xFFFF);
                *slot = src | dst as u32;
            }
            self.dst = dst;
            self.run_remaining -= m as u64;
            i += m;
        }
        self.remaining -= n as u64;
        n
    }
}

impl<'a> TileCursor<'a> {
    /// Parses the count header and positions the cursor at the first key.
    pub fn new(codec: Codec, bytes: &'a [u8]) -> Result<Self> {
        if codec == Codec::RawSnb {
            if !bytes.len().is_multiple_of(SNB_EDGE_BYTES) {
                return Err(GraphError::Format(format!(
                    "raw tile length {} is not a multiple of the SNB edge size",
                    bytes.len()
                )));
            }
            return Ok(TileCursor::Raw { bytes, pos: 0 });
        }
        if bytes.is_empty() {
            // Zero-length coded tiles are valid (empty tiles cost 0 bytes
            // on disk once the offset table collapses them).
            return Ok(TileCursor::Varint {
                bytes,
                pos: 0,
                remaining: 0,
                key: 0,
            });
        }
        let mut pos = 0usize;
        let n = read_varint(bytes, &mut pos)?;
        if n > MAX_TILE_EDGES {
            return Err(GraphError::Format(format!(
                "coded tile claims {n} edges, above the per-tile bound"
            )));
        }
        Ok(match codec {
            Codec::RawSnb => unreachable!(),
            Codec::DeltaVarint => TileCursor::Varint {
                bytes,
                pos,
                remaining: n,
                key: 0,
            },
            Codec::GammaGap => TileCursor::Gamma(RunCursor::new(bytes, pos, n)),
            Codec::ZetaGap => TileCursor::Zeta(RunCursor::new(bytes, pos, n)),
            Codec::EliasFano => TileCursor::Ef(EfCursor::new(bytes, pos, n)?),
        })
    }

    /// Keys not yet yielded.
    #[inline]
    pub fn remaining(&self) -> u64 {
        match self {
            TileCursor::Raw { bytes, pos } => ((bytes.len() - pos) / SNB_EDGE_BYTES) as u64,
            TileCursor::Varint { remaining, .. } => *remaining,
            TileCursor::Gamma(rc) | TileCursor::Zeta(rc) => rc.remaining,
            TileCursor::Ef(ef) => ef.n - ef.idx,
        }
    }

    /// Next key, or `None` when exhausted: a one-key block.
    #[inline]
    pub fn next_key(&mut self) -> Option<u32> {
        let mut key = [0u32; 1];
        (self.next_block(&mut key) == 1).then_some(key[0])
    }

    /// Decodes up to `out.len()` keys into `out`; returns how many were
    /// written. Zero means the cursor is exhausted. The codec is matched
    /// once per block, and each codec fills the block in its own loop.
    #[inline]
    pub fn next_block(&mut self, out: &mut [u32]) -> usize {
        match self {
            TileCursor::Raw { bytes, pos } => {
                let rest = &bytes[*pos..];
                let n = (rest.len() / SNB_EDGE_BYTES).min(out.len());
                for (slot, c) in out[..n].iter_mut().zip(rest.chunks_exact(SNB_EDGE_BYTES)) {
                    let e = SnbEdge::from_bytes([c[0], c[1], c[2], c[3]]);
                    *slot = (e.src as u32) << 16 | e.dst as u32;
                }
                *pos += n * SNB_EDGE_BYTES;
                n
            }
            TileCursor::Varint {
                bytes,
                pos,
                remaining,
                key,
            } => {
                let n = (*remaining).min(out.len() as u64) as usize;
                for slot in &mut out[..n] {
                    let delta = read_varint(bytes, pos).unwrap_or(0);
                    *key = key.saturating_add(delta).min(u32::MAX as u64);
                    *slot = *key as u32;
                }
                *remaining -= n as u64;
                n
            }
            TileCursor::Gamma(rc) => rc.fill(out, read_gamma),
            TileCursor::Zeta(rc) => rc.fill(out, read_zeta3),
            TileCursor::Ef(ef) => ef.fill(out),
        }
    }

    /// Best-effort forward skip: positions the cursor so subsequent keys
    /// include everything `>= target`. Elias-Fano skips through the upper
    /// bit vector in near-constant time; the sequential codecs are a
    /// no-op (their callers filter during the linear scan anyway).
    pub fn skip_to(&mut self, target: u32) {
        if let TileCursor::Ef(ef) = self {
            ef.skip_to(target);
        }
    }
}

/// Elias-Fano cursor state.
#[derive(Debug, Clone)]
pub struct EfCursor<'a> {
    n: u64,
    l: u32,
    /// Destination bit width of the packed keys `(src << b) | dst`.
    b: u32,
    /// Bit offset of the packed lower halves.
    lower_start: u64,
    idx: u64,
    high: u64,
    upper: BitReader<'a>,
    lower: BitReader<'a>,
}

impl<'a> EfCursor<'a> {
    fn new(bytes: &'a [u8], mut pos: usize, n: u64) -> Result<Self> {
        if n == 0 {
            return Ok(EfCursor {
                n: 0,
                l: 0,
                b: 16,
                lower_start: 0,
                idx: 0,
                high: 0,
                upper: BitReader::at(bytes, 0),
                lower: BitReader::at(bytes, 0),
            });
        }
        let last = read_varint(bytes, &mut pos)?;
        if last > u32::MAX as u64 {
            return Err(GraphError::Format(
                "Elias-Fano tile key above the 32-bit key space".into(),
            ));
        }
        let b = *bytes.get(pos).ok_or_else(|| {
            GraphError::Format("Elias-Fano tile truncated before the dst-width byte".into())
        })? as u32;
        if !(1..=16).contains(&b) {
            return Err(GraphError::Format(format!(
                "Elias-Fano dst width {b} outside 1..=16"
            )));
        }
        pos += 1;
        let l = ef_lower_bits(last + 1, n);
        let lower_start = pos as u64 * 8;
        let upper_start = lower_start + n * l as u64;
        Ok(EfCursor {
            n,
            l,
            b,
            lower_start,
            idx: 0,
            high: 0,
            upper: BitReader::at(bytes, upper_start),
            lower: BitReader::at(bytes, lower_start),
        })
    }

    /// Maps a packed `(src << b) | dst` value back to the canonical
    /// `(src << 16) | dst` key, clamping corrupt out-of-range halves.
    #[inline]
    fn unpack(&self, packed: u64) -> u32 {
        let src = (packed >> self.b).min(0xFFFF) as u32;
        let dst = (packed & ((1u64 << self.b) - 1)) as u32;
        (src << 16) | dst
    }

    /// Decodes up to `out.len()` keys: one unary upper-bits gap and one
    /// `l`-bit lower half per key.
    #[inline]
    fn fill(&mut self, out: &mut [u32]) -> usize {
        let n = (self.n - self.idx).min(out.len() as u64) as usize;
        for (i, slot) in out[..n].iter_mut().enumerate() {
            // This element's high-value gap: the zeros before its one bit.
            // The encoder wrote exactly n ones, so a missing one bit (end
            // of stream) or an absurd gap means a corrupt stream: bail as
            // exhausted.
            let start = self.upper.bit_pos();
            let gap = self.upper.read_unary();
            if gap > 1 << 33 || self.upper.bit_pos() != start + gap + 1 {
                self.idx = self.n;
                return i;
            }
            self.high += gap;
            let low = self.lower.read_bits(self.l);
            *slot = self.unpack((self.high << self.l) | low);
        }
        self.idx += n as u64;
        n
    }

    /// Skips to the first element whose high half is `>= packed(target) >>
    /// l`, using word-popcount scanning over the upper bit vector, then
    /// repositions the lower-bits reader by random access. The packed
    /// target rounds destinations beyond the tile's dst width down, so the
    /// skip under-approximates and never passes a key `>= target`.
    fn skip_to(&mut self, target: u32) {
        if self.n == 0 || self.idx >= self.n {
            return;
        }
        let mask = (1u64 << self.b) - 1;
        let packed_target = ((target as u64 >> 16) << self.b) | (target as u64 & 0xFFFF).min(mask);
        let target_high = packed_target >> self.l;
        if target_high <= self.high {
            return;
        }
        let mut ones = 0u64;
        self.upper.skip_zeros(target_high - self.high, &mut ones);
        self.idx += ones;
        self.high = target_high;
        if self.idx >= self.n {
            self.idx = self.n;
            return;
        }
        self.lower.seek(self.lower_start + self.idx * self.l as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-at-a-time writer [`BitWriter`] replaced, kept as the
    /// reference its streams must match byte for byte.
    #[derive(Default)]
    struct RefBitWriter {
        out: Vec<u8>,
        cur: u8,
        used: u32,
    }

    impl RefBitWriter {
        fn write_bit(&mut self, bit: u64) {
            self.cur = (self.cur << 1) | (bit as u8 & 1);
            self.used += 1;
            if self.used == 8 {
                self.out.push(self.cur);
                self.cur = 0;
                self.used = 0;
            }
        }

        fn bit_len(&self) -> u64 {
            self.out.len() as u64 * 8 + self.used as u64
        }
    }

    impl BitSink for RefBitWriter {
        fn with_prefix(out: Vec<u8>) -> Self {
            RefBitWriter {
                out,
                ..Default::default()
            }
        }
        fn write_bits(&mut self, v: u64, n: u32) {
            for i in (0..n).rev() {
                self.write_bit((v >> i) & 1);
            }
        }
        fn write_unary(&mut self, zeros: u64) {
            for _ in 0..zeros {
                self.write_bit(0);
            }
            self.write_bit(1);
        }
        fn finish(mut self) -> Vec<u8> {
            if self.used > 0 {
                self.out.push(self.cur << (8 - self.used));
            }
            self.out
        }
    }

    /// The bit-at-a-time reader [`BitReader`] replaced, with the generic
    /// γ/ζ decoders over it: the reference for every word-level read.
    struct RefBitReader<'a> {
        bytes: &'a [u8],
        pos: u64,
    }

    impl RefBitReader<'_> {
        fn eof(&self) -> bool {
            self.pos >= self.bytes.len() as u64 * 8
        }

        fn read_bit(&mut self) -> u64 {
            let byte = (self.pos / 8) as usize;
            if byte >= self.bytes.len() {
                self.pos += 1;
                return 0;
            }
            let bit = (self.bytes[byte] >> (7 - (self.pos % 8) as u32)) & 1;
            self.pos += 1;
            bit as u64
        }

        fn read_bits(&mut self, n: u32) -> u64 {
            let mut v = 0u64;
            for _ in 0..n {
                v = (v << 1) | self.read_bit();
            }
            v
        }

        fn read_unary(&mut self) -> u64 {
            let mut zeros = 0u64;
            while !self.eof() {
                if self.read_bit() == 1 {
                    break;
                }
                zeros += 1;
            }
            zeros
        }

        fn skip_zeros(&mut self, mut zeros: u64, ones: &mut u64) {
            while zeros > 0 && !self.eof() {
                if self.read_bit() == 1 {
                    *ones += 1;
                } else {
                    zeros -= 1;
                }
            }
        }

        fn read_gamma(&mut self) -> u64 {
            let zeros = self.read_unary() as u32;
            let x = (1u64 << zeros.min(63)) | self.read_bits(zeros.min(63));
            x - 1
        }

        fn read_zeta(&mut self, k: u32) -> u64 {
            let h = (self.read_unary() as u32).min(63 / k);
            let (lo, z) = zeta_interval(h, k);
            if z <= 1 {
                return lo - 1;
            }
            let s = 64 - (z - 1).leading_zeros();
            let thresh = (1u64 << s) - z;
            let mut v = self.read_bits(s - 1);
            if v >= thresh {
                v = (v << 1) | self.read_bit();
                v -= thresh;
            }
            lo + v - 1
        }
    }

    /// γ, ζ and Elias-Fano streams of `raw` written through `W`.
    fn encodings<W: BitSink>(raw: &[u8]) -> [Vec<u8>; 3] {
        [
            encode_gaps::<W>(raw, GapCode::Gamma).unwrap(),
            encode_gaps::<W>(raw, GapCode::Zeta).unwrap(),
            encode_elias_fano::<W>(raw).unwrap(),
        ]
    }

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    fn raw_tile(edges: &[(u16, u16)]) -> Vec<u8> {
        let mut buf = Vec::new();
        for &(s, d) in edges {
            buf.extend_from_slice(&SnbEdge::new(s, d).to_bytes());
        }
        buf
    }

    fn keys_of(raw: &[u8]) -> Vec<u32> {
        sorted_keys(raw).unwrap()
    }

    #[test]
    fn bit_writer_reader_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        w.write_unary(5);
        w.write_bits(0xDEADBEEF, 32);
        w.write_bit(1);
        let len = w.bit_len();
        assert_eq!(len, 4 + 6 + 32 + 1);
        let bytes = w.finish();
        let mut r = BitReader::at(&bytes, 0);
        assert_eq!(r.read_bits(4), 0b1011);
        assert_eq!(r.read_unary(), 5);
        assert_eq!(r.read_bits(32), 0xDEADBEEF);
        assert_eq!(r.read_bit(), 1);
    }

    #[test]
    fn reader_past_end_yields_zeros() {
        let bytes = [0xFFu8];
        let mut r = BitReader::at(&bytes, 0);
        assert_eq!(r.read_bits(8), 0xFF);
        assert_eq!(r.read_bits(16), 0);
        assert_eq!(r.read_unary(), 0); // terminates at end of stream
    }

    #[test]
    fn gamma_roundtrip_values() {
        let mut w = BitWriter::new();
        let vals = [0u64, 1, 2, 3, 7, 8, 127, 128, 1 << 16, u32::MAX as u64];
        for &v in &vals {
            write_gamma(&mut w, v);
        }
        let bytes = w.finish();
        let mut r = BitReader::at(&bytes, 0);
        for &v in &vals {
            assert_eq!(read_gamma(&mut r), v);
        }
    }

    #[test]
    fn zeta_roundtrip_values() {
        for k in 1..=6u32 {
            let mut w = BitWriter::new();
            let vals = [
                0u64,
                1,
                2,
                6,
                7,
                8,
                63,
                64,
                511,
                512,
                1 << 20,
                u32::MAX as u64,
            ];
            for &v in &vals {
                write_zeta(&mut w, v, k);
            }
            let bytes = w.finish();
            let mut r = BitReader::at(&bytes, 0);
            for &v in &vals {
                assert_eq!(read_zeta(&mut r, k), v, "k={k} v={v}");
            }
        }
    }

    #[test]
    fn zeta1_equals_gamma_length() {
        // ζ_1 is γ; the codes must agree bit for bit.
        for v in 0..200u64 {
            let mut a = BitWriter::new();
            write_gamma(&mut a, v);
            let mut b = BitWriter::new();
            write_zeta(&mut b, v, 1);
            assert_eq!(a.bit_len(), b.bit_len(), "v={v}");
            assert_eq!(a.finish(), b.finish(), "v={v}");
        }
    }

    fn sample_tiles() -> Vec<Vec<u8>> {
        let mut tiles = vec![
            raw_tile(&[]),                       // empty
            raw_tile(&[(0, 0)]),                 // single min edge
            raw_tile(&[(65535, 65535)]),         // single max edge
            raw_tile(&[(5, 9), (5, 9), (5, 9)]), // duplicates (gap 0)
            raw_tile(&[(0, 1), (0, 2), (0, 3), (1, 0)]),
        ];
        // Dense run (gap 1 everywhere).
        tiles.push(raw_tile(&(0..2000u16).map(|i| (0, i)).collect::<Vec<_>>()));
        // Skewed pseudo-random tile.
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut edges = Vec::new();
        for _ in 0..3000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            edges.push(((x >> 48) as u16 % 997, (x >> 32) as u16));
        }
        tiles.push(raw_tile(&edges));
        // Full corner spread.
        tiles.push(raw_tile(&[(0, 0), (0, 65535), (65535, 0), (65535, 65535)]));
        tiles
    }

    #[test]
    fn every_codec_roundtrips_every_sample() {
        for raw in sample_tiles() {
            let want = keys_of(&raw);
            for codec in Codec::ALL {
                let enc = codec.encode_tile(&raw).unwrap();
                assert_eq!(
                    codec.edge_count(&enc).unwrap(),
                    want.len() as u64,
                    "{} count",
                    codec.name()
                );
                // Full decode to SNB bytes.
                let dec = codec.decode_tile(&enc).unwrap();
                let mut got = keys_of(&dec);
                got.sort_unstable();
                assert_eq!(got, want, "{} bytes", codec.name());
                // Streaming cursor.
                let mut cur = codec.cursor(&enc).unwrap();
                assert_eq!(cur.remaining(), want.len() as u64);
                let mut keys = Vec::new();
                let mut block = [0u32; 17]; // odd size exercises refills
                loop {
                    let n = cur.next_block(&mut block);
                    if n == 0 {
                        break;
                    }
                    keys.extend_from_slice(&block[..n]);
                }
                keys.sort_unstable();
                assert_eq!(keys, want, "{} cursor", codec.name());
                assert_eq!(cur.remaining(), 0);
            }
        }
    }

    #[test]
    fn coded_streams_beat_varint_on_dense_tiles() {
        // Dense key space (u/n ~ 17): Elias-Fano spends ~log2(u/n) + 2 bits
        // per edge, so it only beats one-byte varint gaps on dense tiles.
        let raw = raw_tile(
            &(0..4000u16)
                .map(|i| (i / 2000, i % 2000))
                .collect::<Vec<_>>(),
        );
        let varint = Codec::DeltaVarint.encode_tile(&raw).unwrap().len();
        let gamma = Codec::GammaGap.encode_tile(&raw).unwrap().len();
        let zeta = Codec::ZetaGap.encode_tile(&raw).unwrap().len();
        let ef = Codec::EliasFano.encode_tile(&raw).unwrap().len();
        assert!(gamma < varint, "gamma {gamma} vs varint {varint}");
        assert!(zeta < varint, "zeta {zeta} vs varint {varint}");
        assert!(ef < varint, "ef {ef} vs varint {varint}");
    }

    #[test]
    fn elias_fano_skip_to_matches_linear_scan() {
        let mut edges: Vec<(u16, u16)> = Vec::new();
        let mut x = 0xDEADBEEFu64;
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            edges.push(((x >> 52) as u16, (x >> 36) as u16));
        }
        let raw = raw_tile(&edges);
        let keys = keys_of(&raw);
        let enc = Codec::EliasFano.encode_tile(&raw).unwrap();
        for target in [0u32, 1, 1 << 15, 1 << 22, keys[keys.len() / 2], u32::MAX] {
            let mut cur = Codec::EliasFano.cursor(&enc).unwrap();
            cur.skip_to(target);
            let mut got = Vec::new();
            while let Some(k) = cur.next_key() {
                if k >= target {
                    got.push(k);
                }
            }
            let want: Vec<u32> = keys.iter().copied().filter(|&k| k >= target).collect();
            assert_eq!(got, want, "target={target}");
        }
    }

    #[test]
    fn skip_to_midway_through_iteration() {
        let raw = raw_tile(
            &(0..1000u16)
                .map(|i| (i / 50, i.wrapping_mul(7)))
                .collect::<Vec<_>>(),
        );
        let keys = keys_of(&raw);
        let enc = Codec::EliasFano.encode_tile(&raw).unwrap();
        let mut cur = Codec::EliasFano.cursor(&enc).unwrap();
        // Consume a prefix, then skip.
        for _ in 0..100 {
            cur.next_key();
        }
        let target = keys[700];
        cur.skip_to(target);
        let mut got = Vec::new();
        while let Some(k) = cur.next_key() {
            if k >= target {
                got.push(k);
            }
        }
        let want: Vec<u32> = keys[100..]
            .iter()
            .copied()
            .filter(|&k| k >= target)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn delta_varint_stream_is_the_legacy_compress_format() {
        // Byte-for-byte on non-empty tiles: the migration path repackages
        // legacy blocks without recompression, which is only sound if the
        // streams match. (Empty tiles now encode to zero bytes, but the
        // cursor still accepts the legacy one-byte `varint(0)` block.)
        for raw in sample_tiles() {
            if raw.is_empty() {
                assert_eq!(
                    Codec::DeltaVarint.encode_tile(&raw).unwrap(),
                    Vec::<u8>::new()
                );
                continue;
            }
            assert_eq!(
                Codec::DeltaVarint.encode_tile(&raw).unwrap(),
                compress_tile(&raw).unwrap()
            );
        }
        // Legacy empty block parses as zero edges under every codec.
        for codec in Codec::CODED {
            let legacy_empty = compress_tile(&[]).unwrap();
            assert_eq!(codec.edge_count(&legacy_empty).unwrap(), 0);
            let mut cur = codec.cursor(&legacy_empty).unwrap();
            assert_eq!(cur.next_key(), None);
        }
    }

    #[test]
    fn ragged_raw_tiles_rejected() {
        for codec in Codec::ALL {
            assert!(codec.encode_tile(&[1, 2, 3]).is_err(), "{}", codec.name());
        }
        assert!(Codec::RawSnb.cursor(&[1, 2, 3]).is_err());
    }

    #[test]
    fn corrupt_count_header_rejected() {
        // A count far above the per-tile bound must be refused, not looped.
        let mut bytes = Vec::new();
        write_varint(&mut bytes, u64::MAX);
        for codec in Codec::CODED {
            assert!(codec.cursor(&bytes).is_err(), "{}", codec.name());
            assert!(codec.edge_count(&bytes).is_err(), "{}", codec.name());
        }
    }

    #[test]
    fn truncated_streams_never_panic_or_hang() {
        let raw = raw_tile(&(0..500u16).map(|i| (i % 7, i)).collect::<Vec<_>>());
        for codec in Codec::CODED {
            let enc = codec.encode_tile(&raw).unwrap();
            for cut in [enc.len() / 2, enc.len().saturating_sub(1), 1] {
                if let Ok(mut cur) = codec.cursor(&enc[..cut]) {
                    let mut block = [0u32; 64];
                    let mut total = 0u64;
                    loop {
                        let n = cur.next_block(&mut block);
                        if n == 0 {
                            break;
                        }
                        total += n as u64;
                    }
                    assert!(total <= 500);
                }
            }
        }
    }

    #[test]
    fn elias_fano_stops_where_its_upper_bits_end() {
        // The lower halves precede the upper bits, so a cut inside the
        // upper bits leaves a correct prefix; the first element whose one
        // bit is missing ends the cursor instead of yielding garbage.
        let raw = raw_tile(&(0..300u16).map(|i| (i / 3, i * 5)).collect::<Vec<_>>());
        let keys = keys_of(&raw);
        let enc = Codec::EliasFano.encode_tile(&raw).unwrap();
        let mut cur = Codec::EliasFano.cursor(&enc[..enc.len() - 8]).unwrap();
        let mut got = Vec::new();
        while let Some(k) = cur.next_key() {
            got.push(k);
        }
        assert!(got.len() < keys.len());
        assert_eq!(got, keys[..got.len()]);
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn tag_roundtrip_and_names() {
        for codec in Codec::ALL {
            assert_eq!(Codec::from_tag(codec.tag()).unwrap(), codec);
            assert_eq!(Codec::parse(codec.name()).unwrap(), codec);
            assert_eq!(codec_impl(codec).codec(), codec);
        }
        assert!(Codec::from_tag(200).is_err());
        assert!(Codec::parse("zstd").is_err());
    }

    #[test]
    fn trait_objects_delegate() {
        let raw = raw_tile(&[(1, 2), (3, 4), (3, 4)]);
        for codec in Codec::ALL {
            let obj = codec_impl(codec);
            let enc = obj.encode_tile(&raw).unwrap();
            let dec = obj.decode_tile(&enc).unwrap();
            let mut got = keys_of(&dec);
            got.sort_unstable();
            assert_eq!(got, keys_of(&raw));
            let mut cur = obj.cursor(&enc).unwrap();
            assert_eq!(cur.remaining(), 3);
            assert!(cur.next_key().is_some());
        }
    }

    #[test]
    fn empty_bytes_decode_as_empty_tile() {
        for codec in Codec::ALL {
            let mut cur = codec.cursor(&[]).unwrap();
            assert_eq!(cur.remaining(), 0);
            assert_eq!(cur.next_key(), None);
            assert_eq!(codec.edge_count(&[]).unwrap(), 0);
        }
    }

    #[test]
    fn word_writer_matches_reference_on_random_ops() {
        let mut x = 0x2545F4914F6CDD1Du64;
        for _ in 0..200 {
            let mut w = BitWriter::new();
            let mut r = RefBitWriter::default();
            for _ in 0..(xorshift(&mut x) % 64) {
                let v = xorshift(&mut x);
                if v & 1 == 0 {
                    let n = (v >> 8) as u32 % 65;
                    w.write_bits(v >> 1, n);
                    BitSink::write_bits(&mut r, v >> 1, n);
                } else {
                    // Mostly short runs, sometimes several words of zeros.
                    let zeros = (v >> 8) % if v & 2 == 0 { 9 } else { 300 };
                    w.write_unary(zeros);
                    BitSink::write_unary(&mut r, zeros);
                }
                assert_eq!(w.bit_len(), r.bit_len());
            }
            assert_eq!(w.finish(), r.finish());
        }
    }

    #[test]
    fn word_writer_streams_match_reference_on_sample_tiles() {
        for raw in sample_tiles() {
            assert_eq!(
                encodings::<BitWriter>(&raw),
                encodings::<RefBitWriter>(&raw)
            );
        }
    }

    proptest! {
        #[test]
        fn codec_streams_match_reference_writer(
            edges in proptest::collection::vec((any::<u16>(), any::<u16>()), 0..300),
            runs in proptest::collection::vec((0u16..64, 1u16..200, 0u16..8), 0..12),
        ) {
            // Random keys, then long same-source runs with small gaps.
            let mut raw = raw_tile(&edges);
            prop_assert_eq!(encodings::<BitWriter>(&raw), encodings::<RefBitWriter>(&raw));
            raw.clear();
            for (src, len, gap) in runs {
                for i in 0..len {
                    raw.extend_from_slice(&SnbEdge::new(src, i * gap).to_bytes());
                }
            }
            prop_assert_eq!(encodings::<BitWriter>(&raw), encodings::<RefBitWriter>(&raw));
        }
    }

    /// Random byte strings in three densities; the sparse ones hold the
    /// long zero runs that drive every read onto its cold path.
    fn differential_strings() -> Vec<Vec<u8>> {
        let mut x = 0x853C49E6748FEA9Bu64;
        let mut out = vec![Vec::new(), vec![0xFF], vec![0; 9], vec![0x80; 16]];
        // Zero runs of every length up to 79 bits followed by ones: codes
        // whose payload ends in one bits, at every alignment.
        for zeros in 1..=9 {
            for shift in 0..8 {
                out.push([vec![0; zeros], vec![0xFF >> shift], vec![0xFF; 8]].concat());
            }
        }
        for i in 0..96 {
            let len = (xorshift(&mut x) % 40) as usize;
            let bytes = (0..len)
                .map(|_| {
                    let v = xorshift(&mut x);
                    match i % 3 {
                        0 => v as u8,
                        1 if v.is_multiple_of(16) => (v >> 8) as u8,
                        2 if v.is_multiple_of(64) => 1u8 << ((v >> 8) % 8),
                        _ => 0,
                    }
                })
                .collect();
            out.push(bytes);
        }
        out
    }

    #[test]
    fn word_reader_matches_bit_reader_at_every_offset() {
        let (mut long_unary, mut long_gamma, mut long_zeta) = (0, 0, 0);
        for bytes in differential_strings() {
            // Every start offset, plus positions past the end where the
            // peek is all padding.
            for start in 0..bytes.len() as u64 * 8 + 72 {
                let mut probe = RefBitReader {
                    bytes: &bytes,
                    pos: start,
                };
                let run = probe.read_unary();
                let one_found = probe.pos == start + run + 1;
                long_unary += (one_found && run > PEEK_BITS as u64) as u32;
                long_gamma += (one_found && run > GAMMA_PEEK_ZEROS as u64) as u32;
                long_zeta += (one_found && run > ZETA3_PEEK_H as u64) as u32;

                // One read from `start` through each reader: same value,
                // same end position.
                let same =
                    |what: &str,
                     word: &dyn Fn(&mut BitReader) -> u64,
                     reference: &dyn Fn(&mut RefBitReader) -> u64| {
                        let mut w = BitReader::at(&bytes, start);
                        let mut r = RefBitReader {
                            bytes: &bytes,
                            pos: start,
                        };
                        let got = (word(&mut w), w.bit_pos());
                        let want = (reference(&mut r), r.pos);
                        assert_eq!(got, want, "{what} at bit {start} of {bytes:02x?}");
                    };
                for n in 0..=64 {
                    same(&format!("read_bits({n})"), &|w| w.read_bits(n), &|r| {
                        r.read_bits(n)
                    });
                }
                same("read_unary", &|w| w.read_unary(), &|r| r.read_unary());
                same("read_gamma", &|w| read_gamma(w), &|r| r.read_gamma());
                same("read_zeta3", &|w| read_zeta3(w), &|r| r.read_zeta(3));
                // k = 1 (γ) and the stored k = 3; at other k a corrupt
                // prefix can imply an interval wider than u64.
                for k in [1, ZETA_K] {
                    same(&format!("read_zeta({k})"), &|w| read_zeta(w, k), &|r| {
                        r.read_zeta(k)
                    });
                }
                for zeros in [1u64, 2, 7, 8, 9, 56, 57, 64, 65, 130, 400] {
                    let skip_word = |w: &mut BitReader| {
                        let mut ones = 0;
                        w.skip_zeros(zeros, &mut ones);
                        ones
                    };
                    let skip_ref = |r: &mut RefBitReader| {
                        let mut ones = 0;
                        r.skip_zeros(zeros, &mut ones);
                        ones
                    };
                    same(&format!("skip_zeros({zeros})"), &skip_word, &skip_ref);
                }
            }
        }
        // The strings reach every cold path, with a one bit ending the run.
        assert!(long_unary > 0, "no unary run longer than one peek");
        assert!(long_gamma > 0, "no γ code longer than one peek");
        assert!(long_zeta > 0, "no ζ_3 code longer than one peek");
    }
}
