//! Versioned, checksummed index-snapshot format.
//!
//! Building a shortest-distance index at metro scale is the expensive step
//! of the serving pipeline — minutes of contraction and label computation
//! that a restart should not pay twice. This module is the wire layer for
//! *warm restart*: a hand-rolled binary writer/reader pair (no serde, same
//! discipline as the telemetry exposition formats) plus a self-describing
//! container that `htsp-throughput` uses to persist a built index next to
//! the graph it answers on.
//!
//! # File layout
//!
//! | section   | bytes | contents                                        |
//! |-----------|-------|-------------------------------------------------|
//! | magic     | 8     | `b"HTSPSNAP"`                                   |
//! | version   | 4     | format version, little-endian ([`FORMAT_VERSION`]) |
//! | length    | 8     | payload length in bytes                         |
//! | payload   | —     | algorithm name, build params, graph, index state |
//! | checksum  | 8     | [`checksum64`] of the payload                   |
//!
//! Inside the payload every variable-length field is length-prefixed; the
//! graph section is the normalized edge list in edge-id order (so ids
//! round-trip exactly), and the index-state section is an opaque
//! per-algorithm blob produced by `IndexMaintainer::snapshot_state` (absent
//! for algorithms that rebuild deterministically from graph + params). The
//! state is the payload's last section, so [`IndexSnapshot::read_from`]
//! hands it out in the buffer the file was read into.
//!
//! What each kind stores as its state: DCH and TOAIN their hierarchy (rank
//! vector and upward arcs), DH2H and MHL the hierarchy and the H2H label
//! rows, PostMHL its elimination order alone (zigzag varint deltas of the
//! sequence, `htsp-ch`'s `VertexOrder` section), from which it rebuilds
//! shortcuts and labels; N-CH-P, P-TD-P and PMHL store none.
//!
//! # Graph section
//!
//! Two `u32`s, the vertex and edge counts, then each edge `(u, v, w)`,
//! `u < v`, in edge-id order as three LEB128 varints ([`ByteWriter::put_varint`]):
//! zigzag `u - u_prev` (the previous edge's `u`, 0 before the first),
//! `v - u - 1` and `w - 1`. Edge ids follow insertion order, which in the
//! generators visits the vertices close to id order, so a `u` delta is
//! mostly one byte; so is a weight up to 128, and on a 64-wide grid every
//! `v` gap. The format cannot say a pair that is not normalized or a zero
//! weight. Only the shortest encoding of each varint is read
//! ([`ByteReader::get_varint`]), so an accepted section re-encodes to the
//! bytes it was read from. On `grid64` (8 456 edges) the section takes
//! 3.0 B per edge against the 12 of format version 2's `(u, v, w)`
//! records; on `random_geometric(65536, 3)` 5.1 B.
//!
//! # Checksum
//!
//! The checksum is XXH64 with seed 0 (the published xxHash 64-bit
//! algorithm): four independent lanes, each folding one 8-byte
//! little-endian word of every 32-byte stripe, then the lanes merged, the
//! length folded in and the tail words and bytes mixed one by one. Each
//! step is a bijection of the running state for a fixed input word, and of
//! the word for a fixed state, so a single changed word changes the lane it
//! enters. The lanes are independent dependency chains, which is what lets
//! it run at memory speed: over the 3.9 MB DH2H snapshot of `grid64` it
//! takes 0.46–0.53 ms on a 2-vCPU Xeon, where the byte-at-a-time FNV-1a of
//! format version 1 took 6.4–6.5 ms. Files of versions 1 and 2 are refused
//! as [`SnapshotError::UnsupportedVersion`] (before the checksum is read).
//!
//! The fixed-width bulk sections — the CH and H2H sections in their crates
//! — are read with one bounds check per row or list
//! ([`ByteReader::take_records`], [`ByteReader::get_u32s`]) and converted
//! with `chunks_exact` + `from_le_bytes`, which compiles to a plain copy on
//! a little-endian target. The varint graph section is read a byte at a
//! time and costs more per edge than the fixed records it replaced: on a
//! 2-vCPU Xeon, medians of 21 decodes, `grid64`'s 8 456 edges take
//! 0.31–0.38 ms (0.24 ms as records) and `random_geometric(65536, 3)`'s
//! 122 301 take 9.7–9.8 ms (6.6 ms). Both are small beside the index
//! state's decode or rebuild; the bytes the section saves are what pay for
//! PostMHL's stored order.
//!
//! # Error discipline
//!
//! Decoding never panics on hostile bytes: every read is bounds-checked
//! ([`ByteReader`] returns [`SnapshotError::Truncated`]; lengths are
//! compared with checked arithmetic), the magic, version, and checksum are
//! verified before the payload is interpreted, and semantic violations (an
//! edge endpoint past the vertex count, a pair listed twice, a weight past
//! `u32`, a non-canonical varint, a vertex count past 2^28) surface as
//! [`SnapshotError::Malformed`]. Encoding does not panic either: a section
//! longer than its `u32` length prefix can say is
//! [`SnapshotError::SectionTooLarge`].

use crate::graph::Graph;
use crate::types::{VertexId, Weight};
use std::fmt;
use std::io::Write;
use std::ops::Range;
use std::path::Path;

/// Leading magic of every snapshot file.
pub const MAGIC: &[u8; 8] = b"HTSPSNAP";

/// Current snapshot format version: 3 since the graph section is varints
/// (version 2 stored 12-byte `(u, v, w)` records, and its H2H label rows
/// a length prefix and the self-distance; version 1 used FNV-1a as its
/// checksum).
pub const FORMAT_VERSION: u32 = 3;

/// Bytes before the payload: magic, version and payload length.
const HEADER_LEN: usize = 8 + 4 + 8;

/// Errors surfaced while reading or writing snapshots. Corrupt input is
/// always reported through one of these variants — never a panic.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not supported by this build.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build writes and reads.
        supported: u32,
    },
    /// The payload checksum does not match (bit rot or truncated rewrite).
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the payload actually read.
        computed: u64,
    },
    /// The input ended before a field could be read completely.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// The bytes decoded but violate a semantic invariant.
    Malformed(String),
    /// A section is too long for its `u32` length prefix (encoding only).
    SectionTooLarge {
        /// Which section.
        context: &'static str,
        /// Its length in bytes.
        len: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot format version {found} (this build supports {supported})"
            ),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapshotError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            SnapshotError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
            SnapshotError::SectionTooLarge { context, len } => write!(
                f,
                "snapshot section {context} has {len} bytes, more than a u32 length prefix can say"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
}

fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn merge_round(acc: u64, lane: u64) -> u64 {
    (acc ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

/// The snapshot payload checksum: XXH64 with seed 0 (see the module docs).
pub fn checksum64(bytes: &[u8]) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let tail = stripes.remainder();
    let mut h = if bytes.len() >= 32 {
        let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = round(*lane, le_u64(word));
            }
        }
        let [a, b, c, d] = lanes;
        let h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        lanes.iter().fold(h, |h, &lane| merge_round(h, lane))
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let words = tail.chunks_exact(8);
    let rest = words.remainder();
    for word in words {
        h ^= round(0, le_u64(word));
        h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
    }
    let rest = match rest.split_first_chunk::<4>() {
        Some((half, rest)) => {
            h ^= u64::from(u32::from_le_bytes(*half)).wrapping_mul(P1);
            h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            rest
        }
        None => rest,
    };
    for &b in rest {
        h ^= u64::from(b).wrapping_mul(P5);
        h = h.rotate_left(11).wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Little-endian binary writer used by every snapshot encoder.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends `v` as an unsigned LEB128 varint: seven bits per byte, low
    /// group first, the high bit set on every byte but the last.
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends `v` zigzag-mapped (`0, -1, 1, -2, …` to `0, 1, 2, 3, …`) as a
    /// varint, so small deltas of either sign take one byte.
    pub fn put_zigzag(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Appends a `u32` length prefix followed by the raw bytes, or fails
    /// (writing nothing) when `bytes` is too long for the prefix.
    pub fn put_bytes(&mut self, bytes: &[u8], context: &'static str) -> Result<(), SnapshotError> {
        self.put_u32(section_len(bytes.len(), context)?);
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str, context: &'static str) -> Result<(), SnapshotError> {
        self.put_bytes(s.as_bytes(), context)
    }

    /// Finishes the writer, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// The `u32` length prefix of a section of `len` bytes.
fn section_len(len: usize, context: &'static str) -> Result<u32, SnapshotError> {
    u32::try_from(len).map_err(|_| SnapshotError::SectionTooLarge { context, len })
}

/// Bounds-checked little-endian reader over a byte slice.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps `buf` at position 0.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated { context });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads the next `count` records of `width` (> 0) bytes each with one
    /// bounds check: the bulk decoders convert them with `chunks_exact` and
    /// `from_le_bytes`, which an optimized build vectorizes.
    pub fn take_records(
        &mut self,
        count: usize,
        width: usize,
        context: &'static str,
    ) -> Result<std::slice::ChunksExact<'a, u8>, SnapshotError> {
        let len = count
            .checked_mul(width)
            .ok_or(SnapshotError::Truncated { context })?;
        Ok(self.take(len, context)?.chunks_exact(width))
    }

    /// Reads `count` little-endian `u32`s with one bounds check.
    pub fn get_u32s(
        &mut self,
        count: usize,
        context: &'static str,
    ) -> Result<impl ExactSizeIterator<Item = u32> + 'a, SnapshotError> {
        Ok(self.take_records(count, 4, context)?.map(le_u32))
    }

    /// Reads one byte.
    pub fn get_u8(&mut self, context: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self, context: &'static str) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(
            self.take(2, context)?.try_into().unwrap(),
        ))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self, context: &'static str) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().unwrap(),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self, context: &'static str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().unwrap(),
        ))
    }

    /// Reads a varint written by [`ByteWriter::put_varint`]. Only the
    /// canonical (shortest) encoding of a `u64` is accepted: a last byte of
    /// zero after others, or bits past 64, are [`SnapshotError::Malformed`],
    /// so every accepted varint re-encodes to the bytes it was read from.
    pub fn get_varint(&mut self, context: &'static str) -> Result<u64, SnapshotError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.get_u8(context)?;
            let group = u64::from(byte & 0x7F);
            if shift == 63 && group > 1 {
                break;
            }
            v |= group << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err(SnapshotError::Malformed(format!(
                        "{context}: overlong varint"
                    )));
                }
                return Ok(v);
            }
        }
        Err(SnapshotError::Malformed(format!(
            "{context}: varint overflows 64 bits"
        )))
    }

    /// Reads a zigzag varint written by [`ByteWriter::put_zigzag`].
    pub fn get_zigzag(&mut self, context: &'static str) -> Result<i64, SnapshotError> {
        let v = self.get_varint(context)?;
        Ok((v >> 1) as i64 ^ -((v & 1) as i64))
    }

    /// Reads a `u32`-length-prefixed byte section.
    pub fn get_bytes(&mut self, context: &'static str) -> Result<&'a [u8], SnapshotError> {
        let len = self.get_u32(context)? as usize;
        self.take(len, context)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self, context: &'static str) -> Result<String, SnapshotError> {
        let bytes = self.get_bytes(context)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Malformed(format!("{context}: invalid UTF-8")))
    }
}

/// The little-endian `u32` in the first four bytes of `bytes`.
pub fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().expect("4-byte word"))
}

/// Largest vertex count a graph section, or a DIMACS problem line
/// (`dimacs.rs`), may say: 2^28, eleven times the largest DIMACS road
/// network (USA, 23.9 M vertices). Isolated vertices take no bytes of
/// either, so this bound alone keeps a corrupt or lying count from sizing
/// the graph's arrays.
pub(crate) const MAX_GRAPH_VERTICES: usize = 1 << 28;

/// Encodes a graph as its normalized edge list in edge-id order: the vertex
/// and edge counts as `u32`s, then per edge `(u, v, w)` with `u < v` three
/// varints, zigzag `u - u_prev` (the previous edge's lower endpoint, 0
/// before the first), `v - u - 1` and `w - 1`.
pub fn encode_graph(g: &Graph, w: &mut ByteWriter) {
    w.put_u32(g.num_vertices() as u32);
    w.put_u32(g.num_edges() as u32);
    let mut prev = 0i64;
    for (_, u, v, weight) in g.edges() {
        w.put_zigzag(i64::from(u.0) - prev);
        w.put_varint(u64::from(v.0 - u.0 - 1));
        w.put_varint(u64::from(weight - 1));
        prev = i64::from(u.0);
    }
}

/// Decodes a graph encoded by [`encode_graph`], validating every edge
/// (endpoints in range, no duplicates, a weight that fits a [`Weight`]; the
/// encoding cannot say a pair that is not normalized or a zero weight).
/// Edge ids are reproduced by position.
pub fn decode_graph(r: &mut ByteReader<'_>) -> Result<Graph, SnapshotError> {
    let n = r.get_u32("graph vertex count")? as usize;
    if n > MAX_GRAPH_VERTICES {
        return Err(SnapshotError::Malformed(format!(
            "graph vertex count {n} exceeds {MAX_GRAPH_VERTICES}"
        )));
    }
    let m = r.get_u32("graph edge count")? as usize;
    // Every edge takes three bytes at least: a lying count fails here,
    // before anything is reserved for it.
    if m.saturating_mul(3) > r.remaining() {
        return Err(SnapshotError::Truncated {
            context: "graph edge list",
        });
    }
    let mut edges = Vec::with_capacity(m);
    let mut weights: Vec<Weight> = Vec::with_capacity(m);
    let mut prev = 0i64;
    for i in 0..m {
        let delta = r.get_zigzag("graph edge list")?;
        let u = prev
            .checked_add(delta)
            .filter(|&u| (0..n as i64).contains(&u))
            .ok_or_else(|| {
                SnapshotError::Malformed(format!(
                    "edge {i}: lower endpoint {prev} + {delta} out of range for {n} vertices"
                ))
            })?;
        let gap = r.get_varint("graph edge list")?;
        let v = (u as u64)
            .checked_add(gap)
            .and_then(|v| v.checked_add(1))
            .filter(|&v| v < n as u64)
            .ok_or_else(|| {
                SnapshotError::Malformed(format!(
                    "edge {i}: endpoint {u} + {gap} + 1 out of range for {n} vertices"
                ))
            })?;
        let w = r.get_varint("graph edge list")?;
        let w = w
            .checked_add(1)
            .and_then(|w| Weight::try_from(w).ok())
            .ok_or_else(|| {
                SnapshotError::Malformed(format!("edge {i}: weight {w} + 1 out of range"))
            })?;
        edges.push((VertexId(u as u32), VertexId(v as u32)));
        weights.push(w);
        prev = u;
    }
    let graph = Graph::from_normalized_edges(n, &edges, &weights);
    // A pair listed twice shows up twice in its lower endpoint's arcs:
    // `seen[b] == u` marks `b` as met in `u`'s arcs.
    let mut seen = vec![u32::MAX; n];
    for u in graph.vertices() {
        for arc in graph.arcs(u).filter(|a| a.to > u) {
            if std::mem::replace(&mut seen[arc.to.index()], u.0) == u.0 {
                return Err(SnapshotError::Malformed(format!(
                    "edge {}: duplicate edge ({}, {})",
                    arc.edge.index(),
                    u.0,
                    arc.to.0
                )));
            }
        }
    }
    Ok(graph)
}

/// One persisted index: everything warm restart needs to re-publish a
/// query view without rebuilding.
#[derive(Debug)]
pub struct IndexSnapshot {
    /// Registry name of the algorithm (e.g. `"DCH"`).
    pub algorithm: String,
    /// Opaque encoding of the build parameters (decoded by the registry).
    pub params: Vec<u8>,
    /// The graph the index answers on, with edge ids preserved.
    pub graph: Graph,
    /// Opaque per-algorithm index state; `None` for algorithms that rebuild
    /// deterministically from `graph` + `params`.
    pub state: Option<Vec<u8>>,
}

impl IndexSnapshot {
    /// Serializes the snapshot into the framed, checksummed file format.
    pub fn to_bytes(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut payload = ByteWriter::new();
        payload.put_str(&self.algorithm, "algorithm name")?;
        payload.put_bytes(&self.params, "build params")?;
        encode_graph(&self.graph, &mut payload);
        match &self.state {
            Some(state) => {
                payload.put_u8(1);
                payload.put_bytes(state, "index state")?;
            }
            None => payload.put_u8(0),
        }
        Ok(frame(&payload.into_bytes()))
    }

    /// Parses and verifies a snapshot file image (magic, version, length,
    /// checksum, then payload semantics).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let (mut snap, state) = Self::parse(bytes)?;
        snap.state = state.map(|range| bytes[range].to_vec());
        Ok(snap)
    }

    /// [`Self::from_bytes`] without the state section, which is returned as
    /// its byte range in `bytes` instead.
    fn parse(bytes: &[u8]) -> Result<(Self, Option<Range<usize>>), SnapshotError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.take(8, "magic")?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.get_u32("format version")?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        // A hostile length must fail here, not overflow the sum.
        let payload_len = usize::try_from(r.get_u64("payload length")?)
            .ok()
            .filter(|&len| len.checked_add(8).is_some_and(|need| need <= r.remaining()))
            .ok_or(SnapshotError::Truncated { context: "payload" })?;
        let payload = r.take(payload_len, "payload")?;
        let stored = r.get_u64("checksum")?;
        let computed = checksum64(payload);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        let mut p = ByteReader::new(payload);
        let algorithm = p.get_str("algorithm name")?;
        let params = p.get_bytes("build params")?.to_vec();
        let graph = decode_graph(&mut p)?;
        let state = match p.get_u8("state flag")? {
            0 => None,
            1 => {
                let len = p.get_bytes("index state")?.len();
                let end = HEADER_LEN + p.pos;
                Some(end - len..end)
            }
            other => {
                return Err(SnapshotError::Malformed(format!(
                    "unknown state flag {other}"
                )))
            }
        };
        let snap = IndexSnapshot {
            algorithm,
            params,
            graph,
            state: None,
        };
        Ok((snap, state))
    }

    /// Writes the snapshot to `path` (tmp-file-free single write; callers
    /// that need atomicity write to a sibling and rename). A section too
    /// long for the format fails before the file is created.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let bytes = self.to_bytes()?;
        std::fs::File::create(path)?.write_all(&bytes)?;
        Ok(())
    }

    /// Reads and verifies a snapshot from `path`. The state section is
    /// moved to the front of the buffer the file was read into and handed
    /// out in it, not copied into a new allocation.
    pub fn read_from(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let mut bytes = std::fs::read(path)?;
        let (mut snap, state) = Self::parse(&bytes)?;
        snap.state = state.map(|range| {
            bytes.truncate(range.end);
            bytes.drain(..range.start);
            bytes
        });
        Ok(snap)
    }
}

/// Frames `payload` as a snapshot file: header, payload, checksum.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 8);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&checksum64(payload).to_le_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn sample() -> IndexSnapshot {
        IndexSnapshot {
            algorithm: "DCH".to_string(),
            params: vec![1, 2, 3],
            graph: gen::grid(6, 6, gen::WeightRange::default(), 5),
            state: Some(vec![9; 100]),
        }
    }

    /// The graph section's bytes are the wire format: pin them for one fixed
    /// graph (edge ids in insertion order, a merged parallel edge, one
    /// updated weight), so no change of the in-memory graph can move them.
    #[test]
    fn graph_section_bytes_are_pinned() {
        use crate::graph::GraphBuilder;
        use crate::types::EdgeId;
        use crate::updates::{EdgeUpdate, UpdateBatch};
        let mut b = GraphBuilder::new(6);
        for (u, v, w) in [(4, 1, 7), (0, 1, 3), (2, 5, 11), (1, 2, 4), (3, 0, 9)] {
            b.add_edge(VertexId(u), VertexId(v), w);
        }
        b.add_edge(VertexId(5), VertexId(2), 6);
        b.add_edge(VertexId(3), VertexId(4), 2);
        let mut g = b.build();
        g.apply_batch(&UpdateBatch::from_updates(vec![EdgeUpdate::new(
            EdgeId(3),
            4,
            13,
        )]));
        let mut w = ByteWriter::new();
        encode_graph(&g, &mut w);
        #[rustfmt::skip]
        let expect = [
            6, 0, 0, 0, 6, 0, 0, 0, // n, m
            2, 2, 6,  // (1, 4, 7)
            1, 0, 2,  // (0, 1, 3)
            4, 2, 5,  // (2, 5, 6): the parallel pair's lighter weight
            1, 0, 12, // (1, 2, 13): updated
            1, 2, 8,  // (0, 3, 9)
            6, 0, 1,  // (3, 4, 2)
        ];
        assert_eq!(w.into_bytes(), expect);
    }

    #[test]
    fn round_trip() {
        let snap = sample();
        let bytes = snap.to_bytes().unwrap();
        let back = IndexSnapshot::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.algorithm, "DCH");
        assert_eq!(back.params, vec![1, 2, 3]);
        assert_eq!(back.state.as_deref(), Some(&[9u8; 100][..]));
        assert_eq!(back.graph.num_edges(), snap.graph.num_edges());
        for (e, u, v, w) in snap.graph.edges() {
            assert_eq!(back.graph.edge_endpoints(e), (u, v));
            assert_eq!(back.graph.edge_weight(e), w);
        }
    }

    #[test]
    fn stateless_round_trip() {
        let mut snap = sample();
        snap.state = None;
        let back = IndexSnapshot::from_bytes(&snap.to_bytes().unwrap()).expect("round trip");
        assert!(back.state.is_none());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample().to_bytes().unwrap();
        bytes[0] = b'X';
        assert!(matches!(
            IndexSnapshot::from_bytes(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = sample().to_bytes().unwrap();
        bytes[8] = 0xFF;
        assert!(matches!(
            IndexSnapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion { found, supported })
                if found != FORMAT_VERSION && supported == FORMAT_VERSION
        ));
    }

    #[test]
    fn a_version_1_file_is_refused_by_version_not_by_checksum() {
        let mut bytes = sample().to_bytes().unwrap();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            IndexSnapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion {
                found: 1,
                supported: 3
            })
        ));
    }

    /// A version-2 file with a checksum that no longer matches: the version
    /// is read, and refused, before the checksum is.
    #[test]
    fn a_version_2_file_is_refused_by_version_not_by_checksum() {
        let mut bytes = sample().to_bytes().unwrap();
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(matches!(
            IndexSnapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion {
                found: 2,
                supported: 3
            })
        ));
    }

    #[test]
    fn lying_payload_lengths_are_truncation_not_panics() {
        let clean = sample().to_bytes().unwrap();
        let past_end = (clean.len() - HEADER_LEN - 8 + 1) as u64;
        for len in [u64::MAX, u64::MAX - 7, past_end] {
            let mut bytes = clean.clone();
            bytes[12..20].copy_from_slice(&len.to_le_bytes());
            assert!(
                matches!(
                    IndexSnapshot::from_bytes(&bytes),
                    Err(SnapshotError::Truncated { context: "payload" })
                ),
                "payload length {len}"
            );
        }
    }

    #[test]
    fn read_from_hands_out_the_same_snapshot_as_from_bytes() {
        let snap = sample();
        let path =
            std::env::temp_dir().join(format!("htsp_snapshot_unit_{}.snap", std::process::id()));
        snap.write_to(&path).unwrap();
        let read = IndexSnapshot::read_from(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let parsed = IndexSnapshot::from_bytes(&snap.to_bytes().unwrap()).unwrap();
        assert_eq!(read.state, snap.state);
        assert_eq!(read.state, parsed.state);
        assert_eq!(read.algorithm, parsed.algorithm);
        assert_eq!(read.params, parsed.params);
        assert_eq!(read.graph.num_edges(), parsed.graph.num_edges());
    }

    #[test]
    fn a_section_past_the_u32_prefix_is_a_typed_error() {
        assert_eq!(section_len(u32::MAX as usize, "s").unwrap(), u32::MAX);
        let too_long = u32::MAX as usize + 1;
        assert!(matches!(
            section_len(too_long, "index state"),
            Err(SnapshotError::SectionTooLarge {
                context: "index state",
                len
            }) if len == too_long
        ));
    }

    #[test]
    fn corruption_fails_the_checksum() {
        let mut bytes = sample().to_bytes().unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            IndexSnapshot::from_bytes(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn every_truncation_point_is_a_typed_error() {
        let bytes = sample().to_bytes().unwrap();
        for len in 0..bytes.len() {
            let err = IndexSnapshot::from_bytes(&bytes[..len])
                .expect_err("every strict prefix must fail");
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. }
                        | SnapshotError::ChecksumMismatch { .. }
                        | SnapshotError::BadMagic
                        | SnapshotError::UnsupportedVersion { .. }
                ),
                "prefix of {len} bytes produced unexpected error: {err}"
            );
        }
    }

    #[test]
    fn malformed_graph_sections_are_rejected() {
        // Hand-assembled edge lists over 3 vertices, one `(zigzag u delta,
        // v - u - 1, w - 1)` triple per edge: a lower endpoint out of range
        // on either side, an upper endpoint out of range, a weight past
        // `u32`, a pair listed twice (not adjacent in the list), an overlong
        // varint.
        let cases: [(&[[u64; 3]], &str); 6] = [
            (&[[6, 0, 0]], "lower endpoint 0 + 3 out of range"),
            (&[[1, 0, 0]], "lower endpoint 0 + -1 out of range"),
            (&[[0, 6, 0]], "endpoint 0 + 6 + 1 out of range"),
            (
                &[[0, 0, u64::from(u32::MAX)]],
                "weight 4294967295 + 1 out of range",
            ),
            (
                &[[0, 1, 3], [2, 0, 0], [1, 1, 4]],
                "edge 2: duplicate edge (0, 2)",
            ),
            (&[[0x80, 0, 0]], "overlong varint"),
        ];
        for (edges, expect) in cases {
            let mut payload = ByteWriter::new();
            payload.put_str("DCH", "name").unwrap();
            payload.put_bytes(&[], "params").unwrap();
            payload.put_u32(3); // n
            payload.put_u32(edges.len() as u32);
            for edge in edges {
                match edge[0] {
                    // A zero spelled in two bytes.
                    0x80 => payload.buf.extend_from_slice(&[0x80, 0x00]),
                    delta => payload.put_varint(delta),
                }
                payload.put_varint(edge[1]);
                payload.put_varint(edge[2]);
            }
            payload.put_u8(0);
            let bytes = frame(&payload.into_bytes());
            match IndexSnapshot::from_bytes(&bytes) {
                Err(SnapshotError::Malformed(msg)) => assert!(msg.contains(expect), "{msg}"),
                other => panic!("{edges:?}: expected Malformed, got {other:?}"),
            }
        }
        // Isolated vertices take no bytes: the count alone is bounded.
        let mut section = ByteWriter::new();
        section.put_u32(MAX_GRAPH_VERTICES as u32 + 1);
        section.put_u32(0);
        let bytes = section.into_bytes();
        match decode_graph(&mut ByteReader::new(&bytes)) {
            Err(SnapshotError::Malformed(msg)) => assert!(msg.contains("exceeds"), "{msg}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn varints_round_trip_and_only_their_shortest_form_decodes() {
        let mut w = ByteWriter::new();
        let values = [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX];
        for v in values {
            w.put_varint(v);
        }
        let signed = [0, -1, 1, -64, 64, i64::MIN, i64::MAX];
        for v in signed {
            w.put_zigzag(v);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for v in values {
            assert_eq!(r.get_varint("v").unwrap(), v);
        }
        for v in signed {
            assert_eq!(r.get_zigzag("z").unwrap(), v);
        }
        assert_eq!(r.remaining(), 0);
        let mut one_byte = ByteWriter::new();
        one_byte.put_zigzag(-64);
        assert_eq!(one_byte.len(), 1);
        // Overlong zero and one; an eleventh byte; a tenth byte past bit 63;
        // a varint cut short.
        for (bytes, expect) in [
            (&[0x80, 0x00][..], "overlong"),
            (&[0x81, 0x80, 0x00][..], "overlong"),
            (&[0xFF; 11][..], "overflows"),
            (
                &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02][..],
                "overflows",
            ),
            (&[0x80][..], "truncated"),
        ] {
            let err = ByteReader::new(bytes).get_varint("v").unwrap_err();
            assert!(err.to_string().contains(expect), "{bytes:02x?}: {err}");
        }
    }

    #[test]
    fn writer_reader_primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_str("héllo", "e").unwrap();
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8("a").unwrap(), 7);
        assert_eq!(r.get_u16("b").unwrap(), 300);
        assert_eq!(r.get_u32("c").unwrap(), 70_000);
        assert_eq!(r.get_u64("d").unwrap(), 1 << 40);
        assert_eq!(r.get_str("e").unwrap(), "héllo");
        assert_eq!(r.remaining(), 0);
        assert!(matches!(
            r.get_u8("past end"),
            Err(SnapshotError::Truncated {
                context: "past end"
            })
        ));
    }

    #[test]
    fn checksum_matches_the_xxh64_reference_values() {
        // XXH64, seed 0: the empty input, the tail paths (1 byte; 3 bytes)
        // and the four lanes (39 bytes: one stripe, a 4-byte half word and
        // three bytes).
        assert_eq!(checksum64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(checksum64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(checksum64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            checksum64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn every_single_bit_flip_of_a_1_kib_payload_is_detected() {
        let payload: Vec<u8> = (0..1024u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let clean = frame(&payload);
        for bit in 0..payload.len() * 8 {
            let mut bytes = clean.clone();
            bytes[HEADER_LEN + bit / 8] ^= 1 << (bit % 8);
            assert!(
                matches!(
                    IndexSnapshot::from_bytes(&bytes),
                    Err(SnapshotError::ChecksumMismatch { .. })
                ),
                "flip of payload bit {bit} went undetected"
            );
        }
    }
}
