//! CH snapshot codec: serialize a [`ContractionHierarchy`] for warm restart.
//!
//! The encoding rides inside the payload of an
//! [`htsp_graph::IndexSnapshot`] (which supplies magic, versioning, and the
//! checksum); this module only defines the hierarchy *section*:
//!
//! ```text
//! n: u32
//! rank[v]: u32 × n              (permutation of 0..n)
//! mode: u8                      (0 = AllPairs, 1 = WitnessPruned)
//! hop_limit: u64                (only when mode == 1)
//! extra_shortcuts: u64
//! per vertex v in id order:
//!   arc_count: u32
//!   (target: u32, weight: u32) × arc_count   (rank-ascending)
//! ```
//!
//! Decoding never panics on corrupt bytes: the rank vector is validated as a
//! permutation and every arc target is bounds-checked *before* any
//! constructor with assertions runs, so malformed input surfaces as
//! [`SnapshotError::Malformed`] (or `Truncated` when bytes run out).
//!
//! A [`VertexOrder`] alone (PostMHL's whole snapshot state, from which it
//! rebuilds its hierarchy) has a section of its own, in the graph
//! section's varint codec:
//!
//! ```text
//! n: u32
//! zigzag(seq[i] - seq[i - 1]): varint × n   (seq[-1] = 0)
//! ```
//!
//! Its decoder takes only the shortest varints and a permutation of `0..n`,
//! so every sequence it accepts re-encodes to the bytes it was read from.
//!
//! The rank vector and each vertex's arc list are taken from the reader
//! with one bounds check each ([`ByteReader::get_u32s`],
//! [`ByteReader::take_records`]) and converted with `chunks_exact` +
//! `from_le_bytes`; the per-arc checks are then plain compares.

use crate::hierarchy::{ContractionHierarchy, ShortcutMode};
use crate::ordering::VertexOrder;
use htsp_graph::{le_u32, ByteReader, ByteWriter, SnapshotError, VertexId, Weight};

const MODE_ALL_PAIRS: u8 = 0;
const MODE_WITNESS_PRUNED: u8 = 1;

impl ContractionHierarchy {
    /// Appends this hierarchy's snapshot section to `w`.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        let n = self.num_vertices();
        w.put_u32(n as u32);
        for &r in self.order().ranks() {
            w.put_u32(r);
        }
        match self.mode() {
            ShortcutMode::AllPairs => w.put_u8(MODE_ALL_PAIRS),
            ShortcutMode::WitnessPruned { hop_limit } => {
                w.put_u8(MODE_WITNESS_PRUNED);
                w.put_u64(hop_limit as u64);
            }
        }
        w.put_u64(self.num_extra_shortcuts() as u64);
        for v in 0..n {
            let arcs = self.up_arcs(VertexId::from_index(v));
            w.put_u32(arcs.len() as u32);
            for &(u, weight) in arcs {
                w.put_u32(u.0);
                w.put_u32(weight);
            }
        }
    }

    /// Serializes the hierarchy section to a standalone byte vector.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Reads a hierarchy section from `r`, validating every structural
    /// invariant before reassembly.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.get_u32("hierarchy vertex count")? as usize;
        // The whole rank vector is taken before anything is reserved for
        // it, so a lying count fails as truncation.
        let ranks = r.get_u32s(n, "hierarchy rank vector")?.collect();
        let order = VertexOrder::try_from_ranks(ranks).map_err(SnapshotError::Malformed)?;
        let mode = match r.get_u8("hierarchy shortcut mode")? {
            MODE_ALL_PAIRS => ShortcutMode::AllPairs,
            MODE_WITNESS_PRUNED => ShortcutMode::WitnessPruned {
                hop_limit: r.get_u64("hierarchy hop limit")? as usize,
            },
            tag => {
                return Err(SnapshotError::Malformed(format!(
                    "unknown shortcut mode tag {tag}"
                )))
            }
        };
        let extra_shortcuts = r.get_u64("hierarchy extra shortcuts")? as usize;
        let mut up: Vec<Vec<(VertexId, Weight)>> = Vec::with_capacity(n);
        let ranks = order.ranks();
        for (v, &rank) in ranks.iter().enumerate() {
            let count = r.get_u32("hierarchy arc count")? as usize;
            let records = r.take_records(count, 8, "hierarchy arc list")?;
            let mut arcs = Vec::with_capacity(count);
            // Ranks strictly increase along the list, starting above `v`'s.
            let mut prev_rank = rank;
            for record in records {
                let (target, weight) = (le_u32(record), le_u32(&record[4..]));
                let Some(&tr) = ranks.get(target as usize) else {
                    return Err(SnapshotError::Malformed(format!(
                        "arc target {target} of vertex {v} out of range for {n} vertices"
                    )));
                };
                if tr <= prev_rank {
                    return Err(SnapshotError::Malformed(if tr <= rank {
                        format!("upward arc {v} -> {target} does not point to a higher rank")
                    } else {
                        format!("upward arcs of vertex {v} are not sorted by rank")
                    }));
                }
                prev_rank = tr;
                arcs.push((VertexId(target), weight));
            }
            up.push(arcs);
        }
        Ok(ContractionHierarchy::from_parts(
            order,
            up,
            mode,
            extra_shortcuts,
        ))
    }

    /// Deserializes a hierarchy section produced by
    /// [`Self::to_snapshot_bytes`].
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = ByteReader::new(bytes);
        let ch = Self::decode_from(&mut r)?;
        if r.remaining() != 0 {
            return Err(SnapshotError::Malformed(format!(
                "{} trailing bytes after hierarchy section",
                r.remaining()
            )));
        }
        Ok(ch)
    }
}

impl VertexOrder {
    /// Appends this order's snapshot section to `w`: the contraction
    /// sequence as zigzag varint deltas.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u32(self.len() as u32);
        let mut prev = 0i64;
        for &v in self.sequence() {
            w.put_zigzag(i64::from(v.0) - prev);
            prev = i64::from(v.0);
        }
    }

    /// Serializes the order section to a standalone byte vector.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Reads an order section from `r`; a sequence that is not a
    /// permutation of `0..n` is [`SnapshotError::Malformed`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.get_u32("order length")? as usize;
        // Every vertex takes a byte at least: a lying length fails here,
        // before anything is reserved for it.
        if n > r.remaining() {
            return Err(SnapshotError::Truncated {
                context: "order sequence",
            });
        }
        let mut rank = vec![u32::MAX; n];
        let mut prev = 0i64;
        for r_at in 0..n {
            let delta = r.get_zigzag("order sequence")?;
            let v = prev
                .checked_add(delta)
                .filter(|&v| (0..n as i64).contains(&v))
                .ok_or_else(|| {
                    SnapshotError::Malformed(format!(
                        "order position {r_at}: vertex {prev} + {delta} out of range for {n} vertices"
                    ))
                })?;
            if std::mem::replace(&mut rank[v as usize], r_at as u32) != u32::MAX {
                return Err(SnapshotError::Malformed(format!(
                    "order position {r_at}: vertex {v} appears twice"
                )));
            }
            prev = v;
        }
        // `n` distinct vertices of `0..n`: a permutation.
        VertexOrder::try_from_ranks(rank).map_err(SnapshotError::Malformed)
    }

    /// Deserializes an order section produced by [`Self::to_snapshot_bytes`].
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = ByteReader::new(bytes);
        let order = Self::decode_from(&mut r)?;
        if r.remaining() != 0 {
            return Err(SnapshotError::Malformed(format!(
                "{} trailing bytes after order section",
                r.remaining()
            )));
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::OrderingStrategy;
    use crate::query::ChQuery;
    use htsp_graph::gen::{grid, WeightRange};
    use htsp_graph::QuerySet;
    use htsp_search::dijkstra_distance;

    fn build(side: usize, mode: ShortcutMode) -> (htsp_graph::Graph, ContractionHierarchy) {
        let g = grid(side, side, WeightRange::new(1, 25), 77);
        let ch = ContractionHierarchy::build(&g, OrderingStrategy::MinDegree, mode);
        (g, ch)
    }

    #[test]
    fn round_trip_preserves_structure_and_answers() {
        for mode in [
            ShortcutMode::AllPairs,
            ShortcutMode::WitnessPruned { hop_limit: 64 },
        ] {
            let (g, ch) = build(8, mode);
            let bytes = ch.to_snapshot_bytes();
            let back = ContractionHierarchy::from_snapshot_bytes(&bytes).expect("round trip");
            assert_eq!(back.mode(), ch.mode());
            assert_eq!(back.num_arcs(), ch.num_arcs());
            assert_eq!(back.num_extra_shortcuts(), ch.num_extra_shortcuts());
            assert_eq!(back.order(), ch.order());
            for v in g.vertices() {
                assert_eq!(back.up_arcs(v), ch.up_arcs(v));
                assert_eq!(back.down_neighbors(v), ch.down_neighbors(v));
            }
            let mut q = ChQuery::new(g.num_vertices());
            for query in &QuerySet::random(&g, 80, 5) {
                assert_eq!(
                    q.distance(&back, query.source, query.target),
                    dijkstra_distance(&g, query.source, query.target)
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let (_, ch) = build(5, ShortcutMode::AllPairs);
        let bytes = ch.to_snapshot_bytes();
        for cut in 0..bytes.len() {
            let err = ContractionHierarchy::from_snapshot_bytes(&bytes[..cut])
                .expect_err("strict prefix must fail");
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::Malformed(_)
                ),
                "prefix of {cut} bytes gave unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn corrupted_ranks_and_arcs_are_malformed_not_panics() {
        let (_, ch) = build(5, ShortcutMode::AllPairs);
        let clean = ch.to_snapshot_bytes();
        let n = ch.num_vertices() as u32;

        // Rank out of range.
        let mut bad = clean.clone();
        bad[4..8].copy_from_slice(&(n + 7).to_le_bytes());
        assert!(matches!(
            ContractionHierarchy::from_snapshot_bytes(&bad),
            Err(SnapshotError::Malformed(_))
        ));

        // Duplicate rank: copy vertex 0's rank over vertex 1's.
        let mut bad = clean.clone();
        let r0: [u8; 4] = bad[4..8].try_into().unwrap();
        bad[8..12].copy_from_slice(&r0);
        assert!(matches!(
            ContractionHierarchy::from_snapshot_bytes(&bad),
            Err(SnapshotError::Malformed(_))
        ));

        // Unknown mode tag.
        let mode_at = 4 + 4 * ch.num_vertices();
        let mut bad = clean.clone();
        bad[mode_at] = 0xEE;
        assert!(matches!(
            ContractionHierarchy::from_snapshot_bytes(&bad),
            Err(SnapshotError::Malformed(_))
        ));

        // Arc target out of range: first arc target sits right after the
        // first nonzero arc count.
        let mut pos = mode_at + 1 + 8; // mode byte + extra_shortcuts
        let mut bad = clean.clone();
        loop {
            let count = u32::from_le_bytes(bad[pos..pos + 4].try_into().unwrap());
            pos += 4;
            if count > 0 {
                bad[pos..pos + 4].copy_from_slice(&(n + 1).to_le_bytes());
                break;
            }
        }
        assert!(matches!(
            ContractionHierarchy::from_snapshot_bytes(&bad),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn order_sections_round_trip_and_refuse_what_is_not_a_permutation() {
        let (_, ch) = build(6, ShortcutMode::AllPairs);
        let bytes = ch.order().to_snapshot_bytes();
        assert_eq!(
            &VertexOrder::from_snapshot_bytes(&bytes).unwrap(),
            ch.order()
        );
        let section = |seq: &[i64]| {
            let mut w = ByteWriter::new();
            w.put_u32(seq.len() as u32);
            let mut prev = 0;
            for &v in seq {
                w.put_zigzag(v - prev);
                prev = v;
            }
            w.into_bytes()
        };
        assert_eq!(
            VertexOrder::from_snapshot_bytes(&section(&[2, 0, 1]))
                .unwrap()
                .sequence(),
            [VertexId(2), VertexId(0), VertexId(1)]
        );
        for (seq, expect) in [
            (&[0, 1, 1][..], "vertex 1 appears twice"),
            (&[0, 3, 1][..], "out of range"),
            (&[0, -1, 1][..], "out of range"),
        ] {
            match VertexOrder::from_snapshot_bytes(&section(seq)) {
                Err(SnapshotError::Malformed(msg)) => assert!(msg.contains(expect), "{msg}"),
                other => panic!("{seq:?}: expected Malformed, got {other:?}"),
            }
        }
        let mut lying = section(&[0, 1]);
        lying[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            VertexOrder::from_snapshot_bytes(&lying),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let (_, ch) = build(4, ShortcutMode::AllPairs);
        let mut bytes = ch.to_snapshot_bytes();
        bytes.extend_from_slice(&[0xAB, 0xCD]);
        assert!(matches!(
            ContractionHierarchy::from_snapshot_bytes(&bytes),
            Err(SnapshotError::Malformed(_))
        ));
    }
}
