//! Chunked copy-on-write storage: the memory layer under snapshot isolation.
//!
//! # Why chunks
//!
//! Every maintainer in this repository publishes immutable
//! [`QueryView`](crate::index_api::QueryView) snapshots while it repairs its
//! index. The original implementation kept whole components (a distance
//! table, a partition-index vector) behind one [`Arc`] and mutated through
//! `Arc::make_mut`, so the *first* write of a stage — while a snapshot was
//! outstanding, which is always — paid a deep clone of the **entire
//! component**, O(index size), no matter how few rows the batch touched.
//!
//! The types in this module split a component into fixed-size chunks, each
//! behind its own `Arc`. Cloning the whole structure only copies the chunk
//! pointer spine (one `Arc` bump per chunk); mutating element `i` only
//! clones the single chunk containing `i`, and only when a snapshot still
//! shares it. A maintenance stage that touches `k` rows therefore clones
//! `O(k / chunk_size + k)` rows of data instead of the whole table — the
//! per-stage copy-on-write cost tracks the *change set*, not the index.
//!
//! Chunk sizes are powers of two, so element `i` lives at
//! `chunks[i >> shift][i & mask]`: a read costs a shift and a mask, not a
//! division.
//!
//! # The two containers
//!
//! * [`CowVec<T>`] — a chunked vector of elements. Reads are `&self`
//!   (`Index`, [`CowVec::get`], [`CowVec::iter`]); writes go through
//!   [`CowVec::make_mut`], which clones the containing chunk if it is
//!   shared. Byte accounting covers `size_of::<T>()` per element, which is
//!   accurate precisely when `T`'s own clone is shallow (e.g. a
//!   `PartitionIndex` whose big tables are themselves cow containers). The
//!   caller picks the chunk size, a power of two: one element per chunk for
//!   the per-partition indexes, [`DEFAULT_CHUNK`] when collected from an
//!   iterator.
//! * [`CowTable<T>`] — a chunked table of rows (`Vec<T>`), the shape of
//!   every label/distance table in the repository (H2H labels, shortcut
//!   arrays, 2-hop labels). Its byte accounting includes each cloned row's
//!   heap payload, so the reported `bytes_cloned` is the real copy volume.
//!   Every table has the same constant chunk of [`DEFAULT_CHUNK`] rows, so
//!   its row lookup shifts and masks by compile-time constants — it sits on
//!   every label query's path.
//!
//! # Clone telemetry
//!
//! Each container carries a [`CowStats`] counter pair (chunks and bytes
//! actually cloned by `make_mut`). The counters are **shared by all clones**
//! of a container (they travel in an `Arc`), so a maintainer can read one
//! monotonic figure for a logical component even as snapshots clone the
//! spine or the container itself moves through a chunk clone of an outer
//! `CowVec`. Stage deltas are taken with [`CowStats::since`] and flow into
//! [`PublishEvent`](crate::index_api::PublishEvent) via
//! [`SnapshotPublisher::publish_with_cow`](crate::index_api::SnapshotPublisher::publish_with_cow).
//!
//! # Worked example
//!
//! ```
//! use htsp_graph::cow::CowTable;
//!
//! // A 1000-row distance table, 64 rows per chunk.
//! let rows: Vec<Vec<u32>> = (0..1000).map(|i| vec![i; 8]).collect();
//! let mut table = CowTable::from_rows(rows);
//!
//! // A snapshot pins the current contents: just a spine copy.
//! let snapshot = table.clone();
//!
//! // Repair three rows. Only the chunks holding rows 10, 11, 700 are
//! // cloned (two chunks), not the whole table.
//! for i in [10usize, 11, 700] {
//!     table.make_mut(i)[0] = 42;
//! }
//! assert_eq!(table.stats().chunks_cloned, 2);
//!
//! // The snapshot still sees the pre-repair values.
//! assert_eq!(snapshot.row(10)[0], 10);
//! assert_eq!(table.row(10)[0], 42);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Rows per [`CowTable`] chunk, and elements per chunk of a [`CowVec`]
/// collected from an iterator.
///
/// Small enough that one stray write clones a few KiB, large enough that the
/// pointer spine stays negligible next to the data.
pub const DEFAULT_CHUNK: usize = 1 << TABLE_SHIFT;

/// `log2` of [`DEFAULT_CHUNK`]: row `i` of a table is row `i & TABLE_MASK`
/// of chunk `i >> TABLE_SHIFT`.
const TABLE_SHIFT: u32 = 6;
const TABLE_MASK: usize = DEFAULT_CHUNK - 1;

/// Cumulative copy-on-write effort: how many chunks (and how many bytes of
/// element data) `make_mut` actually had to clone because a snapshot still
/// shared them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CowStats {
    /// Chunks deep-cloned by `make_mut` since the container was created.
    pub chunks_cloned: u64,
    /// Bytes of element data inside those chunks.
    pub bytes_cloned: u64,
}

impl CowStats {
    /// The delta from an earlier reading of the same (or an aggregated)
    /// counter — the per-stage figure published alongside each snapshot.
    pub fn since(self, earlier: CowStats) -> CowStats {
        CowStats {
            chunks_cloned: self.chunks_cloned.saturating_sub(earlier.chunks_cloned),
            bytes_cloned: self.bytes_cloned.saturating_sub(earlier.bytes_cloned),
        }
    }

    /// Component-wise sum, for aggregating the counters of several
    /// containers into one logical component.
    pub fn plus(self, other: CowStats) -> CowStats {
        CowStats {
            chunks_cloned: self.chunks_cloned + other.chunks_cloned,
            bytes_cloned: self.bytes_cloned + other.bytes_cloned,
        }
    }

    /// `true` when nothing was cloned.
    pub fn is_zero(self) -> bool {
        self.chunks_cloned == 0 && self.bytes_cloned == 0
    }
}

/// The shared counter cell behind a container lineage (see module docs).
#[derive(Debug, Default)]
struct Counters {
    chunks: AtomicU64,
    bytes: AtomicU64,
}

impl Counters {
    fn record(&self, bytes: u64) {
        self.chunks.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    fn read(&self) -> CowStats {
        CowStats {
            chunks_cloned: self.chunks.load(Ordering::Relaxed),
            bytes_cloned: self.bytes.load(Ordering::Relaxed),
        }
    }
}

/// A chunked copy-on-write vector: whole-structure clones bump one `Arc` per
/// chunk, element writes clone at most one chunk.
///
/// See the [module docs](self) for the design; use [`CowTable`] instead when
/// the elements are rows (`Vec<T>`) and the byte telemetry should include
/// their heap payload.
#[derive(Debug)]
pub struct CowVec<T> {
    chunks: Vec<Arc<[T]>>,
    len: usize,
    /// `log2` of the elements per chunk.
    shift: u32,
    counters: Arc<Counters>,
}

impl<T: Clone> CowVec<T> {
    /// Builds a chunked vector from `items` with `chunk_size` elements per
    /// chunk (the last chunk may be shorter).
    ///
    /// # Panics
    /// Panics if `chunk_size` is not a power of two.
    pub fn from_vec(items: Vec<T>, chunk_size: usize) -> Self {
        assert!(
            chunk_size.is_power_of_two(),
            "chunk size must be a power of two, got {chunk_size}"
        );
        let len = items.len();
        let mut chunks = Vec::with_capacity(len.div_ceil(chunk_size));
        let mut items = items.into_iter();
        loop {
            let chunk: Arc<[T]> = items.by_ref().take(chunk_size).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(chunk);
        }
        CowVec {
            chunks,
            len,
            shift: chunk_size.trailing_zeros(),
            counters: Arc::new(Counters::default()),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Elements per chunk.
    pub fn chunk_size(&self) -> usize {
        1 << self.shift
    }

    /// Number of chunks (the spine length copied by `clone`).
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Chunk and offset of element `i`.
    #[inline]
    fn locate(&self, i: usize) -> (usize, usize) {
        (i >> self.shift, i & (self.chunk_size() - 1))
    }

    /// Shared read of element `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &T {
        let (ci, o) = self.locate(i);
        &self.chunks[ci][o]
    }

    /// The elements of chunk `ci` (empty past the last chunk).
    #[inline]
    pub fn chunk(&self, ci: usize) -> &[T] {
        self.chunks.get(ci).map_or(&[], |c| c)
    }

    /// Iterates over all elements.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// Cumulative clone effort of this container lineage (shared by all
    /// clones — see the module docs).
    pub fn stats(&self) -> CowStats {
        self.counters.read()
    }

    /// Heap bytes held by this handle: the chunk-pointer spine plus every
    /// chunk's payload. Chunks shared with clones are counted in full (each
    /// handle reports the bytes it keeps alive).
    pub fn heap_bytes(&self) -> usize {
        self.chunks.capacity() * std::mem::size_of::<Arc<[T]>>()
            + self
                .chunks
                .iter()
                .map(|c| c.len() * std::mem::size_of::<T>())
                .sum::<usize>()
    }

    /// `true` if element `i`'s chunk is currently shared with a clone (a
    /// write through [`CowVec::make_mut`] would have to copy it).
    pub fn is_shared(&self, i: usize) -> bool {
        Arc::strong_count(&self.chunks[self.locate(i).0]) > 1
    }

    /// Mutable access to element `i`, cloning its chunk first if any other
    /// clone of this container still shares it (and counting that clone).
    pub fn make_mut(&mut self, i: usize) -> &mut T {
        let (ci, o) = self.locate(i);
        let chunk = &mut self.chunks[ci];
        &mut unshare(chunk, &self.counters)[o]
    }

    /// Hands out disjoint `&mut` borrows of every element whose index
    /// satisfies `select`, cloning only the chunks that contain at least one
    /// selected element. This is the fan-out entry point for
    /// partition-parallel maintenance: uniquify once, then ship the borrows
    /// to worker threads.
    ///
    /// `select` must be a pure predicate of the index: it is invoked up to
    /// twice per index (a short-circuiting probe decides whether a chunk
    /// needs uniquifying, a second pass collects the borrows), so a stateful
    /// closure would see an order- and chunk-layout-dependent call pattern.
    pub fn make_mut_where(
        &mut self,
        mut select: impl FnMut(usize) -> bool,
    ) -> Vec<(usize, &mut T)> {
        let chunk_size = self.chunk_size();
        let mut out = Vec::new();
        for (ci, chunk) in self.chunks.iter_mut().enumerate() {
            let base = ci * chunk_size;
            if !(0..chunk.len()).any(|o| select(base + o)) {
                continue;
            }
            for (o, item) in unshare(chunk, &self.counters).iter_mut().enumerate() {
                if select(base + o) {
                    out.push((base + o, item));
                }
            }
        }
        out
    }
}

/// The elements of `chunk`, replacing it by a private copy first (and
/// counting the clone) if another container still shares it.
fn unshare<'a, T: Clone>(chunk: &'a mut Arc<[T]>, counters: &Counters) -> &'a mut [T] {
    if Arc::get_mut(chunk).is_none() {
        counters.record(std::mem::size_of_val::<[T]>(chunk) as u64);
        *chunk = chunk.iter().cloned().collect();
    }
    Arc::get_mut(chunk).expect("chunk just made unique")
}

impl<T> Clone for CowVec<T> {
    /// Spine-only copy: one `Arc` bump per chunk, no element is cloned.
    fn clone(&self) -> Self {
        CowVec {
            chunks: self.chunks.clone(),
            len: self.len,
            shift: self.shift,
            counters: Arc::clone(&self.counters),
        }
    }
}

impl<T: Clone> std::ops::Index<usize> for CowVec<T> {
    type Output = T;
    #[inline]
    fn index(&self, i: usize) -> &T {
        self.get(i)
    }
}

impl<T: Clone> FromIterator<T> for CowVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        CowVec::from_vec(iter.into_iter().collect(), DEFAULT_CHUNK)
    }
}

/// Read access to a table of rows, independent of its storage: implemented
/// by plain `[Vec<T>]` slices (used while a table is being *built*, before
/// it is frozen into chunks) and by [`CowTable`].
pub trait RowRead<T> {
    /// Row `i` as a slice.
    fn row(&self, i: usize) -> &[T];
}

impl<T> RowRead<T> for [Vec<T>] {
    #[inline]
    fn row(&self, i: usize) -> &[T] {
        &self[i]
    }
}

impl<T: Clone> RowRead<T> for CowTable<T> {
    #[inline]
    fn row(&self, i: usize) -> &[T] {
        CowTable::row(self, i)
    }
}

/// A chunked copy-on-write table of rows — the storage shape of every label
/// and distance table in the repository.
///
/// Structurally a [`CowVec`]`<Vec<T>>`, but its clone telemetry counts each
/// cloned row's heap payload (`row.len() * size_of::<T>()`) on top of the
/// row headers, so `bytes_cloned` reflects the real volume of copied label
/// data. Every table has [`DEFAULT_CHUNK`] rows per chunk.
#[derive(Debug)]
pub struct CowTable<T> {
    chunks: Vec<Arc<[Vec<T>]>>,
    len: usize,
    counters: Arc<Counters>,
}

impl<T: Clone> CowTable<T> {
    /// Builds a table from `rows`, [`DEFAULT_CHUNK`] rows per chunk (the last
    /// chunk may be shorter).
    pub fn from_rows(rows: Vec<Vec<T>>) -> Self {
        let len = rows.len();
        let mut chunks = Vec::with_capacity(len.div_ceil(DEFAULT_CHUNK));
        let mut rows = rows.into_iter();
        loop {
            let chunk: Arc<[Vec<T>]> = rows.by_ref().take(DEFAULT_CHUNK).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(chunk);
        }
        CowTable {
            chunks,
            len,
            counters: Arc::new(Counters::default()),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of chunks (the spine length copied by `clone`).
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Shared read of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.chunks[i >> TABLE_SHIFT][i & TABLE_MASK]
    }

    /// Iterates over all rows.
    pub fn rows(&self) -> impl Iterator<Item = &Vec<T>> {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// Total elements across all rows (label-entry count).
    pub fn num_entries(&self) -> usize {
        self.rows().map(|r| r.len()).sum()
    }

    /// Cumulative clone effort of this container lineage (shared by all
    /// clones — see the module docs).
    pub fn stats(&self) -> CowStats {
        self.counters.read()
    }

    /// Heap bytes held by this handle: the spine, the per-row `Vec` headers,
    /// and every row's element payload. Chunks shared with clones are
    /// counted in full (each handle reports the bytes it keeps alive).
    pub fn heap_bytes(&self) -> usize {
        let mut bytes = self.chunks.capacity() * std::mem::size_of::<Arc<[Vec<T>]>>();
        for chunk in &self.chunks {
            bytes += chunk.len() * std::mem::size_of::<Vec<T>>();
            bytes += chunk
                .iter()
                .map(|r| r.capacity() * std::mem::size_of::<T>())
                .sum::<usize>();
        }
        bytes
    }

    /// `true` if row `i`'s chunk is currently shared with a clone.
    pub fn is_shared(&self, i: usize) -> bool {
        Arc::strong_count(&self.chunks[i >> TABLE_SHIFT]) > 1
    }

    /// Mutable access to row `i`, cloning its chunk (rows and payload) first
    /// if any clone of this table still shares it.
    pub fn make_mut(&mut self, i: usize) -> &mut Vec<T> {
        let ci = i >> TABLE_SHIFT;
        let chunk = &mut self.chunks[ci];
        if Arc::get_mut(chunk).is_none() {
            let headers = chunk.len() * std::mem::size_of::<Vec<T>>();
            let payload: usize = chunk
                .iter()
                .map(|r| r.len() * std::mem::size_of::<T>())
                .sum();
            let cloned: Arc<[Vec<T>]> = chunk.iter().cloned().collect();
            *chunk = cloned;
            self.counters.record((headers + payload) as u64);
        }
        &mut Arc::get_mut(&mut self.chunks[ci]).expect("chunk just made unique")[i & TABLE_MASK]
    }
}

impl<T> Clone for CowTable<T> {
    /// Spine-only copy: one `Arc` bump per chunk, no row is cloned.
    fn clone(&self) -> Self {
        CowTable {
            chunks: self.chunks.clone(),
            len: self.len,
            counters: Arc::clone(&self.counters),
        }
    }
}

impl<T: Clone> std::ops::Index<usize> for CowTable<T> {
    type Output = [T];
    #[inline]
    fn index(&self, i: usize) -> &[T] {
        self.row(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cowvec_round_trips_and_indexes() {
        let v = CowVec::from_vec((0..101u32).collect(), 16);
        assert_eq!(v.len(), 101);
        assert_eq!(v.num_chunks(), 7); // 6 full chunks + 5 elements
        assert_eq!(v[0], 0);
        assert_eq!(v[100], 100);
        assert_eq!(v.iter().copied().sum::<u32>(), 100 * 101 / 2);
        assert!(!v.is_empty());
        let empty: CowVec<u32> = CowVec::from_vec(Vec::new(), 8);
        assert!(empty.is_empty());
        assert_eq!(empty.num_chunks(), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn cowvec_rejects_a_chunk_size_that_is_not_a_power_of_two() {
        CowVec::from_vec(vec![0u32; 20], 10);
    }

    #[test]
    fn unique_writes_are_free() {
        let mut v = CowVec::from_vec(vec![1u64; 100], 16);
        for i in 0..100 {
            *v.make_mut(i) += i as u64;
        }
        // No snapshot outstanding: nothing was cloned.
        assert_eq!(v.stats(), CowStats::default());
        assert_eq!(v[99], 100);
    }

    #[test]
    fn shared_chunks_clone_once_and_alias_the_rest() {
        let mut v = CowVec::from_vec((0..100u32).collect(), 16);
        assert_eq!(v.chunk_size(), 16);
        let snapshot = v.clone();
        // Two writes inside one chunk: one clone; a third in another chunk
        // (80..96, a full one): a second clone.
        *v.make_mut(5) = 500;
        *v.make_mut(6) = 600;
        *v.make_mut(95) = 950;
        assert_eq!(v.stats().chunks_cloned, 2);
        assert_eq!(
            v.stats().bytes_cloned,
            2 * 16 * std::mem::size_of::<u32>() as u64
        );
        // Snapshot is frozen; untouched chunks still alias.
        assert_eq!(snapshot[5], 5);
        assert_eq!(snapshot[95], 95);
        assert_eq!(v[5], 500);
        assert!(!v.is_shared(5), "written chunk must be unique now");
        assert!(v.is_shared(20), "untouched chunk must still alias");
        assert!(std::ptr::eq(snapshot.get(20), v.get(20)));
        assert!(!std::ptr::eq(snapshot.get(5), v.get(5)));
    }

    #[test]
    fn make_mut_after_snapshot_drop_is_free_again() {
        let mut v = CowVec::from_vec(vec![7u8; 64], 8);
        let snapshot = v.clone();
        *v.make_mut(0) = 1;
        assert_eq!(v.stats().chunks_cloned, 1);
        drop(snapshot);
        *v.make_mut(9) = 2;
        // Chunk 1 became unique when the snapshot dropped: no second clone.
        assert_eq!(v.stats().chunks_cloned, 1);
    }

    #[test]
    fn clones_share_counters() {
        let mut v = CowVec::from_vec(vec![0u32; 32], 8);
        let snapshot = v.clone();
        *v.make_mut(0) = 1;
        // The snapshot reads the same lineage counter.
        assert_eq!(snapshot.stats(), v.stats());
        assert_eq!(v.stats().chunks_cloned, 1);
    }

    #[test]
    fn make_mut_where_uniquifies_only_selected_chunks() {
        let mut v = CowVec::from_vec((0..40u32).collect(), 8);
        let snapshot = v.clone();
        let picked = v.make_mut_where(|i| i == 3 || i == 7 || i == 35);
        assert_eq!(
            picked.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            vec![3, 7, 35]
        );
        for (i, item) in picked {
            *item = i as u32 * 100;
        }
        assert_eq!(v.stats().chunks_cloned, 2); // chunks 0 and 4
        assert_eq!(v[3], 300);
        assert_eq!(v[35], 3500);
        assert_eq!(snapshot[3], 3);
        assert!(v.is_shared(15), "unselected chunk must still alias");
    }

    #[test]
    fn cowtable_counts_row_payload() {
        // Three chunks: rows 0..64, 64..128 and 128..150.
        let len = |i: usize| i % 7;
        let rows: Vec<Vec<u32>> = (0..150).map(|i| vec![i as u32; len(i)]).collect();
        let mut t = CowTable::from_rows(rows);
        assert_eq!(t.len(), 150);
        assert_eq!(t.num_chunks(), 3);
        assert_eq!(t.num_entries(), (0..150).map(len).sum::<usize>());
        let snapshot = t.clone();
        t.make_mut(70).push(9); // chunk 1 holds rows 64..128
        let expect_bytes = (DEFAULT_CHUNK * std::mem::size_of::<Vec<u32>>()
            + (64..128).map(len).sum::<usize>() * std::mem::size_of::<u32>())
            as u64;
        assert_eq!(t.stats().chunks_cloned, 1);
        assert_eq!(t.stats().bytes_cloned, expect_bytes);
        assert_eq!(snapshot.row(70).len(), len(70));
        assert_eq!(t.row(70).len(), len(70) + 1);
        assert!(
            t.is_shared(63) && t.is_shared(128),
            "neighbours still alias"
        );
        // Second write in the same chunk: free.
        t.make_mut(127).push(1);
        assert_eq!(t.stats().chunks_cloned, 1);
    }

    #[test]
    fn cowtable_row_read_trait_matches_slice_impl() {
        let rows: Vec<Vec<u8>> = (0..130).map(|i| vec![i as u8; i % 3]).collect();
        let t = CowTable::from_rows(rows.clone());
        fn read<R: RowRead<u8> + ?Sized>(r: &R, i: usize) -> Vec<u8> {
            r.row(i).to_vec()
        }
        for i in 0..rows.len() {
            assert_eq!(read(&t, i), read(&rows[..], i), "row {i}");
            assert_eq!(&t[i], &rows[i][..]);
        }
    }

    #[test]
    fn stats_since_and_plus() {
        let a = CowStats {
            chunks_cloned: 5,
            bytes_cloned: 500,
        };
        let b = CowStats {
            chunks_cloned: 2,
            bytes_cloned: 150,
        };
        assert_eq!(
            a.since(b),
            CowStats {
                chunks_cloned: 3,
                bytes_cloned: 350
            }
        );
        assert_eq!(
            a.plus(b),
            CowStats {
                chunks_cloned: 7,
                bytes_cloned: 650
            }
        );
        assert!(CowStats::default().is_zero());
        assert!(!a.is_zero());
    }

    #[test]
    fn containers_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CowVec<u32>>();
        assert_send_sync::<CowTable<u32>>();
    }

    /// Randomized interleavings of `clone` / drop-clone / `make_mut` /
    /// `make_mut_where` against a reference model: untouched chunks stay
    /// pointer-shared with the latest snapshot, touched chunks uniquify
    /// exactly once, and the lineage counters match the clones the test
    /// *observed* (predicted from `is_shared` right before each write).
    #[test]
    fn randomized_interleavings_keep_aliasing_and_counters_exact() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        for seed in 0..6u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let chunk = 1usize << rng.gen_range(0..6u32);
            let n = 64 + rng.gen_range(0..192usize);
            let chunk_len = |ci: usize| chunk.min(n - ci * chunk);

            let mut v = CowVec::from_vec((0..n as u64).collect(), chunk);
            let mut model: Vec<u64> = (0..n as u64).collect();
            // Older snapshots only pin chunks; the latest one also gets its
            // values checked and its untouched chunks pointer-compared.
            let mut older: Vec<CowVec<u64>> = Vec::new();
            let mut latest: Option<(CowVec<u64>, Vec<u64>)> = None;
            let mut touched_since_latest: std::collections::HashSet<usize> =
                std::collections::HashSet::new();
            let mut expected = v.stats();
            assert!(expected.is_zero());

            for step in 0..150u64 {
                match rng.gen_range(0..6u32) {
                    0 => {
                        if let Some((old, _)) = latest.replace((v.clone(), model.clone())) {
                            older.push(old);
                        }
                        touched_since_latest.clear();
                    }
                    1 => {
                        if !older.is_empty() {
                            let k = rng.gen_range(0..older.len());
                            older.swap_remove(k);
                        }
                    }
                    2 | 3 => {
                        let i = rng.gen_range(0..n);
                        let ci = i / chunk;
                        if v.is_shared(i) {
                            expected.chunks_cloned += 1;
                            expected.bytes_cloned +=
                                (chunk_len(ci) * std::mem::size_of::<u64>()) as u64;
                        }
                        *v.make_mut(i) = step * 1000 + i as u64;
                        model[i] = step * 1000 + i as u64;
                        touched_since_latest.insert(ci);
                        assert!(!v.is_shared(i), "make_mut left the chunk shared");
                        // Touched chunks uniquify exactly once: a second
                        // write to the same chunk must be counter-free.
                        let before = v.stats();
                        let j = ci * chunk;
                        *v.make_mut(j) = model[j];
                        assert_eq!(v.stats(), before, "chunk uniquified twice");
                    }
                    _ => {
                        let mask: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.05)).collect();
                        for ci in 0..v.num_chunks() {
                            let base = ci * chunk;
                            if !(0..chunk_len(ci)).any(|o| mask[base + o]) {
                                continue;
                            }
                            touched_since_latest.insert(ci);
                            if v.is_shared(base) {
                                expected.chunks_cloned += 1;
                                expected.bytes_cloned +=
                                    (chunk_len(ci) * std::mem::size_of::<u64>()) as u64;
                            }
                        }
                        for (i, item) in v.make_mut_where(|i| mask[i]) {
                            *item = step * 1000 + i as u64 + 7;
                            model[i] = step * 1000 + i as u64 + 7;
                        }
                    }
                }
                assert_eq!(
                    v.stats(),
                    expected,
                    "counters diverged from observed clones (seed {seed}, step {step})"
                );
                // Untouched chunks still alias the latest snapshot's data.
                if let Some((snap, _)) = &latest {
                    for ci in 0..v.num_chunks() {
                        if !touched_since_latest.contains(&ci) {
                            let base = ci * chunk;
                            assert!(
                                std::ptr::eq(snap.get(base), v.get(base)),
                                "untouched chunk {ci} stopped aliasing (seed {seed}, step {step})"
                            );
                        }
                    }
                }
            }

            // End-state: the working copy matches the model, the snapshot is
            // frozen at its clone point.
            assert!(v.iter().copied().eq(model.iter().copied()));
            if let Some((snap, frozen)) = &latest {
                assert!(
                    snap.iter().copied().eq(frozen.iter().copied()),
                    "snapshot drifted (seed {seed})"
                );
            }
        }
    }

    /// The `CowTable` variant: `make_mut` under random snapshot pressure,
    /// with the byte counters checked against the *observed* row payloads
    /// (headers + element bytes of every row in the cloned chunk).
    #[test]
    fn randomized_table_interleavings_count_payload_and_freeze_snapshots() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        for seed in 0..4u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(0xbeef ^ seed);
            let chunk = DEFAULT_CHUNK;
            // At least three chunks, the last one usually short.
            let n = 2 * chunk + 1 + rng.gen_range(0..2 * chunk);
            let chunk_len = |ci: usize| chunk.min(n - ci * chunk);
            let rows: Vec<Vec<u32>> = (0..n).map(|i| vec![i as u32; i % 5]).collect();
            let mut t = CowTable::from_rows(rows.clone());
            let mut model = rows;
            let mut snapshot: Option<(CowTable<u32>, Vec<Vec<u32>>)> = None;
            let mut expected = t.stats();

            for step in 0..120u32 {
                match rng.gen_range(0..4u32) {
                    0 => snapshot = Some((t.clone(), model.clone())),
                    1 => {
                        if rng.gen_bool(0.5) {
                            snapshot = None;
                        }
                    }
                    _ => {
                        let i = rng.gen_range(0..n);
                        let ci = i / chunk;
                        if t.is_shared(i) {
                            let base = ci * chunk;
                            let headers = chunk_len(ci) * std::mem::size_of::<Vec<u32>>();
                            let payload: usize = (0..chunk_len(ci))
                                .map(|o| model[base + o].len() * std::mem::size_of::<u32>())
                                .sum();
                            expected.chunks_cloned += 1;
                            expected.bytes_cloned += (headers + payload) as u64;
                        }
                        t.make_mut(i).push(step);
                        model[i].push(step);
                        assert!(!t.is_shared(i), "make_mut left the chunk shared");
                    }
                }
                assert_eq!(
                    t.stats(),
                    expected,
                    "table counters diverged (seed {seed}, step {step})"
                );
            }
            for (i, row) in model.iter().enumerate() {
                assert_eq!(t.row(i), &row[..]);
            }
            if let Some((snap, frozen)) = &snapshot {
                for (i, row) in frozen.iter().enumerate() {
                    assert_eq!(snap.row(i), &row[..], "table snapshot drifted");
                }
            }
        }
    }
}
