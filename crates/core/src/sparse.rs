//! Sparse PPV vectors.
//!
//! Precomputed partial vectors, skeleton columns, and query results are all
//! sparse: supports are confined to subgraphs (that is the whole point of
//! hub-based partitioning, §3.2) and tolerance truncation drops tiny
//! entries. The representation is two parallel arrays sorted by node id —
//! `ids: [NodeId]` and `vals: [f64]` — compact, cache-friendly to scan, and
//! O(log n) to probe, mirroring how the paper ships vectors over the wire
//! (its communication costs are byte counts of exactly these arrays).
//!
//! ## Layout and resident bytes
//!
//! The arrays are kept apart (structure of arrays) rather than as one
//! `(id, value)` array: a `(u32, f64)` pair pads to 16 bytes, while the
//! two arrays hold exactly 4 + 8 = **12 bytes per entry** — the byte cost
//! [`SparseVector::wire_bytes`], the serving cache's budget, and every
//! modeled space column charge. Every producer sizes both arrays to the
//! entry count (capacity equals length), so a vector's heap footprint is
//! its charged size minus the 8-byte length header. Producers write the
//! arrays directly in id order — the harvests, the push and skeleton
//! engines, the PPV decoder, [`SparseVector::add_scaled`] — and every sum
//! runs in the same order as before, so answers are bit-identical.
//!
//! Equality is bitwise: two vectors are equal when they hold the same ids
//! and the same `f64` bit patterns, so `-0.0 != +0.0` and a NaN equals a
//! NaN with the same payload.

use ppr_graph::NodeId;

/// Sparse vector with entries sorted by node id, stored as two parallel
/// arrays (see the module docs for the layout).
#[derive(Clone, Debug, Default)]
pub struct SparseVector {
    ids: Vec<NodeId>,
    vals: Vec<f64>,
}

impl PartialEq for SparseVector {
    /// Bit identity: equal ids and equal `f64::to_bits` for every value.
    fn eq(&self, other: &Self) -> bool {
        self.ids == other.ids
            && self.vals.len() == other.vals.len()
            && self
                .vals
                .iter()
                .zip(&other.vals)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Eq for SparseVector {}

impl SparseVector {
    /// Empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty vector with room for `n` entries, to be filled in id order
    /// with [`SparseVector::push_sorted`].
    pub(crate) fn with_capacity(n: usize) -> Self {
        Self {
            ids: Vec::with_capacity(n),
            vals: Vec::with_capacity(n),
        }
    }

    /// Append an entry whose id exceeds every stored id.
    #[inline]
    pub(crate) fn push_sorted(&mut self, id: NodeId, x: f64) {
        debug_assert!(
            self.ids.last().is_none_or(|&last| last < id),
            "sparse vector ids not strictly increasing"
        );
        self.ids.push(id);
        self.vals.push(x);
    }

    /// From parallel arrays whose ids are already strictly increasing —
    /// for a caller that has proven the order (the PPV block decoder
    /// checks every delta). Spare capacity is released, so the vector
    /// holds exactly 12 bytes per entry.
    pub(crate) fn from_sorted_parts(mut ids: Vec<NodeId>, mut vals: Vec<f64>) -> Self {
        debug_assert_eq!(ids.len(), vals.len());
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "sparse vector ids not strictly increasing"
        );
        ids.shrink_to_fit();
        vals.shrink_to_fit();
        Self { ids, vals }
    }

    /// From unsorted entries; ids must be distinct.
    pub fn from_entries(mut entries: Vec<(NodeId, f64)>) -> Self {
        entries.sort_unstable_by_key(|e| e.0);
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "duplicate ids in sparse vector"
        );
        let (ids, vals) = entries.into_iter().unzip();
        Self { ids, vals }
    }

    /// From a dense slice, keeping entries with `|value| > threshold`.
    /// Node ids are taken from `ids[i]` (pass `None` for identity).
    ///
    /// Survivors are counted in a first pass so both arrays are allocated
    /// exactly once (bit-identical output, no growth reallocations on the
    /// precompute hot path). A mapped id list need not be increasing, so
    /// that case sorts its entries through [`SparseVector::from_entries`].
    pub fn from_dense(dense: &[f64], ids: Option<&[NodeId]>, threshold: f64) -> Self {
        if let Some(map) = ids {
            let entries = dense
                .iter()
                .zip(map)
                .filter(|(v, _)| v.abs() > threshold)
                .map(|(&v, &id)| (id, v))
                .collect();
            return Self::from_entries(entries);
        }
        let surviving = dense.iter().filter(|v| v.abs() > threshold).count();
        let mut out = Self::with_capacity(surviving);
        for (id, &v) in (0..).zip(dense) {
            if v.abs() > threshold {
                out.push_sorted(id, v);
            }
        }
        out
    }

    /// Value at `id` (0.0 if absent).
    #[inline]
    pub fn get(&self, id: NodeId) -> f64 {
        match self.ids.binary_search(&id) {
            Ok(i) => self.vals[i],
            Err(_) => 0.0,
        }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.ids.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterate `(id, value)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.ids.iter().copied().zip(self.vals.iter().copied())
    }

    /// The ids, strictly increasing.
    pub(crate) fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// The values, in id order.
    pub(crate) fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Rewrite every id through `f`, in place. `f` must be strictly
    /// increasing over the stored ids (a view's local → global map is),
    /// so the order invariant survives without a re-sort.
    pub(crate) fn map_ids_monotone(mut self, f: impl Fn(NodeId) -> NodeId) -> Self {
        for id in &mut self.ids {
            *id = f(*id);
        }
        debug_assert!(
            self.ids.windows(2).all(|w| w[0] < w[1]),
            "id map is not strictly increasing"
        );
        self
    }

    /// Sum of values (all PPV vectors are non-negative, so this is the L1
    /// norm as well as the retained probability mass).
    pub fn l1_norm(&self) -> f64 {
        self.vals.iter().map(|x| x.abs()).sum()
    }

    /// Largest absolute value.
    pub fn l_inf(&self) -> f64 {
        self.vals.iter().map(|x| x.abs()).fold(0.0, f64::max)
    }

    /// `self += scale * other`, implemented by merge. Prefer
    /// [`SparseVector::scatter_into`] + a dense accumulator in hot loops.
    pub fn add_scaled(&self, other: &SparseVector, scale: f64) -> SparseVector {
        let mut out = Self::with_capacity(self.nnz() + other.nnz());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.nnz() && j < other.nnz() {
            let (a, b) = (self.ids[i], other.ids[j]);
            match a.cmp(&b) {
                std::cmp::Ordering::Less => {
                    out.push_sorted(a, self.vals[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push_sorted(b, scale * other.vals[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push_sorted(a, self.vals[i] + scale * other.vals[j]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.ids.extend_from_slice(&self.ids[i..]);
        out.vals.extend_from_slice(&self.vals[i..]);
        out.ids.extend_from_slice(&other.ids[j..]);
        out.vals.extend(other.vals[j..].iter().map(|&v| scale * v));
        SparseVector::from_sorted_parts(out.ids, out.vals)
    }

    /// Accumulate `scale * self` into a dense buffer, recording first
    /// touches in `touched`.
    #[inline]
    pub fn scatter_into(&self, dense: &mut [f64], touched: &mut Vec<NodeId>, scale: f64) {
        for (&id, &v) in self.ids.iter().zip(&self.vals) {
            let slot = &mut dense[id as usize];
            if *slot == 0.0 {
                touched.push(id);
            }
            *slot += scale * v;
        }
    }

    /// Sparsify a dense scratch filled by [`SparseVector::scatter_into`]:
    /// collect the non-zero entries in id order, and reset both scratches
    /// (every slot to `+0.0`, the touch list to empty) so the buffers can
    /// be reused for the next accumulation. The one harvest shared by the
    /// coordinator sum, query sessions, and the serving layer — keeping
    /// the zero-filtering semantics identical across every path that must
    /// produce bit-identical vectors.
    ///
    /// When the touch list covers at least `1 / HARVEST_SCAN_RATIO` of the
    /// arena, the arena is scanned in id order instead of sorting the
    /// touch list. Every untouched slot is zero (the [`Scratch`]
    /// invariant), so both ways yield the same entries in the same order.
    pub fn harvest_scratch(dense: &mut [f64], touched: &mut Vec<NodeId>) -> SparseVector {
        let v = if touched.len().saturating_mul(HARVEST_SCAN_RATIO) >= dense.len() {
            harvest_by_scan(dense, touched.len())
        } else {
            harvest_by_sort(dense, touched)
        };
        touched.clear();
        v
    }

    /// Top-k entries by value, descending (ties by node id ascending) —
    /// the ranking the paper's Precision/Kendall metrics consume.
    ///
    /// For `k < nnz` this selects (quickselect to the k-th rank, then
    /// sorts just the survivors) instead of fully sorting every entry:
    /// O(nnz + k·log k) expected rather than O(nnz·log nnz). The ranking
    /// comparator is a total order (value descending, id ascending breaks
    /// every tie), so the selected set — and hence the output — is
    /// exactly the full sort's prefix; `top_k_select_equals_reference_sort`
    /// in `tests/invariants_proptest.rs` pins the equivalence against a
    /// clone-and-sort implementation on random entry sets.
    pub fn top_k(&self, k: usize) -> Vec<(NodeId, f64)> {
        let rank = |a: &(NodeId, f64), b: &(NodeId, f64)| {
            b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0))
        };
        if k == 0 {
            return Vec::new();
        }
        let mut v: Vec<(NodeId, f64)> = self.iter().collect();
        if k < v.len() {
            v.select_nth_unstable_by(k - 1, rank);
            v.truncate(k);
        }
        v.sort_unstable_by(rank);
        v
    }

    /// Top-k with a threshold-based early cut: identical output to
    /// [`SparseVector::top_k`] in O(nnz + k·log k·log nnz) expected time
    /// instead of a full O(nnz·log nnz) sort — the serving-path selection.
    ///
    /// A min-heap holds the best `k` entries seen so far under the ranking
    /// "higher value wins, ties broken by smaller node id". Its root is the
    /// running threshold: any later entry with a strictly smaller value —
    /// or an equal value and a larger id — ranks below `k` entries already
    /// held, and the held set only ever improves, so skipping it (the
    /// one-comparison early cut that almost every entry takes) cannot
    /// change the final set. The survivors are sorted with the same
    /// comparator `top_k` uses, hence the results are equal element for
    /// element; `topk_early_cut_equals_full_sort` in `tests/serving.rs`
    /// pins this on proptest-generated graphs.
    pub fn top_k_early_cut(&self, k: usize) -> Vec<(NodeId, f64)> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        if k == 0 {
            return Vec::new();
        }

        /// Entry ordered so that "greater" means "ranks higher": larger
        /// value first, then smaller node id. Values are compared with
        /// the same IEEE `partial_cmp` `top_k` sorts with (so `-0.0`
        /// ties `0.0` and falls to the id tiebreak; NaN panics in both
        /// paths alike) — using `total_cmp` here would silently rank
        /// `-0.0` below `0.0` and diverge from the full sort.
        #[derive(PartialEq)]
        struct Ranked(NodeId, f64);
        impl Eq for Ranked {}
        impl Ord for Ranked {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.1
                    .partial_cmp(&other.1)
                    .unwrap()
                    .then(other.0.cmp(&self.0))
            }
        }
        impl PartialOrd for Ranked {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        let mut heap: BinaryHeap<Reverse<Ranked>> = BinaryHeap::with_capacity(k + 1);
        let mut threshold = f64::NEG_INFINITY;
        for (id, v) in self.iter() {
            if heap.len() == k {
                // Early cut: strictly below the k-th best value, skip.
                if v < threshold {
                    continue;
                }
                // At the threshold value, only a smaller id can displace.
                let worst = &heap.peek().unwrap().0;
                if v == worst.1 && id > worst.0 {
                    continue;
                }
                heap.pop();
            }
            heap.push(Reverse(Ranked(id, v)));
            if heap.len() == k {
                threshold = heap.peek().unwrap().0 .1;
            }
        }

        let mut out: Vec<(NodeId, f64)> =
            heap.into_iter().map(|Reverse(r)| (r.0, r.1)).collect();
        out.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        out
    }

    /// Drop entries with `|value| <= threshold` (the HGPA_ad adaptation of
    /// §6.2.9), compacting both arrays in place and releasing the freed
    /// capacity. Returns the number of dropped entries.
    pub fn truncate_below(&mut self, threshold: f64) -> usize {
        let before = self.nnz();
        let mut kept = 0;
        for i in 0..before {
            let x = self.vals[i];
            if x.abs() > threshold {
                self.ids[kept] = self.ids[i];
                self.vals[kept] = x;
                kept += 1;
            }
        }
        if kept < before {
            self.ids.truncate(kept);
            self.vals.truncate(kept);
            self.ids.shrink_to_fit();
            self.vals.shrink_to_fit();
        }
        before - kept
    }

    /// Wire size in bytes under the simulator's serialization model:
    /// 4 bytes node id + 8 bytes f64 per entry, plus an 8-byte length
    /// header (matches how the paper reports communication KB).
    pub fn wire_bytes(&self) -> u64 {
        8 + 12 * self.nnz() as u64
    }

    /// Dense materialisation of length `n`.
    pub fn to_dense(&self, n: usize) -> Vec<f64> {
        let mut d = vec![0.0; n];
        for (id, v) in self.iter() {
            d[id as usize] = v;
        }
        d
    }
}

/// The harvest scans the whole arena once the touch list holds at least
/// one slot in `HARVEST_SCAN_RATIO`. Measured on a 2-core x86-64 host
/// over arenas of 20 000 and 200 000 slots, the scan beats the sort from
/// about one touch in 12 upward (1.3–2.2× at one in 8, 5–6× at one in 2),
/// and the sort wins below; 8 keeps a margin on the scan's side.
const HARVEST_SCAN_RATIO: usize = 8;

/// Harvest by sorting the touch list: cost follows the touches.
fn harvest_by_sort(dense: &mut [f64], touched: &mut Vec<NodeId>) -> SparseVector {
    touched.sort_unstable();
    touched.dedup();
    let mut out = SparseVector::with_capacity(touched.len());
    for &v in touched.iter() {
        let x = dense[v as usize];
        if x != 0.0 {
            out.push_sorted(v, x);
        }
        dense[v as usize] = 0.0;
    }
    SparseVector::from_sorted_parts(out.ids, out.vals)
}

/// Harvest by scanning the arena in id order: cost follows the arena.
/// Only touched slots can be non-zero, so `touches` (duplicates
/// included) bounds the entry count. The loop has no data-dependent
/// branch: every slot is written into the next free entry, which is
/// kept only when the slot is non-zero, and every slot is reset to
/// `+0.0` — a `-0.0` slot yields no entry, as in the sort harvest.
fn harvest_by_scan(dense: &mut [f64], touches: usize) -> SparseVector {
    let bound = touches.min(dense.len());
    // One spare slot absorbs the write that follows the last non-zero.
    let mut ids: Vec<NodeId> = vec![0; bound + 1];
    let mut vals = vec![0.0; bound + 1];
    let mut len = 0;
    for (id, slot) in (0..).zip(dense.iter_mut()) {
        let x = *slot;
        if let (Some(i), Some(v)) = (ids.get_mut(len), vals.get_mut(len)) {
            *i = id;
            *v = x;
        }
        len += usize::from(x != 0.0);
        *slot = 0.0;
    }
    let len = len.min(bound);
    ids.truncate(len);
    vals.truncate(len);
    SparseVector::from_sorted_parts(ids, vals)
}

/// A reusable dense-accumulation arena: one zeroed dense buffer plus its
/// touch list, the pair every harvesting path in the workspace threads
/// through [`SparseVector::scatter_into`] / [`SparseVector::harvest_scratch`].
///
/// Query sessions, machine fan-out workers, and the serving layer's
/// response assembly all accumulate sparse vectors densely and sparsify
/// once. Allocating the O(n) dense buffer per query is the dominant
/// constant on small batches, so hot paths hold one `Scratch` per worker
/// and reuse it across calls: [`Scratch::harvest`] returns the buffers to
/// the all-zero state, making reuse free of cross-call contamination.
///
/// Harvest semantics (zero filtering, touch-order independence) are
/// exactly [`SparseVector::harvest_scratch`]'s, so results are
/// bit-identical to a fresh allocation.
#[derive(Clone, Debug, Default)]
pub struct Scratch {
    dense: Vec<f64>,
    touched: Vec<NodeId>,
}

impl Scratch {
    /// Empty arena; grows on first [`Scratch::ensure`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Arena pre-sized for vectors over `n` nodes.
    pub fn with_len(n: usize) -> Self {
        Self {
            dense: vec![0.0; n],
            touched: Vec::new(),
        }
    }

    /// Grow the dense buffer to cover `n` nodes (never shrinks). New
    /// slots are zero, matching the harvested-state invariant.
    pub fn ensure(&mut self, n: usize) {
        if self.dense.len() < n {
            self.dense.resize(n, 0.0);
        }
    }

    /// Accumulate `scale * v` into the arena.
    pub fn scatter(&mut self, v: &SparseVector, scale: f64) {
        v.scatter_into(&mut self.dense, &mut self.touched, scale);
    }

    /// Sparsify the accumulated sum and reset the arena to all-zero so
    /// the next accumulation can reuse it.
    pub fn harvest(&mut self) -> SparseVector {
        SparseVector::harvest_scratch(&mut self.dense, &mut self.touched)
    }

    /// The raw `(dense, touched)` pair, for callers (index kernels) that
    /// accumulate through their own inner loops. The caller must record
    /// every first touch in `touched`, as [`SparseVector::scatter_into`]
    /// does, and finish with [`Scratch::harvest`].
    pub fn parts(&mut self) -> (&mut [f64], &mut Vec<NodeId>) {
        (&mut self.dense, &mut self.touched)
    }

    /// Bytes this arena currently holds (dense buffer + touch list) —
    /// the serving/bench peak-scratch accounting.
    pub fn arena_bytes(&self) -> u64 {
        (self.dense.len() * 8 + self.touched.capacity() * 4) as u64
    }
}

impl FromIterator<(NodeId, f64)> for SparseVector {
    fn from_iter<T: IntoIterator<Item = (NodeId, f64)>>(iter: T) -> Self {
        Self::from_entries(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_dense_thresholds() {
        let v = SparseVector::from_dense(&[0.5, 0.0, 1e-9, 0.25], None, 1e-6);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.get(0), 0.5);
        assert_eq!(v.get(2), 0.0);
        assert_eq!(v.get(3), 0.25);
    }

    #[test]
    fn from_dense_with_id_mapping() {
        let v = SparseVector::from_dense(&[0.1, 0.2], Some(&[7, 3]), 0.0);
        assert_eq!(v.get(7), 0.1);
        assert_eq!(v.get(3), 0.2);
        let ids: Vec<_> = v.iter().map(|e| e.0).collect();
        assert_eq!(ids, vec![3, 7]); // sorted after mapping
    }

    #[test]
    fn add_scaled_merges() {
        let a = SparseVector::from_entries(vec![(0, 1.0), (2, 2.0)]);
        let b = SparseVector::from_entries(vec![(1, 1.0), (2, 1.0), (5, 4.0)]);
        let c = a.add_scaled(&b, 0.5);
        assert_eq!(c.get(0), 1.0);
        assert_eq!(c.get(1), 0.5);
        assert_eq!(c.get(2), 2.5);
        assert_eq!(c.get(5), 2.0);
        assert_eq!(c.nnz(), 4);
    }

    #[test]
    fn scatter_tracks_touched() {
        let a = SparseVector::from_entries(vec![(1, 1.0), (3, 2.0)]);
        let mut dense = vec![0.0; 5];
        let mut touched = Vec::new();
        a.scatter_into(&mut dense, &mut touched, 2.0);
        a.scatter_into(&mut dense, &mut touched, 1.0);
        assert_eq!(dense[1], 3.0);
        assert_eq!(dense[3], 6.0);
        assert_eq!(touched, vec![1, 3]); // second scatter adds no new touches
    }

    #[test]
    fn top_k_orders_by_value() {
        let v = SparseVector::from_entries(vec![(0, 0.1), (1, 0.5), (2, 0.5), (3, 0.3)]);
        let top = v.top_k(3);
        assert_eq!(top, vec![(1, 0.5), (2, 0.5), (3, 0.3)]);
    }

    #[test]
    fn top_k_early_cut_equals_full_sort() {
        // Ties, duplicates, and every k including 0 and > nnz.
        let v = SparseVector::from_entries(vec![
            (0, 0.1),
            (1, 0.5),
            (2, 0.5),
            (3, 0.3),
            (4, 0.5),
            (5, 0.05),
            (6, 0.3),
        ]);
        for k in 0..=9 {
            assert_eq!(v.top_k_early_cut(k), v.top_k(k), "k={k}");
        }
        assert_eq!(SparseVector::new().top_k_early_cut(3), vec![]);
    }

    #[test]
    fn top_k_early_cut_treats_signed_zero_like_full_sort() {
        // -0.0 == 0.0 under the sort's IEEE comparison: the id tiebreak
        // must decide, identically in both selection paths.
        let v = SparseVector::from_entries(vec![(2, -0.0), (3, 0.0), (5, 0.5)]);
        for k in 0..=3 {
            assert_eq!(v.top_k_early_cut(k), v.top_k(k), "k={k}");
        }
    }

    #[test]
    fn truncate_below_drops_small() {
        let mut v = SparseVector::from_entries(vec![(0, 1e-5), (1, 0.5), (2, 2e-4)]);
        let dropped = v.truncate_below(1e-4);
        assert_eq!(dropped, 1);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.get(0), 0.0);
    }

    #[test]
    fn norms_and_bytes() {
        let v = SparseVector::from_entries(vec![(0, 0.25), (9, 0.5)]);
        assert!((v.l1_norm() - 0.75).abs() < 1e-15);
        assert_eq!(v.l_inf(), 0.5);
        assert_eq!(v.wire_bytes(), 8 + 24);
        assert_eq!(SparseVector::new().wire_bytes(), 8);
    }

    #[test]
    fn equality_is_bitwise() {
        let pos = SparseVector::from_entries(vec![(1, 0.0), (4, 0.5)]);
        let neg = SparseVector::from_entries(vec![(1, -0.0), (4, 0.5)]);
        assert_ne!(pos, neg, "-0.0 and +0.0 differ in bits");
        assert_eq!(neg, neg.clone());

        let nan = f64::from_bits(0x7FF8_0000_0000_0042);
        let a = SparseVector::from_entries(vec![(2, nan)]);
        assert_eq!(a, a.clone(), "a NaN equals the same NaN payload");
        let other = SparseVector::from_entries(vec![(2, f64::from_bits(0x7FF8_0000_0000_0043))]);
        assert_ne!(a, other, "different NaN payloads differ");

        assert_ne!(pos, SparseVector::from_entries(vec![(1, 0.0)]));
        assert_ne!(pos, SparseVector::from_entries(vec![(2, 0.0), (4, 0.5)]));
        assert_eq!(SparseVector::new(), SparseVector::from_entries(vec![]));
    }

    /// One accumulation step: scatter a vector (the
    /// [`SparseVector::scatter_into`] path), or overwrite one slot
    /// through the [`Scratch::parts`] contract (record the first touch),
    /// which is the only way a slot can come to hold `-0.0`.
    #[derive(Debug)]
    enum Step {
        Scatter(Vec<(NodeId, f64)>, f64),
        Write(NodeId, f64),
    }

    /// Values whose sums cancel to `+0.0`, stay `-0.0`, or carry NaN
    /// payloads, besides plain magnitudes.
    fn tricky_value(pick: u64, bits: u64) -> f64 {
        match pick % 8 {
            0 => 0.5,
            1 => -0.5,
            2 => 0.25,
            3 => -0.0,
            4 => 0.0,
            5 => f64::from_bits(0x7FF8_0000_0000_0000 | (bits & 0xF_FFFF_FFFF)),
            _ => f64::from_bits(bits),
        }
    }

    fn tricky() -> impl Strategy<Value = f64> {
        (0u64..=u64::MAX, 0u64..=u64::MAX).prop_map(|(p, b)| tricky_value(p, b))
    }

    /// Like [`tricky`] without NaN, for the rankings (`top_k` panics on
    /// NaN by contract). The small value set keeps ties frequent.
    fn ranked_value() -> impl Strategy<Value = f64> {
        (0u64..=u64::MAX, 0u64..=u64::MAX).prop_map(|(p, b)| match tricky_value(p, b) {
            x if x.is_nan() => 0.125,
            x => x,
        })
    }

    /// Distinct ids in random (unsorted) order with the given values.
    fn distinct_entries(raw: Vec<(NodeId, f64)>) -> Vec<(NodeId, f64)> {
        let mut seen = std::collections::HashSet::new();
        raw.into_iter().filter(|e| seen.insert(e.0)).collect()
    }

    fn accumulate(n: usize, steps: &[Step]) -> (Vec<f64>, Vec<NodeId>) {
        let mut dense = vec![0.0; n];
        let mut touched = Vec::new();
        for step in steps {
            match step {
                Step::Scatter(entries, scale) => {
                    SparseVector::from_entries(distinct_entries(entries.clone())).scatter_into(
                        &mut dense,
                        &mut touched,
                        *scale,
                    );
                }
                Step::Write(id, x) => {
                    let slot = &mut dense[*id as usize];
                    if *slot == 0.0 {
                        touched.push(*id);
                    }
                    *slot = *x;
                }
            }
        }
        (dense, touched)
    }

    fn step_strategy(n: u32) -> impl Strategy<Value = Step> {
        let entries = proptest::collection::vec((0..n, tricky()), 0..(n as usize * 2));
        (0u8..4, entries, tricky(), 0..n, tricky()).prop_map(|(kind, entries, scale, id, x)| {
            if kind == 0 {
                Step::Write(id, x)
            } else {
                Step::Scatter(entries, if kind == 1 { -1.0 } else { scale })
            }
        })
    }

    fn entry_bits(entries: &[(NodeId, f64)]) -> Vec<(NodeId, u64)> {
        entries.iter().map(|&(i, x)| (i, x.to_bits())).collect()
    }

    fn bits(v: &SparseVector) -> Vec<(NodeId, u64)> {
        v.iter().map(|(i, x)| (i, x.to_bits())).collect()
    }

    fn dense_bits(d: &[f64]) -> Vec<u64> {
        d.iter().map(|x| x.to_bits()).collect()
    }

    /// The `Vec<(NodeId, f64)>` implementations the two-array layout
    /// replaced, kept as references: every two-array operation must
    /// return the same bits as its counterpart here.
    mod reference {
        use super::super::HARVEST_SCAN_RATIO;
        use ppr_graph::NodeId;

        pub type Entries = Vec<(NodeId, f64)>;

        pub fn from_entries(mut entries: Entries) -> Entries {
            entries.sort_unstable_by_key(|e| e.0);
            entries
        }

        pub fn from_dense(dense: &[f64], ids: Option<&[NodeId]>, threshold: f64) -> Entries {
            let mut entries = Vec::new();
            for (i, &v) in dense.iter().enumerate() {
                if v.abs() > threshold {
                    let id = match ids {
                        Some(m) => m[i],
                        None => i as NodeId,
                    };
                    entries.push((id, v));
                }
            }
            if ids.is_some() {
                entries.sort_unstable_by_key(|e| e.0);
            }
            entries
        }

        pub fn add_scaled(a: &[(NodeId, f64)], b: &[(NodeId, f64)], scale: f64) -> Entries {
            let mut out = Vec::new();
            let (mut i, mut j) = (0usize, 0usize);
            while i < a.len() && j < b.len() {
                let (x, y) = (a[i], b[j]);
                match x.0.cmp(&y.0) {
                    std::cmp::Ordering::Less => {
                        out.push(x);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        out.push((y.0, scale * y.1));
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        out.push((x.0, x.1 + scale * y.1));
                        i += 1;
                        j += 1;
                    }
                }
            }
            out.extend_from_slice(&a[i..]);
            out.extend(b[j..].iter().map(|&(id, v)| (id, scale * v)));
            out
        }

        pub fn scatter_into(
            entries: &[(NodeId, f64)],
            dense: &mut [f64],
            touched: &mut Vec<NodeId>,
            scale: f64,
        ) {
            for &(id, v) in entries {
                let slot = &mut dense[id as usize];
                if *slot == 0.0 {
                    touched.push(id);
                }
                *slot += scale * v;
            }
        }

        pub fn harvest_scratch(dense: &mut [f64], touched: &mut Vec<NodeId>) -> Entries {
            let entries = if touched.len().saturating_mul(HARVEST_SCAN_RATIO) >= dense.len() {
                harvest_by_scan(dense, touched.len())
            } else {
                harvest_by_sort(dense, touched)
            };
            touched.clear();
            entries
        }

        pub fn harvest_by_sort(dense: &mut [f64], touched: &mut Vec<NodeId>) -> Entries {
            touched.sort_unstable();
            touched.dedup();
            let mut entries = Vec::with_capacity(touched.len());
            for &v in touched.iter() {
                let x = dense[v as usize];
                if x != 0.0 {
                    entries.push((v, x));
                }
                dense[v as usize] = 0.0;
            }
            entries
        }

        pub fn harvest_by_scan(dense: &mut [f64], touches: usize) -> Entries {
            let bound = touches.min(dense.len());
            let mut entries = vec![(0, 0.0); bound + 1];
            let mut len = 0;
            for (id, slot) in (0..).zip(dense.iter_mut()) {
                let x = *slot;
                if let Some(e) = entries.get_mut(len) {
                    *e = (id, x);
                }
                len += usize::from(x != 0.0);
                *slot = 0.0;
            }
            entries.truncate(len.min(bound));
            entries
        }

        pub fn top_k(entries: &[(NodeId, f64)], k: usize) -> Entries {
            let rank = |a: &(NodeId, f64), b: &(NodeId, f64)| {
                b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0))
            };
            if k >= entries.len() {
                let mut v = entries.to_vec();
                v.sort_unstable_by(rank);
                return v;
            }
            if k == 0 {
                return Vec::new();
            }
            let mut refs: Vec<&(NodeId, f64)> = entries.iter().collect();
            refs.select_nth_unstable_by(k - 1, |a, b| rank(a, b));
            refs.truncate(k);
            refs.sort_unstable_by(|a, b| rank(a, b));
            refs.into_iter().copied().collect()
        }

        pub fn truncate_below(entries: &mut Entries, threshold: f64) -> usize {
            let before = entries.len();
            entries.retain(|e| e.1.abs() > threshold);
            before - entries.len()
        }

        pub fn l1_norm(entries: &[(NodeId, f64)]) -> f64 {
            entries.iter().map(|e| e.1.abs()).sum()
        }

        pub fn l_inf(entries: &[(NodeId, f64)]) -> f64 {
            entries.iter().map(|e| e.1.abs()).fold(0.0, f64::max)
        }
    }

    proptest! {
        #[test]
        fn scan_harvest_equals_sort_harvest(
            steps in (1u32..160).prop_flat_map(|n| {
                (proptest::strategy::Just(n), proptest::collection::vec(step_strategy(n), 0..6))
            }),
            extra in 0usize..400,
        ) {
            // `extra` untouched slots put the touch share on both sides of
            // the scan threshold.
            let (n, steps) = steps;
            let (dense, touched) = accumulate(n as usize + extra, &steps);
            let (mut d_sort, mut t_sort) = (dense.clone(), touched.clone());
            let by_sort = harvest_by_sort(&mut d_sort, &mut t_sort);
            let mut d_scan = dense.clone();
            let by_scan = harvest_by_scan(&mut d_scan, touched.len());
            let (mut d_ref, mut t_ref) = (dense.clone(), touched.clone());
            let by_ref_sort = reference::harvest_by_sort(&mut d_ref, &mut t_ref);
            let by_ref_scan = reference::harvest_by_scan(&mut dense.clone(), touched.len());
            let (mut d_ref_pub, mut t_ref_pub) = (dense.clone(), touched.clone());
            let by_ref_pub = reference::harvest_scratch(&mut d_ref_pub, &mut t_ref_pub);
            let (mut d_pub, mut t_pub) = (dense, touched);
            let by_pub = SparseVector::harvest_scratch(&mut d_pub, &mut t_pub);
            prop_assert_eq!(bits(&by_sort), entry_bits(&by_ref_sort));
            prop_assert_eq!(bits(&by_scan), entry_bits(&by_ref_scan));
            prop_assert_eq!(bits(&by_pub), entry_bits(&by_ref_pub));
            prop_assert_eq!(bits(&by_sort), bits(&by_scan));
            prop_assert_eq!(&t_sort, &t_ref);
            for d in [&d_sort, &d_scan, &d_pub] {
                prop_assert!(d.iter().all(|x| x.to_bits() == 0), "arena not all +0.0");
            }
            prop_assert!(t_pub.is_empty());
        }

        #[test]
        fn constructors_and_merge_equal_reference(
            raw_a in proptest::collection::vec((0u32..300, tricky()), 0..120),
            raw_b in proptest::collection::vec((0u32..300, tricky()), 0..120),
            dense in proptest::collection::vec(tricky(), 0..200),
            rotate in 0usize..200,
            scale in tricky(),
            pick in 0u8..4,
        ) {
            let (a, b) = (distinct_entries(raw_a), distinct_entries(raw_b));
            let (ref_a, ref_b) = (reference::from_entries(a.clone()), reference::from_entries(b.clone()));
            let (sa, sb) = (SparseVector::from_entries(a), SparseVector::from_entries(b));
            prop_assert_eq!(bits(&sa), entry_bits(&ref_a));
            prop_assert_eq!(bits(&sb), entry_bits(&ref_b));
            prop_assert_eq!(
                bits(&sa.add_scaled(&sb, scale)),
                entry_bits(&reference::add_scaled(&ref_a, &ref_b, scale))
            );
            prop_assert_eq!(
                bits(&sb.add_scaled(&sa, scale)),
                entry_bits(&reference::add_scaled(&ref_b, &ref_a, scale))
            );

            // Dense conversion, with the identity and with a shuffled id map.
            let threshold = [0.0, 0.3, -1.0, 1e300][usize::from(pick)];
            let map: Vec<NodeId> = {
                let mut m: Vec<NodeId> = (0..dense.len() as NodeId).map(|i| i * 7 + 3).collect();
                m.rotate_left(rotate % dense.len().max(1));
                m
            };
            for ids in [None, Some(map.as_slice())] {
                prop_assert_eq!(
                    bits(&SparseVector::from_dense(&dense, ids, threshold)),
                    entry_bits(&reference::from_dense(&dense, ids, threshold))
                );
            }

            // Scatter: same arena bits, same touch order.
            let mut d_soa = vec![0.0; 300];
            let mut t_soa = Vec::new();
            let mut d_ref = vec![0.0; 300];
            let mut t_ref = Vec::new();
            sa.scatter_into(&mut d_soa, &mut t_soa, 1.0);
            sb.scatter_into(&mut d_soa, &mut t_soa, scale);
            reference::scatter_into(&ref_a, &mut d_ref, &mut t_ref, 1.0);
            reference::scatter_into(&ref_b, &mut d_ref, &mut t_ref, scale);
            prop_assert_eq!(dense_bits(&d_soa), dense_bits(&d_ref));
            prop_assert_eq!(t_soa, t_ref);

            // Norms, then truncation.
            prop_assert_eq!(sa.l1_norm().to_bits(), reference::l1_norm(&ref_a).to_bits());
            prop_assert_eq!(sa.l_inf().to_bits(), reference::l_inf(&ref_a).to_bits());
            let (mut st, mut rt) = (sa.clone(), ref_a.clone());
            prop_assert_eq!(st.truncate_below(threshold), reference::truncate_below(&mut rt, threshold));
            prop_assert_eq!(bits(&st), entry_bits(&rt));
        }

        #[test]
        fn rankings_equal_reference(
            raw in proptest::collection::vec((0u32..200, ranked_value()), 0..150),
            k in 0usize..160,
        ) {
            let entries = distinct_entries(raw);
            let reference = reference::from_entries(entries.clone());
            let v = SparseVector::from_entries(entries);
            let want = entry_bits(&reference::top_k(&reference, k));
            prop_assert_eq!(entry_bits(&v.top_k(k)), want.clone());
            prop_assert_eq!(entry_bits(&v.top_k_early_cut(k)), want);
        }
    }

    #[test]
    fn harvest_resets_negative_zero_on_both_paths() {
        for extra in [0, 100] {
            let steps = [Step::Write(1, -0.0), Step::Write(2, 0.75)];
            let (mut dense, mut touched) = accumulate(3 + extra, &steps);
            let v = SparseVector::harvest_scratch(&mut dense, &mut touched);
            assert_eq!(bits(&v), vec![(2, 0.75f64.to_bits())]);
            assert!(dense.iter().all(|x| x.to_bits() == 0));
            assert!(touched.is_empty());
        }
    }

    #[test]
    fn dense_roundtrip() {
        let v = SparseVector::from_entries(vec![(1, 0.5), (4, 0.1)]);
        let d = v.to_dense(6);
        let back = SparseVector::from_dense(&d, None, 0.0);
        assert_eq!(back, v);
    }

    /// Heap bytes a vector holds: both arrays' capacity, not their length.
    fn heap_bytes(v: &SparseVector) -> usize {
        v.ids.capacity() * std::mem::size_of::<NodeId>()
            + v.vals.capacity() * std::mem::size_of::<f64>()
    }

    /// Every producer hands back vectors holding exactly the 12 bytes per
    /// entry the cost model charges: capacity equals length in both
    /// arrays, so the stated slack is zero. Guards against growth-by-push
    /// slack (or a padded pair layout) returning.
    #[test]
    fn every_producer_holds_twelve_bytes_per_entry() {
        use crate::codec::{read_ppv, write_ppv, Cursor};
        use crate::push::PushEngine;
        use crate::skeleton::SkeletonEngine;
        use crate::PprConfig;
        use ppr_graph::generators::{hierarchical_sbm, HsbmConfig};
        use ppr_graph::ViewBuilder;

        const SLACK_BYTES: usize = 0;
        let mut checked = Vec::new();
        let mut check = |what: &str, v: &SparseVector| {
            assert!(v.nnz() > 0, "{what}: empty vector proves nothing");
            assert!(
                heap_bytes(v) <= 12 * v.nnz() + SLACK_BYTES,
                "{what}: {} heap bytes for {} entries",
                heap_bytes(v),
                v.nnz()
            );
            checked.push(what.to_string());
        };

        let g = hierarchical_sbm(&HsbmConfig::default(), 7);
        let cfg = PprConfig::default();
        let n = g.node_count();
        let mut push = PushEngine::new(n);
        let mut blocked = vec![false; n];
        for h in (0..n).step_by(5) {
            blocked[h] = true;
        }
        let out = push.run(&g, 1, &blocked, &cfg);
        check("push partial", &out.partial);
        check("push hub residual", &out.hub_residual);
        let column = SkeletonEngine::new(n).run(&g, 0, &cfg);
        check("skeleton column", &column);

        let members: Vec<NodeId> = (0..n as NodeId).filter(|v| v % 3 != 0).collect();
        let mut vb = ViewBuilder::new(&g);
        let view = vb.build(&members);
        let no_block = vec![false; view.len()];
        let local = push.run(&view, 0, &no_block, &cfg).partial;
        check("map_to_global", &crate::hgpa::map_to_global(local, &view));

        let sum = out.partial.add_scaled(&column, 0.5);
        check("add_scaled", &sum);

        let mut bytes = Vec::new();
        write_ppv(&mut bytes, &sum).unwrap();
        check(
            "codec decode",
            &read_ppv(&mut Cursor::new(&bytes), n as u64).unwrap(),
        );

        // The same sum through each harvest: a dense touch share takes
        // the scan, a sparse one (a large arena) the sort.
        for (what, arena) in [("scan harvest", n), ("sort harvest", 64 * n)] {
            let mut dense = vec![0.0; arena];
            let mut touched = Vec::new();
            out.partial.scatter_into(&mut dense, &mut touched, 1.0);
            column.scatter_into(&mut dense, &mut touched, 0.5);
            let by_scan = touched.len() * HARVEST_SCAN_RATIO >= arena;
            assert_eq!(by_scan, what == "scan harvest");
            let v = SparseVector::harvest_scratch(&mut dense, &mut touched);
            assert_eq!(v, sum, "{what}");
            check(what, &v);
        }

        let mut kept = sum.clone();
        assert!(kept.truncate_below(1e-4) > 0);
        check("truncate_below", &kept);
        check(
            "from_dense",
            &SparseVector::from_dense(&sum.to_dense(n), None, 0.0),
        );
        assert_eq!(checked.len(), 10);
    }
}
