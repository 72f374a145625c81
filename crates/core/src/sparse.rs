//! Sparse PPV vectors.
//!
//! Precomputed partial vectors, skeleton columns, and query results are all
//! sparse: supports are confined to subgraphs (that is the whole point of
//! hub-based partitioning, §3.2) and tolerance truncation drops tiny
//! entries. The representation is a sorted `(node, value)` array — compact,
//! cache-friendly to scan, and O(log n) to probe, mirroring how the paper
//! ships vectors over the wire (its communication costs are byte counts of
//! exactly these arrays).

use ppr_graph::NodeId;

/// Immutable-ish sparse vector with entries sorted by node id.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SparseVector {
    entries: Vec<(NodeId, f64)>,
}

impl SparseVector {
    /// Empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// From unsorted entries; ids must be distinct.
    pub fn from_entries(mut entries: Vec<(NodeId, f64)>) -> Self {
        entries.sort_unstable_by_key(|e| e.0);
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "duplicate ids in sparse vector"
        );
        Self { entries }
    }

    /// From entries whose ids are already strictly increasing — for a
    /// caller that has proven the order (the PPV block decoder checks
    /// every delta), so [`SparseVector::from_entries`]'s sort is skipped.
    pub(crate) fn from_sorted_entries(entries: Vec<(NodeId, f64)>) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "sparse vector ids not strictly increasing"
        );
        Self { entries }
    }

    /// From a dense slice, keeping entries with `|value| > threshold`.
    /// Node ids are taken from `ids[i]` (pass `None` for identity).
    ///
    /// Survivors are counted in a first pass so the entry vector is
    /// allocated exactly once (bit-identical output, no growth
    /// reallocations on the precompute hot path).
    pub fn from_dense(dense: &[f64], ids: Option<&[NodeId]>, threshold: f64) -> Self {
        let surviving = dense.iter().filter(|v| v.abs() > threshold).count();
        let mut entries = Vec::with_capacity(surviving);
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
        Self { entries }
    }

    /// Value at `id` (0.0 if absent).
    #[inline]
    pub fn get(&self, id: NodeId) -> f64 {
        match self.entries.binary_search_by_key(&id, |e| e.0) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0.0,
        }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate `(id, value)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// Sum of values (all PPV vectors are non-negative, so this is the L1
    /// norm as well as the retained probability mass).
    pub fn l1_norm(&self) -> f64 {
        self.entries.iter().map(|e| e.1.abs()).sum()
    }

    /// Largest absolute value.
    pub fn l_inf(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.1.abs())
            .fold(0.0, f64::max)
    }

    /// `self += scale * other`, implemented by merge. Prefer
    /// [`SparseVector::scatter_into`] + a dense accumulator in hot loops.
    pub fn add_scaled(&self, other: &SparseVector, scale: f64) -> SparseVector {
        let mut out = Vec::with_capacity(self.entries.len() + other.entries.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.entries.len() && j < other.entries.len() {
            let (a, b) = (self.entries[i], other.entries[j]);
            match a.0.cmp(&b.0) {
                std::cmp::Ordering::Less => {
                    out.push(a);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push((b.0, scale * b.1));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push((a.0, a.1 + scale * b.1));
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.entries[i..]);
        out.extend(other.entries[j..].iter().map(|&(id, v)| (id, scale * v)));
        SparseVector { entries: out }
    }

    /// Accumulate `scale * self` into a dense buffer, recording first
    /// touches in `touched`.
    #[inline]
    pub fn scatter_into(&self, dense: &mut [f64], touched: &mut Vec<NodeId>, scale: f64) {
        for &(id, v) in &self.entries {
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
        let entries = if touched.len().saturating_mul(HARVEST_SCAN_RATIO) >= dense.len() {
            harvest_by_scan(dense, touched.len())
        } else {
            harvest_by_sort(dense, touched)
        };
        touched.clear();
        SparseVector { entries }
    }

    /// Top-k entries by value, descending (ties by node id ascending) —
    /// the ranking the paper's Precision/Kendall metrics consume.
    ///
    /// For `k < nnz` this selects over references (quickselect to the
    /// k-th rank, then sorts just the survivors) instead of cloning and
    /// fully sorting the entry vector: O(nnz + k·log k) expected and an
    /// O(k) copy, rather than O(nnz·log nnz) and an O(nnz) clone. The
    /// ranking comparator is a total order (value descending, id
    /// ascending breaks every tie), so the selected set — and hence the
    /// output — is exactly the full sort's prefix;
    /// `top_k_select_equals_reference_sort` in
    /// `tests/invariants_proptest.rs` pins the equivalence against the
    /// old clone-and-sort implementation on random entry sets.
    pub fn top_k(&self, k: usize) -> Vec<(NodeId, f64)> {
        let rank = |a: &(NodeId, f64), b: &(NodeId, f64)| {
            b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0))
        };
        if k >= self.entries.len() {
            let mut v: Vec<(NodeId, f64)> = self.entries.clone();
            v.sort_unstable_by(rank);
            return v;
        }
        if k == 0 {
            return Vec::new();
        }
        let mut refs: Vec<&(NodeId, f64)> = self.entries.iter().collect();
        refs.select_nth_unstable_by(k - 1, |a, b| rank(a, b));
        refs.truncate(k);
        refs.sort_unstable_by(|a, b| rank(a, b));
        refs.into_iter().copied().collect()
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
        for &(id, v) in &self.entries {
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
    /// §6.2.9). Returns the number of dropped entries.
    pub fn truncate_below(&mut self, threshold: f64) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.1.abs() > threshold);
        before - self.entries.len()
    }

    /// Wire size in bytes under the simulator's serialization model:
    /// 4 bytes node id + 8 bytes f64 per entry, plus an 8-byte length
    /// header (matches how the paper reports communication KB).
    pub fn wire_bytes(&self) -> u64 {
        8 + 12 * self.entries.len() as u64
    }

    /// Dense materialisation of length `n`.
    pub fn to_dense(&self, n: usize) -> Vec<f64> {
        let mut d = vec![0.0; n];
        for &(id, v) in &self.entries {
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
fn harvest_by_sort(dense: &mut [f64], touched: &mut Vec<NodeId>) -> Vec<(NodeId, f64)> {
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

/// Harvest by scanning the arena in id order: cost follows the arena.
/// Only touched slots can be non-zero, so `touches` (duplicates
/// included) bounds the entry count. The loop has no data-dependent
/// branch: every slot is written into the next free entry, which is
/// kept only when the slot is non-zero, and every slot is reset to
/// `+0.0` — a `-0.0` slot yields no entry, as in the sort harvest.
fn harvest_by_scan(dense: &mut [f64], touches: usize) -> Vec<(NodeId, f64)> {
    let bound = touches.min(dense.len());
    // One spare entry absorbs the write that follows the last non-zero.
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

    fn accumulate(n: usize, steps: &[Step]) -> (Vec<f64>, Vec<NodeId>) {
        let mut dense = vec![0.0; n];
        let mut touched = Vec::new();
        for step in steps {
            match step {
                Step::Scatter(entries, scale) => {
                    let mut entries = entries.clone();
                    entries.sort_unstable_by_key(|e| e.0);
                    entries.dedup_by_key(|e| e.0);
                    SparseVector { entries }.scatter_into(&mut dense, &mut touched, *scale);
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
        let value = (0u64..=u64::MAX, 0u64..=u64::MAX).prop_map(|(p, b)| tricky_value(p, b));
        let entries = proptest::collection::vec((0..n, value), 0..(n as usize * 2));
        let scale = (0u64..=u64::MAX, 0u64..=u64::MAX).prop_map(|(p, b)| tricky_value(p, b));
        (0u8..4, entries, scale, 0..n, (0u64..=u64::MAX, 0u64..=u64::MAX)).prop_map(
            |(kind, entries, scale, id, (p, b))| {
                if kind == 0 {
                    Step::Write(id, tricky_value(p, b))
                } else {
                    Step::Scatter(entries, if kind == 1 { -1.0 } else { scale })
                }
            },
        )
    }

    fn entry_bits(entries: &[(NodeId, f64)]) -> Vec<(NodeId, u64)> {
        entries.iter().map(|&(i, x)| (i, x.to_bits())).collect()
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
            let (mut d_pub, mut t_pub) = (dense, touched);
            let by_pub = SparseVector::harvest_scratch(&mut d_pub, &mut t_pub);
            prop_assert_eq!(entry_bits(&by_sort), entry_bits(&by_scan));
            prop_assert_eq!(entry_bits(&by_sort), entry_bits(&by_pub.entries));
            for d in [&d_sort, &d_scan, &d_pub] {
                prop_assert!(d.iter().all(|x| x.to_bits() == 0), "arena not all +0.0");
            }
            prop_assert!(t_pub.is_empty());
        }
    }

    #[test]
    fn harvest_resets_negative_zero_on_both_paths() {
        for extra in [0, 100] {
            let steps = [Step::Write(1, -0.0), Step::Write(2, 0.75)];
            let (mut dense, mut touched) = accumulate(3 + extra, &steps);
            let v = SparseVector::harvest_scratch(&mut dense, &mut touched);
            assert_eq!(entry_bits(&v.entries), vec![(2, 0.75f64.to_bits())]);
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
}
