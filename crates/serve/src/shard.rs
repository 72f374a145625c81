//! The sharded PPV cache: N reader shards over one hash-partitioned LRU.
//!
//! Every server holds one [`ShardSet`] with `ServeConfig::shards` shards
//! (sources routed by a multiplicative hash). One shard behaves exactly
//! like a single [`PpvCache`]; with more, a batch's responses are
//! assembled on one scoped worker thread per shard while the cluster
//! fan-out underneath runs its machines concurrently too
//! ([`ParallelismMode`]) — with the hard invariant that every answer is
//! **bit-identical** to the one-shard sequential configuration (pinned
//! differentially in `tests/concurrent_serving.rs`).
//!
//! Sharding also bounds writer stalls in the dynamic server: update
//! batches invalidate each shard independently (in parallel), see
//! [`DynamicPprServer`](crate::DynamicPprServer)'s epoch discipline.

use crate::cache::{CacheStats, PpvCache};
use ppr_cluster::ParallelismMode;
use ppr_core::SparseVector;
use ppr_graph::NodeId;

/// A hash-partitioned set of PPV cache shards. One shard behaves exactly
/// like the single [`PpvCache`] (same capacity, same LRU order); `N`
/// shards split the byte budget evenly and let readers and invalidation
/// touch each shard independently.
pub(crate) struct ShardSet {
    shards: Vec<PpvCache>,
}

impl ShardSet {
    /// `shards` caches sharing `total_capacity_bytes` evenly (each shard
    /// gets `total / shards`; zero capacity stores nothing).
    pub fn new(shards: usize, total_capacity_bytes: u64) -> Self {
        let shards = shards.max(1);
        let per_shard = total_capacity_bytes / shards as u64;
        Self {
            shards: (0..shards).map(|_| PpvCache::new(per_shard)).collect(),
        }
    }

    /// Deterministic shard of source `u` (Fibonacci multiply-shift, so
    /// structured node-id patterns spread evenly).
    fn route(&self, u: NodeId) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        let h = (u as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        (h % self.shards.len() as u64) as usize
    }

    /// Look up `u` in its shard, updating that shard's recency/stats.
    pub fn get(&mut self, u: NodeId) -> Option<&SparseVector> {
        let s = self.route(u);
        self.shards[s].get(u)
    }

    /// Look up `u` without touching recency or counters.
    pub fn peek(&self, u: NodeId) -> Option<&SparseVector> {
        self.shards[self.route(u)].peek(u)
    }

    /// Insert the PPV of `u` into its shard.
    pub fn insert(&mut self, u: NodeId, value: SparseVector) {
        let s = self.route(u);
        self.shards[s].insert(u, value);
    }

    /// Drop every entry in every shard.
    pub fn clear(&mut self) {
        for s in &mut self.shards {
            s.clear();
        }
    }

    /// Total resident entries across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(PpvCache::len).sum()
    }

    /// True when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(PpvCache::is_empty)
    }

    /// Total resident bytes across shards.
    pub fn bytes(&self) -> u64 {
        self.shards.iter().map(PpvCache::bytes).sum()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Cumulative counters summed over shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.shards {
            total.merge(&s.stats());
        }
        total
    }

    /// The reader-side assembly mode for this shard set: one scoped
    /// worker per shard, unless `mode` is sequential (the global
    /// off-switch the `PPR_TEST_THREADS=1` CI lane exercises). One shard
    /// yields one worker, which assembles in the calling thread.
    pub(crate) fn assembly_mode(&self, mode: ParallelismMode) -> ParallelismMode {
        if mode.is_parallel() {
            ParallelismMode::Threads(self.shard_count())
        } else {
            ParallelismMode::Sequential
        }
    }

    /// Cumulative counters per shard, in shard order.
    pub fn per_shard_stats(&self) -> Vec<CacheStats> {
        self.shards.iter().map(PpvCache::stats).collect()
    }

    /// Evict every resident source `s` with `stale[s]`, each shard
    /// independently — on scoped threads when `mode` is parallel (the
    /// shards share nothing, so this is safe and deterministic). Returns
    /// `(evicted, retained)` summed over shards.
    pub fn invalidate_stale(&mut self, stale: &[bool], mode: ParallelismMode) -> (usize, usize) {
        fn sweep(shard: &mut PpvCache, stale: &[bool]) -> (usize, usize) {
            let (mut evicted, mut retained) = (0usize, 0usize);
            for key in shard.resident_keys() {
                if stale.get(key as usize).copied().unwrap_or(false) {
                    shard.remove(key);
                    evicted += 1;
                } else {
                    retained += 1;
                }
            }
            (evicted, retained)
        }
        if mode.is_parallel() && self.shards.len() > 1 {
            let counts: Vec<(usize, usize)> = std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter_mut()
                    .map(|shard| scope.spawn(move || sweep(shard, stale)))
                    .collect();
                handles
                    .into_iter()
                    // audit:allow(serve-panic): join only fails if the sweep
                    // already panicked; propagating beats hiding it
                    .map(|h| h.join().expect("shard invalidation thread"))
                    .collect()
            });
            counts
                .into_iter()
                .fold((0, 0), |(e, r), (de, dr)| (e + de, r + dr))
        } else {
            let mut total = (0usize, 0usize);
            for shard in &mut self.shards {
                let (e, r) = sweep(shard, stale);
                total.0 += e;
                total.1 += r;
            }
            total
        }
    }
}
