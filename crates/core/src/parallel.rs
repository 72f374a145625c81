//! Execution modes and the timed work pool shared by the offline builds
//! and (via re-export) the `ppr-cluster` fan-out.
//!
//! [`ParallelismMode`] started life in `ppr-cluster` (PR 4's online
//! fan-out); it lives here now so the *offline* precomputation path —
//! [`crate::hgpa::HgpaIndex::build_distributed_with_hierarchy`], which
//! GPA's [`crate::gpa::build`] also goes through — can share the exact
//! same switch without inverting the crate dependency (`ppr-cluster`
//! depends on `ppr-core`). `ppr-cluster` re-exports it, so existing
//! `ppr_cluster::ParallelismMode` imports keep working.
//!
//! [`run_timed`] is the offline counterpart of the cluster's per-round
//! fan-out: a deterministic pool that deals **timed work items** to
//! workers. Each item is measured individually, so per-machine *modeled*
//! seconds (sum of the owning machine's item times) keep reflecting
//! dedicated-machine cost no matter how many worker threads the host
//! lends — the paper's offline figures stay meaningful while wall-clock
//! shrinks with cores.

use std::time::Instant;

/// The workspace's single wall-clock gateway.
///
/// Every wall-clock measurement outside this module goes through
/// `Stopwatch` (the `repro audit` `wall-clock` rule enforces it). The
/// point is not the two-line convenience: funnelling real time through
/// one audited type keeps `std::time` out of modeled-time code — the
/// cluster cost model, the open-loop virtual clock, the figure
/// experiments — where a stray `Instant::now()` would silently turn a
/// reproducible, figure-accurate number into a host-dependent one.
///
/// ```
/// use ppr_core::parallel::Stopwatch;
/// let sw = Stopwatch::start();
/// let secs = sw.elapsed_seconds();
/// assert!(secs >= 0.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Begin measuring now.
    pub fn start() -> Self {
        Self {
            started: Instant::now(),
        }
    }

    /// Wall-clock seconds since [`Stopwatch::start`].
    pub fn elapsed_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// How a fan-out (machines of a query round, or work items of an offline
/// build) executes.
///
/// Results are **bit-identical** across modes: every unit of work runs in
/// isolation from read-only state and outputs are reassembled in a fixed
/// order, so the mode only changes *when* each output is computed, never
/// what it contains (pinned by `tests/concurrent_serving.rs` for the
/// online path and `tests/parallel_build.rs` for the offline builds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParallelismMode {
    /// Work runs one unit after another in the caller's thread. This is
    /// the paper-accurate measurement mode: on a shared (possibly
    /// single-core) host it is the only way a unit's measured compute
    /// time reflects what a dedicated machine would spend, so the figure
    /// experiments use it.
    Sequential,
    /// Work runs on scoped worker threads, at most this many at once
    /// (units are dealt to workers round-robin). This is the serving /
    /// throughput mode: wall-clock time approaches the critical path on
    /// a host with enough cores. Per-unit measured times remain recorded
    /// but may be inflated by core contention when workers exceed cores.
    Threads(usize),
}

impl ParallelismMode {
    /// The mode the environment asks for. `PPR_TEST_THREADS` (also the
    /// knob the CI matrix sweeps) wins: `1` means [`Sequential`], `N > 1`
    /// means [`Threads(N)`]. Unset, the host decides:
    /// [`std::thread::available_parallelism`] cores, sequential on a
    /// single-core machine.
    ///
    /// [`Sequential`]: ParallelismMode::Sequential
    /// [`Threads(N)`]: ParallelismMode::Threads
    pub fn from_env() -> Self {
        let workers = std::env::var("PPR_TEST_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, |p| p.get())
            });
        Self::with_workers(workers)
    }

    /// The mode offline builds should use, from `PPR_BUILD_THREADS`.
    /// Unset or `1` means [`Sequential`](ParallelismMode::Sequential) —
    /// the default stays measurement-grade so the paper's offline figures
    /// are reproduced unchanged; `N > 1` opts a build into `N` workers.
    pub fn build_from_env() -> Self {
        std::env::var("PPR_BUILD_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map_or(ParallelismMode::Sequential, Self::with_workers)
    }

    /// [`Sequential`](ParallelismMode::Sequential) for `workers <= 1`,
    /// [`Threads`](ParallelismMode::Threads) otherwise.
    pub fn with_workers(workers: usize) -> Self {
        if workers <= 1 {
            ParallelismMode::Sequential
        } else {
            ParallelismMode::Threads(workers)
        }
    }

    /// Number of concurrent workers this mode permits.
    pub fn workers(self) -> usize {
        match self {
            ParallelismMode::Sequential => 1,
            ParallelismMode::Threads(w) => w.max(1),
        }
    }

    /// True when work may run on more than one thread.
    pub fn is_parallel(self) -> bool {
        self.workers() > 1
    }
}

impl Default for ParallelismMode {
    /// Sequential — the paper-accurate measurement mode. Serving layers
    /// and builds opt into threads via the env helpers or explicitly.
    fn default() -> Self {
        ParallelismMode::Sequential
    }
}

/// Run `count` work items under `mode`, returning each item's output and
/// its individually measured seconds, **in item order**, plus the largest
/// per-worker arena footprint in bytes.
///
/// Every worker owns one reusable state `S` built by `make_state` (the
/// engine and scratch arenas in the build paths) and processes the items
/// dealt to it round-robin (`worker w` gets items `w, w + W, ...`; the
/// deal is over item indices, not machines). Outputs are
/// reassembled by item index, so the result — and anything aggregated
/// from it in item order — is independent of scheduling; with item work
/// sets disjoint and all shared state read-only, `Threads(_)` is
/// bit-identical to `Sequential`. Per-item times are measurement-grade
/// under [`ParallelismMode::Sequential`] and throughput-oriented (core
/// contention may inflate them) under [`ParallelismMode::Threads`].
///
/// `arena_bytes` sizes a worker's state after its last item; the maximum
/// over workers is the peak-scratch figure `BENCH_offline.json` records.
pub fn run_timed<S, T, FS, FB, F>(
    count: usize,
    mode: ParallelismMode,
    make_state: FS,
    arena_bytes: FB,
    exec: F,
) -> (Vec<(T, f64)>, u64)
where
    T: Send,
    S: Send,
    FS: Fn() -> S + Sync,
    FB: Fn(&S) -> u64 + Sync,
    F: Fn(usize, &mut S) -> T + Sync,
{
    let workers = mode.workers().min(count.max(1));
    if workers <= 1 {
        let mut state = make_state();
        let out = (0..count)
            .map(|i| {
                let t = Stopwatch::start();
                let v = exec(i, &mut state);
                (v, t.elapsed_seconds())
            })
            .collect();
        return (out, arena_bytes(&state));
    }

    /// What one worker hands back: its items (tagged by index, with
    /// measured seconds) and its final arena footprint.
    type WorkerOut<T> = (Vec<(usize, T, f64)>, u64);

    let mut slots: Vec<Option<(T, f64)>> = (0..count).map(|_| None).collect();
    let exec = &exec;
    let make_state = &make_state;
    let arena_bytes = &arena_bytes;
    let outputs: Vec<WorkerOut<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut state = make_state();
                    let produced = (w..count)
                        .step_by(workers)
                        .map(|i| {
                            let t = Stopwatch::start();
                            let v = exec(i, &mut state);
                            (i, v, t.elapsed_seconds())
                        })
                        .collect();
                    (produced, arena_bytes(&state))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("build worker thread"))
            .collect()
    });
    let mut peak = 0u64;
    for (items, bytes) in outputs {
        peak = peak.max(bytes);
        for (i, v, secs) in items {
            slots[i] = Some((v, secs));
        }
    }
    let out = slots
        .into_iter()
        .map(|s| s.expect("every work item executed"))
        .collect();
    (out, peak)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_workers_thresholds() {
        assert_eq!(ParallelismMode::with_workers(0), ParallelismMode::Sequential);
        assert_eq!(ParallelismMode::with_workers(1), ParallelismMode::Sequential);
        assert_eq!(ParallelismMode::with_workers(4), ParallelismMode::Threads(4));
        assert_eq!(ParallelismMode::Sequential.workers(), 1);
        assert_eq!(ParallelismMode::Threads(3).workers(), 3);
        assert!(!ParallelismMode::Sequential.is_parallel());
        assert!(ParallelismMode::Threads(2).is_parallel());
    }

    #[test]
    fn run_timed_preserves_item_order_across_modes() {
        for mode in [
            ParallelismMode::Sequential,
            ParallelismMode::Threads(2),
            ParallelismMode::Threads(5),
        ] {
            let (out, peak) = run_timed(
                17,
                mode,
                || 0u64,
                |state| 64 + *state, // arena grows with items processed
                |i, state| {
                    *state += 1;
                    i * i
                },
            );
            let values: Vec<usize> = out.iter().map(|(v, _)| *v).collect();
            assert_eq!(values, (0..17).map(|i| i * i).collect::<Vec<_>>(), "{mode:?}");
            assert!(out.iter().all(|&(_, s)| s >= 0.0));
            assert!(peak >= 64, "{mode:?}");
        }
    }

    #[test]
    fn run_timed_handles_empty_and_excess_workers() {
        let (out, _) = run_timed(0, ParallelismMode::Threads(4), || (), |_| 0, |_, _| 1);
        assert!(out.is_empty());
        let (out, _) = run_timed(2, ParallelismMode::Threads(9), || (), |_| 0, |i, _| i);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, 0);
        assert_eq!(out[1].0, 1);
    }
}
