//! The construction worker pool: scoped, dep-free fork/join parallelism with
//! deterministic result ordering and per-stage accounting.
//!
//! Construction is parallel where the work is independent by nature — one
//! task per partition (N-CH-P, P-TD-P, PMHL), one per fleet shard, and one
//! per subtree of an H2H label fill (`htsp-td`) — and those fan-outs funnel
//! through a [`WorkerPool`]:
//! [`WorkerPool::run`] evaluates a pure function over task indices
//! `0..tasks` and returns the results **in index order**, regardless of which
//! worker computed what, so a build that consumes them observes exactly the
//! sequence a single-threaded loop would produce. The pool only changes how
//! many tasks are in flight, never which tasks exist or how their outputs are
//! combined; a pool with one thread runs everything inline on the caller.
//!
//! What is *not* parallel is the elimination of one graph (order and
//! shortcuts, `htsp-ch`). It once forked per rank window, and the label fill
//! per tree level; on the benchmark's 4 096-vertex grid that made two
//! threads slower than one (contraction 94 ms against 40 ms, label fill 26
//! ms against 19 ms). The fill now forks once, per subtree. Only the
//! builders that fork take a pool.
//!
//! The caller of [`WorkerPool::run`] claims tasks like the threads it
//! spawns, so the work starts at once on a core that is running, and a
//! helper that starts late only takes fewer tasks. On a 2-vCPU VM, after
//! 5–40 ms of single-threaded work, eight 0.25 ms tasks on two threads took
//! a median 1.2 ms this way, where spawning two workers and blocking the
//! caller took 1.7–2.3 ms, against 2.0 ms for a plain loop.
//!
//! The pool also keeps per-stage wall-clock and task counters
//! ([`WorkerPool::stage_stats`]); the serving tier exports them as the
//! `htsp_build_*` telemetry family.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Accumulated accounting for one named construction stage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageStats {
    /// Stage name as passed to [`WorkerPool::run`].
    pub stage: String,
    /// Number of `run` invocations recorded under this name.
    pub runs: usize,
    /// Total tasks dispatched across those invocations.
    pub tasks: usize,
    /// Total wall-clock microseconds spent inside those invocations.
    pub micros: u64,
}

/// A small scoped worker pool for construction-time parallelism.
///
/// Threads are spawned per `run` call with [`std::thread::scope`] (no
/// long-lived workers, no channels, no dependencies), which keeps the pool
/// trivially `Send + Sync` and lets borrowed closures capture graph state
/// directly.
#[derive(Debug)]
pub struct WorkerPool {
    threads: usize,
    stats: Mutex<Vec<StageStats>>,
}

impl WorkerPool {
    /// A pool that runs up to `threads` tasks concurrently (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
            stats: Mutex::new(Vec::new()),
        }
    }

    /// The single-threaded pool: every task runs inline on the caller.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Number of worker threads this pool uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0..tasks)` and returns the results in task-index order.
    ///
    /// `f` must be a pure function of its index (it may read shared state but
    /// must not care which thread calls it). The caller runs tasks too,
    /// beside `threads - 1` spawned threads; with one thread, or one task,
    /// everything runs inline on the caller.
    pub fn run<T, F>(&self, stage: &str, tasks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let start = Instant::now();
        let workers = self.threads.min(tasks);
        let out = if workers <= 1 {
            (0..tasks).map(&f).collect()
        } else {
            let next = AtomicUsize::new(0);
            let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(tasks));
            let work = || {
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= tasks {
                        break;
                    }
                    local.push((i, f(i)));
                }
                (collected.lock())
                    .expect("a worker panicked while adding its results")
                    .extend(local);
            };
            // The caller is one of the workers (module docs).
            std::thread::scope(|scope| {
                for _ in 1..workers {
                    scope.spawn(work);
                }
                work();
            });
            let mut pairs = collected.into_inner().unwrap();
            pairs.sort_unstable_by_key(|&(i, _)| i);
            debug_assert_eq!(pairs.len(), tasks);
            pairs.into_iter().map(|(_, t)| t).collect()
        };
        self.record(stage, tasks, start);
        out
    }

    fn record(&self, stage: &str, tasks: usize, start: Instant) {
        let micros = start.elapsed().as_micros() as u64;
        let mut stats = self.stats.lock().unwrap();
        if let Some(s) = stats.iter_mut().find(|s| s.stage == stage) {
            s.runs += 1;
            s.tasks += tasks;
            s.micros += micros;
        } else {
            stats.push(StageStats {
                stage: stage.to_string(),
                runs: 1,
                tasks,
                micros,
            });
        }
    }

    /// Per-stage accounting accumulated so far, in first-seen order.
    pub fn stage_stats(&self) -> Vec<StageStats> {
        self.stats.lock().unwrap().clone()
    }
}

/// The machine's available parallelism (≥ 1); the default for
/// `BuildParams::num_threads`.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_returns_results_in_index_order() {
        for threads in [1, 2, 3, 8] {
            let pool = WorkerPool::new(threads);
            let out = pool.run("square", 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_handles_empty_and_single_task() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.run("none", 0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.run("one", 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn stage_stats_accumulate() {
        let pool = WorkerPool::new(2);
        pool.run("a", 10, |i| i);
        pool.run("a", 5, |i| i);
        pool.run("b", 3, |i| i);
        let stats = pool.stage_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].stage, "a");
        assert_eq!(stats[0].runs, 2);
        assert_eq!(stats[0].tasks, 15);
        assert_eq!(stats[1].stage, "b");
        assert_eq!(stats[1].tasks, 3);
    }

    #[test]
    fn sequential_pool_runs_inline() {
        let pool = WorkerPool::sequential();
        assert_eq!(pool.threads(), 1);
        let tid = std::thread::current().id();
        let ids = pool.run("inline", 4, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == tid));
    }

    #[test]
    fn available_parallelism_is_positive() {
        assert!(available_parallelism() >= 1);
    }
}
