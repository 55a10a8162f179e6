//! Deterministic parallel fan-out for the experiment suite.
//!
//! Every sweep in the workspace — `Vctrl` grids, frequency points,
//! noise-amplitude steps, ablation cells, bus channels — is a batch of
//! **independent** tasks. This crate runs such batches on a scoped thread
//! pool while guaranteeing that results are *bit-identical at every
//! thread count*:
//!
//! * results are collected by task index, never by completion order;
//! * no task shares mutable state (or an RNG) with another task — code
//!   that needs randomness derives one private stream per task with
//!   [`task_seed`], instead of drawing from a sequential generator whose
//!   consumption order would depend on scheduling.
//!
//! The thread count comes from `std::thread::available_parallelism`,
//! overridable with the `VARDELAY_THREADS` environment variable
//! (`VARDELAY_THREADS=1` is the serial baseline). See DESIGN.md §8 for
//! the determinism rules.
//!
//! Two failure disciplines are offered: [`Runner::run`] propagates the
//! first task panic to the caller (the default — a bug in experiment code
//! should abort loudly), while [`Runner::try_run`] isolates each task
//! under `catch_unwind` and returns `Vec<Result<T, TaskError>>`, for a
//! batch that must survive a panicking member (`repro` runs an experiment
//! under a `VARDELAY_DEADLINE_MS` budget through it; DESIGN.md §10–§11).
//!
//! Every batch is instrumented through `vardelay-obs` (DESIGN.md §9):
//! batch/task counters, a per-batch duration span, worker-balance and
//! queue-drain histograms. Instrumentation is purely observational — the
//! determinism tests run with it on and off and assert byte-identical
//! CSVs.
//!
//! # Examples
//!
//! ```
//! use vardelay_runner::Runner;
//!
//! let squares = Runner::new(4).run(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! // A different thread count produces the identical result.
//! assert_eq!(squares, Runner::new(1).run(8, |i| i * i));
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use vardelay_obs as obs;
use vardelay_siggen::SplitMix64;

/// One failed task of a batch run through [`Runner::try_run`]: its index
/// and its panic message.
///
/// The message is the panic payload when it was a `&str`/`String` (the
/// overwhelmingly common case — `panic!`, `assert!`, `expect`), so the
/// error is a deterministic function of the task's inputs and a batch
/// result containing it stays bit-reproducible at every thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskError {
    /// Index of the failed task within its batch.
    pub task: usize,
    /// The panic message.
    pub message: String,
}

impl core::fmt::Display for TaskError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "task {} panicked: {}", self.task, self.message)
    }
}

impl std::error::Error for TaskError {}

/// Cooperative wall-clock budget for one unit of work (a served request
/// in `vardelay-serve`).
///
/// The token is a start instant and a budget; [`Deadline::expired`]
/// compares the two. Long-running work calls [`Deadline::check`] at
/// natural cancellation points (once per sweep step, per channel, per
/// scenario) to bail as soon as the budget is gone instead of wasting
/// the rest of its wall clock.
#[derive(Debug, Clone)]
pub struct Deadline {
    start: Instant,
    budget: Duration,
}

/// Sentinel panic payload of a cooperative deadline bail
/// ([`Deadline::check`]). A supervisor that catches task unwinds (the
/// `vardelay-serve` worker pool) probes a caught payload with
/// `payload.is::<DeadlineBail>()` to tell a bail from a real panic.
pub struct DeadlineBail;

impl Deadline {
    /// A deadline starting now with the given budget.
    pub fn after(budget: Duration) -> Self {
        Deadline {
            start: Instant::now(),
            budget,
        }
    }

    /// The budget.
    pub fn budget(&self) -> Duration {
        self.budget
    }

    /// Time since the deadline started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Whether the budget is gone.
    pub fn expired(&self) -> bool {
        self.elapsed() > self.budget
    }

    /// Cooperative cancellation point: returns immediately while the
    /// budget holds, unwinds with a [`DeadlineBail`] payload once it is
    /// gone.
    pub fn check(&self) {
        if self.expired() {
            std::panic::panic_any(DeadlineBail);
        }
    }
}

/// Renders a caught panic payload as a stable message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Parses a `VARDELAY_THREADS`-style override string into a worker
/// count. The rules — shared by every consumer of the variable
/// ([`Runner::from_env`], the `vardelay-serve` worker pool, `repro`) so
/// they cannot drift: surrounding whitespace is ignored, the value must
/// parse as a positive integer, and anything else (`0`, garbage, empty)
/// means "no override".
pub fn parse_thread_override(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// Resolves the process's worker-thread count: the `VARDELAY_THREADS`
/// override when set and valid (see [`parse_thread_override`]), else
/// `std::thread::available_parallelism`, else 1. Always ≥ 1.
pub fn worker_threads_from_env() -> usize {
    std::env::var("VARDELAY_THREADS")
        .ok()
        .as_deref()
        .and_then(parse_thread_override)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Derives the seed of task `task_index`'s private RNG stream from the
/// experiment's root seed.
///
/// The rule (documented in DESIGN.md §8, fixed forever for
/// reproducibility): XOR the root seed with `(index + 1) · φ64` — the
/// 64-bit golden-ratio constant SplitMix64 itself increments by — then
/// advance one SplitMix64 step. Distinct indices land in statistically
/// independent regions of the generator's sequence, and the `+ 1` keeps
/// task 0 from collapsing onto the raw root seed.
///
/// # Examples
///
/// ```
/// use vardelay_runner::task_seed;
///
/// let a = task_seed(20080310, 0);
/// let b = task_seed(20080310, 1);
/// assert_ne!(a, b);
/// assert_eq!(a, task_seed(20080310, 0)); // pure function of (seed, index)
/// ```
pub fn task_seed(root_seed: u64, task_index: u64) -> u64 {
    const PHI64: u64 = 0x9e37_79b9_7f4a_7c15;
    SplitMix64::new(root_seed ^ task_index.wrapping_add(1).wrapping_mul(PHI64)).next_u64()
}

/// A fixed-width scoped thread pool that maps tasks by index.
///
/// `Runner` is `Copy` — it is a policy (a thread count), not a pool of
/// live threads; threads are scoped to each call and joined before it
/// returns, so a panicking task propagates to the caller exactly as in
/// the serial path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runner {
    threads: usize,
}

impl Runner {
    /// A runner using `threads` worker threads (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Runner {
            threads: threads.max(1),
        }
    }

    /// A single-threaded runner — the serial reference path.
    pub fn serial() -> Self {
        Runner::new(1)
    }

    /// A runner sized from the `VARDELAY_THREADS` environment variable,
    /// falling back to `std::thread::available_parallelism` (see
    /// [`worker_threads_from_env`]).
    pub fn from_env() -> Self {
        Runner::new(worker_threads_from_env())
    }

    /// The process-wide default runner (first use fixes the size from the
    /// environment, see [`Runner::from_env`]).
    pub fn global() -> Runner {
        static GLOBAL: OnceLock<Runner> = OnceLock::new();
        *GLOBAL.get_or_init(Runner::from_env)
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, fanning tasks out across the pool; the
    /// result vector is ordered by item index regardless of which thread
    /// computed what, so the output is identical at every thread count.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the first panicking task (by join order).
    pub fn par_map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        self.run(items.len(), |i| f(i, &items[i]))
    }

    /// Runs tasks `0..n` through `f`, returning results in task order.
    ///
    /// Instrumented with `vardelay-obs` (observational only — never
    /// touches task results): `runner.batches` / `runner.tasks` counters,
    /// a `runner.batch_us` span over the whole fan-out, a
    /// `runner.tasks_per_worker` histogram exposing scheduling balance,
    /// and `runner.queue_drain_us` — the tail latency between the last
    /// task being *claimed* and the last worker *finishing*, i.e. how
    /// long the batch runs starved with an empty queue.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the first panicking task (by join order).
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let instrumented = obs::enabled() && n > 0;
        let batch_span = instrumented.then(|| {
            obs::counter("runner.batches").incr();
            obs::counter("runner.tasks").add(n as u64);
            obs::span("runner.batch_us")
        });
        let workers = self.threads.min(n);
        if workers <= 1 {
            let out = (0..n).map(f).collect();
            if instrumented {
                obs::histogram("runner.tasks_per_worker").record(n as u64);
                obs::histogram("runner.queue_drain_us").record(0);
            }
            drop(batch_span);
            return out;
        }

        // Work-stealing by atomic index; each worker keeps (index, value)
        // pairs locally so no result ever waits on a lock.
        let next = AtomicUsize::new(0);
        // Micros from batch start to the moment a worker first saw the
        // queue empty (u64::MAX until then).
        let drained_at_us = AtomicU64::new(u64::MAX);
        let batch_start = Instant::now();
        let f = &f;
        let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, f(i)));
                        }
                        if instrumented {
                            drained_at_us.fetch_min(
                                batch_start.elapsed().as_micros() as u64,
                                Ordering::Relaxed,
                            );
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| resume_unwind(e)))
                .collect()
        });
        if instrumented {
            let balance = obs::histogram("runner.tasks_per_worker");
            for worker in &per_worker {
                balance.record(worker.len() as u64);
            }
            let drained = drained_at_us.load(Ordering::Relaxed);
            if drained != u64::MAX {
                let total = batch_start.elapsed().as_micros() as u64;
                obs::histogram("runner.queue_drain_us").record(total.saturating_sub(drained));
            }
        }
        drop(batch_span);

        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (i, value) in per_worker.into_iter().flatten() {
            debug_assert!(slots[i].is_none(), "task {i} computed twice");
            slots[i] = Some(value);
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("task {i} never ran")))
            .collect()
    }

    /// Fallible variant of [`Runner::run`]: every task runs under
    /// [`catch_unwind`] isolation, so one panicking task degrades the
    /// batch to a per-task [`TaskError`] instead of aborting it. Results
    /// keep task order, and since the error message is derived from the
    /// panic payload, the whole `Vec` is bit-identical at every thread
    /// count. Each task runs once; a panic bumps `runner.task_panics`.
    ///
    /// The default [`Runner::run`] stays panic-propagating — use this
    /// path when a batch must survive faulty members.
    pub fn try_run<T, F>(&self, n: usize, f: F) -> Vec<Result<T, TaskError>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run(n, |i| {
            catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|payload| {
                if obs::enabled() {
                    obs::counter("runner.task_panics").incr();
                }
                TaskError {
                    task: i,
                    message: panic_message(payload.as_ref()),
                }
            })
        })
    }
}

impl Default for Runner {
    fn default() -> Self {
        Runner::global()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_ordered_by_index() {
        let out = Runner::new(8).run(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let work = |i: usize| {
            let mut rng = SplitMix64::new(task_seed(42, i as u64));
            (0..50).map(|_| rng.next_f64()).sum::<f64>()
        };
        let serial = Runner::serial().run(37, work);
        for threads in [2, 3, 8, 16] {
            let parallel = Runner::new(threads).run(37, work);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_passes_items_and_indices() {
        let items = vec![10, 20, 30];
        let out = Runner::new(2).par_map(&items, |i, &x| x + i);
        assert_eq!(out, vec![10, 21, 32]);
    }

    #[test]
    fn empty_and_single_batches() {
        let empty: Vec<usize> = Runner::new(4).run(0, |i| i);
        assert!(empty.is_empty());
        assert_eq!(Runner::new(4).run(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn zero_thread_request_clamps_to_one() {
        assert_eq!(Runner::new(0).threads(), 1);
    }

    #[test]
    fn thread_override_parsing_rejects_zero_and_garbage() {
        // Pure probes on the shared parse rules (env mutation in tests
        // races other threads, so the env wrapper is exercised by the
        // CI matrix instead).
        assert_eq!(parse_thread_override("4"), Some(4));
        assert_eq!(parse_thread_override("  8\n"), Some(8));
        assert_eq!(parse_thread_override("0"), None, "0 is not a worker count");
        assert_eq!(parse_thread_override("-3"), None);
        assert_eq!(parse_thread_override("four"), None);
        assert_eq!(parse_thread_override("4.5"), None);
        assert_eq!(parse_thread_override(""), None);
        assert_eq!(parse_thread_override("  "), None);
        assert_eq!(parse_thread_override("18446744073709551616"), None);
    }

    #[test]
    fn worker_threads_from_env_is_at_least_one() {
        // Whatever the ambient environment says, the resolution never
        // returns 0 — both serve's worker pool and the runner divide by
        // it.
        assert!(worker_threads_from_env() >= 1);
        assert_eq!(Runner::from_env().threads(), worker_threads_from_env());
    }

    #[test]
    #[should_panic(expected = "task boom")]
    fn task_panics_propagate() {
        Runner::new(4).run(8, |i| {
            if i == 5 {
                panic!("task boom");
            }
            i
        });
    }

    #[test]
    fn task_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..1000).map(|i| task_seed(20080310, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "collision in task seeds");
        assert_eq!(task_seed(20080310, 123), seeds[123]);
    }

    #[test]
    fn instrumentation_counts_batches_and_tasks() {
        obs::set_enabled(true);
        let batches = obs::counter("runner.batches").get();
        let tasks = obs::counter("runner.tasks").get();
        let out = Runner::new(4).run(12, |i| i);
        assert_eq!(out.len(), 12);
        assert!(obs::counter("runner.batches").get() > batches);
        assert!(obs::counter("runner.tasks").get() >= tasks + 12);
        // Worker balance histogram observed the batch.
        assert!(obs::histogram("runner.tasks_per_worker").count() > 0);
    }

    #[test]
    fn try_run_isolates_a_panicking_task() {
        // Acceptance pin: a 64-task batch with one injected panic returns
        // 63 Ok results and 1 Err(TaskError), identically at every thread
        // count.
        let work = |i: usize| {
            if i == 17 {
                panic!("injected fault on task 17");
            }
            i * 2
        };
        let serial = Runner::serial().try_run(64, work);
        for threads in [2, 4, 8, 16] {
            let parallel = Runner::new(threads).try_run(64, work);
            assert_eq!(serial, parallel, "try_run diverged at {threads} threads");
        }
        assert_eq!(serial.iter().filter(|r| r.is_ok()).count(), 63);
        let err = serial[17].as_ref().unwrap_err();
        assert_eq!(
            *err,
            TaskError {
                task: 17,
                message: "injected fault on task 17".to_owned()
            }
        );
        assert!(err.to_string().contains("task 17"));
        // Healthy neighbours are untouched.
        assert_eq!(serial[16], Ok(32));
        assert_eq!(serial[18], Ok(36));
    }

    #[test]
    fn try_run_without_faults_matches_run() {
        let fallible = Runner::new(4).try_run(32, |i| i * i);
        let infallible = Runner::new(4).run(32, |i| i * i);
        assert_eq!(
            fallible.into_iter().collect::<Result<Vec<_>, _>>().unwrap(),
            infallible
        );
    }

    #[test]
    fn a_deadline_expires_by_its_own_clock_and_check_bails() {
        let generous = Deadline::after(Duration::from_secs(30));
        assert!(!generous.expired());
        assert_eq!(generous.budget(), Duration::from_secs(30));
        generous.check(); // a no-op while the budget holds

        let spent = Deadline::after(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert!(spent.expired());
        assert!(spent.elapsed() >= Duration::from_millis(1));
        let payload = catch_unwind(|| spent.check()).expect_err("an expired check bails");
        assert!(
            payload.is::<DeadlineBail>(),
            "the bail carries its sentinel"
        );
    }

    #[test]
    fn task_streams_decorrelate() {
        // Adjacent tasks' streams must behave independently.
        let mut a = SplitMix64::new(task_seed(7, 0));
        let mut b = SplitMix64::new(task_seed(7, 1));
        let n = 2000;
        let corr: f64 = (0..n)
            .map(|_| (a.next_f64() - 0.5) * (b.next_f64() - 0.5))
            .sum::<f64>()
            / n as f64;
        assert!(corr.abs() < 0.02, "corr {corr}");
    }
}
