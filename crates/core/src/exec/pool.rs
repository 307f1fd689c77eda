//! # Persistent worker pool
//!
//! The executor's threads are spawned **once** — when the pool is built —
//! and reused for every subsequent step, wave, phase, query and sweep
//! point. A step submits its per-node bundles as a *scope*: an ordered
//! batch of jobs whose results come back in submission order, so callers
//! can merge ledgers, trace events and metrics deterministically no
//! matter which worker ran which job, or in what order they finished.
//!
//! ## Scheduling
//!
//! Each scope keeps its jobs as a shared counter (`next`/`done`) plus one
//! erased runner closure; workers pick jobs by claiming the next index.
//! The pool's global queue holds *tickets* — handles to scopes with work
//! left. The submitting thread never blocks idle: after enqueuing
//! tickets it runs its own scope's jobs until the scope is dry, then
//! waits only for jobs other workers are still finishing. Because a
//! nested scope's owner drains its own queue itself, nesting (a sweep
//! point running steps, a step chunking tuple batches) can never
//! deadlock the pool: blocking waits only ever cover jobs already
//! *running* on some thread, and leaf jobs terminate.
//!
//! ## Determinism
//!
//! The pool itself guarantees only *ordered results*; byte-identical
//! artifacts are the contract of the callers ([`run_step`] replays trace
//! and metrics in participant order, [`StepCtx::par_map`] restricts
//! chunked work to pure computation). `pool_size = 1` spawns no threads
//! at all — every caller detects `workers() == 0` and takes its plain
//! serial path, so the degenerate pool *is* the serial executor.
//!
//! [`run_step`]: super::run_step
//! [`StepCtx::par_map`]: super::StepCtx::par_map

use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Lifetime-erased job runner: invoked with the index of the job to run.
/// See the `SAFETY` discussion in [`WorkerPool::try_run_ordered`].
type Runner = Box<dyn Fn(usize) + Send + Sync + 'static>;

/// One ordered batch of jobs sharing a runner.
struct ScopeCore {
    state: Mutex<ScopeState>,
    done_cv: Condvar,
    runner: Runner,
}

struct ScopeState {
    /// Next unclaimed job index.
    next: usize,
    /// Jobs that finished running (claimed and returned).
    done: usize,
    total: usize,
}

impl ScopeCore {
    /// Claim and run one job of this scope. Returns `false` when no
    /// unclaimed job is left (the scope may still have jobs *running* on
    /// other threads).
    fn run_one(&self) -> bool {
        let i = {
            let mut s = self.state.lock().unwrap();
            if s.next >= s.total {
                return false;
            }
            let i = s.next;
            s.next += 1;
            i
        };
        (self.runner)(i);
        let mut s = self.state.lock().unwrap();
        s.done += 1;
        if s.done == s.total {
            self.done_cv.notify_all();
        }
        true
    }

    /// Block until every job has finished running.
    fn wait_done(&self) {
        let mut s = self.state.lock().unwrap();
        while s.done < s.total {
            s = self.done_cv.wait(s).unwrap();
        }
    }
}

struct PoolQueue {
    tickets: VecDeque<Arc<ScopeCore>>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    work_cv: Condvar,
}

/// A panicked job: its submission index and the original panic payload.
pub struct JobPanic {
    /// Submission-order index of the job that panicked.
    pub index: usize,
    /// The payload `panic!` was invoked with.
    pub payload: Box<dyn Any + Send>,
}

/// Total worker threads ever spawned by pools in this process — the pool
/// reuse tests pin this down: once a run has started, it must not move.
static THREADS_SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Total worker threads ever spawned by any [`WorkerPool`] in this
/// process (monotone; never decremented on shutdown).
pub fn threads_spawned() -> u64 {
    THREADS_SPAWNED.load(Ordering::SeqCst)
}

/// A persistent pool of worker threads executing ordered job batches.
///
/// A pool of size `n` runs up to `n` jobs concurrently: `n - 1` dedicated
/// worker threads plus the submitting thread, which always helps run its
/// own batch. Size 1 therefore spawns no threads and executes everything
/// inline, in submission order — exactly the serial executor.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
}

impl WorkerPool {
    /// Build a pool of `size` concurrent lanes (clamped to at least 1).
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                tickets: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
        });
        let workers = (0..size - 1)
            .map(|w| {
                let shared = Arc::clone(&shared);
                THREADS_SPAWNED.fetch_add(1, Ordering::SeqCst);
                std::thread::Builder::new()
                    .name(format!("gamma-pool-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            size,
        }
    }

    /// Concurrent lanes (worker threads + the submitting thread).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Dedicated worker threads. `0` means the pool is degenerate and
    /// callers should use their serial path.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Run `f(i, items[i])` for every item, concurrently, returning the
    /// results **in submission order**. If any job panicked, returns every
    /// captured panic (also in submission order) instead.
    ///
    /// The submitting thread participates: it runs unclaimed jobs of this
    /// batch until none remain, then waits for in-flight ones. Jobs may
    /// themselves submit nested batches to the same pool.
    pub fn try_run_ordered<T, R, F>(&self, items: Vec<T>, f: F) -> Result<Vec<R>, Vec<JobPanic>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let cells: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let slots: Vec<Mutex<Option<std::thread::Result<R>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        {
            let run = |i: usize| {
                let item = cells[i].lock().unwrap().take().expect("job claimed once");
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, item)));
                *slots[i].lock().unwrap() = Some(out);
            };
            let boxed: Box<dyn Fn(usize) + Send + Sync + '_> = Box::new(run);
            // SAFETY: the runner captures only references into this stack
            // frame (`cells`, `slots`, `f`). We erase its lifetime so
            // tickets can sit in the pool's 'static queue, and uphold the
            // borrow manually: `wait_done` below blocks until every job
            // has *finished running*, so no thread touches the runner's
            // captures after this block. Stale tickets popped later see
            // `next >= total` and return without calling the runner;
            // dropping the erased box late is sound because reference
            // captures have no drop glue.
            let runner: Runner = unsafe {
                std::mem::transmute::<Box<dyn Fn(usize) + Send + Sync + '_>, Runner>(boxed)
            };
            let core = Arc::new(ScopeCore {
                state: Mutex::new(ScopeState {
                    next: 0,
                    done: 0,
                    total: n,
                }),
                done_cv: Condvar::new(),
                runner,
            });
            if !self.workers.is_empty() {
                let tickets = self.workers.len().min(n);
                let mut q = self.shared.queue.lock().unwrap();
                for _ in 0..tickets {
                    q.tickets.push_back(Arc::clone(&core));
                }
                drop(q);
                self.shared.work_cv.notify_all();
            }
            while core.run_one() {}
            core.wait_done();
        }
        let mut oks = Vec::with_capacity(n);
        let mut panics = Vec::new();
        for (index, slot) in slots.into_iter().enumerate() {
            match slot.into_inner().unwrap().expect("every job ran") {
                Ok(r) => oks.push(r),
                Err(payload) => panics.push(JobPanic { index, payload }),
            }
        }
        if panics.is_empty() {
            Ok(oks)
        } else {
            Err(panics)
        }
    }

    /// [`try_run_ordered`](Self::try_run_ordered), re-raising the first
    /// (submission-order) panic as `` `{what}` job #i panicked: ... ``.
    pub fn run_ordered<T, R, F>(&self, what: &str, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        match self.try_run_ordered(items, f) {
            Ok(out) => out,
            Err(panics) => {
                let first = &panics[0];
                panic!(
                    "`{what}` job #{} panicked: {}",
                    first.index,
                    panic_message(first.payload.as_ref())
                );
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let ticket = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(t) = q.tickets.pop_front() {
                    break Some(t);
                }
                if q.shutdown {
                    break None;
                }
                q = shared.work_cv.wait(q).unwrap();
            }
        };
        match ticket {
            // Serve the claimed scope until it has no unclaimed jobs left,
            // then go back to the queue.
            Some(t) => while t.run_one() {},
            None => return,
        }
    }
}

/// Tuples per [`map_chunks`] chunk, and the most a batch may hold and still
/// run inline. Fixed granularity: affects scheduling only, never results.
pub(crate) const CHUNK_TUPLES: usize = 512;

/// Chunked **pure** map over a slice, in input order: inline when `pool`
/// is absent, degenerate, or the batch is too small to split; otherwise
/// fixed tuple-range chunks dispatched as one ordered batch. Because `f`
/// is pure and results are reassembled in input order, the output — and
/// therefore every artifact derived from it — is identical for every
/// pool size, including none.
pub fn map_chunks<T, R>(
    pool: Option<&WorkerPool>,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    match pool {
        Some(pool) if pool.workers() > 0 && items.len() > CHUNK_TUPLES => {
            let chunks: Vec<&[T]> = items.chunks(CHUNK_TUPLES).collect();
            let out =
                pool.run_ordered("chunk", chunks, |_, c| c.iter().map(&f).collect::<Vec<R>>());
            out.into_iter().flatten().collect()
        }
        _ => items.iter().map(f).collect(),
    }
}

/// Best-effort text of a panic payload (`&str` and `String` payloads; the
/// overwhelmingly common cases from `panic!`/`assert!`).
pub fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// The executor switch as a pure function of the `GAMMA_POOL` value:
/// unset selects the serial executor (`None`), a positive integer that
/// many pool lanes; anything else is an error.
pub fn size_from_env(value: Option<&str>) -> Result<Option<usize>, String> {
    let Some(v) = value else {
        return Ok(None);
    };
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        _ => Err(format!("GAMMA_POOL must be a positive integer, got {v:?}")),
    }
}

/// The process-wide shared pool `GAMMA_POOL` selects ([`size_from_env`]),
/// `None` when the variable is unset. Resolved and built on first use;
/// every machine, sweep and bench binary shares it, so its workers are
/// spawned once per process and reused across waves, phases, queries and
/// sweep points.
///
/// # Panics
/// When `GAMMA_POOL` is set to anything but a positive integer.
pub fn default_pool() -> Option<&'static Arc<WorkerPool>> {
    static DEFAULT: OnceLock<Option<Arc<WorkerPool>>> = OnceLock::new();
    DEFAULT
        .get_or_init(|| {
            let var = std::env::var_os("GAMMA_POOL").map(|v| v.to_string_lossy().into_owned());
            let size = size_from_env(var.as_deref()).unwrap_or_else(|e| panic!("{e}"));
            size.map(|n| Arc::new(WorkerPool::new(n)))
        })
        .as_ref()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_results_for_any_pool_size() {
        for size in [1, 2, 3, 8] {
            let pool = WorkerPool::new(size);
            let items: Vec<u64> = (0..97).collect();
            let out = pool.run_ordered("square", items, |i, x| {
                assert_eq!(i as u64, x);
                x * x
            });
            assert_eq!(out, (0..97u64).map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_batches_do_not_deadlock() {
        let pool = WorkerPool::new(3);
        let outer = pool.run_ordered("outer", (0..8u64).collect(), |_, x| {
            let inner = pool.run_ordered("inner", (0..16u64).collect(), |_, y| x * 100 + y);
            inner.iter().sum::<u64>()
        });
        for (x, got) in outer.into_iter().enumerate() {
            let want: u64 = (0..16u64).map(|y| x as u64 * 100 + y).sum();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn panics_surface_in_submission_order() {
        let pool = WorkerPool::new(2);
        let err = pool
            .try_run_ordered((0..10u32).collect(), |_, x| {
                if x % 4 == 1 {
                    panic!("job {x} exploded");
                }
                x
            })
            .expect_err("some jobs panicked");
        assert_eq!(err.iter().map(|p| p.index).collect::<Vec<_>>(), [1, 5, 9]);
        assert_eq!(panic_message(err[0].payload.as_ref()), "job 1 exploded");
    }

    #[test]
    fn degenerate_pool_spawns_no_threads() {
        let before = threads_spawned();
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 0);
        let out = pool.run_ordered("inline", vec![1, 2, 3], |_, x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
        assert_eq!(threads_spawned(), before);
    }

    #[test]
    fn gamma_pool_value_selects_the_executor() {
        assert_eq!(size_from_env(None), Ok(None));
        assert_eq!(size_from_env(Some("2")), Ok(Some(2)));
        assert_eq!(size_from_env(Some(" 8 ")), Ok(Some(8)));
        for bad in ["0", "x", "", "-1", "2.5"] {
            let err = size_from_env(Some(bad)).expect_err(bad);
            assert_eq!(
                err,
                format!("GAMMA_POOL must be a positive integer, got {bad:?}")
            );
        }
    }

    #[test]
    fn workers_are_reused_across_batches() {
        let pool = WorkerPool::new(4);
        let after_build = threads_spawned();
        for round in 0..10u64 {
            let out = pool.run_ordered("round", (0..32u64).collect(), |_, x| x + round);
            assert_eq!(out[0], round);
        }
        assert_eq!(threads_spawned(), after_build, "no spawn after pool build");
    }
}
