//! A shared, std-only thread pool for intra-frame parallelism.
//!
//! The build environment carries no external crates, so this crate plays the
//! role `rayon` would: a process-wide worker pool ([`ThreadPool::global`])
//! that every parallel stage of the compressor — and every frame-level worker
//! in `dbgc-net` — submits to, so concurrent frames share one set of OS
//! threads instead of oversubscribing the machine.
//!
//! Execution model: a scoped run splits `n` tasks over the pool via an atomic
//! work-stealing counter. The **caller participates** — it drains the same
//! counter while waiting — which has two consequences:
//!
//! * a pool of `threads() == 1` degenerates to an inline serial loop;
//! * nested or concurrent scoped runs cannot deadlock: even if every pool
//!   worker is busy elsewhere, the calling thread completes its own tasks.
//!
//! Determinism: [`ThreadPool::map`] returns results **in input order**
//! regardless of which thread computed what, so parallel callers can produce
//! byte-identical output to their serial equivalents.
//!
//! Thread counts: the compressor's `threads` setting is resolved in one
//! place, [`pool_for`], and the ordered maps [`map`] and [`map_into`] apply
//! it. `0` uses the global pool at its current size, `1` runs inline without
//! touching the pool, and `n > 1` grows the global pool to `n` first.

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
}

/// A growable worker pool executing scoped parallel runs.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    /// Worker join handles; `len() + 1` (the caller) = total parallelism.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool").field("threads", &self.threads()).finish()
    }
}

/// One scoped run: tasks `0..n` drained through an atomic counter.
struct Run {
    /// Lifetime-erased task body; sound because the initiating call waits
    /// for `completed == n` before returning, so the borrow outlives every
    /// invocation.
    f: &'static (dyn Fn(usize) + Sync),
    n: usize,
    next: AtomicUsize,
    completed: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    done_lock: Mutex<()>,
    done: Condvar,
}

impl Run {
    /// Drain tasks until the counter is exhausted.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.f)(i))) {
                let mut slot = self.panic.lock().expect("panic slot");
                slot.get_or_insert(payload);
            }
            if self.completed.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
                let _guard = self.done_lock.lock().expect("done lock");
                self.done.notify_all();
            }
        }
    }
}

/// The number of threads this process should use by default: the
/// `DBGC_THREADS` environment variable if set, else the hardware parallelism.
pub fn recommended_threads() -> usize {
    std::env::var("DBGC_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

impl ThreadPool {
    /// A pool with `threads` total parallelism (including the calling
    /// thread), i.e. `threads - 1` worker threads.
    pub fn new(threads: usize) -> ThreadPool {
        let pool = ThreadPool {
            shared: Arc::new(PoolShared {
                queue: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
                shutdown: AtomicBool::new(false),
            }),
            workers: Mutex::new(Vec::new()),
        };
        pool.ensure_total(threads);
        pool
    }

    /// The process-wide pool, sized by [`recommended_threads`] on first use.
    /// Explicit thread requests above that grow it on demand (see
    /// [`ensure_total`](ThreadPool::ensure_total)).
    pub fn global() -> &'static ThreadPool {
        static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
        GLOBAL.get_or_init(|| ThreadPool::new(recommended_threads()))
    }

    /// Current total parallelism (workers + the calling thread).
    pub fn threads(&self) -> usize {
        self.workers.lock().expect("workers lock").len() + 1
    }

    /// Grow the pool so total parallelism is at least `threads`; never
    /// shrinks. Requests are capped at 256 as an oversubscription backstop.
    pub fn ensure_total(&self, threads: usize) {
        let target = threads.clamp(1, 256) - 1;
        let mut workers = self.workers.lock().expect("workers lock");
        while workers.len() < target {
            let shared = Arc::clone(&self.shared);
            let name = format!("dbgc-pool-{}", workers.len());
            let handle = std::thread::Builder::new()
                .name(name)
                .spawn(move || worker_loop(&shared))
                .expect("spawn pool worker");
            workers.push(handle);
        }
    }

    /// Run `f(i)` for every `i in 0..n` across the pool; returns when all
    /// calls have finished. Panics in tasks are forwarded to the caller
    /// after the run settles.
    pub fn for_each_index(&self, n: usize, f: impl Fn(usize) + Sync) {
        if n == 0 {
            return;
        }
        let helpers = (self.threads() - 1).min(n - 1);
        if helpers == 0 {
            // Inline serial loop: no queueing, no atomics.
            for i in 0..n {
                f(i);
            }
            return;
        }
        // Erase the closure's lifetime; sound because we wait for
        // `completed == n` below, so `f` outlives every task invocation.
        let f_ref: &(dyn Fn(usize) + Sync) = &f;
        let f_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f_ref) };
        let run = Arc::new(Run {
            f: f_static,
            n,
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            panic: Mutex::new(None),
            done_lock: Mutex::new(()),
            done: Condvar::new(),
        });

        {
            let mut queue = self.shared.queue.lock().expect("queue lock");
            for _ in 0..helpers {
                let run = Arc::clone(&run);
                queue.push_back(Box::new(move || run.work()));
            }
        }
        self.shared.available.notify_all();

        // The caller works the same counter, then waits for stragglers.
        run.work();
        let mut guard = run.done_lock.lock().expect("done lock");
        while run.completed.load(Ordering::Acquire) < n {
            guard = run.done.wait(guard).expect("done wait");
        }
        drop(guard);
        let payload = run.panic.lock().expect("panic slot").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Run `f` over contiguous blocks of `0..n` of at most `grain` items.
    pub fn for_each_block(&self, n: usize, grain: usize, f: impl Fn(Range<usize>) + Sync) {
        let grain = grain.max(1);
        let blocks = n.div_ceil(grain);
        self.for_each_index(blocks, |b| {
            let lo = b * grain;
            f(lo..(lo + grain).min(n));
        });
    }

    /// Parallel map preserving input order: `out[i] = f(i, &items[i])`.
    ///
    /// The output is identical to the serial
    /// `items.iter().enumerate().map(..).collect()` for any thread count.
    pub fn map<T: Sync, R: Send>(&self, items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
        let n = items.len();
        let grain = (n / (self.threads() * 4)).max(1);
        self.map_with_grain(items, grain, f)
    }

    /// [`map`](ThreadPool::map) with an explicit block size (use small grains
    /// for expensive items, large grains for cheap ones).
    pub fn map_with_grain<T: Sync, R: Send>(
        &self,
        items: &[T],
        grain: usize,
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<R> {
        let n = items.len();
        let mut out: Vec<R> = Vec::with_capacity(n);
        let ptr = SendPtr(out.as_mut_ptr());
        self.for_each_block(n, grain, |range| {
            for i in range {
                let value = f(i, &items[i]);
                // SAFETY: blocks are disjoint, each slot written exactly
                // once, and the buffer has capacity n. On panic `out` is
                // dropped with len 0 (written elements leak, which is safe).
                unsafe { ptr.get().add(i).write(value) };
            }
        });
        // SAFETY: every slot 0..n was initialized (no panic reached here).
        unsafe { out.set_len(n) };
        out
    }

    /// Parallel map into a caller-owned arena: `f(i, &items[i], &mut out[i])`
    /// refills each slot in place, so slot-internal allocations (buffers,
    /// nested vecs) survive across calls instead of being reallocated per
    /// item. `out` is resized with `R::default()` first; as with
    /// [`map`](ThreadPool::map), slots are written in input order semantics
    /// regardless of which thread ran them.
    pub fn map_into<T: Sync, R: Default + Send>(
        &self,
        items: &[T],
        grain: usize,
        out: &mut Vec<R>,
        f: impl Fn(usize, &T, &mut R) + Sync,
    ) {
        let n = items.len();
        out.resize_with(n, R::default);
        let ptr = SendPtr(out.as_mut_ptr());
        self.for_each_block(n, grain, |range| {
            for i in range {
                // SAFETY: blocks are disjoint, so each slot is borrowed
                // exclusively by exactly one worker; all slots were
                // initialized by `resize_with` above.
                f(i, &items[i], unsafe { &mut *ptr.get().add(i) });
            }
        });
    }
}

/// The pool a `threads` setting fans out over, or `None` to run inline.
///
/// `0` = the global pool at its current size (hardware threads, or
/// `DBGC_THREADS`); `1` = inline, without creating or growing the global
/// pool; `n > 1` = the global pool, grown to at least `n` threads first. A
/// pool of one thread also runs inline.
pub fn pool_for(threads: usize) -> Option<&'static ThreadPool> {
    if threads == 1 {
        return None;
    }
    let pool = ThreadPool::global();
    if threads > 1 {
        pool.ensure_total(threads);
    }
    (pool.threads() > 1).then_some(pool)
}

/// Ordered map `out[i] = f(i, &items[i])` over the pool [`pool_for`] picks
/// for `threads`; a plain loop when it picks none. The output is the same
/// for every `threads`.
pub fn map<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    match pool_for(threads) {
        Some(pool) => pool.map(items, f),
        None => items.iter().enumerate().map(|(i, t)| f(i, t)).collect(),
    }
}

/// [`ThreadPool::map_into`] over the pool [`pool_for`] picks for `threads`;
/// a plain loop over the resized arena when it picks none.
pub fn map_into<T: Sync, R: Default + Send>(
    threads: usize,
    grain: usize,
    items: &[T],
    out: &mut Vec<R>,
    f: impl Fn(usize, &T, &mut R) + Sync,
) {
    match pool_for(threads) {
        Some(pool) => pool.map_into(items, grain, out, f),
        None => {
            out.resize_with(items.len(), R::default);
            for (i, (item, slot)) in items.iter().zip(out.iter_mut()).enumerate() {
                f(i, item, slot);
            }
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.available.notify_all();
        for handle in self.workers.lock().expect("workers lock").drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared.available.wait(queue).expect("queue wait");
            }
        };
        job();
    }
}

/// A raw pointer that may cross threads; the parallel-map protocol (disjoint
/// writes, write-before-read-back) makes the accesses sound.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let pool = ThreadPool::new(4);
        let items: Vec<u64> = (0..10_000).collect();
        let out = pool.map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3 + 1
        });
        assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn map_matches_serial_for_any_grain() {
        let pool = ThreadPool::new(3);
        let items: Vec<i64> = (0..257).map(|i| i * i - 40).collect();
        let expected: Vec<i64> = items.iter().map(|&x| x.rotate_left(3)).collect();
        for grain in [1, 2, 7, 64, 1000] {
            let got = pool.map_with_grain(&items, grain, |_, &x| x.rotate_left(3));
            assert_eq!(got, expected, "grain {grain}");
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        let mut touched = vec![false; 100];
        let cell = Mutex::new(&mut touched);
        pool.for_each_index(100, |i| {
            cell.lock().unwrap()[i] = true;
        });
        assert!(touched.iter().all(|&t| t));
    }

    #[test]
    fn empty_and_tiny_runs() {
        let pool = ThreadPool::new(4);
        pool.for_each_index(0, |_| panic!("must not run"));
        let out: Vec<u8> = pool.map(&[42u8], |_, &x| x);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn actually_uses_worker_threads() {
        let pool = ThreadPool::new(4);
        let caller = std::thread::current().id();
        let seen_other = AtomicBool::new(false);
        // Tasks long enough that workers get a chance to steal some.
        pool.for_each_index(64, |_| {
            if std::thread::current().id() != caller {
                seen_other.store(true, Ordering::Relaxed);
            }
            std::thread::sleep(std::time::Duration::from_micros(500));
        });
        assert!(seen_other.load(Ordering::Relaxed), "no task ran on a pool worker");
    }

    #[test]
    fn panics_propagate_to_caller() {
        let pool = ThreadPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_index(16, |i| {
                if i == 7 {
                    panic!("task 7 exploded");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("task 7"), "unexpected payload: {msg}");
        // Pool remains usable after a panicked run.
        assert_eq!(pool.map(&[1, 2, 3], |_, &x: &i32| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn concurrent_scoped_runs_share_the_pool() {
        let pool = Arc::new(ThreadPool::new(3));
        let total = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let pool = Arc::clone(&pool);
            let total = Arc::clone(&total);
            handles.push(std::thread::spawn(move || {
                pool.for_each_index(100, |_| {
                    total.fetch_add(1, Ordering::Relaxed);
                });
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 400);
    }

    #[test]
    fn ensure_total_grows_never_shrinks() {
        let pool = ThreadPool::new(1);
        pool.ensure_total(3);
        assert_eq!(pool.threads(), 3);
        pool.ensure_total(2);
        assert_eq!(pool.threads(), 3);
    }

    #[test]
    fn map_into_reuses_slot_allocations() {
        let pool = ThreadPool::new(4);
        let items: Vec<usize> = (0..500).collect();
        let mut arena: Vec<Vec<u8>> = Vec::new();
        pool.map_into(&items, 7, &mut arena, |i, &x, slot| {
            slot.clear();
            slot.extend(std::iter::repeat(i as u8).take(x % 13));
        });
        let caps: Vec<usize> = arena.iter().map(|s| s.capacity()).collect();
        assert_eq!(arena.len(), 500);
        for (i, slot) in arena.iter().enumerate() {
            assert_eq!(slot.len(), i % 13);
            assert!(slot.iter().all(|&b| b == i as u8));
        }
        // A second run must refill the same slots without growing them.
        pool.map_into(&items, 7, &mut arena, |_, &x, slot| {
            slot.clear();
            slot.extend(std::iter::repeat(9u8).take(x % 13));
        });
        assert_eq!(caps, arena.iter().map(|s| s.capacity()).collect::<Vec<_>>());
    }

    #[test]
    fn one_thread_runs_on_the_caller_beside_a_wide_global_pool() {
        ThreadPool::global().ensure_total(3);
        assert!(ThreadPool::global().threads() >= 3, "global pool needs >= 2 workers");
        assert!(pool_for(1).is_none());
        let caller = std::thread::current().id();
        let items: Vec<u32> = (0..64).collect();
        // Tasks long enough that a fan-out would hand some to pool workers.
        let on_thread = |_: usize, _: &u32| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            std::thread::current().id()
        };
        assert!(map(1, &items, on_thread).iter().all(|&id| id == caller));
        let mut arena: Vec<Option<std::thread::ThreadId>> = Vec::new();
        map_into(1, 1, &items, &mut arena, |i, x, slot| *slot = Some(on_thread(i, x)));
        assert_eq!(arena.len(), items.len());
        assert!(arena.iter().all(|&id| id == Some(caller)));
    }

    #[test]
    fn thread_counts_resolve_to_the_global_pool_and_match_serial() {
        let pool = pool_for(4).expect("4 threads fan out");
        assert!(std::ptr::eq(pool, ThreadPool::global()));
        assert!(pool.threads() >= 4);
        assert!(pool_for(0).is_some(), "0 uses the grown global pool");
        let items: Vec<i64> = (0..1000).map(|i| i * 7 - 300).collect();
        let expected: Vec<i64> = items.iter().map(|&x| x.rotate_left(5)).collect();
        for threads in [0, 1, 2, 4] {
            assert_eq!(map(threads, &items, |_, &x| x.rotate_left(5)), expected);
            let mut arena: Vec<i64> = Vec::new();
            map_into(threads, 3, &items, &mut arena, |_, &x, slot| *slot = x.rotate_left(5));
            assert_eq!(arena, expected, "threads {threads}");
        }
    }

    #[test]
    fn global_pool_is_shared() {
        let a = ThreadPool::global() as *const _;
        let b = ThreadPool::global() as *const _;
        assert_eq!(a, b);
        assert!(ThreadPool::global().threads() >= 1);
    }
}
