//! # edsr-par
//!
//! Deterministic data-parallel compute runtime for the EDSR reproduction.
//!
//! The build environment has no crates.io access, so — like `rand`,
//! `proptest` and `criterion` — the thread pool is vendored in-tree
//! rather than pulled from rayon. The API is deliberately small: the hot
//! paths of the reproduction (matmul kernels, im2col, kNN batches,
//! k-means assignment, covariance accumulation, per-seed bench sweeps)
//! are all data-parallel loops over disjoint output regions.
//!
//! ## Determinism contract
//!
//! Every primitive here produces **bit-identical results at every thread
//! count**, preserving the bit-identical checkpoint/resume guarantee of
//! the fault-tolerant runtime (DESIGN.md §8):
//!
//! - [`par_for_chunks`] / [`par_for_rows`] / [`par_map_collect`] compute
//!   each index from the shared inputs only and write to disjoint output
//!   slices in index order, so chunk boundaries cannot affect values.
//! - [`par_chunk_partials`] (the reduction primitive) derives its chunk
//!   boundaries from `(len, chunk_len)` **only** — never from the thread
//!   count — and returns partials in ascending chunk order for the caller
//!   to fold serially. The float summation tree is therefore fixed.
//!
//! `EDSR_THREADS=1` (or a single-core host) short-circuits to inline
//! serial execution with zero pool overhead, running the exact same
//! per-chunk code.
//!
//! ## Configuration
//!
//! Thread count comes from `EDSR_THREADS` (default:
//! `available_parallelism()`), may be set programmatically before first
//! use via [`set_threads`] (the CLI's `--threads`), and can be overridden
//! per-scope with [`with_threads`] (used by the determinism tests and the
//! `bench` binary to compare serial and parallel timings in one process).

#![forbid(unsafe_op_in_unsafe_fn)]

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

mod pool;

/// Process-wide configured thread count; `0` means "not yet resolved".
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-scope override installed by [`with_threads`] (`0` = none).
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// True while this thread is executing a pool job; nested parallel
    /// calls then run inline to keep the pool deadlock-free.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the "inside the pool" marker set (nested parallelism
/// runs inline). Used by the pool for workers *and* the helping caller.
pub(crate) fn enter_pool_context<R>(f: impl FnOnce() -> R) -> R {
    let prev = IN_POOL.replace(true);
    let out = f();
    IN_POOL.set(prev);
    out
}

/// The process-wide thread count: `EDSR_THREADS` if set and ≥ 1,
/// otherwise `available_parallelism()` (1 if unavailable). Resolved once;
/// [`set_threads`] before first parallel use takes precedence.
pub fn configured_threads() -> usize {
    let current = CONFIGURED.load(Ordering::Relaxed);
    if current != 0 {
        return current;
    }
    let resolved = std::env::var("EDSR_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
    // First resolver wins so every thread agrees on one value.
    match CONFIGURED.compare_exchange(0, resolved, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => resolved,
        Err(raced) => raced,
    }
}

/// Sets the process-wide thread count (the CLI's `--threads`). Call
/// before the first parallel operation: the pool sizes its workers from
/// the value seen at first use (later calls still change how many chunks
/// are formed, but not the worker count).
pub fn set_threads(n: usize) {
    CONFIGURED.store(n.max(1), Ordering::Relaxed);
}

/// Worker threads the global pool actually spawned (excluding the helping
/// caller thread), forcing pool initialisation if it has not happened yet.
/// `configured_threads() - 1` in the common case; less if thread spawning
/// failed, and 0 on `EDSR_THREADS=1` or single-core hosts (every chunk
/// then runs inline on the caller). Bench reporting uses this to record
/// the parallelism that was *measured*, not just requested.
pub fn pool_workers() -> usize {
    if configured_threads() == 1 {
        // The pool is never constructed on the serial path; don't spawn
        // it just to count zero workers.
        return 0;
    }
    pool::global().workers()
}

/// Emits the pool's cumulative occupancy to the observability layer:
/// gauges `pool/busy_ns` and `pool/jobs`, indexed by participant slot
/// (0 = the helping caller threads, `i` = worker `i - 1`). Busy time only
/// accumulates while `edsr_obs` is enabled, so install a sink *before*
/// the work being measured. No-op when observability is off or no
/// parallel submission ever spawned the pool.
pub fn emit_pool_metrics() {
    if !edsr_obs::enabled() {
        return;
    }
    let Some(pool) = pool::try_global() else {
        return;
    };
    for (slot, (busy_ns, jobs)) in pool.occupancy().into_iter().enumerate() {
        edsr_obs::gauge_at("pool/busy_ns", slot as u64, busy_ns as f64);
        edsr_obs::gauge_at("pool/jobs", slot as u64, jobs as f64);
    }
}

/// The thread count in effect on this thread: the innermost
/// [`with_threads`] override, else [`configured_threads`].
pub fn thread_count() -> usize {
    let over = OVERRIDE.with(Cell::get);
    if over != 0 {
        over
    } else {
        configured_threads()
    }
}

/// Runs `f` with [`thread_count`] forced to `n` on this thread (restored
/// on exit, including on panic). Results are unaffected by construction —
/// this only changes how many chunks map-style primitives form.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(n.max(1))));
    f()
}

/// Balanced chunk boundaries: `len` items into `n_chunks` contiguous
/// ranges, the first `len % n_chunks` ranges one item longer. A pure
/// function of its arguments (the determinism contract leans on this).
pub fn chunk_ranges(len: usize, n_chunks: usize) -> Vec<Range<usize>> {
    if len == 0 || n_chunks == 0 {
        return Vec::new();
    }
    let n = n_chunks.min(len);
    let base = len / n;
    let extra = len % n;
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Runs `task` on each chunk index `0..n_chunks`, in parallel when the
/// effective thread count allows. Blocks until every chunk has finished;
/// a panicking chunk is re-raised on the caller once all chunks are done.
fn run_chunks(n_chunks: usize, task: impl Fn(usize) + Sync) {
    if n_chunks == 0 {
        return;
    }
    let inline =
        n_chunks == 1 || thread_count() == 1 || IN_POOL.with(Cell::get) || pool_workers() == 0;
    if inline {
        for chunk in 0..n_chunks {
            task(chunk);
        }
        return;
    }
    pool::global().run(n_chunks, &task);
}

/// Splits `0..len` into [`thread_count`] balanced chunks and runs `f`
/// on each chunk's index range. `f` must only write state disjoint per
/// chunk (use [`par_for_rows`] for safe slice splitting).
pub fn par_for_chunks(len: usize, f: impl Fn(Range<usize>) + Sync) {
    if len == 0 {
        return;
    }
    // Single-chunk fast path: identical to `chunk_ranges(len, 1)` (one
    // `0..len` range) but without allocating the range vector — this keeps
    // serial hot loops (e.g. every matmul on a 1-thread host) free of
    // per-call heap traffic. A zero-worker pool (single-core host or
    // failed spawns) takes the same flat path: every chunk would run on
    // the caller anyway, so splitting only adds per-chunk overhead —
    // values are unaffected because chunk boundaries never influence
    // results (see the determinism contract above).
    if len == 1 || thread_count() == 1 || IN_POOL.with(Cell::get) || pool_workers() == 0 {
        f(0..len);
        return;
    }
    let ranges = chunk_ranges(len, thread_count());
    run_chunks(ranges.len(), |chunk| f(ranges[chunk].clone()));
}

/// Raw-pointer wrapper that lets disjoint sub-slices cross into pool jobs.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Sync` wrapper, not the bare non-`Sync` pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: each job derives a sub-slice disjoint from every other job's
// (disjoint row ranges of one allocation), and the caller blocks until
// all jobs finish — standard split-at-mut reasoning, done dynamically.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Interprets `out` as `n_rows` equal-width rows, splits it into
/// contiguous row-chunks (one per effective thread) and runs
/// `f(row_range, chunk_slice)` on each — the core "write disjoint output
/// slices in index order" primitive behind the parallel matmuls.
///
/// # Panics
/// Panics if `out.len()` is not a multiple of `n_rows` (for `n_rows > 0`),
/// or if `n_rows > 0` with an empty non-divisible slice.
pub fn par_for_rows<T, F>(out: &mut [T], n_rows: usize, f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    if n_rows == 0 {
        return;
    }
    assert_eq!(
        out.len() % n_rows,
        0,
        "par_for_rows: slice length {} is not a multiple of {n_rows} rows",
        out.len()
    );
    let width = out.len() / n_rows;
    let base = SendPtr(out.as_mut_ptr());
    par_for_chunks(n_rows, |rows| {
        // SAFETY: `rows` ranges partition `0..n_rows`, so the derived
        // sub-slices are disjoint; the borrow of `out` outlives the call.
        let chunk = unsafe {
            std::slice::from_raw_parts_mut(base.get().add(rows.start * width), rows.len() * width)
        };
        f(rows, chunk);
    });
}

/// Computes `f(i)` for `i in 0..n` in parallel and returns the results in
/// index order. Each result depends only on its index, so the output is
/// independent of chunking and thread count.
pub fn par_map_collect<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    par_for_rows(&mut slots, n, |rows, chunk| {
        for (slot, i) in chunk.iter_mut().zip(rows) {
            *slot = Some(f(i));
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("par_map_collect: every chunk completed"))
        .collect()
}

/// Fixed-order chunked reduction: splits `0..len` into chunks of exactly
/// `chunk_len` items (last chunk possibly shorter), accumulates each with
/// `f` into a fresh `init()`, and returns the partials in ascending chunk
/// order for the caller to fold serially.
///
/// Chunk boundaries depend only on `(len, chunk_len)` — **never** on the
/// thread count — so the float summation tree, and therefore the folded
/// result, is bit-identical at every thread count.
///
/// # Panics
/// Panics if `chunk_len == 0`.
pub fn par_chunk_partials<T, I, F>(len: usize, chunk_len: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> T + Sync,
    F: Fn(Range<usize>, &mut T) + Sync,
{
    assert!(chunk_len > 0, "par_chunk_partials: chunk_len must be >= 1");
    let n_chunks = len.div_ceil(chunk_len);
    par_map_collect(n_chunks, |chunk| {
        let start = chunk * chunk_len;
        let end = (start + chunk_len).min(len);
        let mut acc = init();
        f(start..end, &mut acc);
        acc
    })
}

/// Runs two closures, potentially in parallel, and returns both results.
pub fn join<A, B, FA, FB>(fa: FA, fb: FB) -> (A, B)
where
    A: Send,
    B: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
{
    use std::sync::Mutex;
    let fa = Mutex::new(Some(fa));
    let fb = Mutex::new(Some(fb));
    let ra: Mutex<Option<A>> = Mutex::new(None);
    let rb: Mutex<Option<B>> = Mutex::new(None);
    run_chunks(2, |chunk| {
        if chunk == 0 {
            let f = fa
                .lock()
                .expect("join slot")
                .take()
                .expect("join runs once");
            *ra.lock().expect("join result") = Some(f());
        } else {
            let f = fb
                .lock()
                .expect("join slot")
                .take()
                .expect("join runs once");
            *rb.lock().expect("join result") = Some(f());
        }
    });
    let a = ra
        .into_inner()
        .expect("join result")
        .expect("join chunk 0 ran");
    let b = rb
        .into_inner()
        .expect("join result")
        .expect("join chunk 1 ran");
    (a, b)
}

/// Catches a panic from `f`, rendering the payload as a string — the
/// bridge that lets sweep drivers record a panicking worker as a
/// structured error instead of unwinding the whole process.
pub fn catch_panic<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_partition_and_balance() {
        let ranges = chunk_ranges(10, 3);
        assert_eq!(ranges, vec![0..4, 4..7, 7..10]);
        // len < n_chunks: one chunk per item, never empty chunks.
        let ranges = chunk_ranges(2, 8);
        assert_eq!(ranges, vec![0..1, 1..2]);
        assert!(chunk_ranges(0, 4).is_empty());
        assert!(chunk_ranges(4, 0).is_empty());
        // Exact partition for a spread of shapes.
        for len in [1usize, 7, 64, 1000] {
            for n in [1usize, 2, 3, 7, 16] {
                let ranges = chunk_ranges(len, n);
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, len);
                for pair in ranges.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start);
                    assert!(!pair[1].is_empty());
                }
            }
        }
    }

    #[test]
    fn par_for_chunks_empty_input_is_noop() {
        let mut touched = false;
        par_for_chunks(0, |_| {
            // Never called; the flag below would race if it were.
            let _ = &touched;
        });
        touched = true;
        assert!(touched);
    }

    /// The per-element value of the row-placement test. Both sides call
    /// this one compiled copy: inlined into two different loops, `sin` may
    /// be vectorized differently and land 1 ulp apart, which would test
    /// the compiler instead of row placement.
    #[inline(never)]
    fn element(i: usize) -> f32 {
        (i as f32).sin()
    }

    #[test]
    fn par_for_rows_matches_serial_at_every_thread_count() {
        let n_rows = 13;
        let width = 5;
        let expected: Vec<f32> = (0..n_rows * width).map(element).collect();
        for threads in [1usize, 2, 7, 16] {
            let mut out = vec![0.0f32; n_rows * width];
            with_threads(threads, || {
                par_for_rows(&mut out, n_rows, |rows, chunk| {
                    for (local, row) in rows.enumerate() {
                        for c in 0..width {
                            chunk[local * width + c] = element(row * width + c);
                        }
                    }
                });
            });
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_map_collect_len_smaller_than_threads() {
        let out = with_threads(8, || par_map_collect(3, |i| i * i));
        assert_eq!(out, vec![0, 1, 4]);
        let empty: Vec<usize> = with_threads(8, || par_map_collect(0, |i| i));
        assert!(empty.is_empty());
    }

    #[test]
    fn par_chunk_partials_fixed_boundaries() {
        // Boundaries depend on (len, chunk_len) only: identical partials
        // at every thread count, and the serial fold is bit-stable.
        let data: Vec<f32> = (0..1000).map(|i| (i as f32).cos() * 1e-3).collect();
        let reduce = |threads: usize| {
            with_threads(threads, || {
                par_chunk_partials(
                    data.len(),
                    64,
                    || 0.0f32,
                    |range, acc| {
                        for i in range {
                            *acc += data[i];
                        }
                    },
                )
            })
        };
        let serial = reduce(1);
        assert_eq!(serial.len(), 1000usize.div_ceil(64));
        for threads in [2usize, 7, 16] {
            let partials = reduce(threads);
            for (a, b) in serial.iter().zip(&partials) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn zero_worker_pool_takes_single_flat_chunk() {
        if pool_workers() != 0 {
            eprintln!("skipping zero-worker fall-through test: pool spawned workers");
            return;
        }
        // With no workers, chunking is pure overhead: the scope override
        // asks for 7 chunks but the call must collapse to one flat range.
        let ranges = std::sync::Mutex::new(Vec::new());
        with_threads(7, || {
            par_for_chunks(100, |r| ranges.lock().expect("range log").push(r));
        });
        assert_eq!(ranges.into_inner().expect("range log"), vec![0..100]);
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 2 + 2, || "ok".to_string());
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn panic_in_worker_propagates_not_hangs() {
        let result = catch_panic(|| {
            with_threads(4, || {
                par_for_chunks(16, |range| {
                    if range.contains(&9) {
                        panic!("chunk exploded");
                    }
                });
            });
        });
        let msg = result.expect_err("panic must propagate to the caller");
        assert!(msg.contains("chunk exploded"), "{msg}");
        // The pool must stay usable after a propagated panic.
        let sum: usize = with_threads(4, || par_map_collect(100, |i| i)).iter().sum();
        assert_eq!(sum, 4950);
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let before = thread_count();
        let _ = catch_panic(|| with_threads(5, || panic!("boom")));
        assert_eq!(thread_count(), before);
    }

    #[test]
    fn nested_parallel_calls_run_inline() {
        // A nested call inside a chunk must not deadlock and must produce
        // the same values.
        let out = with_threads(4, || {
            par_map_collect(6, |i| {
                let inner: usize = par_map_collect(50, |j| i + j).iter().sum();
                inner
            })
        });
        let expected: Vec<usize> = (0..6).map(|i| (0..50).map(|j| i + j).sum()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn configured_threads_is_at_least_one() {
        assert!(configured_threads() >= 1);
        assert!(thread_count() >= 1);
    }
}
