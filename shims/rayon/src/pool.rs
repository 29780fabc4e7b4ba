//! The process-wide work-sharing thread pool behind the shim.
//!
//! One pool serves the whole process: workers are spawned once, at the first
//! dispatch that needs them, and park on a condvar between jobs. A job is a
//! borrowed closure `Fn(chunk_index)` published through a fixed-capacity slot
//! (a raw fat pointer under the state mutex — no boxing), and chunk indices
//! are handed out by an atomic counter, so dispatching a parallel region
//! makes **zero heap allocations** after the workers exist. This is what lets
//! the warm-path proofs in `nadmm-bench/tests/zero_alloc.rs` stay at exactly
//! 0 allocations with real parallelism enabled.
//!
//! ## Oversubscription policy
//!
//! `nadmm-cluster`'s `Cluster::run` runs one host thread per simulated rank, so
//! several ranks can hit their kernel hot loops at once. All ranks share this
//! one pool: a single dispatch mutex serializes parallel regions, and a caller
//! that finds the pool busy (`try_lock` fails) simply executes its own region
//! inline on its rank thread. That keeps the machine at ~one compute thread
//! per core instead of ranks × threads, can never deadlock (nested parallel
//! regions also take the inline path), and — because every reduction uses the
//! canonical chunk layout from [`crate::det`] — produces bit-identical
//! results no matter which path ran.
//!
//! ## Thread-count policy
//!
//! The pool width is resolved once per query: `set_num_threads` override,
//! else the `NADMM_THREADS` environment variable (read once, loud panic on
//! garbage), else `std::thread::available_parallelism()`, clamped to
//! [`MAX_THREADS`]. Width 1 never spawns anything and always runs inline.

use parking_lot::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Environment variable overriding the pool width.
pub const THREADS_ENV: &str = "NADMM_THREADS";

/// Hard cap on pool width (also bounds the worker vector spawned lazily).
pub const MAX_THREADS: usize = 64;

/// The values [`THREADS_ENV`] accepts, for error messages.
const THREADS_ACCEPTED: &str = "accepted values: a thread count between 1 and 64";

static THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0); // 0 = no override
static THREADS_ENV_VALUE: OnceLock<usize> = OnceLock::new();

/// Parses a [`THREADS_ENV`] value.
///
/// # Panics
/// Panics unless the value is an integer in `1..=64`, naming the variable,
/// the bad value, and the accepted values. A garbled thread count silently
/// falling back would turn an intended scaling experiment into a wrong one,
/// so failing loudly is the only safe behaviour (the `NADMM_PAR_THRESHOLD`
/// and `NADMM_TRANSPORT` parsers apply the same rule).
pub fn parse_threads_env(raw: &str) -> usize {
    let n: usize = raw
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("{THREADS_ENV}='{raw}' is not a valid thread count; {THREADS_ACCEPTED}"));
    if n == 0 || n > MAX_THREADS {
        panic!("{THREADS_ENV}={n} is out of range; {THREADS_ACCEPTED}");
    }
    n
}

fn env_threads() -> usize {
    *THREADS_ENV_VALUE.get_or_init(|| match std::env::var(THREADS_ENV) {
        Ok(raw) => parse_threads_env(&raw),
        Err(std::env::VarError::NotPresent) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_THREADS),
        Err(std::env::VarError::NotUnicode(raw)) => {
            panic!("{THREADS_ENV} is set to a non-UTF-8 value ({raw:?}); {THREADS_ACCEPTED}")
        }
    })
}

/// Number of threads a parallel region may use (dispatcher + workers).
pub fn current_num_threads() -> usize {
    let o = THREADS_OVERRIDE.load(Ordering::Relaxed);
    if o != 0 {
        o
    } else {
        env_threads()
    }
}

/// Overrides the pool width at runtime (process-wide). Workers are spawned on
/// demand, so raising the width mid-process works; lowering it parks the
/// excess workers (they skip jobs whose `helpers` count excludes them).
/// Results are bit-identical under any width, so tests may flip this freely.
///
/// # Panics
/// Panics if `n` is 0 or above [`MAX_THREADS`].
pub fn set_num_threads(n: usize) {
    assert!(
        (1..=MAX_THREADS).contains(&n),
        "set_num_threads: thread count must be in 1..={MAX_THREADS}, got {n}"
    );
    THREADS_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Clears any [`set_num_threads`] override, returning to the environment /
/// detected resolution.
pub fn reset_num_threads() {
    THREADS_OVERRIDE.store(0, Ordering::Relaxed);
}

/// A published job: a borrowed chunk closure plus its chunk count. The fat
/// pointer erases the closure's lifetime; the dispatcher keeps the closure
/// frame alive until every worker that took the job has left it (`active`
/// returns to 0), so workers never dereference a dead frame.
#[derive(Clone, Copy)]
struct RawJob {
    f: *const (dyn Fn(usize) + Sync),
    num_chunks: usize,
    /// Workers with index < helpers participate; the rest sleep through it.
    helpers: usize,
    /// Monotonic job id so a worker never re-enters a job it already ran.
    epoch: u64,
}

// SAFETY: the pointer is only dereferenced while the dispatcher provably
// keeps the referent alive (see `run`), and the closure is `Sync`.
unsafe impl Send for RawJob {}

#[derive(Default)]
struct Slot {
    job: Option<RawJob>,
    /// Workers currently inside the published job.
    active: usize,
    /// Workers spawned so far (they live for the rest of the process).
    spawned: usize,
    epoch: u64,
}

struct Shared {
    state: Mutex<Slot>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// The dispatcher parks here while workers finish the tail chunks.
    done_cv: Condvar,
}

/// Chunk-index distribution and completion accounting. Plain statics are
/// safe because `DISPATCH` serializes jobs.
static NEXT_CHUNK: AtomicUsize = AtomicUsize::new(0);
static DONE_CHUNKS: AtomicUsize = AtomicUsize::new(0);
static PANICKED: AtomicBool = AtomicBool::new(false);

/// Serializes dispatchers. A caller that cannot take it immediately runs its
/// region inline — the oversubscription policy documented at module level.
static DISPATCH: Mutex<()> = Mutex::new(());

/// Serializes tests that mutate the process-wide width override, so width
/// assertions in one test cannot observe another test's override.
#[cfg(test)]
pub(crate) static TEST_WIDTH_LOCK: Mutex<()> = Mutex::new(());

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| Shared {
        state: Mutex::new(Slot::default()),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
    })
}

/// Pulls chunk indices until the counter is exhausted, running `f` on each.
/// Panics are caught and recorded so one bad chunk cannot poison the pool;
/// the dispatcher re-raises after the job completes.
fn pull_chunks(f: *const (dyn Fn(usize) + Sync), num_chunks: usize) {
    loop {
        let i = NEXT_CHUNK.fetch_add(1, Ordering::Relaxed);
        if i >= num_chunks {
            return;
        }
        // SAFETY: the dispatcher keeps the closure alive until every worker
        // has left the job (see `run`), so the raw fat pointer is valid here.
        if catch_unwind(AssertUnwindSafe(|| unsafe { (*f)(i) })).is_err() {
            PANICKED.store(true, Ordering::SeqCst);
        }
        DONE_CHUNKS.fetch_add(1, Ordering::SeqCst);
    }
}

fn worker_main(index: usize) {
    let sh = shared();
    let mut seen = 0u64;
    loop {
        let job = {
            let mut s = sh.state.lock();
            loop {
                match s.job {
                    Some(j) if j.epoch != seen && index < j.helpers => {
                        seen = j.epoch;
                        s.active += 1;
                        break j;
                    }
                    _ => sh.work_cv.wait(&mut s),
                }
            }
        };
        pull_chunks(job.f, job.num_chunks);
        // Decrement under the lock and notify so the dispatcher's predicate
        // check cannot miss the transition to active == 0.
        let mut s = sh.state.lock();
        s.active -= 1;
        sh.done_cv.notify_all();
        drop(s);
    }
}

fn run_inline(f: &(dyn Fn(usize) + Sync), num_chunks: usize) {
    for i in 0..num_chunks {
        f(i);
    }
}

/// Executes `f(0..num_chunks)` across the pool, returning when every chunk
/// has run. Falls back to inline execution when the pool is width-1, the job
/// is a single chunk, or another dispatcher holds the pool — all of which
/// yield bit-identical results because callers fix the combine order by chunk
/// index, never by executing thread.
pub fn run(num_chunks: usize, f: &(dyn Fn(usize) + Sync)) {
    if num_chunks == 0 {
        return;
    }
    let threads = current_num_threads();
    if threads <= 1 || num_chunks <= 1 {
        run_inline(f, num_chunks);
        return;
    }
    let Some(_dispatch) = DISPATCH.try_lock() else {
        run_inline(f, num_chunks);
        return;
    };
    let helpers = (threads - 1).min(num_chunks - 1).min(MAX_THREADS - 1);
    // SAFETY: erasing the borrow lifetime on the fat pointer is sound because
    // this frame outlives the job: it waits below until every worker left the
    // job and clears the slot before returning.
    #[allow(clippy::useless_transmute, clippy::missing_transmute_annotations)]
    let f_erased: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f as *const (dyn Fn(usize) + Sync)) };
    let sh = shared();
    PANICKED.store(false, Ordering::SeqCst);
    NEXT_CHUNK.store(0, Ordering::SeqCst);
    DONE_CHUNKS.store(0, Ordering::SeqCst);
    {
        let mut s = sh.state.lock();
        while s.spawned < helpers {
            let index = s.spawned;
            std::thread::Builder::new()
                .name(format!("nadmm-pool-{index}"))
                .spawn(move || worker_main(index))
                .expect("nadmm thread pool: failed to spawn worker");
            s.spawned += 1;
        }
        s.epoch += 1;
        s.job = Some(RawJob {
            f: f_erased,
            num_chunks,
            helpers,
            epoch: s.epoch,
        });
        sh.work_cv.notify_all();
    }
    // The dispatcher is a full participant, not just a coordinator.
    pull_chunks(f_erased, num_chunks);
    {
        let mut s = sh.state.lock();
        while s.active != 0 || DONE_CHUNKS.load(Ordering::SeqCst) != num_chunks {
            sh.done_cv.wait(&mut s);
        }
        // Clear the slot before the closure frame dies so late-waking workers
        // cannot pick up dangling pointers.
        s.job = None;
    }
    if PANICKED.swap(false, Ordering::SeqCst) {
        panic!("nadmm thread pool: a worker thread panicked inside a parallel region");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_chunk_exactly_once() {
        let _w = TEST_WIDTH_LOCK.lock();
        set_num_threads(4);
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        run(hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        reset_num_threads();
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn width_one_runs_inline_on_the_caller() {
        let _w = TEST_WIDTH_LOCK.lock();
        set_num_threads(1);
        let caller = std::thread::current().id();
        let ok = AtomicUsize::new(0);
        run(8, &|_| {
            if std::thread::current().id() == caller {
                ok.fetch_add(1, Ordering::SeqCst);
            }
        });
        reset_num_threads();
        assert_eq!(ok.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn nested_regions_inline_without_deadlock() {
        let _w = TEST_WIDTH_LOCK.lock();
        set_num_threads(4);
        let total = AtomicU64::new(0);
        run(4, &|_| {
            // Nested dispatch must take the busy → inline path.
            run(4, &|j| {
                total.fetch_add(j as u64 + 1, Ordering::SeqCst);
            });
        });
        reset_num_threads();
        assert_eq!(total.load(Ordering::SeqCst), 4 * (1 + 2 + 3 + 4));
    }

    #[test]
    fn worker_panic_is_propagated_to_the_dispatcher() {
        let _w = TEST_WIDTH_LOCK.lock();
        set_num_threads(2);
        let err = std::panic::catch_unwind(|| {
            run(16, &|i| {
                if i == 7 {
                    panic!("boom");
                }
            });
        })
        .unwrap_err();
        reset_num_threads();
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("parallel region"), "unexpected panic payload: {msg}");
        // The pool must stay usable after a propagated panic.
        set_num_threads(2);
        let n = AtomicUsize::new(0);
        run(8, &|_| {
            n.fetch_add(1, Ordering::SeqCst);
        });
        reset_num_threads();
        assert_eq!(n.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn threads_env_values_parse_or_panic_loudly() {
        assert_eq!(parse_threads_env("1"), 1);
        assert_eq!(parse_threads_env(" 8 "), 8);
        assert_eq!(parse_threads_env("64"), 64);
        for bad in ["", "garbage", "-2", "1.5", "0", "65"] {
            let err = std::panic::catch_unwind(|| parse_threads_env(bad)).unwrap_err();
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("NADMM_THREADS") && msg.contains("accepted values"),
                "panic for {bad:?} must name the variable and the accepted values: {msg}"
            );
        }
    }

    #[test]
    fn set_num_threads_round_trips() {
        let _w = TEST_WIDTH_LOCK.lock();
        set_num_threads(3);
        assert_eq!(current_num_threads(), 3);
        reset_num_threads();
        assert!(current_num_threads() >= 1);
    }
}
