//! A counting global allocator for allocation-profiling benches and tests.
//!
//! The execution-engine refactor promises zero heap allocations per solver
//! inner-loop iteration once the workspace pool is warm; this module makes
//! that claim *measurable*. Opt in per binary with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: nadmm_bench::alloc_counter::CountingAllocator =
//!     nadmm_bench::alloc_counter::CountingAllocator;
//! ```
//!
//! Counters are per-thread, so parallel test threads do not pollute each
//! other's measurements. Besides allocation calls they track the bytes the
//! thread holds: an allocation adds its size, a free subtracts it, and a
//! `realloc` counts as its new size replacing the old one. Bytes freed on
//! another thread than the one that allocated them skew both threads' live
//! counts, so measure code that frees what it allocates on one thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static THREAD_LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    static THREAD_PEAK_BYTES: Cell<isize> = const { Cell::new(0) };
}

/// Moves the current thread's live-byte count by `delta`, raising its peak
/// when the count passes it.
fn track_bytes(delta: isize) {
    let _ = THREAD_LIVE_BYTES.try_with(|live| {
        live.set(live.get() + delta);
        let _ = THREAD_PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

/// Pass-through system allocator that counts allocation calls and held bytes
/// per thread.
pub struct CountingAllocator;

// SAFETY: a pure pass-through to `System` — every call forwards its
// arguments unchanged, so `System`'s layout/pointer contract is exactly
// preserved; the counter bumps touch only thread-local Cells and cannot
// themselves allocate (`try_with` returns Err during TLS teardown).
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwarded verbatim to `System.alloc`; same caller contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's layout obligations pass through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            track_bytes(layout.size() as isize);
        }
        ptr
    }

    // SAFETY: forwarded verbatim to `System.dealloc`; same caller contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr/layout come from the caller, who must have obtained
        // them from `alloc`/`realloc` above — which is `System`.
        unsafe { System.dealloc(ptr, layout) };
        track_bytes(-(layout.size() as isize));
    }

    // SAFETY: forwarded verbatim to `System.realloc`; same caller contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's pointer/layout obligations pass through
        // unchanged to the allocator that produced the pointer.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            track_bytes(new_size as isize - layout.size() as isize);
        }
        new_ptr
    }
}

/// Number of heap allocations made by the current thread so far.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

/// Runs `f` and returns how many allocations the current thread made inside.
pub fn count_allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = thread_allocations();
    let result = f();
    (thread_allocations() - before, result)
}

/// Heap bytes the current thread holds now: what it allocated minus what it
/// freed, since the thread started.
fn thread_live_bytes() -> isize {
    THREAD_LIVE_BYTES.try_with(Cell::get).unwrap_or(0)
}

/// Runs `f` and returns the most heap the current thread held at any point
/// inside, counted above what it held when `f` started.
pub fn peak_bytes<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let start = thread_live_bytes();
    let outer_peak = THREAD_PEAK_BYTES.with(|peak| peak.replace(start));
    let result = f();
    let inner_peak = THREAD_PEAK_BYTES.with(|peak| peak.replace(outer_peak.max(peak.get())));
    ((inner_peak - start).max(0) as usize, result)
}
