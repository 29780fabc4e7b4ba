//! The benchmark's global allocator: the system allocator plus per-thread
//! counts of allocation calls and of net live bytes.
//!
//! `nadmm_bench::alloc_counter::CountingAllocator` is not reused because it
//! counts calls only and leaves `alloc_zeroed` to the trait's default
//! (`alloc` + memset), which would make every `vec![0.0; n]` of a measured
//! run slower than under the allocator users get. Here all four entry points
//! forward to `System` unchanged, so timings are the default allocator's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static NET_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn record(calls: u64, bytes: i64) {
    // `try_with` fails only during thread teardown, when nobody reads the
    // counters any more.
    let _ = CALLS.try_with(|c| c.set(c.get() + calls));
    let _ = NET_BYTES.try_with(|b| b.set(b.get() + bytes));
}

/// Pass-through to [`System`] that counts per thread.
pub struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s contract is preserved exactly; the bookkeeping touches only
// thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: same caller contract as `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64);
        // SAFETY: the caller's layout obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same caller contract as `System.alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64);
        // SAFETY: the caller's layout obligations pass through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: same caller contract as `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, -(layout.size() as i64));
        // SAFETY: `ptr` came from one of the methods above, i.e. from
        // `System`, with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same caller contract as `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` with this layout; `new_size` is
        // the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) the current thread
/// made inside `f`.
pub fn count_allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (CALLS.with(Cell::get) - before, out)
}

/// Net heap bytes the current thread has allocated minus freed so far. The
/// difference across a region is the memory that region still holds,
/// provided no other thread frees what this one allocated.
pub fn thread_net_bytes() -> i64 {
    NET_BYTES.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary installs the allocator through `main.rs`, so the
    // counters are live here.
    #[test]
    fn counts_calls_and_net_bytes_of_this_thread() {
        let before = thread_net_bytes();
        let (calls, v) = count_allocations(|| vec![0u8; 4096]);
        assert_eq!(calls, 1);
        assert_eq!(thread_net_bytes() - before, 4096);
        drop(v);
        assert_eq!(thread_net_bytes(), before);
        let (calls, ()) = count_allocations(|| ());
        assert_eq!(calls, 0);
    }
}
