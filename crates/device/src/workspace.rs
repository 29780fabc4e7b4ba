//! Reusable device-memory workspace.
//!
//! Real GPU runtimes amortise allocation by pooling buffers; `cudaMalloc` in
//! a hot loop is a classic performance bug. [`Workspace`] models the same
//! discipline for the simulated device: solvers and objectives acquire
//! scratch vectors from a size-keyed free list and release them when done,
//! so a Newton-CG inner loop performs **zero heap allocations per iteration**
//! once the pool is warm. [`WorkspaceStats`] exposes hit/miss counters that
//! the tests use to prove exactly that.
//!
//! Ownership model: [`Workspace::acquire`] hands out a plain `Vec<f64>` (the
//! "device buffer" payload) by value, so the borrow checker never sees the
//! pool and the buffer alias at the same time; [`Workspace::release`] returns
//! it to the free list. Contents of an acquired buffer are unspecified —
//! callers must fill or overwrite it.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Counters describing pool behaviour since the last reset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkspaceStats {
    /// Buffers handed out in total.
    pub acquires: u64,
    /// Acquires served from the free list (no heap allocation).
    pub pool_hits: u64,
    /// Acquires that had to allocate fresh storage.
    pub pool_misses: u64,
    /// Buffers currently held by callers (acquired, not yet released).
    pub outstanding: u64,
}

/// A size-keyed free list of scratch vectors.
#[derive(Debug, Default)]
pub struct Workspace {
    free: HashMap<usize, Vec<Vec<f64>>>,
    stats: WorkspaceStats,
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands out a buffer of exactly `len` elements with **unspecified
    /// contents**. Reuses a pooled buffer when one of the right size is
    /// available, otherwise allocates.
    pub fn acquire(&mut self, len: usize) -> Vec<f64> {
        self.stats.acquires += 1;
        self.stats.outstanding += 1;
        if let Some(buf) = self.free.get_mut(&len).and_then(Vec::pop) {
            self.stats.pool_hits += 1;
            buf
        } else {
            self.stats.pool_misses += 1;
            vec![0.0; len]
        }
    }

    /// Hands out a buffer of `len` elements filled with zeros.
    pub fn acquire_zeroed(&mut self, len: usize) -> Vec<f64> {
        let mut buf = self.acquire(len);
        buf.iter_mut().for_each(|v| *v = 0.0);
        buf
    }

    /// Returns a buffer to the pool for later reuse.
    pub fn release(&mut self, buf: Vec<f64>) {
        self.stats.outstanding = self.stats.outstanding.saturating_sub(1);
        self.free.entry(buf.len()).or_default().push(buf);
    }

    /// Pre-populates the pool with `count` buffers of `len` elements, so the
    /// first hot-loop iteration is already allocation-free.
    pub fn reserve(&mut self, len: usize, count: usize) {
        let entry = self.free.entry(len).or_default();
        while entry.len() < count {
            entry.push(vec![0.0; len]);
        }
    }

    /// Pool behaviour counters since the last [`Workspace::reset_stats`].
    pub fn stats(&self) -> WorkspaceStats {
        self.stats
    }

    /// Resets the counters (the pooled buffers are kept).
    pub fn reset_stats(&mut self) {
        let outstanding = self.stats.outstanding;
        self.stats = WorkspaceStats {
            outstanding,
            ..WorkspaceStats::default()
        };
    }

    /// Number of buffers currently parked in the free list.
    pub fn pooled_buffers(&self) -> usize {
        self.free.values().map(Vec::len).sum()
    }

    /// Drops all pooled buffers (e.g. between problems of different shapes).
    pub fn clear(&mut self) {
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_reuses_storage() {
        let mut ws = Workspace::new();
        let a = ws.acquire(16);
        assert_eq!(a.len(), 16);
        let ptr = a.as_ptr();
        ws.release(a);
        let b = ws.acquire(16);
        assert_eq!(b.as_ptr(), ptr, "same-size acquire must reuse the pooled buffer");
        let stats = ws.stats();
        assert_eq!(stats.acquires, 2);
        assert_eq!(stats.pool_hits, 1);
        assert_eq!(stats.pool_misses, 1);
    }

    #[test]
    fn different_sizes_do_not_alias() {
        let mut ws = Workspace::new();
        let a = ws.acquire(8);
        ws.release(a);
        let b = ws.acquire(9);
        assert_eq!(b.len(), 9);
        assert_eq!(ws.stats().pool_misses, 2);
    }

    #[test]
    fn zeroed_acquire_clears_reused_buffers() {
        let mut ws = Workspace::new();
        let mut a = ws.acquire(4);
        a.iter_mut().for_each(|v| *v = 7.0);
        ws.release(a);
        let b = ws.acquire_zeroed(4);
        assert!(b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn reserve_prewarms_the_pool() {
        let mut ws = Workspace::new();
        ws.reserve(32, 3);
        assert_eq!(ws.pooled_buffers(), 3);
        let _a = ws.acquire(32);
        let _b = ws.acquire(32);
        let _c = ws.acquire(32);
        let s = ws.stats();
        assert_eq!(s.pool_hits, 3);
        assert_eq!(s.pool_misses, 0);
        assert_eq!(s.outstanding, 3);
    }

    #[test]
    fn stats_reset_keeps_buffers() {
        let mut ws = Workspace::new();
        let a = ws.acquire(8);
        ws.release(a);
        ws.reset_stats();
        assert_eq!(ws.stats(), WorkspaceStats::default());
        assert_eq!(ws.pooled_buffers(), 1);
        ws.clear();
        assert_eq!(ws.pooled_buffers(), 0);
    }
}
