//! In-process transport: per-edge pooled mailboxes in shared memory.
//!
//! One [`ThreadFabric`] is shared by all ranks of a simulated cluster; each
//! rank holds a [`ThreadTransport`] handle. Every directed (sender →
//! receiver) edge is an independent FIFO of byte frames protected by its own
//! lock, so two disjoint pairs of ranks never contend. Delivered frame
//! buffers are recycled on a per-edge free list — a warm collective round
//! moves frames without a single heap allocation.
//!
//! Poisoning: any rank (or the cluster scaffolding, on an arbitrary panic)
//! can mark the fabric failed; every blocked and future `recv_into` then
//! panics with the original message instead of deadlocking.

use super::Transport;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

struct EdgeQueue {
    /// Frames in flight on this edge, delivery order.
    ready: VecDeque<Vec<u8>>,
    /// Recycled frame buffers (capacity kept).
    free: Vec<Vec<u8>>,
}

struct Edge {
    state: Mutex<EdgeQueue>,
    cv: Condvar,
}

/// The shared mailbox fabric of one in-process cluster.
pub struct ThreadFabric {
    n: usize,
    /// `n * n` directed edges, indexed `from * n + to`.
    edges: Vec<Edge>,
    poison: Mutex<Option<String>>,
}

impl ThreadFabric {
    /// Creates a fabric for `n` ranks.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Arc<Self> {
        assert!(n > 0, "a fabric needs at least one rank");
        Arc::new(Self {
            n,
            edges: (0..n * n)
                .map(|_| Edge {
                    state: Mutex::new(EdgeQueue {
                        ready: VecDeque::new(),
                        free: Vec::new(),
                    }),
                    cv: Condvar::new(),
                })
                .collect(),
            poison: Mutex::new(None),
        })
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Hands out the transport endpoint of one rank.
    ///
    /// # Panics
    /// Panics if `rank` is out of range.
    pub fn endpoint(self: &Arc<Self>, rank: usize) -> ThreadTransport {
        assert!(rank < self.n, "rank {rank} out of range for a {}-rank fabric", self.n);
        ThreadTransport {
            fabric: Arc::clone(self),
            rank,
        }
    }

    fn edge(&self, from: usize, to: usize) -> &Edge {
        &self.edges[from * self.n + to]
    }

    /// Marks the fabric failed (first message wins) and wakes every waiter.
    pub fn poison(&self, message: &str) {
        {
            let mut p = self.poison.lock();
            if p.is_none() {
                *p = Some(message.to_string());
            }
        }
        // Take each edge lock briefly before notifying so a receiver cannot
        // check the poison flag and then park, missing the wakeup.
        for edge in &self.edges {
            let _guard = edge.state.lock();
            edge.cv.notify_all();
        }
    }

    fn poison_message(&self) -> Option<String> {
        self.poison.lock().clone()
    }
}

/// One rank's endpoint on a [`ThreadFabric`].
pub struct ThreadTransport {
    fabric: Arc<ThreadFabric>,
    rank: usize,
}

impl Transport for ThreadTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.fabric.n
    }

    fn backend(&self) -> &'static str {
        "thread"
    }

    fn send(&mut self, to: usize, frame: &[u8]) {
        let edge = self.fabric.edge(self.rank, to);
        let mut q = edge.state.lock();
        let mut slot = q.free.pop().unwrap_or_default();
        slot.clear();
        slot.extend_from_slice(frame);
        q.ready.push_back(slot);
        edge.cv.notify_all();
    }

    fn recv_into(&mut self, from: usize, buf: &mut Vec<u8>) {
        let edge = self.fabric.edge(from, self.rank);
        let mut q = edge.state.lock();
        loop {
            if let Some(slot) = q.ready.pop_front() {
                buf.clear();
                buf.extend_from_slice(&slot);
                q.free.push(slot);
                return;
            }
            if let Some(msg) = self.fabric.poison_message() {
                panic!("{msg}");
            }
            edge.cv.wait(&mut q);
        }
    }

    fn poison(&self, message: &str) {
        self.fabric.poison(message);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_arrive_in_send_order_per_edge() {
        let fabric = ThreadFabric::new(2);
        let mut a = fabric.endpoint(0);
        let mut b = fabric.endpoint(1);
        a.send(1, b"first");
        a.send(1, b"second");
        let mut buf = Vec::new();
        b.recv_into(0, &mut buf);
        assert_eq!(buf, b"first");
        b.recv_into(0, &mut buf);
        assert_eq!(buf, b"second");
    }

    #[test]
    fn delivered_buffers_are_recycled() {
        let fabric = ThreadFabric::new(2);
        let mut a = fabric.endpoint(0);
        let mut b = fabric.endpoint(1);
        let mut buf = Vec::new();
        a.send(1, &[7; 64]);
        b.recv_into(0, &mut buf);
        // The 64-byte buffer is now on the edge's free list; a second send
        // of the same size must reuse it rather than allocate.
        a.send(1, &[9; 64]);
        {
            let q = fabric.edge(0, 1).state.lock();
            assert!(q.free.is_empty(), "the free buffer must have been taken");
            assert_eq!(q.ready.len(), 1);
            assert!(q.ready[0].capacity() >= 64);
        }
        b.recv_into(0, &mut buf);
        assert_eq!(buf, &[9; 64]);
    }

    #[test]
    fn cross_thread_ping_pong() {
        let fabric = ThreadFabric::new(2);
        let f2 = Arc::clone(&fabric);
        let h = std::thread::spawn(move || {
            let mut t = f2.endpoint(1);
            let mut buf = Vec::new();
            for _ in 0..100 {
                t.recv_into(0, &mut buf);
                t.send(0, &buf.clone());
            }
        });
        let mut t = fabric.endpoint(0);
        let mut buf = Vec::new();
        for i in 0..100u32 {
            t.send(1, &i.to_le_bytes());
            t.recv_into(1, &mut buf);
            assert_eq!(buf, i.to_le_bytes());
        }
        h.join().unwrap();
    }

    #[test]
    fn poison_wakes_a_blocked_receiver() {
        let fabric = ThreadFabric::new(2);
        let f2 = Arc::clone(&fabric);
        let h = std::thread::spawn(move || {
            let mut t = f2.endpoint(1);
            let mut buf = Vec::new();
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.recv_into(0, &mut buf))).unwrap_err();
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("rank 0 went down"), "got: {msg}");
        });
        // Give the receiver a moment to park, then poison.
        std::thread::sleep(std::time::Duration::from_millis(20));
        fabric.poison("rank 0 went down");
        h.join().unwrap();
    }

    #[test]
    fn first_poison_message_wins() {
        let fabric = ThreadFabric::new(2);
        fabric.poison("first failure");
        fabric.poison("second failure");
        assert_eq!(fabric.poison_message().as_deref(), Some("first failure"));
    }
}
