//! TCP transport: one process per rank, real sockets on loopback or across
//! hosts.
//!
//! Bootstrap is rendezvous-style: every rank binds a listener on its own
//! `host:port` from the shared peer list, dials every lower rank (retrying
//! until the peer is listening) and accepts a connection from every higher
//! rank, identified by a hello frame. The result is a full-mesh connection
//! cache keyed by peer rank.
//!
//! A send is one vectored write of the length-prefixed frame
//! ([`wire::write_frame`]) from the calling thread into the peer's socket:
//! no copy, no queue, no helper thread. It blocks at most until the kernel
//! has taken every byte, which the round protocol cannot deadlock (see
//! [`Transport::send`]). Receives block on the peer's stream through a
//! buffered reader, which picks up a small frame's prefix and payload in
//! one read.
//!
//! A dead peer surfaces as an EOF/reset on its stream, which `recv_into`
//! turns into a loud panic; a failed write is logged once and drops the
//! write half, leaving the report to that receive. An explicit
//! [`Transport::poison`] additionally writes a wire error frame to every
//! peer so they panic with the original message instead of a bare
//! connection error.

use super::wire;
use super::Transport;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Pause after the first refused bind or connect; every further one is twice
/// as long, up to [`RETRY_PAUSE_MAX`]. A peer on the same host is listening
/// within a millisecond or so, one across a network may take seconds.
const RETRY_PAUSE_MIN: Duration = Duration::from_millis(1);
const RETRY_PAUSE_MAX: Duration = Duration::from_millis(25);
const CONNECT_DEADLINE: Duration = Duration::from_secs(60);
const BIND_DEADLINE: Duration = Duration::from_secs(30);

/// Repeats `attempt` with the backoff above until it succeeds or `within` has
/// passed; then the last error comes back, its text from `describe`.
fn retry<T>(
    within: Duration,
    mut attempt: impl FnMut() -> std::io::Result<T>,
    describe: impl FnOnce(&std::io::Error) -> String,
) -> std::io::Result<T> {
    let deadline = Instant::now() + within;
    let mut pause = RETRY_PAUSE_MIN;
    loop {
        match attempt() {
            Ok(v) => return Ok(v),
            Err(e) if Instant::now() >= deadline => return Err(std::io::Error::new(e.kind(), describe(&e))),
            Err(_) => {
                std::thread::sleep(pause);
                pause = (pause * 2).min(RETRY_PAUSE_MAX);
            }
        }
    }
}

fn bind_with_retry(addr: &str) -> std::io::Result<TcpListener> {
    retry(
        BIND_DEADLINE,
        || TcpListener::bind(addr),
        |e| format!("could not bind rank listener on {addr} within {BIND_DEADLINE:?}: {e}"),
    )
}

fn connect_with_retry(addr: &str) -> std::io::Result<TcpStream> {
    retry(
        CONNECT_DEADLINE,
        || TcpStream::connect(addr),
        |e| format!("could not reach peer {addr} within {CONNECT_DEADLINE:?}: {e}"),
    )
}

/// Reserves `n` distinct loopback `host:port` addresses by binding
/// OS-assigned ports and releasing them. Used by the multi-process launcher
/// (children re-bind with retry, so the tiny release-to-rebind window is
/// harmless on a loopback-only run).
pub fn reserve_loopback_peers(n: usize) -> std::io::Result<Vec<String>> {
    let mut keep = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let l = TcpListener::bind("127.0.0.1:0")?;
        addrs.push(format!("127.0.0.1:{}", l.local_addr()?.port()));
        // Hold every listener until all ports are chosen so the OS cannot
        // hand the same port out twice.
        keep.push(l);
    }
    Ok(addrs)
}

/// One rank's endpoint on a full-mesh TCP fabric.
pub struct TcpTransport {
    rank: usize,
    size: usize,
    /// Write halves keyed by peer rank (`None` at `self.rank`, and for a
    /// peer once a write to it has failed).
    writers: Vec<Option<TcpStream>>,
    /// Read halves keyed by peer rank (`None` at `self.rank`).
    readers: Vec<Option<BufReader<TcpStream>>>,
    /// Scratch for `recv_into`'s length-prefixed reads.
    rx_scratch: Vec<u8>,
}

impl TcpTransport {
    /// Connects rank `rank` into the mesh described by `peers` (one
    /// `host:port` listen address per rank, rank order). Blocks until every
    /// connection is up or a bootstrap deadline expires.
    pub fn connect(rank: usize, peers: &[String]) -> std::io::Result<Self> {
        let size = peers.len();
        assert!(rank < size, "rank {rank} out of range for {size} peers");
        let mut writers: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();
        let mut readers: Vec<Option<BufReader<TcpStream>>> = (0..size).map(|_| None).collect();
        let listener = bind_with_retry(&peers[rank])?;
        let mut hello = Vec::new();
        // Dial every lower rank, identifying ourselves with a hello frame.
        for (peer, addr) in peers.iter().enumerate().take(rank) {
            let mut stream = connect_with_retry(addr)?;
            stream.set_nodelay(true)?;
            wire::encode_hello(&mut hello, rank as u64, size as u64);
            wire::write_frame(&mut stream, &hello)?;
            writers[peer] = Some(stream.try_clone()?);
            readers[peer] = Some(BufReader::new(stream));
        }
        // Accept one connection from every higher rank; the hello frame says
        // which rank is on the other end.
        let mut frame = Vec::new();
        for _ in rank + 1..size {
            let (stream, from) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut reader = BufReader::new(stream.try_clone()?);
            wire::read_frame_into(&mut reader, &mut frame)?;
            let peer = match wire::decode(&frame) {
                Ok(wire::Frame::Hello {
                    rank: peer,
                    size: peer_size,
                }) => {
                    if peer_size as usize != size {
                        return Err(bootstrap_error(format!(
                            "peer at {from} joined with cluster size {peer_size}, expected {size}"
                        )));
                    }
                    peer as usize
                }
                Ok(other) => {
                    return Err(bootstrap_error(format!(
                        "peer at {from} opened with a non-hello frame: {other:?}"
                    )))
                }
                Err(e) => return Err(bootstrap_error(format!("peer at {from} sent a corrupt hello: {e}"))),
            };
            if peer <= rank || peer >= size {
                return Err(bootstrap_error(format!(
                    "peer at {from} claims rank {peer}, expected one of {}..{size}",
                    rank + 1
                )));
            }
            if writers[peer].is_some() {
                return Err(bootstrap_error(format!("two peers claim rank {peer}")));
            }
            writers[peer] = Some(stream);
            readers[peer] = Some(reader);
        }
        Ok(Self {
            rank,
            size,
            writers,
            readers,
            rx_scratch: Vec::new(),
        })
    }
}

fn bootstrap_error(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, format!("tcp bootstrap: {msg}"))
}

impl Transport for TcpTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn backend(&self) -> &'static str {
        "tcp"
    }

    fn send(&mut self, to: usize, frame: &[u8]) {
        assert_ne!(to, self.rank, "a rank does not send frames to itself");
        let Some(mut stream) = self.writers[to].as_ref() else { return };
        // A vectored write to a reset connection raises SIGPIPE; the Rust
        // runtime ignores that signal before `main`, so it surfaces here as
        // an EPIPE error instead of ending the process.
        if let Err(e) = wire::write_frame(&mut stream, frame) {
            // The receiving side of the dead connection reports the failure
            // loudly; this side just stops writing to it.
            eprintln!("nadmm-tcp rank {}: send to rank {to} failed: {e}", self.rank);
            self.writers[to] = None;
        }
    }

    fn recv_into(&mut self, from: usize, buf: &mut Vec<u8>) {
        assert_ne!(from, self.rank, "a rank does not receive frames from itself");
        let rank = self.rank;
        let reader = self.readers[from]
            .as_mut()
            .unwrap_or_else(|| panic!("tcp transport: rank {rank} has no connection to rank {from}"));
        if let Err(e) = wire::read_frame_into(reader, &mut self.rx_scratch) {
            panic!(
                "tcp transport: rank {rank} lost the connection to rank {from}: {e} \
                 (the peer process likely died; a consensus round cannot continue)"
            );
        }
        std::mem::swap(buf, &mut self.rx_scratch);
    }

    fn poison(&self, message: &str) {
        let mut frame = Vec::new();
        wire::encode_error(&mut frame, message);
        for mut stream in self.writers.iter().flatten() {
            // Best effort: a peer that is already gone needs no notice.
            let _ = wire::write_frame(&mut stream, &frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh(n: usize) -> Vec<TcpTransport> {
        let peers = reserve_loopback_peers(n).unwrap();
        let mut handles = Vec::new();
        for rank in 0..n {
            let peers = peers.clone();
            handles.push(std::thread::spawn(move || TcpTransport::connect(rank, &peers).unwrap()));
        }
        let mut out: Vec<Option<TcpTransport>> = (0..n).map(|_| None).collect();
        for (rank, h) in handles.into_iter().enumerate() {
            out[rank] = Some(h.join().unwrap());
        }
        out.into_iter().map(|t| t.unwrap()).collect()
    }

    #[test]
    fn full_mesh_bootstrap_and_ordered_delivery() {
        let mut ranks = mesh(3);
        let mut r2 = ranks.pop().unwrap();
        let mut r1 = ranks.pop().unwrap();
        let mut r0 = ranks.pop().unwrap();
        assert_eq!((r0.rank(), r0.size(), r0.backend()), (0, 3, "tcp"));
        r0.send(2, b"alpha");
        r0.send(2, b"beta");
        r1.send(2, b"gamma");
        let mut buf = Vec::new();
        r2.recv_into(0, &mut buf);
        assert_eq!(buf, b"alpha");
        r2.recv_into(1, &mut buf);
        assert_eq!(buf, b"gamma");
        r2.recv_into(0, &mut buf);
        assert_eq!(buf, b"beta");
        // And the reverse direction works on the same cached connections.
        r2.send(0, b"delta");
        r0.recv_into(2, &mut buf);
        assert_eq!(buf, b"delta");
    }

    #[test]
    fn default_barrier_runs_over_tcp() {
        let ranks = mesh(3);
        let mut handles = Vec::new();
        for mut t in ranks {
            handles.push(std::thread::spawn(move || {
                for _ in 0..5 {
                    t.barrier();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn poison_delivers_the_original_message_as_an_error_frame() {
        let mut ranks = mesh(2);
        let r1 = ranks.pop().unwrap();
        let mut r0 = ranks.pop().unwrap();
        r1.poison("rank 1 hit a collective-order violation");
        drop(r1); // flush + close
        let mut buf = Vec::new();
        r0.recv_into(1, &mut buf);
        match wire::decode(&buf).unwrap() {
            wire::Frame::Error { message } => {
                assert_eq!(message, "rank 1 hit a collective-order violation");
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
    }

    #[test]
    fn a_dead_peer_panics_the_receiver_instead_of_hanging() {
        let mut ranks = mesh(2);
        let r1 = ranks.pop().unwrap();
        let mut r0 = ranks.pop().unwrap();
        drop(r1);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut buf = Vec::new();
            r0.recv_into(1, &mut buf);
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lost the connection to rank 1"), "got: {msg}");
    }

    #[test]
    fn a_frame_larger_than_both_socket_buffers_arrives_whole() {
        // 40 MiB is more than the default send and receive buffers hold
        // together, so the send blocks partway until the late receiver
        // drains the socket. (A blocking socket finishes the write in the
        // kernel; the resume-after-a-short-write loop is pinned by the
        // wire codec's own tests.)
        let mut ranks = mesh(2);
        let mut r1 = ranks.pop().unwrap();
        let mut r0 = ranks.pop().unwrap();
        let frame: Vec<u8> = (0..40usize << 20).map(|i| (i % 251) as u8).collect();
        let receiver = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            let mut buf = Vec::new();
            r1.recv_into(0, &mut buf);
            buf
        });
        r0.send(1, &frame);
        let got = receiver.join().unwrap();
        assert_eq!(got.len(), frame.len());
        assert!(got == frame, "the 40 MiB frame arrived corrupted");
    }

    #[test]
    fn a_send_to_a_dropped_peer_returns_and_the_receive_names_it() {
        let mut ranks = mesh(2);
        let r1 = ranks.pop().unwrap();
        let mut r0 = ranks.pop().unwrap();
        drop(r1);
        // The first write lands in the kernel buffer and draws a reset; a
        // later one fails with EPIPE or ECONNRESET (not a SIGPIPE death),
        // which drops the write half. Further sends are no-ops.
        for _ in 0..1000 {
            if r0.writers[1].is_none() {
                break;
            }
            r0.send(1, &[7; 4096]);
        }
        assert!(r0.writers[1].is_none(), "no write to the dropped peer ever failed");
        r0.send(1, b"after the failure");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut buf = Vec::new();
            r0.recv_into(1, &mut buf);
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lost the connection to rank 1"), "got: {msg}");
    }

    #[test]
    fn single_rank_mesh_needs_no_connections() {
        // A 1-rank mesh needs no connections at all and must come up alone.
        let peers = reserve_loopback_peers(1).unwrap();
        let t = TcpTransport::connect(0, &peers).unwrap();
        assert_eq!(t.size(), 1);
    }
}
