//! TCP transport: one process per rank, real sockets on loopback or across
//! hosts.
//!
//! Bootstrap builds the star the collective engine runs on: rank 0 binds
//! `peers[0]` and accepts one connection from every other rank, each named
//! by a hello frame and each awaited for a bounded time; rank r > 0 dials
//! `peers[0]` only (retrying until rank 0 listens) and binds nothing. The
//! other addresses are never used, and a frame on a non-star edge panics.
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
use std::io::{BufReader, ErrorKind};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Pause after the first failed bind, connect or accept poll; each further
/// one is twice as long, up to [`RETRY_PAUSE_MAX`]. A peer on the same host
/// is up within a millisecond or so, one across a network may take seconds.
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

fn connect_with_retry(addr: &str, within: Duration) -> std::io::Result<TcpStream> {
    retry(
        within,
        || TcpStream::connect(addr),
        |e| format!("could not reach peer {addr} within {within:?}: {e}"),
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

/// One rank's endpoint on a TCP star through rank 0.
pub struct TcpTransport {
    rank: usize,
    size: usize,
    /// Write halves keyed by peer rank: every other rank's on rank 0, rank
    /// 0's elsewhere (`None` for the rest, and for a peer once a write to it
    /// has failed).
    writers: Vec<Option<TcpStream>>,
    /// Read halves keyed by peer rank, on the same edges as `writers`.
    readers: Vec<Option<BufReader<TcpStream>>>,
    /// Scratch for `recv_into`'s length-prefixed reads.
    rx_scratch: Vec<u8>,
}

impl TcpTransport {
    /// Connects rank `rank` into the star described by `peers` (one
    /// `host:port` per rank, rank order; only rank 0's address is used).
    /// Blocks until every link is up or a bootstrap deadline expires.
    pub fn connect(rank: usize, peers: &[String]) -> std::io::Result<Self> {
        Self::connect_within(rank, peers, CONNECT_DEADLINE)
    }

    /// [`TcpTransport::connect`], where each dial, accept and hello read
    /// waits at most `deadline`.
    fn connect_within(rank: usize, peers: &[String], deadline: Duration) -> std::io::Result<Self> {
        let size = peers.len();
        assert!(rank < size, "rank {rank} out of range for {size} peers");
        let mut transport = Self {
            rank,
            size,
            writers: (0..size).map(|_| None).collect(),
            readers: (0..size).map(|_| None).collect(),
            rx_scratch: Vec::new(),
        };
        if rank == 0 {
            transport.accept_peers(&bind_with_retry(&peers[0])?, deadline)?;
        } else {
            let mut stream = connect_with_retry(&peers[0], deadline)?;
            stream.set_nodelay(true)?;
            let mut hello = Vec::new();
            wire::encode_hello(&mut hello, rank as u64, size as u64);
            wire::write_frame(&mut stream, &hello)?;
            transport.writers[0] = Some(stream.try_clone()?);
            transport.readers[0] = Some(BufReader::new(stream));
        }
        Ok(transport)
    }

    /// Rank 0's half of the bootstrap: accepts one connection from every
    /// other rank; the hello frame says which rank is on the other end.
    fn accept_peers(&mut self, listener: &TcpListener, deadline: Duration) -> std::io::Result<()> {
        let size = self.size;
        // A non-blocking listener lets `retry` bound the wait for a rank
        // that never starts.
        listener.set_nonblocking(true)?;
        let mut frame = Vec::new();
        for joined in 0..size - 1 {
            let gave_up = |what: String, e: std::io::Error| {
                let kind = match e.kind() {
                    ErrorKind::WouldBlock => ErrorKind::TimedOut,
                    kind => kind,
                };
                let msg = format!("tcp bootstrap: {joined} of {} peers joined rank 0; {what}: {e}", size - 1);
                std::io::Error::new(kind, msg)
            };
            let (stream, from) = retry(deadline, || listener.accept(), |e| e.to_string())
                .map_err(|e| gave_up(format!("no further peer connected within {deadline:?}"), e))?;
            stream.set_nonblocking(false)?;
            stream.set_nodelay(true)?;
            // A peer that connects but never says hello must not hang rank 0
            // either.
            stream.set_read_timeout(Some(deadline))?;
            let mut reader = BufReader::new(stream.try_clone()?);
            wire::read_frame_into(&mut reader, &mut frame).map_err(|e| match e.kind() {
                ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                    gave_up(format!("peer at {from} sent no hello within {deadline:?}"), e)
                }
                kind => std::io::Error::new(kind, format!("tcp bootstrap: peer at {from} failed its hello: {e}")),
            })?;
            stream.set_read_timeout(None)?;
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
            if peer == 0 || peer >= size {
                return Err(bootstrap_error(format!(
                    "peer at {from} claims rank {peer}, expected one of 1..{size}"
                )));
            }
            if self.writers[peer].is_some() {
                return Err(bootstrap_error(format!("two peers claim rank {peer}")));
            }
            self.writers[peer] = Some(stream);
            self.readers[peer] = Some(reader);
        }
        Ok(())
    }

    /// Panics unless `peer` and this rank form a star edge: exactly one of
    /// them is rank 0.
    fn assert_star_edge(&self, peer: usize) {
        assert!(
            (self.rank == 0) != (peer == 0),
            "tcp transport: rank {} and rank {peer} share no link; the fabric is a star through rank 0",
            self.rank
        );
    }
}

fn bootstrap_error(msg: String) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, format!("tcp bootstrap: {msg}"))
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
        self.assert_star_edge(to);
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
        self.assert_star_edge(from);
        let rank = self.rank;
        let reader = self.readers[from].as_mut().expect("every star edge is connected at bootstrap");
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

    fn star(n: usize) -> Vec<TcpTransport> {
        let peers = reserve_loopback_peers(n).unwrap();
        let mut handles = Vec::new();
        for rank in 0..n {
            let peers = peers.clone();
            handles.push(std::thread::spawn(move || TcpTransport::connect(rank, &peers).unwrap()));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    /// The panic message of `body`, which must panic.
    fn panic_message(body: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).unwrap_err();
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    /// Runs rank 0 of a `size`-rank star with `deadline`, while raw sockets
    /// connect to it and each write one of `openings`; returns rank 0's
    /// bootstrap error. Waits at most 5 s for it.
    fn rank0_error(size: usize, deadline: Duration, openings: &[Vec<u8>]) -> std::io::Error {
        let peers = reserve_loopback_peers(size).unwrap();
        let addr = peers[0].clone();
        let rank0 = std::thread::spawn(move || TcpTransport::connect_within(0, &peers, deadline).err());
        // Held open until rank 0 answers, so it never reads an EOF.
        let _sockets: Vec<TcpStream> = openings
            .iter()
            .map(|frame| {
                let mut socket = connect_with_retry(&addr, Duration::from_secs(5)).unwrap();
                if !frame.is_empty() {
                    wire::write_frame(&mut socket, frame).unwrap();
                }
                socket
            })
            .collect();
        // `deadline` already bounds rank 0; the watchdog turns a bug there
        // into a failure instead of a hung test.
        for _ in 0..1000 {
            if rank0.is_finished() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(rank0.is_finished(), "rank 0 did not answer within 5 s");
        rank0.join().unwrap().expect("rank 0's bootstrap must fail")
    }

    #[test]
    fn star_bootstrap_and_ordered_delivery() {
        let mut ranks = star(3);
        let mut r2 = ranks.pop().unwrap();
        let mut r1 = ranks.pop().unwrap();
        let mut r0 = ranks.pop().unwrap();
        assert_eq!((r0.rank(), r0.size(), r0.backend()), (0, 3, "tcp"));
        r1.send(0, b"alpha");
        r2.send(0, b"beta");
        r1.send(0, b"gamma");
        r0.send(2, b"delta");
        r0.send(2, b"epsilon");
        let mut buf = Vec::new();
        r0.recv_into(2, &mut buf);
        assert_eq!(buf, b"beta");
        r0.recv_into(1, &mut buf);
        assert_eq!(buf, b"alpha");
        r0.recv_into(1, &mut buf);
        assert_eq!(buf, b"gamma");
        r2.recv_into(0, &mut buf);
        assert_eq!(buf, b"delta");
        r2.recv_into(0, &mut buf);
        assert_eq!(buf, b"epsilon");
    }

    #[test]
    fn a_four_rank_star_links_rank_zero_to_each_peer_and_nothing_else() {
        let mut ranks = star(4);
        let links: Vec<usize> = ranks.iter().map(|t| t.readers.iter().flatten().count()).collect();
        assert_eq!(links, [3, 1, 1, 1]);
        for t in &ranks {
            assert_eq!(t.writers.iter().flatten().count(), links[t.rank()]);
        }
        let (r1, rest) = ranks[1..].split_first_mut().unwrap();
        let msg = panic_message(|| r1.send(2, b"sideways"));
        assert!(msg.contains("rank 1 and rank 2 share no link"), "got: {msg}");
        let msg = panic_message(|| rest[0].recv_into(1, &mut Vec::new()));
        assert!(msg.contains("rank 2 and rank 1 share no link"), "got: {msg}");
    }

    #[test]
    fn rank_zero_rejects_every_malformed_hello() {
        let hello = |rank: u64, size: u64| {
            let mut frame = Vec::new();
            wire::encode_hello(&mut frame, rank, size);
            frame
        };
        let mut raw = Vec::new();
        wire::encode_raw(&mut raw, b"hi");
        let mut corrupt = hello(1, 3);
        corrupt[0] ^= 0xFF;
        let cases: [(&[Vec<u8>], &str); 6] = [
            (&[hello(0, 3)], "claims rank 0"),
            (&[hello(3, 3)], "claims rank 3"),
            (&[hello(1, 3), hello(1, 3)], "two peers claim rank 1"),
            (&[hello(1, 4)], "cluster size 4, expected 3"),
            (&[raw], "non-hello frame"),
            (&[corrupt], "corrupt hello"),
        ];
        for (openings, fault) in cases {
            let err = rank0_error(3, Duration::from_secs(5), openings);
            let msg = err.to_string();
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{msg}");
            assert!(
                msg.starts_with("tcp bootstrap:") && msg.contains(fault),
                "want {fault:?}, got: {msg}"
            );
        }
    }

    #[test]
    fn rank_zero_gives_up_on_peers_that_never_join() {
        let deadline = Duration::from_millis(200);
        // Neither rank 1 nor rank 2 ever starts.
        let msg = rank0_error(3, deadline, &[]).to_string();
        assert!(msg.starts_with("tcp bootstrap: 0 of 2 peers joined"), "got: {msg}");
        // A peer that connects and never says hello.
        let msg = rank0_error(2, deadline, &[Vec::new()]).to_string();
        assert!(
            msg.starts_with("tcp bootstrap: 0 of 1 peers joined") && msg.contains("no hello"),
            "got: {msg}"
        );
    }

    #[test]
    fn a_peer_that_hangs_up_before_its_hello_is_not_reported_as_a_timeout() {
        let peers = reserve_loopback_peers(2).unwrap();
        let addr = peers[0].clone();
        let rank0 = std::thread::spawn(move || TcpTransport::connect_within(0, &peers, Duration::from_secs(5)).err());
        drop(connect_with_retry(&addr, Duration::from_secs(5)).unwrap());
        let err = rank0.join().unwrap().expect("rank 0's bootstrap must fail");
        let msg = err.to_string();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{msg}");
        assert!(
            msg.starts_with("tcp bootstrap: peer at") && msg.contains("failed its hello"),
            "got: {msg}"
        );
    }

    #[test]
    fn poison_delivers_the_original_message_as_an_error_frame() {
        let mut ranks = star(2);
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
        let mut ranks = star(2);
        let r1 = ranks.pop().unwrap();
        let mut r0 = ranks.pop().unwrap();
        drop(r1);
        let msg = panic_message(|| r0.recv_into(1, &mut Vec::new()));
        assert!(msg.contains("lost the connection to rank 1"), "got: {msg}");
    }

    #[test]
    fn a_frame_larger_than_both_socket_buffers_arrives_whole() {
        // 40 MiB is more than the default send and receive buffers hold
        // together, so the send blocks partway until the late receiver
        // drains the socket. (A blocking socket finishes the write in the
        // kernel; the resume-after-a-short-write loop is pinned by the
        // wire codec's own tests.)
        let mut ranks = star(2);
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
        let mut ranks = star(2);
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
        let msg = panic_message(|| r0.recv_into(1, &mut Vec::new()));
        assert!(msg.contains("lost the connection to rank 1"), "got: {msg}");
    }

    #[test]
    fn single_rank_mesh_needs_no_connections() {
        // A 1-rank star needs no connections at all and must come up alone.
        let peers = reserve_loopback_peers(1).unwrap();
        let t = TcpTransport::connect(0, &peers).unwrap();
        assert_eq!(t.size(), 1);
    }
}
