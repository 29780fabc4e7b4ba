//! Pluggable point-to-point transports under the collective engine.
//!
//! The collective layer ([`crate::engine`]) is a root-coordinated round
//! protocol over byte frames: every rank sends its contribution to rank 0,
//! rank 0 folds them in fixed rank order and replies with the result. That
//! protocol only needs rank-addressed, order-preserving byte delivery on the
//! star edges between rank 0 and each other rank — which is exactly what
//! [`Transport`] abstracts. Two backends implement it:
//!
//! * [`thread::ThreadTransport`] — the simulated in-process cluster: per-edge
//!   pooled mailboxes in shared memory, zero-allocation once warm;
//! * [`tcp::TcpTransport`] — real sockets: one listener on rank 0, one
//!   connection from each other rank to it, length-prefixed frames
//!   ([`wire`]) written by the calling thread in one vectored write.
//!
//! Because the engine's *billing* is driven by the network cost model and the
//! logical payload sizes (never by transport wall time), a scenario produces
//! byte-identical reports on either backend.

pub mod tcp;
pub mod thread;
pub mod wire;

/// Environment variable overriding the transport backend (`thread` or
/// `tcp`).
pub const TRANSPORT_ENV: &str = "NADMM_TRANSPORT";

/// Rank-addressed, order-preserving byte delivery between the ranks of one
/// cluster. Object-safe: the collective engine owns a `Box<dyn Transport>`.
///
/// Contract: the engine only uses the star edges, rank 0 ↔ rank r for every
/// r > 0, and a backend need not carry any other (TCP panics on one); frames
/// sent on one (sender, receiver) edge arrive in send order; frames are
/// delivered whole; a dead peer must surface as a loud panic on
/// `recv_into`, never as a silent hang.
pub trait Transport: Send {
    /// This rank's id in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks on the fabric.
    fn size(&self) -> usize;

    /// Short backend name for diagnostics ("thread", "tcp").
    fn backend(&self) -> &'static str;

    /// Hands `frame` over for delivery to rank `to`. Returns once the
    /// backend has taken the bytes — a mailbox on the thread fabric, the
    /// kernel's socket buffer on TCP — so it may return before the peer
    /// reads the frame, and blocks at most until the backend accepts it.
    ///
    /// Blocking there cannot deadlock the collective engine, because every
    /// round is a star: a peer writes its contribution to the root and then
    /// reads; the root reads every contribution and then writes the result.
    /// No two ranks ever write to each other while neither reads, so every
    /// blocked write has a reader on the other end. A poison notice is small
    /// enough for any socket buffer and goes to peers that are blocked in
    /// [`Transport::recv_into`] or about to be.
    fn send(&mut self, to: usize, frame: &[u8]);

    /// Blocks until the next frame from rank `from` arrives and copies it
    /// into `buf` (cleared first; capacity is kept, so warm receives do not
    /// allocate).
    ///
    /// # Panics
    /// Panics when the peer is gone or the fabric was poisoned — a consensus
    /// round that can never complete must fail loudly, not deadlock.
    fn recv_into(&mut self, from: usize, buf: &mut Vec<u8>);

    /// Marks the whole fabric failed with `message` before this rank
    /// panics, so peers blocked in [`Transport::recv_into`] panic too
    /// instead of waiting forever.
    fn poison(&self, message: &str);
}

/// Which transport backend to run a cluster on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process simulated cluster: one OS thread per rank.
    #[default]
    Thread,
    /// Real sockets: one OS process per rank, loopback or cross-host.
    Tcp,
}

impl TransportKind {
    /// All backends, for exhaustive tests.
    pub const ALL: [TransportKind; 2] = [TransportKind::Thread, TransportKind::Tcp];

    /// The spellings [`TransportKind::parse`] accepts, for error messages.
    pub const ACCEPTED_SPELLINGS: &'static str = "thread (threads, local, sim), tcp (socket, sockets)";

    /// Short name used in specs, flags, and the env override.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Thread => "thread",
            TransportKind::Tcp => "tcp",
        }
    }

    /// Parses a backend name (trimmed, case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "thread" | "threads" | "local" | "sim" => Some(TransportKind::Thread),
            "tcp" | "socket" | "sockets" => Some(TransportKind::Tcp),
            _ => None,
        }
    }

    /// Reads the [`TRANSPORT_ENV`] override; `None` when the variable is
    /// unset (the caller falls back to its flag/spec default).
    ///
    /// # Panics
    /// Panics when the variable is set to an unparseable value, naming the
    /// bad value and the accepted spellings — a typo must not silently run
    /// the wrong backend (the `NADMM_COLLECTIVE_ALGO` / `NADMM_COMPRESSION`
    /// parsers apply the same rule).
    pub fn from_env() -> Option<Self> {
        match std::env::var(TRANSPORT_ENV) {
            Ok(raw) => Some(Self::parse_env_value(&raw)),
            Err(std::env::VarError::NotPresent) => None,
            Err(std::env::VarError::NotUnicode(raw)) => {
                panic!(
                    "{TRANSPORT_ENV} is set to a non-UTF-8 value ({raw:?}); accepted values: {}",
                    Self::ACCEPTED_SPELLINGS
                )
            }
        }
    }

    /// Parses the value of the [`TRANSPORT_ENV`] override, panicking with
    /// the accepted spellings when it does not name a backend.
    pub fn parse_env_value(raw: &str) -> Self {
        Self::parse(raw).unwrap_or_else(|| {
            panic!(
                "{TRANSPORT_ENV}='{raw}' does not name a transport backend; accepted values: {}",
                Self::ACCEPTED_SPELLINGS
            )
        })
    }
}

/// Declarative transport selection on a cluster spec.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TransportSpec {
    /// In-process thread fabric (the default; pre-transport specs decode to
    /// this).
    #[default]
    Thread,
    /// TCP sockets. `peers` lists one `host:port` address per rank in rank
    /// order; an empty list defers the addresses to the launcher (`--peers`
    /// / the parent spawner). The transport dials only `peers[0]`, rank 0's
    /// listener; the other entries keep the list one per rank.
    Tcp {
        /// Per-rank addresses, rank order (only rank 0's is listened on).
        /// May be empty when the launcher supplies them at run time.
        peers: Vec<String>,
    },
}

impl TransportSpec {
    /// The backend this spec selects.
    pub fn kind(&self) -> TransportKind {
        match self {
            TransportSpec::Thread => TransportKind::Thread,
            TransportSpec::Tcp { .. } => TransportKind::Tcp,
        }
    }

    /// Checks internal consistency against the cluster's rank count.
    pub fn validate(&self, ranks: usize) -> Result<(), String> {
        match self {
            TransportSpec::Thread => Ok(()),
            TransportSpec::Tcp { peers } => {
                if !peers.is_empty() && peers.len() != ranks {
                    return Err(format!(
                        "tcp transport lists {} peer addresses for {ranks} ranks (need one per rank, or none to defer to the launcher)",
                        peers.len()
                    ));
                }
                for (rank, addr) in peers.iter().enumerate() {
                    if !addr.contains(':') {
                        return Err(format!("tcp peer address `{addr}` for rank {rank} is not host:port"));
                    }
                }
                Ok(())
            }
        }
    }
}

impl serde::Serialize for TransportSpec {
    fn to_value(&self) -> serde::Value {
        match self {
            TransportSpec::Thread => serde::Value::Str("thread".to_string()),
            TransportSpec::Tcp { peers } => serde::Value::Map(vec![(
                "tcp".to_string(),
                serde::Value::Map(vec![(
                    "peers".to_string(),
                    serde::Value::Seq(peers.iter().map(|p| serde::Value::Str(p.clone())).collect()),
                )]),
            )]),
        }
    }
}

impl serde::Deserialize for TransportSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            // Pre-transport specs omit the field entirely; the shim hands
            // deserializers `Null` for missing keys.
            serde::Value::Null => Ok(TransportSpec::default()),
            serde::Value::Str(s) => match TransportKind::parse(s) {
                Some(TransportKind::Thread) => Ok(TransportSpec::Thread),
                Some(TransportKind::Tcp) => Ok(TransportSpec::Tcp { peers: Vec::new() }),
                None => Err(serde::DeError(format!(
                    "`{s}` does not name a transport backend; accepted values: {}",
                    TransportKind::ACCEPTED_SPELLINGS
                ))),
            },
            serde::Value::Map(_) => match v.get("tcp") {
                Some(tcp) => {
                    let peers: Vec<String> = serde::field(tcp, "peers")?;
                    Ok(TransportSpec::Tcp { peers })
                }
                None => Err(serde::DeError(
                    "transport map must be {\"tcp\": {\"peers\": [...]}}".to_string(),
                )),
            },
            other => Err(serde::DeError::expected("transport string or map", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[test]
    fn every_accepted_spelling_parses_to_its_backend() {
        for s in ["thread", "threads", "local", "sim", "Thread", " THREADS "] {
            assert_eq!(TransportKind::parse(s), Some(TransportKind::Thread), "spelling {s:?}");
            assert_eq!(TransportKind::parse_env_value(s), TransportKind::Thread);
        }
        for s in ["tcp", "socket", "sockets", "TCP", " Socket "] {
            assert_eq!(TransportKind::parse(s), Some(TransportKind::Tcp), "spelling {s:?}");
            assert_eq!(TransportKind::parse_env_value(s), TransportKind::Tcp);
        }
        for kind in TransportKind::ALL {
            assert_eq!(TransportKind::parse(kind.name()), Some(kind));
        }
    }

    #[test]
    fn rejected_spellings_return_none_from_parse() {
        for s in ["", "udp", "mpi", "thred", "tcp://", "thread,tcp"] {
            assert_eq!(TransportKind::parse(s), None, "spelling {s:?} must be rejected");
        }
    }

    #[test]
    #[should_panic(expected = "NADMM_TRANSPORT='udp' does not name a transport backend")]
    fn garbage_env_value_panics_naming_the_variable() {
        TransportKind::parse_env_value("udp");
    }

    #[test]
    #[should_panic(expected = "accepted values: thread (threads, local, sim), tcp (socket, sockets)")]
    fn garbage_env_value_panics_listing_accepted_spellings() {
        TransportKind::parse_env_value("infiniband");
    }

    #[test]
    #[should_panic(expected = "does not name a transport backend")]
    fn empty_env_value_panics_instead_of_defaulting() {
        TransportKind::parse_env_value("");
    }

    #[test]
    fn spec_round_trips_through_serde() {
        let thread = TransportSpec::Thread;
        assert_eq!(TransportSpec::from_value(&thread.to_value()).unwrap(), thread);
        let tcp = TransportSpec::Tcp {
            peers: vec!["127.0.0.1:7001".into(), "127.0.0.1:7002".into()],
        };
        assert_eq!(TransportSpec::from_value(&tcp.to_value()).unwrap(), tcp);
        // A pre-transport spec has no key at all: the shim hands `Null`,
        // which must decode as the thread backend.
        assert_eq!(TransportSpec::from_value(&serde::Value::Null).unwrap(), TransportSpec::Thread);
        // A bare "tcp" string defers the peer list to the launcher.
        assert_eq!(
            TransportSpec::from_value(&serde::Value::Str("tcp".into())).unwrap(),
            TransportSpec::Tcp { peers: Vec::new() }
        );
        let err = TransportSpec::from_value(&serde::Value::Str("carrier-pigeon".into())).unwrap_err();
        assert!(err.0.contains("accepted values"), "{}", err.0);
    }

    #[test]
    fn spec_validation_checks_peer_arity_and_shape() {
        assert!(TransportSpec::Thread.validate(4).is_ok());
        assert!(TransportSpec::Tcp { peers: Vec::new() }.validate(4).is_ok());
        let two = TransportSpec::Tcp {
            peers: vec!["a:1".into(), "b:2".into()],
        };
        assert!(two.validate(2).is_ok());
        assert!(two.validate(3).unwrap_err().contains("2 peer addresses for 3 ranks"));
        let bad = TransportSpec::Tcp {
            peers: vec!["localhost".into()],
        };
        assert!(bad.validate(1).unwrap_err().contains("not host:port"));
    }
}
