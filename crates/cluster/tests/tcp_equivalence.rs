//! The transport determinism contract: a cluster of ranks connected over
//! loopback TCP sockets must produce bit-identical results, clocks, and
//! stats to the same cluster on the in-process thread fabric. Billing is
//! model-driven (logical payload sizes against the network cost model, never
//! transport wall time), so this holds by construction — these tests pin it.

use nadmm_cluster::transport::tcp::reserve_loopback_peers;
use nadmm_cluster::{Cluster, CommStats, Communicator, Compression, Contribution, NetworkModel, StragglerModel, TcpTransport};

/// One rank's outcome of the exercise workload.
type Outcome = (Vec<f64>, f64, CommStats);

/// A workload touching every collective: in-place, rooted, split-phase (with
/// overlap), and a round in which rank 1 plays dead — through tombstones, or
/// through the explicit zeros they stand for.
fn exercise(comm: &mut dyn Communicator, tombstones: bool) -> Outcome {
    let rank = comm.rank() as f64;
    let mut buf: Vec<f64> = (0..257).map(|i| (i as f64 * 0.37).sin() + rank * 0.125).collect();
    comm.allreduce_sum_into(&mut buf);
    comm.advance_compute(1e-4 * (rank + 1.0));
    comm.barrier();
    let mut gathered = vec![0.0; 2 * comm.size()];
    comm.allgather_into(&[rank * 2.0, -rank], &mut gathered);
    buf.push(gathered[gathered.len() - 2]);
    let is_root = comm.reduce_sum_root_into(Contribution::Data(&mut buf));
    if is_root {
        for v in buf.iter_mut() {
            *v *= 0.5;
        }
    }
    comm.broadcast_root_into(&mut buf);
    let h = comm.start_allreduce_sum_max(Contribution::Data(&[rank, 1.0, -rank, 2.0]), 2);
    comm.advance_compute(5e-5);
    let mut inst = [0.0; 4];
    comm.wait_into(h, &mut inst);
    buf.extend_from_slice(&inst);
    let dead = comm.rank() == 1;
    let mut z = if dead { [0.0; 3] } else { [rank; 3] };
    comm.reduce_sum_root_into(if dead && tombstones {
        Contribution::Tombstone(3)
    } else {
        Contribution::Data(&mut z)
    });
    buf.push(z[0]);
    let loss = if dead { [0.0; 4] } else { [rank, 0.5, -rank, 1.0 / 3.0] };
    let h = comm.start_allreduce_sum_max(
        if dead && tombstones {
            Contribution::Tombstone(4)
        } else {
            Contribution::Data(&loss)
        },
        3,
    );
    comm.wait_into(h, &mut inst);
    buf.extend_from_slice(&inst);
    (buf, comm.elapsed(), comm.stats())
}

/// Runs the workload over real TCP sockets: every rank is a thread owning a
/// `TcpTransport` on a loopback full mesh.
fn run_tcp(cluster: &Cluster, tombstones: bool) -> Vec<Outcome> {
    let n = cluster.size();
    let peers = reserve_loopback_peers(n).expect("loopback ports");
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for rank in 0..n {
            let peers = peers.clone();
            let cluster = cluster.clone();
            handles.push(scope.spawn(move || {
                let transport = TcpTransport::connect(rank, &peers).expect("tcp bootstrap");
                let mut comm = cluster.connect(Box::new(transport));
                exercise(&mut comm, tombstones)
            }));
        }
        handles.into_iter().map(|h| h.join().expect("tcp rank panicked")).collect()
    })
}

fn assert_bit_identical(thread: &[Outcome], tcp: &[Outcome]) {
    assert_eq!(thread.len(), tcp.len());
    for (rank, ((a_buf, a_t, a_s), (b_buf, b_t, b_s))) in thread.iter().zip(tcp).enumerate() {
        assert_eq!(a_buf.len(), b_buf.len(), "rank {rank} result length deviated");
        for (i, (x, y)) in a_buf.iter().zip(b_buf).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "rank {rank} element {i} deviated across transports: {x} vs {y}"
            );
        }
        assert_eq!(a_t.to_bits(), b_t.to_bits(), "rank {rank} clock deviated");
        assert_eq!(a_s, b_s, "rank {rank} stats deviated");
    }
}

#[test]
fn tcp_backend_is_bit_identical_to_the_thread_backend() {
    let cluster = Cluster::new(4, NetworkModel::infiniband_100g());
    let thread = cluster.run(|comm| exercise(comm, true));
    let tcp = run_tcp(&cluster, true);
    assert_bit_identical(&thread, &tcp);
    // And on the real wire a tombstone is the zeros it stands for.
    assert_bit_identical(&tcp, &run_tcp(&cluster, false));
}

#[test]
fn tcp_backend_matches_under_compression_and_stragglers() {
    let cluster = Cluster::new(3, NetworkModel::ethernet_10g())
        .with_compression(Compression::F16)
        .with_straggler(&StragglerModel::jitter(0.5, 42).with_slow_rank(2, 2.0));
    let thread = cluster.run(|comm| exercise(comm, true));
    let tcp = run_tcp(&cluster, true);
    assert_bit_identical(&thread, &tcp);
    // And on the real wire a tombstone is the zeros it stands for.
    assert_bit_identical(&tcp, &run_tcp(&cluster, false));
}

#[test]
fn tcp_stats_gather_matches_the_thread_collection() {
    let cluster = Cluster::new(3, NetworkModel::infiniband_100g());
    let thread_stats: Vec<CommStats> = cluster.run(|comm| {
        exercise(comm, true);
        comm.stats()
    });
    let peers = reserve_loopback_peers(3).expect("loopback ports");
    let gathered = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for rank in 0..3 {
            let peers = peers.clone();
            let cluster = cluster.clone();
            handles.push(scope.spawn(move || {
                let transport = TcpTransport::connect(rank, &peers).expect("tcp bootstrap");
                let mut comm = cluster.connect(Box::new(transport));
                exercise(&mut comm, true);
                comm.gather_comm_stats()
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("tcp rank panicked"))
            .collect::<Vec<_>>()
    });
    assert_eq!(gathered[0].as_ref().expect("root gathers"), &thread_stats);
    assert!(gathered[1].is_none() && gathered[2].is_none());
}
