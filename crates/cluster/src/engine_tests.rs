//! Unit tests of the collective engine and the cluster builder, driven
//! through [`Cluster::run`] on the in-process fabric.

mod tests {
    use crate::comm::{Communicator, Contribution, ROOT_RANK};
    use crate::network::{CollectiveAlgorithm, CollectiveKind, CollectiveSelector, Compression, NetworkModel};
    use crate::stats::CommStats;
    use crate::straggler::StragglerModel;
    use crate::transport::thread::ThreadFabric;
    use crate::Cluster;

    fn cluster(n: usize) -> Cluster {
        Cluster::new(n, NetworkModel::infiniband_100g())
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        for n in [1, 2, 3, 4, 8] {
            let results = cluster(n).run(|comm| {
                let data = [comm.rank() as f64, 1.0, 1.0 / (comm.rank() as f64 + 3.0)];
                let mut buf = data;
                comm.allreduce_sum_into(&mut buf);
                // The split-phase allreduce with every element in the sum
                // section is the same collective, bit for bit.
                let h = comm.start_allreduce_sum_max(Contribution::Data(&data), data.len());
                let mut split = [0.0; 3];
                comm.wait_into(h, &mut split);
                (buf, split)
            });
            let expected_first: f64 = (0..n).map(|r| r as f64).sum();
            for (buf, split) in &results {
                assert_eq!(buf[0], expected_first);
                assert_eq!(buf[1], n as f64);
                assert_eq!(buf.map(f64::to_bits), split.map(f64::to_bits));
            }
        }
    }

    #[test]
    fn in_place_allreduce_max() {
        let results = cluster(3).run(|comm| {
            let data = [comm.rank() as f64, -(comm.rank() as f64)];
            let mut buf = data;
            comm.allreduce_max_into(&mut buf);
            // An empty sum section makes the split-phase allreduce a plain max.
            let h = comm.start_allreduce_sum_max(Contribution::Data(&data), 0);
            let mut split = [0.0; 2];
            comm.wait_into(h, &mut split);
            (buf, split)
        });
        for (buf, split) in results {
            assert_eq!(buf, [2.0, 0.0]);
            assert_eq!(buf.map(f64::to_bits), split.map(f64::to_bits));
        }
    }

    #[test]
    fn gather_and_reduce_only_land_on_root() {
        let results = cluster(3).run(|comm| {
            let mut buf = [1.0];
            let is_root = comm.reduce_sum_root_into(Contribution::Data(&mut buf));
            (is_root, buf)
        });
        for (rank, (is_root, buf)) in results.into_iter().enumerate() {
            assert_eq!(is_root, rank == ROOT_RANK);
            if is_root {
                assert_eq!(buf, [3.0]);
            }
        }
    }

    #[test]
    fn in_place_reduce_and_broadcast_round_trip() {
        let results = cluster(4).run(|comm| {
            let mut buf = [comm.rank() as f64 + 1.0, 1.0];
            let is_root = comm.reduce_sum_root_into(Contribution::Data(&mut buf));
            if is_root {
                buf[0] *= 10.0; // transform on the root, as the z-update does
                buf[1] *= 10.0;
            }
            comm.broadcast_root_into(&mut buf);
            (is_root, buf)
        });
        for (rank, (is_root, buf)) in results.into_iter().enumerate() {
            assert_eq!(is_root, rank == ROOT_RANK);
            assert_eq!(buf, [100.0, 40.0]);
        }
    }

    #[test]
    fn broadcast_delivers_root_payload_everywhere() {
        let results = cluster(4).run(|comm| {
            let mut buf = if comm.is_root() { [7.0, 8.0] } else { [f64::NAN; 2] };
            comm.broadcast_root_into(&mut buf);
            buf
        });
        for r in results {
            assert_eq!(r, [7.0, 8.0]);
        }
    }

    #[test]
    fn scalar_reductions() {
        let results = cluster(4).run(|comm| {
            let s = comm.allreduce_scalar_sum(comm.rank() as f64);
            let m = comm.allreduce_scalar_max(comm.rank() as f64);
            (s, m)
        });
        for (s, m) in results {
            assert_eq!(s, 6.0);
            assert_eq!(m, 3.0);
        }
    }

    #[test]
    fn clocks_synchronise_at_collectives() {
        // Rank 1 does heavy local compute before the barrier; everyone's
        // clock must advance to at least that time afterwards.
        let results = cluster(3).run(|comm| {
            if comm.rank() == 1 {
                comm.advance_compute(5.0);
            }
            comm.barrier();
            comm.elapsed()
        });
        for t in results {
            assert!(t >= 5.0, "clock {t} did not wait for the straggler");
        }
    }

    #[test]
    fn communication_is_charged_against_the_network_model() {
        let fast = Cluster::new(4, NetworkModel::infiniband_100g())
            .run(|comm| {
                comm.allreduce_sum_into(&mut vec![1.0; 10_000]);
                comm.elapsed()
            })
            .into_iter()
            .fold(0.0f64, f64::max);
        let slow = Cluster::new(4, NetworkModel::ethernet_1g())
            .run(|comm| {
                comm.allreduce_sum_into(&mut vec![1.0; 10_000]);
                comm.elapsed()
            })
            .into_iter()
            .fold(0.0f64, f64::max);
        assert!(
            slow > fast,
            "1 Gbps ethernet ({slow}s) should be slower than infiniband ({fast}s)"
        );
    }

    #[test]
    fn forced_algorithms_are_bit_identical_and_cost_differently() {
        let payload: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut outcomes = Vec::new();
        for algo in CollectiveAlgorithm::ALL {
            let results = Cluster::new(5, NetworkModel::ethernet_10g())
                .with_collectives(CollectiveSelector::Force(algo))
                .run(|comm| {
                    let mut buf = payload.clone();
                    for v in buf.iter_mut() {
                        *v += comm.rank() as f64;
                    }
                    comm.allreduce_sum_into(&mut buf);
                    (buf, comm.elapsed())
                });
            outcomes.push(results);
        }
        let reference = &outcomes[0][0].0;
        for (i, results) in outcomes.iter().enumerate() {
            for (buf, _) in results {
                assert_eq!(buf, reference, "algorithm {i} deviated bit-wise");
            }
        }
        // Tree and ring charge different costs for this payload.
        let tree_t = outcomes[CollectiveAlgorithm::BinomialTree.index()][0].1;
        let ring_t = outcomes[CollectiveAlgorithm::Ring.index()][0].1;
        assert_ne!(tree_t, ring_t, "forced algorithms must charge their own cost model");
    }

    #[test]
    fn split_phase_allreduce_overlaps_compute() {
        // A large allreduce started before heavy local compute should be
        // fully hidden: elapsed == compute time, and the recorded comm time
        // for it is (close to) zero.
        let results = cluster(4).run(|comm| {
            let data = vec![1.0; 100_000];
            let handle = comm.start_allreduce_sum_max(Contribution::Data(&data), data.len());
            comm.advance_compute(1.0); // far longer than the collective
            let mut out = vec![0.0; 100_000];
            comm.wait_into(handle, &mut out);
            (out[0], comm.elapsed(), comm.stats().kind(CollectiveKind::Allreduce).seconds)
        });
        for (v, elapsed, ar_secs) in results {
            assert_eq!(v, 4.0);
            assert!(
                (elapsed - 1.0).abs() < 1e-9,
                "overlapped collective should be free: elapsed {elapsed}"
            );
            assert!(ar_secs < 1e-9, "overlapped allreduce billed {ar_secs}s");
        }
    }

    #[test]
    fn split_phase_allreduce_bills_the_tail_without_overlap() {
        let results = cluster(4).run(|comm| {
            let data = vec![1.0; 100_000];
            let handle = comm.start_allreduce_sum_max(Contribution::Data(&data), data.len());
            let mut out = vec![0.0; 100_000];
            comm.wait_into(handle, &mut out); // no compute in between
            comm.elapsed()
        });
        let expected = NetworkModel::infiniband_100g().allreduce(4, 100_000.0 * 8.0);
        for elapsed in results {
            assert!(
                (elapsed - expected).abs() < 1e-12,
                "un-overlapped split-phase must cost the full collective: {elapsed} vs {expected}"
            );
        }
    }

    #[test]
    fn fused_sum_max_allreduce_reduces_both_sections() {
        let results = cluster(3).run(|comm| {
            let r = comm.rank() as f64;
            let h = comm.start_allreduce_sum_max(Contribution::Data(&[r, 1.0, -r]), 2);
            let mut out = [0.0; 3];
            comm.wait_into(h, &mut out);
            out
        });
        for r in results {
            assert_eq!(r, [3.0, 3.0, 0.0], "sum over the first two, max over the rest");
        }
    }

    #[test]
    fn split_phase_handles_reuse_pooled_buffers() {
        let results = cluster(2).run(|comm| {
            let data = [1.0, 2.0, 3.0];
            let mut out = [0.0; 3];
            for _ in 0..5 {
                let h = comm.start_allreduce_sum_max(Contribution::Data(&data), data.len());
                comm.wait_into(h, &mut out);
            }
            comm.comm_pool_stats()
        });
        for stats in results {
            assert_eq!(stats.acquires, 5);
            assert_eq!(stats.pool_misses, 1, "only the first handle may allocate");
            assert_eq!(stats.outstanding, 0);
        }
    }

    #[test]
    fn stats_count_collectives_and_bytes() {
        let results = cluster(2).run(|comm| {
            comm.allreduce_sum_into(&mut [1.0, 2.0, 3.0]);
            comm.barrier();
            comm.stats()
        });
        for s in results {
            assert_eq!(s.collectives, 2);
            assert!(s.bytes_sent >= 24.0);
            assert!(s.comm_time > 0.0);
            assert_eq!(s.kind(CollectiveKind::Allreduce).count, 1);
            assert_eq!(s.kind(CollectiveKind::Barrier).count, 1);
            assert!(s.kind(CollectiveKind::Allreduce).dominant_algorithm().is_some());
        }
    }

    #[test]
    fn repeated_collectives_do_not_deadlock_or_mix_generations() {
        let results = cluster(4).run(|comm| {
            let mut acc = 0.0;
            for i in 0..50 {
                acc += comm.allreduce_scalar_sum(i as f64 + comm.rank() as f64);
            }
            acc
        });
        let expected: f64 = (0..50).map(|i| 4.0 * i as f64 + 6.0).sum();
        for r in results {
            assert_eq!(r, expected);
        }
    }

    #[test]
    #[should_panic]
    fn mismatched_payload_lengths_panic_loudly() {
        cluster(2).run(|comm| {
            if comm.rank() == 0 {
                comm.allreduce_sum_into(&mut [1.0, 2.0])
            } else {
                comm.allreduce_sum_into(&mut [1.0, 2.0, 3.0])
            }
        });
    }

    #[test]
    #[should_panic]
    fn mismatched_broadcast_buffer_panics_on_every_rank_instead_of_deadlocking() {
        // The length check happens at the *collect* phase (only the root's
        // payload length defines the round); the violating rank must poison
        // the rendezvous so the surviving ranks panic instead of blocking
        // forever in the next round.
        cluster(3).run(|comm| {
            let mut buf = if comm.rank() == 1 { vec![0.0; 2] } else { vec![1.0; 4] };
            comm.broadcast_root_into(&mut buf);
            comm.barrier(); // must never be reached by any rank
        });
    }

    #[test]
    #[should_panic]
    fn mismatched_collective_kinds_panic_loudly() {
        cluster(2).run(|comm| {
            if comm.rank() == 0 {
                comm.allreduce_sum_into(&mut [1.0]);
            } else {
                comm.barrier();
            }
        });
    }

    #[test]
    #[should_panic]
    fn zero_rank_cluster_is_rejected() {
        Cluster::new(0, NetworkModel::ideal());
    }

    #[test]
    fn a_designated_slow_rank_delays_every_rank() {
        let model = StragglerModel::none().with_slow_rank(1, 4.0);
        let results = cluster(3).with_straggler(&model).run(|comm| {
            comm.advance_compute(1.0);
            comm.barrier();
            (comm.straggler_scale(), comm.elapsed(), comm.stats())
        });
        assert_eq!(results[0].0, 1.0);
        assert_eq!(results[1].0, 4.0);
        for (rank, (_, elapsed, stats)) in results.iter().enumerate() {
            assert!(
                *elapsed >= 4.0,
                "rank {rank} finished at {elapsed}, before the 4× straggler arrived"
            );
            if rank == 1 {
                assert!(stats.idle_wait_time < 1e-9, "the slowest rank never waits");
            } else {
                assert!(
                    (stats.idle_wait_time - 3.0).abs() < 1e-9,
                    "rank {rank} should wait 3 s for the straggler, waited {}",
                    stats.idle_wait_time
                );
            }
            assert!(
                (stats.max_round_skew - 3.0).abs() < 1e-9,
                "round skew should be 3 s, got {}",
                stats.max_round_skew
            );
        }
    }

    #[test]
    fn zero_jitter_straggler_model_is_bit_identical_to_no_model() {
        let payload: Vec<f64> = (0..512).map(|i| (i as f64 * 0.61).cos()).collect();
        let run = |cluster: Cluster| {
            cluster.run(|comm| {
                let mut buf = payload.clone();
                for v in buf.iter_mut() {
                    *v *= comm.rank() as f64 + 0.5;
                }
                comm.advance_compute(1e-3 * (comm.rank() as f64 + 1.0));
                comm.allreduce_sum_into(&mut buf);
                (buf, comm.elapsed(), comm.stats())
            })
        };
        let plain = run(cluster(4));
        let modeled = run(cluster(4).with_straggler(&StragglerModel::none()));
        for ((a_buf, a_t, a_s), (b_buf, b_t, b_s)) in plain.iter().zip(&modeled) {
            assert_eq!(a_buf, b_buf);
            assert_eq!(a_t.to_bits(), b_t.to_bits());
            assert_eq!(a_s, b_s);
        }
    }

    #[test]
    fn jittered_fleets_are_reproducible_for_a_fixed_seed() {
        let model = StragglerModel::jitter(0.5, 1234).with_slow_rank(2, 2.0);
        let run = || {
            cluster(4).with_straggler(&model).run(|comm| {
                comm.advance_compute(0.25);
                comm.barrier();
                (comm.elapsed(), comm.stats())
            })
        };
        let a = run();
        let b = run();
        for ((at, astats), (bt, bstats)) in a.iter().zip(&b) {
            assert_eq!(at.to_bits(), bt.to_bits());
            assert_eq!(astats, bstats);
        }
        // And the fleet is genuinely uneven: someone waited.
        assert!(a.iter().any(|(_, s)| s.idle_wait_time > 0.0));
        assert!(a[0].1.max_round_skew > 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid straggler model")]
    fn out_of_range_slow_rank_is_rejected_at_construction() {
        cluster(2).with_straggler(&StragglerModel::none().with_slow_rank(5, 2.0));
    }

    #[test]
    fn explicit_none_compression_is_bit_identical_to_default() {
        let payload: Vec<f64> = (0..512).map(|i| (i as f64 * 0.43).sin()).collect();
        let run = |cluster: Cluster| {
            cluster.run(|comm| {
                let mut buf = payload.clone();
                for v in buf.iter_mut() {
                    *v += comm.rank() as f64 * 0.125;
                }
                comm.allreduce_sum_into(&mut buf);
                comm.broadcast_root_into(&mut buf);
                (buf, comm.elapsed(), comm.stats())
            })
        };
        let default = run(cluster(4));
        let explicit = run(cluster(4).with_compression(Compression::None));
        for ((a_buf, a_t, a_s), (b_buf, b_t, b_s)) in default.iter().zip(&explicit) {
            assert_eq!(a_buf, b_buf);
            assert_eq!(a_t.to_bits(), b_t.to_bits());
            assert_eq!(a_s, b_s);
            // Without compression the wire carries the full logical volume.
            assert_eq!(a_s.bytes_sent, a_s.logical_bytes_sent);
            assert_eq!(a_s.bytes_received, a_s.logical_bytes_received);
            assert_eq!(a_s.wire_fraction(), 1.0);
        }
    }

    #[test]
    fn compressed_allreduce_quarters_wire_bytes_and_stays_within_f16_tolerance() {
        let len = 256usize;
        let payload: Vec<f64> = (0..len).map(|i| 2.0 + (i as f64 * 0.37).sin()).collect();
        let exact = cluster(4).run(|comm| {
            let mut buf = payload.clone();
            for v in buf.iter_mut() {
                *v *= comm.rank() as f64 + 1.0;
            }
            comm.allreduce_sum_into(&mut buf);
            buf
        });
        for compression in [Compression::F16, Compression::Bf16] {
            let rel = match compression {
                Compression::F16 => nadmm_linalg::half::F16_RELATIVE_ERROR,
                _ => nadmm_linalg::half::BF16_RELATIVE_ERROR,
            };
            let results = cluster(4).with_compression(compression).run(|comm| {
                let mut buf = payload.clone();
                for v in buf.iter_mut() {
                    *v *= comm.rank() as f64 + 1.0;
                }
                comm.allreduce_sum_into(&mut buf);
                (buf, comm.stats())
            });
            for (rank, (buf, stats)) in results.iter().enumerate() {
                for (i, (&got, &want)) in buf.iter().zip(&exact[0]).enumerate() {
                    // Each rank's contribution is quantized once before the
                    // full-width reduction, so the worst-case element error
                    // is the sum of the per-contribution rounding errors.
                    let bound: f64 = (1..=4).map(|r| (payload[i] * r as f64).abs() * rel).sum();
                    assert!(
                        (got - want).abs() <= bound,
                        "{} rank {rank} element {i}: {got} vs {want} (bound {bound})",
                        compression.name()
                    );
                }
                // 256 f64 elements: 2048 logical bytes, 512 on the wire —
                // a quarter, comfortably under the "at most half" criterion.
                assert_eq!(stats.logical_bytes_sent, len as f64 * 8.0);
                assert_eq!(stats.bytes_sent, len as f64 * 2.0);
                assert_eq!(stats.wire_fraction(), 0.25);
            }
        }
    }

    #[test]
    fn compressed_broadcast_leaves_every_rank_bit_identical_including_the_root() {
        // 0.1 is not representable in f16: the root's full-width buffer must
        // be overwritten with the wire-format values everyone else received.
        let results = cluster(3).with_compression(Compression::F16).run(|comm| {
            let mut buf = vec![0.1, 0.2, 0.3, 1.0 / 3.0];
            comm.broadcast_root_into(&mut buf);
            buf
        });
        let expected: Vec<f64> = [0.1, 0.2, 0.3, 1.0 / 3.0]
            .iter()
            .map(|&v| nadmm_linalg::half::round_f16(v))
            .collect();
        assert_ne!(expected[0].to_bits(), 0.1f64.to_bits(), "0.1 must actually quantize");
        for (rank, buf) in results.iter().enumerate() {
            for (got, want) in buf.iter().zip(&expected) {
                assert_eq!(got.to_bits(), want.to_bits(), "rank {rank} deviated from the wire payload");
            }
        }
    }

    #[test]
    fn compressed_collectives_cost_less_on_the_simulated_network() {
        let run = |compression| {
            Cluster::new(4, NetworkModel::ethernet_10g())
                .with_compression(compression)
                .run(|comm| {
                    let mut buf = vec![1.0; 100_000];
                    comm.allreduce_sum_into(&mut buf);
                    comm.elapsed()
                })[0]
        };
        let full = run(Compression::None);
        let half = run(Compression::F16);
        assert!(
            half < full * 0.5,
            "f16 wire payloads must cut the bandwidth-bound allreduce cost: {half} vs {full}"
        );
    }

    #[test]
    fn compressed_split_phase_bills_the_compressed_tail_and_stays_zero_alloc() {
        let results = cluster(4).with_compression(Compression::F16).run(|comm| {
            let data = vec![1.0; 100_000];
            let mut out = vec![0.0; 100_000];
            let mut elapsed_first = 0.0;
            for i in 0..5 {
                let h = comm.start_allreduce_sum_max(Contribution::Data(&data), data.len());
                comm.wait_into(h, &mut out);
                if i == 0 {
                    elapsed_first = comm.elapsed();
                }
            }
            (out[0], elapsed_first, comm.comm_pool_stats(), comm.stats())
        });
        let expected = NetworkModel::infiniband_100g().allreduce(4, 100_000.0 * 2.0);
        for (v, elapsed, pool, stats) in results {
            assert_eq!(v, 4.0, "1.0 is f16-exact, so the compressed sum is exact");
            assert!(
                (elapsed - expected).abs() < 1e-12,
                "split-phase tail must be billed at the wire size: {elapsed} vs {expected}"
            );
            // Each compressed split-phase op stages once and holds one
            // result buffer; only the very first acquire may allocate.
            assert_eq!(pool.acquires, 10);
            assert_eq!(pool.pool_misses, 1, "warm compressed collectives must not allocate");
            assert_eq!(pool.outstanding, 0);
            assert_eq!(stats.bytes_sent, 5.0 * 100_000.0 * 2.0);
            assert_eq!(stats.logical_bytes_sent, 5.0 * 100_000.0 * 8.0);
        }
    }

    #[test]
    fn tombstone_contributions_are_bit_identical_to_explicit_zeros() {
        // A dead rank used to deposit full zero-filled buffers; the tombstone
        // must leave every result, clock, and stats counter with the exact
        // same bits — on both collectives that accept one, with and without
        // wire compression, whichever rank (the root included) is dead.
        let run = |compression: Compression, dead_rank: usize, tombstones: bool| {
            cluster(3).with_compression(compression).run(move |comm| {
                let dead = comm.rank() == dead_rank;
                let mut buf = if dead {
                    [0.0; 3]
                } else {
                    [comm.rank() as f64 + 0.25, -0.5, 1.0 / 3.0]
                };
                let is_root = comm.reduce_sum_root_into(if dead && tombstones {
                    Contribution::Tombstone(3)
                } else {
                    Contribution::Data(&mut buf)
                });
                let data = if dead {
                    [0.0; 4]
                } else {
                    [comm.rank() as f64, 2.0, -1.0, 0.75]
                };
                let h = comm.start_allreduce_sum_max(
                    if dead && tombstones {
                        Contribution::Tombstone(4)
                    } else {
                        Contribution::Data(&data)
                    },
                    3,
                );
                let mut out = [0.0; 4];
                comm.wait_into(h, &mut out);
                // A dead root never reads the sum it discarded.
                let root_buf = if is_root && !dead { Some(buf.map(f64::to_bits)) } else { None };
                (root_buf, out.map(f64::to_bits), comm.elapsed().to_bits(), comm.stats())
            })
        };
        for compression in [Compression::None, Compression::F16] {
            for dead_rank in [1, ROOT_RANK] {
                let zeros = run(compression, dead_rank, false);
                let tombstoned = run(compression, dead_rank, true);
                assert_eq!(zeros, tombstoned, "{} with rank {dead_rank} dead", compression.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "rank 1 sent a tombstone for CopyRoot")]
    fn a_tombstone_for_a_collective_that_takes_none_is_a_protocol_violation() {
        // The API offers a tombstone only where the fold defines one, so the
        // hostile frame is hand-encoded on rank 1's raw endpoint.
        use crate::transport::wire::{encode_contribution, RoundOp};
        use crate::transport::Transport;
        let fabric = ThreadFabric::new(2);
        let mut frame = Vec::new();
        encode_contribution(&mut frame, 0, RoundOp::CopyRoot, true, 0.0, 2, &[]);
        fabric.endpoint(1).send(ROOT_RANK, &frame);
        let mut root = cluster(2).connect(Box::new(fabric.endpoint(ROOT_RANK)));
        root.broadcast_root_into(&mut [1.0, 2.0]);
    }

    #[test]
    fn gather_comm_stats_collects_every_rank_in_order() {
        let results = cluster(3).run(|comm| {
            comm.advance_compute(comm.rank() as f64 + 1.0);
            comm.barrier();
            let gathered = comm.gather_comm_stats();
            (comm.rank(), comm.stats(), gathered)
        });
        let all: Vec<CommStats> = results.iter().map(|(_, s, _)| *s).collect();
        for (rank, _, gathered) in &results {
            if *rank == ROOT_RANK {
                assert_eq!(gathered.as_ref().unwrap(), &all);
            } else {
                assert!(gathered.is_none(), "only the root collects the stats");
            }
        }
    }

    #[test]
    fn a_transport_outlives_the_engine_and_can_be_reconnected() {
        let fabric = ThreadFabric::new(1);
        let c = cluster(1);
        let mut comm = c.connect(Box::new(fabric.endpoint(0)));
        assert_eq!(comm.transport_backend(), "thread");
        comm.barrier();
        let transport = comm.into_transport();
        let mut comm = c.connect(transport);
        comm.barrier();
        assert_eq!(comm.rank(), 0);
        assert_eq!(comm.stats().collectives, 1, "a reconnected engine starts fresh");
    }
}
