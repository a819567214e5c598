//! End-to-end tests for the threaded, socket-backed engine tier: sessions
//! hash-sharded across worker threads must produce results identical to
//! the sequential oracle (each session alone on a one-shard engine over an
//! in-memory network) over every transport — in-memory, simulated WAN,
//! loopback TCP through a frame router, and (on Unix) a Unix-domain socket
//! router.

use std::time::Duration;

use ppc_scenario::digest::fingerprint_outcomes;
use ppclust::cluster::Linkage;
use ppclust::core::protocol::driver::ClusteringRequest;
use ppclust::core::protocol::engine::{EngineOutcome, SessionSpec};
use ppclust::core::protocol::party::TrustedSetup;
use ppclust::core::protocol::sharded::ShardedEngine;
use ppclust::core::protocol::{NumericMode, ProtocolConfig};
use ppclust::crypto::Seed;
use ppclust::data::Workload;
use ppclust::net::{
    Backoff, ChannelKeyring, Network, PartyId, SimulatedWan, TcpRouter, TcpTransport, WanProfile,
};

const HOLDERS: u32 = 3;

fn bird_flu_spec(seed: u64, chunk_rows: Option<usize>, mode: NumericMode) -> SessionSpec {
    let workload = Workload::bird_flu(15, HOLDERS, 3, seed).unwrap();
    let schema = workload.schema().clone();
    let setup =
        TrustedSetup::deterministic(workload.partitions.clone(), &Seed::from_u64(seed)).unwrap();
    SessionSpec {
        schema: schema.clone(),
        config: ProtocolConfig {
            numeric_mode: mode,
            ..ProtocolConfig::default()
        },
        holders: setup.holders,
        keys: setup.third_party,
        request: ClusteringRequest {
            weights: schema.uniform_weights(),
            linkage: Linkage::Average,
            num_clusters: 3,
        },
        chunk_rows,
    }
}

/// A mixed six-session workload: chunked and whole-matrix, batch and
/// per-pair numeric modes.
fn mixed_specs() -> Vec<SessionSpec> {
    vec![
        bird_flu_spec(201, Some(2), NumericMode::Batch),
        bird_flu_spec(202, None, NumericMode::Batch),
        bird_flu_spec(203, Some(1), NumericMode::PerPair),
        bird_flu_spec(204, Some(3), NumericMode::Batch),
        bird_flu_spec(205, None, NumericMode::PerPair),
        bird_flu_spec(206, Some(2), NumericMode::Batch),
    ]
}

/// The sequential oracle: every spec run alone on a one-shard engine over
/// a fresh in-memory network.
fn oracle_outcomes(specs: &[SessionSpec]) -> Vec<EngineOutcome> {
    specs
        .iter()
        .map(|spec| {
            let mut engine = ShardedEngine::new(vec![Network::with_parties(HOLDERS)]).unwrap();
            engine.add_session(spec.clone());
            engine.run().unwrap().outcomes.remove(0)
        })
        .collect()
}

fn assert_matches_oracle(outcomes: &[EngineOutcome], oracle: &[EngineOutcome]) {
    assert_eq!(outcomes.len(), oracle.len());
    for (i, (sharded, reference)) in outcomes.iter().zip(oracle).enumerate() {
        assert_eq!(
            sharded.result.clusters, reference.result.clusters,
            "session {i}: sharded clusters diverge from the sequential oracle"
        );
        assert!(
            sharded
                .final_matrix
                .matrix()
                .max_abs_difference(reference.final_matrix.matrix())
                < 1e-12,
            "session {i}: sharded dissimilarity matrix diverges"
        );
        assert_eq!(
            sharded.stats.peak_buffered_rows, reference.stats.peak_buffered_rows,
            "session {i}: chunk-window buffering differs"
        );
    }
}

#[test]
fn two_shards_over_in_memory_networks_match_the_sequential_oracle() {
    let specs = mixed_specs();
    let oracle = oracle_outcomes(&specs);
    let transports = vec![
        Network::with_parties(HOLDERS),
        Network::with_parties(HOLDERS),
    ];
    let mut engine = ShardedEngine::new(transports).unwrap();
    for spec in &specs {
        engine.add_session(spec.clone());
    }
    let run = engine.run().unwrap();
    assert_matches_oracle(&run.outcomes, &oracle);
    assert_eq!(run.shards.len(), 2);
    assert_eq!(run.shards[0].sessions, vec![0, 2, 4]);
    assert_eq!(run.shards[1].sessions, vec![1, 3, 5]);

    // The transports report what happened to the scheduler's parks: the
    // aggregate exists (Network tracks waits) and no transport counts
    // more wakeups than parks (a wakeup is a park that didn't time out).
    let waits = engine
        .transport_wait_stats()
        .expect("in-memory networks track wait stats");
    assert!(waits.wakeups <= waits.blocking_waits);
}

#[test]
fn four_shards_over_simulated_wans_match_the_sequential_oracle() {
    let specs = mixed_specs();
    let oracle = oracle_outcomes(&specs);
    let profile = WanProfile {
        loss_probability: 0.05,
        ..WanProfile::lossy_dsl()
    };
    let transports: Vec<SimulatedWan<Network>> = (0..4)
        .map(|i| SimulatedWan::new(Network::with_parties(HOLDERS), profile, 7 + i).unwrap())
        .collect();
    let mut engine = ShardedEngine::new(transports).unwrap();
    for spec in &specs {
        engine.add_session(spec.clone());
    }
    let run = engine.run().unwrap();
    assert_matches_oracle(&run.outcomes, &oracle);
    // The WAN wrapper accounted virtual costs on every shard that sent.
    for transport in engine.transports() {
        let stats = transport.stats();
        assert!(stats.messages > 0);
        assert!(stats.virtual_seconds > 0.0);
    }
}

/// The acceptance-criterion test: ≥ 4 concurrent sessions across ≥ 2
/// shards over **loopback TCP** — every envelope leaves the process
/// through the kernel's TCP stack, crosses the frame router (wire format
/// per `docs/WIRE_FORMAT.md`) and comes back — with results identical to
/// the in-memory oracle, bit for bit. It runs twice: over
/// plaintext links, and over sealed, coalescing links (the configuration
/// of `ppcbench`'s TCP workloads).
#[test]
fn sharded_sessions_over_loopback_tcp_match_the_single_threaded_engine() {
    let specs = mixed_specs();
    let oracle = oracle_outcomes(&specs);

    for sealed in [false, true] {
        let pass = if sealed { "sealed" } else { "plaintext" };
        let (mut router, addr) = TcpRouter::spawn("127.0.0.1:0").unwrap();
        let parties: Vec<PartyId> = (0..HOLDERS)
            .map(PartyId::DataHolder)
            .chain([PartyId::ThirdParty])
            .collect();
        let transports: Vec<TcpTransport> = (0..2)
            .map(|_| {
                let mut transport = TcpTransport::new(parties.iter().copied());
                if sealed {
                    transport.set_security(ChannelKeyring::from_master(&Seed::from_u64(99)));
                    transport.set_coalescing(true);
                }
                let announced = transport.connect(addr, &Backoff::default()).unwrap();
                assert!(announced.is_empty(), "the router announces no parties");
                transport
            })
            .collect();

        let mut engine = ShardedEngine::new(transports).unwrap();
        for spec in &specs {
            engine.add_session(spec.clone());
        }
        // Loopback frames round-trip through the kernel; give stalls a real
        // timeout budget rather than the in-memory default.
        engine.set_stall_budget(Duration::from_millis(100), 100);
        let run = engine.run().unwrap();

        assert_matches_oracle(&run.outcomes, &oracle);
        assert_eq!(
            fingerprint_outcomes(&run.outcomes),
            fingerprint_outcomes(&oracle),
            "{pass}: TCP run is not f64-bit identical to the oracle"
        );
        assert_eq!(run.shards.len(), 2);
        for stats in &run.shards {
            assert_eq!(stats.sessions.len(), 3);
            assert!(stats.messages_sent > 0);
        }
        if sealed {
            for transport in engine.transports() {
                let report = transport.sealing_report().expect("sealed transport");
                assert!(report.total().records_sealed > 0, "frames were sealed");
            }
        }
        assert_eq!(
            router.unroutable_frames(),
            0,
            "{pass}: every frame found its party"
        );
        assert_eq!(router.connection_count(), 2);

        for transport in engine.transports() {
            transport.shutdown();
        }
        router.shutdown();
    }
}

#[cfg(unix)]
#[test]
fn sharded_sessions_over_unix_domain_sockets_match_the_oracle() {
    use ppclust::net::{UdsRouter, UdsTransport};

    let specs = vec![
        bird_flu_spec(301, Some(2), NumericMode::Batch),
        bird_flu_spec(302, None, NumericMode::Batch),
        bird_flu_spec(303, Some(2), NumericMode::Batch),
        bird_flu_spec(304, Some(1), NumericMode::Batch),
    ];
    let oracle = oracle_outcomes(&specs);

    let dir = std::env::temp_dir().join(format!("ppc-sharded-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("engine.sock");
    let mut router = UdsRouter::spawn(&path).unwrap();

    let parties: Vec<PartyId> = (0..HOLDERS)
        .map(PartyId::DataHolder)
        .chain([PartyId::ThirdParty])
        .collect();
    let transports: Vec<UdsTransport> = (0..2)
        .map(|_| {
            let transport = UdsTransport::new(parties.iter().copied());
            transport.connect(&path, &Backoff::default()).unwrap();
            transport
        })
        .collect();

    let mut engine = ShardedEngine::new(transports).unwrap();
    for spec in &specs {
        engine.add_session(spec.clone());
    }
    engine.set_stall_budget(Duration::from_millis(100), 100);
    let run = engine.run().unwrap();
    assert_matches_oracle(&run.outcomes, &oracle);

    for transport in engine.transports() {
        transport.shutdown();
    }
    router.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// One shard is the degenerate case, and the in-process engine: four
/// sessions multiplexed on a single transport must agree with each
/// session run alone, and the one shard drives every session.
#[test]
fn one_shard_degenerates_to_the_multiplexing_engine() {
    let specs: Vec<SessionSpec> = (0..4)
        .map(|i| bird_flu_spec(400 + i, Some(2), NumericMode::Batch))
        .collect();
    let reference = oracle_outcomes(&specs);

    let mut engine = ShardedEngine::new(vec![Network::with_parties(HOLDERS)]).unwrap();
    for spec in &specs {
        engine.add_session(spec.clone());
    }
    let run = engine.run().unwrap();
    assert_matches_oracle(&run.outcomes, &reference);
    assert_eq!(run.shards.len(), 1);
    assert_eq!(run.shards[0].sessions, vec![0, 1, 2, 3]);
}

/// When a remote party dies for good mid-run, the sharded engine must
/// surface a `PeerUnreachable` error *naming the unreachable party* —
/// distinguishable from a generic protocol stall — once the socket layer's
/// reconnect backoff is exhausted.
#[test]
fn a_dead_peer_is_reported_as_unreachable_not_as_a_stall() {
    use ppclust::core::error::CoreError;
    use ppclust::net::{NetError, TcpAcceptor};

    // The shard registers every party locally (the sharded engine drives
    // whole sessions) but holds a direct TCP link to a peer announcing the
    // third party — announced routes win over local delivery, so all
    // TP-bound traffic crosses the link.
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap();
    let shard_parties: Vec<PartyId> = (0..HOLDERS)
        .map(PartyId::DataHolder)
        .chain([PartyId::ThirdParty])
        .collect();
    let mut shard = TcpTransport::new(shard_parties);
    shard.set_reconnect_policy(Backoff {
        initial: Duration::from_millis(1),
        max_delay: Duration::from_millis(2),
        max_attempts: 2,
    });
    let tp_side = TcpTransport::new([PartyId::ThirdParty]);
    let dial = std::thread::spawn(move || {
        shard.connect(addr, &Backoff::default()).unwrap();
        shard
    });
    acceptor.accept_into(&tp_side).unwrap();
    let shard = dial.join().unwrap();

    // The third party dies before the session starts and never comes back.
    tp_side.shutdown();
    drop(tp_side);
    drop(acceptor);

    let mut engine = ShardedEngine::new(vec![shard]).unwrap();
    engine.add_session(bird_flu_spec(500, Some(2), NumericMode::Batch));
    engine.set_stall_budget(Duration::from_millis(20), 20);
    match engine.run() {
        Err(CoreError::Net(NetError::PeerUnreachable { party, .. })) => {
            assert_eq!(party, PartyId::ThirdParty);
        }
        other => panic!("expected a PeerUnreachable error, got {other:?}"),
    }
    for transport in engine.transports() {
        transport.shutdown();
    }
}
