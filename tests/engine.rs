//! Integration tests for the transport-abstracted protocol engine (a
//! one-shard `ShardedEngine`): golden-trace byte identity, engine/driver
//! result equality, concurrent multi-session scheduling with bounded
//! buffering, and alternative transports.

use ppclust::cluster::Linkage;
use ppclust::core::alphabet::Alphabet;
use ppclust::core::matrix::{DataMatrix, HorizontalPartition};
use ppclust::core::protocol::driver::{ClusteringRequest, ThirdPartyDriver};
use ppclust::core::protocol::engine::SessionSpec;
use ppclust::core::protocol::party::TrustedSetup;
use ppclust::core::protocol::session::ClusteringSession;
use ppclust::core::protocol::sharded::ShardedEngine;
use ppclust::core::protocol::{NumericMode, ProtocolConfig};
use ppclust::core::record::Record;
use ppclust::core::schema::{AttributeDescriptor, Schema};
use ppclust::core::value::AttributeValue;
use ppclust::crypto::Seed;
use ppclust::data::Workload;
use ppclust::net::{
    ChannelSecurity, Envelope, Network, PartyId, SimulatedWan, WanProfile, WireReader,
};

fn schema() -> Schema {
    Schema::new(vec![
        AttributeDescriptor::numeric("age"),
        AttributeDescriptor::categorical("blood"),
        AttributeDescriptor::alphanumeric("dna", Alphabet::dna()),
    ])
    .unwrap()
}

fn record(age: f64, blood: &str, dna: &str) -> Record {
    Record::new(vec![
        AttributeValue::numeric(age),
        AttributeValue::categorical(blood),
        AttributeValue::alphanumeric(dna),
    ])
}

/// The exact setup the golden trace fixture was captured with.
fn golden_setup() -> TrustedSetup {
    let rows_a = vec![record(30.0, "A", "acgt"), record(31.0, "A", "acga")];
    let rows_b = vec![record(65.0, "B", "ttcg"), record(29.5, "A", "acgt")];
    let rows_c = vec![record(66.0, "B", "ttgg")];
    let partitions = vec![
        HorizontalPartition::new(0, DataMatrix::with_rows(schema(), rows_a).unwrap()),
        HorizontalPartition::new(1, DataMatrix::with_rows(schema(), rows_b).unwrap()),
        HorizontalPartition::new(2, DataMatrix::with_rows(schema(), rows_c).unwrap()),
    ];
    TrustedSetup::deterministic(partitions, &Seed::from_u64(77)).unwrap()
}

fn all_plaintext_network(holders: u32) -> Network {
    let network = Network::with_parties(holders);
    let mut parties: Vec<PartyId> = (0..holders).map(PartyId::DataHolder).collect();
    parties.push(PartyId::ThirdParty);
    for (i, &a) in parties.iter().enumerate() {
        for &b in parties.iter().skip(i + 1) {
            network.set_channel_security(a, b, ChannelSecurity::Plaintext);
        }
    }
    network
}

fn decode_golden_fixture(bytes: &[u8]) -> Vec<Envelope> {
    let decode_party = |code: u32| -> PartyId {
        if code == u32::MAX {
            PartyId::ThirdParty
        } else {
            PartyId::DataHolder(code)
        }
    };
    let mut r = WireReader::new(bytes);
    let count = r.get_u32().unwrap() as usize;
    let mut envelopes = Vec::with_capacity(count);
    for _ in 0..count {
        let from = decode_party(r.get_u32().unwrap());
        let to = decode_party(r.get_u32().unwrap());
        let topic = r.get_str().unwrap();
        let payload = r.get_bytes().unwrap();
        envelopes.push(Envelope {
            from,
            to,
            topic,
            payload,
        });
    }
    r.expect_end().unwrap();
    envelopes
}

/// The refactored, state-machine-driven session must emit **byte-identical
/// envelopes in identical order** to the pre-refactor monolithic session,
/// whose trace was captured into the committed fixture before the refactor.
/// The fixture was re-captured once, for wire v5, when only its six
/// `alphanumeric/dna/*` envelopes changed.
///
/// The message layouts and topics this fixture pins down are specified
/// normatively in `docs/WIRE_FORMAT.md`. If this test fails because of a
/// *deliberate* wire change, re-capture the fixture, bump `WIRE_VERSION`
/// in `ppc-net::socket`, and update `docs/WIRE_FORMAT.md` in the same PR.
#[test]
fn session_trace_is_byte_identical_to_the_pre_refactor_fixture() {
    let fixture = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden_trace_seed77.bin"
    ))
    .expect("golden trace fixture present");
    let golden = decode_golden_fixture(&fixture);
    assert_eq!(golden.len(), 27, "fixture shape");

    let setup = golden_setup();
    let request = ClusteringRequest::uniform(&schema(), 2);
    let network = all_plaintext_network(3);
    let session = ClusteringSession::with_network(schema(), ProtocolConfig::default(), network);
    session
        .run(&setup.holders, &setup.third_party, &request)
        .unwrap();
    let trace = session.network().eavesdropped();

    assert_eq!(trace.len(), golden.len(), "envelope count");
    for (i, (observed, expected)) in trace.iter().zip(&golden).enumerate() {
        assert_eq!(
            observed, expected,
            "envelope #{i} diverged from the fixture"
        );
    }
}

/// A single-session engine over the default in-memory transport sends the
/// same envelopes as the sequential session — byte-identical payloads, and
/// topics identical once the engine's `s0/` session prefix is stripped
/// (the concurrent scheduler may interleave independent links
/// differently, so equality is as a multiset plus per-link order).
#[test]
fn single_session_engine_envelopes_match_the_oracle_session() {
    let setup = golden_setup();
    let request = ClusteringRequest::uniform(&schema(), 2);

    let session_network = all_plaintext_network(3);
    let session =
        ClusteringSession::with_network(schema(), ProtocolConfig::default(), session_network);
    let outcome = session
        .run(&setup.holders, &setup.third_party, &request)
        .unwrap();
    let mut session_trace = session.network().eavesdropped();

    let engine_network = all_plaintext_network(3);
    let mut engine = ShardedEngine::new(vec![engine_network.clone()]).unwrap();
    engine.add_session(SessionSpec {
        schema: schema(),
        config: ProtocolConfig::default(),
        holders: setup.holders.clone(),
        keys: setup.third_party.clone(),
        request: request.clone(),
        chunk_rows: None,
    });
    let engine_outcome = &engine.run().unwrap().outcomes[0];
    // Every engine topic carries session 0's prefix; strip exactly that.
    let mut engine_trace: Vec<Envelope> = engine_network
        .eavesdropped()
        .into_iter()
        .map(|mut envelope| {
            envelope.topic = envelope
                .topic
                .strip_prefix("s0/")
                .unwrap_or_else(|| panic!("engine topic '{}' lacks 's0/'", envelope.topic))
                .to_string();
            envelope
        })
        .collect();

    assert_eq!(outcome.result.clusters, engine_outcome.result.clusters);
    assert_eq!(session_trace.len(), engine_trace.len());
    // Per-stream order must agree exactly (a stream is one (from, to,
    // topic) triple; chunked transfers rely on this FIFO). The global
    // interleaving across independent streams may differ — the engine
    // schedules round-robin, the session sequentially.
    let key = |e: &Envelope| (e.from, e.to, e.topic.clone());
    let streams: std::collections::BTreeSet<_> = session_trace.iter().map(&key).collect();
    for stream in streams {
        let a: Vec<&Envelope> = session_trace.iter().filter(|e| key(e) == stream).collect();
        let b: Vec<&Envelope> = engine_trace.iter().filter(|e| key(e) == stream).collect();
        assert_eq!(a, b, "stream {stream:?} diverges");
    }
    // And globally the two traces carry exactly the same envelopes.
    let sort = |t: &mut Vec<Envelope>| {
        t.sort_by(|a, b| {
            (a.from, a.to, &a.topic, &a.payload).cmp(&(b.from, b.to, &b.topic, &b.payload))
        })
    };
    sort(&mut session_trace);
    sort(&mut engine_trace);
    assert_eq!(session_trace, engine_trace);
}

fn bird_flu_spec(seed: u64, chunk_rows: Option<usize>, mode: NumericMode) -> SessionSpec {
    let workload = Workload::bird_flu(18, 3, 3, seed).unwrap();
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

fn driver_reference(spec: &SessionSpec) -> ppclust::core::ClusteringResult {
    let driver = ThirdPartyDriver::new(spec.schema.clone(), spec.config);
    let output = driver.construct(&spec.holders, &spec.keys).unwrap();
    driver.cluster(&output, &spec.request).unwrap().0
}

/// Eight concurrent sessions over one transport, all chunked: every one
/// completes with the driver's exact result and per-session peak buffering
/// bounded by the configured window.
#[test]
fn eight_concurrent_chunked_sessions_complete_with_bounded_buffering() {
    const WINDOW: usize = 2;
    let mut engine = ShardedEngine::new(vec![Network::with_parties(3)]).unwrap();
    let specs: Vec<SessionSpec> = (0..8)
        .map(|i| bird_flu_spec(100 + i as u64, Some(WINDOW), NumericMode::Batch))
        .collect();
    for spec in &specs {
        engine.add_session(spec.clone());
    }
    let outcomes = engine.run().unwrap().outcomes;
    assert_eq!(outcomes.len(), 8);
    for (i, (outcome, spec)) in outcomes.iter().zip(&specs).enumerate() {
        let reference = driver_reference(spec);
        assert_eq!(outcome.result.clusters, reference.clusters, "session {i}");
        assert!(
            outcome.stats.peak_buffered_rows <= WINDOW,
            "session {i} buffered {} rows, window is {WINDOW}",
            outcome.stats.peak_buffered_rows
        );
    }
    // The same workload whole-matrix buffers more than the window.
    let mut whole = ShardedEngine::new(vec![Network::with_parties(3)]).unwrap();
    whole.add_session(bird_flu_spec(100, None, NumericMode::Batch));
    let whole_outcome = &whole.run().unwrap().outcomes[0];
    assert!(whole_outcome.stats.peak_buffered_rows > WINDOW);
    assert_eq!(
        whole_outcome.result.clusters, outcomes[0].result.clusters,
        "chunking must not change results"
    );
}

/// The hardened per-pair numeric mode streams its masked copies in windows
/// too: initiator, responder and third party all stay within the window.
#[test]
fn per_pair_mode_streams_masked_copies_within_the_window() {
    const WINDOW: usize = 1;
    let spec = bird_flu_spec(55, Some(WINDOW), NumericMode::PerPair);
    let reference = driver_reference(&spec);
    let mut engine = ShardedEngine::new(vec![Network::with_parties(3)]).unwrap();
    engine.add_session(spec);
    let outcome = &engine.run().unwrap().outcomes[0];
    assert_eq!(outcome.result.clusters, reference.clusters);
    assert_eq!(outcome.stats.peak_buffered_rows, WINDOW);
}

/// The engine runs unchanged over a simulated WAN wrapping the in-memory
/// network: delivery semantics identical, virtual costs accounted.
#[test]
fn engine_over_simulated_wan_accounts_costs_without_changing_results() {
    let spec = bird_flu_spec(7, Some(3), NumericMode::Batch);
    let reference = driver_reference(&spec);
    let profile = WanProfile {
        loss_probability: 0.10,
        ..WanProfile::lossy_dsl()
    };
    let wan = SimulatedWan::new(Network::with_parties(3), profile, 99).unwrap();
    let mut engine = ShardedEngine::new(vec![wan]).unwrap();
    engine.add_session(spec);
    let outcomes = engine.run().unwrap().outcomes;
    assert_eq!(outcomes[0].result.clusters, reference.clusters);
    let stats = engine.transports()[0].stats();
    assert!(stats.messages > 0);
    assert!(stats.virtual_seconds > 0.0);
    assert!(
        stats.retransmissions() > 0,
        "1% loss over {} messages should retransmit",
        stats.messages
    );
}
