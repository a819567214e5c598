//! The scenario × chaos matrix, CI slice: seeded realistic scenarios run
//! against the in-process oracle (`Scenario::oracle`) under every taxonomy
//! cell — completed runs must be **byte-identical** (f64-bit exact) to
//! the oracle, faulted runs must classify into exactly the expected
//! bucket ([`ppc_scenario::chaos::RunOutcome`]), so a settled run can
//! never silently pass as completed.
//!
//! The flagship cell (8 sites, 10⁴ objects, mixed schema, lossy WAN +
//! mid-run link kill) is `#[ignore]`d here and run in release mode by the
//! CI `scenario-matrix` job — a debug build pays ~30× on the O(n²)
//! masking kernels.

use std::sync::Arc;
use std::time::Duration;

use ppc_scenario::chaos::{
    self, classify_engine_result, classify_party_result, Expectation, FailureReason, Fault,
    NetworkProfile, RunOutcome,
};
use ppc_scenario::digest::fingerprint_outcomes;
use ppc_scenario::factory::{Scenario, ScenarioSpec};
use ppclust::core::protocol::engine::EngineOutcome;
use ppclust::core::protocol::party_engine::{PartyEngine, PartySeat};
use ppclust::core::protocol::sharded::ShardedEngine;
use ppclust::net::control::{ControlAuth, SessionReady};
use ppclust::net::{
    Backoff, ChannelKeyring, Envelope, Network, PartyId, SimulatedWan, TcpAcceptor, TcpRouter,
    TcpTransport, Transport, WaitTransport, WanProfile, TOPIC_READY,
};

const SEED: u64 = 0x5EED_0008;

fn ci_scenario() -> Scenario {
    ScenarioSpec::ci(SEED).generate().expect("CI scenario")
}

/// Runs every scenario session through a 1-shard `ShardedEngine` over the
/// given transport and classifies the result.
fn run_sharded<T: WaitTransport + Sync>(scenario: &Scenario, transport: T) -> RunOutcome {
    let mut engine = ShardedEngine::new(vec![transport]).unwrap();
    for spec in scenario.session_specs().unwrap() {
        engine.add_session(spec);
    }
    engine.set_stall_budget(Duration::from_millis(100), 300);
    classify_engine_result(engine.run().map(|run| run.outcomes))
}

/// Baseline column: under ideal, WAN and lossy-DSL profiles the engine
/// must complete byte-identical to the oracle. The cells come from
/// `chaos::ci_slice()` so the expectations asserted here are the same
/// machine-readable ones the docs and bench rows reference.
#[test]
fn baseline_cells_complete_identical_to_the_oracle() {
    let scenario = ci_scenario();
    let oracle_fp = fingerprint_outcomes(&scenario.oracle().unwrap());

    for cell in chaos::ci_slice() {
        if cell.fault != Fault::None {
            continue;
        }
        let sites = scenario.spec.sites;
        let outcome = match cell.profile {
            NetworkProfile::Ideal => run_sharded(&scenario, Network::with_parties(sites)),
            NetworkProfile::Wan => run_sharded(
                &scenario,
                SimulatedWan::new(Network::with_parties(sites), WanProfile::wan(), 11).unwrap(),
            ),
            NetworkProfile::LossyDsl => run_sharded(
                &scenario,
                SimulatedWan::new(Network::with_parties(sites), WanProfile::lossy_dsl(), 13)
                    .unwrap(),
            ),
        };
        cell.expect
            .check(&outcome, Some(oracle_fp))
            .unwrap_or_else(|e| panic!("cell {}: {e}", cell.name));
    }
}

/// Kill → resume → identical: mid-run `sever_links` tears down every OS
/// stream of the engine's router link (twice); re-dial + replay must
/// recover losslessly and the published results must stay byte-identical
/// to the uninterrupted oracle — under both an ideal and a lossy profile.
#[test]
fn sever_resume_cells_complete_identical_to_the_oracle() {
    let scenario = ci_scenario();
    let oracle_fp = fingerprint_outcomes(&scenario.oracle().unwrap());

    for cell in chaos::ci_slice() {
        if cell.fault != Fault::SeverResume {
            continue;
        }
        let (mut router, addr) = TcpRouter::spawn("127.0.0.1:0").unwrap();
        let transport = TcpTransport::new(scenario.parties());
        transport.connect(addr, &Backoff::default()).unwrap();
        let transport = Arc::new(transport);

        let chaos_handle = Arc::clone(&transport);
        let saboteur = std::thread::spawn(move || {
            for _ in 0..2 {
                std::thread::sleep(Duration::from_millis(40));
                chaos_handle.sever_links();
            }
        });

        let outcome = match cell.profile {
            NetworkProfile::LossyDsl => run_sharded(
                &scenario,
                SimulatedWan::new(Arc::clone(&transport), WanProfile::lossy_dsl(), 17).unwrap(),
            ),
            _ => run_sharded(&scenario, Arc::clone(&transport)),
        };
        saboteur.join().unwrap();
        router.shutdown();
        cell.expect
            .check(&outcome, Some(oracle_fp))
            .unwrap_or_else(|e| panic!("cell {}: {e}", cell.name));
    }
}

/// Dead peer on a direct link: the third party announces readiness, then
/// dies for good. With a bounded reconnect policy the coordinator's sends
/// fail and every session settles `PeerUnreachable` — classified, never a
/// bare stall or a hang.
#[test]
fn dead_peer_cell_settles_peer_unreachable() {
    let scenario = ci_scenario();
    let cell = chaos::ci_slice()
        .into_iter()
        .find(|c| c.fault == Fault::DeadPeer)
        .unwrap();
    let master = scenario.master;

    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap();
    let tp_side = TcpTransport::new([PartyId::ThirdParty]);

    let holders: Vec<PartyId> = (0..scenario.spec.sites).map(PartyId::DataHolder).collect();
    let mut transport = TcpTransport::new(holders.iter().copied());
    transport.set_reconnect_policy(Backoff {
        initial: Duration::from_millis(1),
        max_delay: Duration::from_millis(2),
        max_attempts: 2,
    });
    let dial = std::thread::spawn(move || {
        transport.connect(addr, &Backoff::default()).unwrap();
        transport
    });
    acceptor.accept_into(&tp_side).unwrap();
    let transport = dial.join().unwrap();

    // The third party reports readiness, then is gone for good.
    let body = SessionReady {
        party: PartyId::ThirdParty,
        rows: 0,
    }
    .encode();
    tp_side
        .send(Envelope::new(
            PartyId::ThirdParty,
            PartyId::DataHolder(0),
            TOPIC_READY,
            ControlAuth::from_master(&master).seal(
                TOPIC_READY,
                PartyId::ThirdParty,
                PartyId::DataHolder(0),
                &body,
            ),
        ))
        .unwrap();
    tp_side.flush().unwrap();
    tp_side.shutdown();
    drop(tp_side);
    drop(acceptor);

    let seats: Vec<PartySeat> = scenario
        .partitions
        .iter()
        .map(|partition| PartySeat::Holder {
            partition: partition.clone(),
            master,
        })
        .collect();
    let mut engine = PartyEngine::new(transport, seats).unwrap();
    engine.set_stall_budget(Duration::from_millis(20), 50);
    let outcome = classify_party_result(engine.coordinate(
        scenario.schema.clone(),
        [PartyId::ThirdParty],
        scenario.plans.clone(),
    ));
    cell.expect
        .check(&outcome, None)
        .unwrap_or_else(|e| panic!("cell {}: {e}", cell.name));
    match outcome {
        RunOutcome::Settled {
            reason: FailureReason::PeerUnreachable,
            ..
        } => {}
        other => panic!("expected PeerUnreachable settle, got {other:?}"),
    }
}

/// A peer killed behind a router never surfaces as a send failure (the
/// router keeps buffering), so the coordinator must hit its *readiness*
/// budget instead — classified as a stall, bounded by the configurable
/// budget rather than a CI-killing hang.
#[test]
fn kill_behind_router_cell_classifies_as_a_stall() {
    let scenario = ci_scenario();
    let cell = chaos::ci_slice()
        .into_iter()
        .find(|c| c.fault == Fault::KillBehindRouter)
        .unwrap();

    let (mut router, addr) = TcpRouter::spawn("127.0.0.1:0").unwrap();
    let holders: Vec<PartyId> = (0..scenario.spec.sites).map(PartyId::DataHolder).collect();
    let transport = TcpTransport::new(holders.iter().copied());
    transport.connect(addr, &Backoff::default()).unwrap();

    let seats: Vec<PartySeat> = scenario
        .partitions
        .iter()
        .map(|partition| PartySeat::Holder {
            partition: partition.clone(),
            master: scenario.master,
        })
        .collect();
    let mut engine = PartyEngine::new(transport, seats).unwrap();
    engine.set_stall_budget(Duration::from_millis(50), 200);
    // The third party was killed before it ever reported ready: bound the
    // readiness gather tightly so the run settles in milliseconds.
    engine.set_readiness_budget(Duration::from_millis(10), 5);
    let outcome = classify_party_result(engine.coordinate(
        scenario.schema.clone(),
        [PartyId::ThirdParty],
        scenario.plans.clone(),
    ));
    router.shutdown();
    cell.expect
        .check(&outcome, None)
        .unwrap_or_else(|e| panic!("cell {}: {e}", cell.name));
}

/// Handshake-level security mismatch: a plaintext dialler against a
/// sealed endpoint is rejected before any protocol traffic — classified
/// `AuthRejected`, the "no silent downgrade" bucket.
#[test]
fn security_mismatch_cell_is_rejected_at_the_handshake() {
    let scenario = ci_scenario();
    let cell = chaos::ci_slice()
        .into_iter()
        .find(|c| c.fault == Fault::SecurityMismatch)
        .unwrap();

    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap();
    let mut sealed = TcpTransport::new([PartyId::ThirdParty]);
    sealed.set_security(ChannelKeyring::from_master(&scenario.master));

    let dial = std::thread::spawn(move || {
        let plaintext = TcpTransport::new([PartyId::DataHolder(0)]);
        plaintext.connect(addr, &Backoff::none()).unwrap_err()
    });
    let _ = acceptor.accept_into(&sealed);
    let dial_err = dial.join().unwrap();
    sealed.shutdown();

    let outcome = classify_engine_result(Err::<Vec<EngineOutcome>, _>(dial_err));
    cell.expect
        .check(&outcome, None)
        .unwrap_or_else(|e| panic!("cell {}: {e}", cell.name));
}

/// The flagship acceptance cell (release-only; run by CI as
/// `cargo test --release --test scenario_matrix -- --ignored`):
/// 8 sites, 10⁴ objects, mixed schema, zipf row skew — run over loopback
/// TCP through a router under a lossy WAN profile with a mid-run link
/// kill, and compared f64-bit-exact against the uninterrupted in-process
/// oracle via digests (one resident condensed matrix at a time, not two).
#[test]
#[ignore = "release-mode flagship: ~10^8 masked comparisons, run via CI scenario-matrix job"]
fn flagship_scenario_survives_loss_and_mid_run_kill_byte_identical() {
    let scenario = ScenarioSpec::flagship(SEED).generate().expect("flagship");
    assert!(scenario.spec.sites >= 8);
    assert!(scenario.spec.objects >= 10_000);
    assert_eq!(scenario.schema.len(), 3, "mixed numeric/cat/alnum schema");

    let oracle_fp = fingerprint_outcomes(&scenario.oracle().unwrap());

    let (mut router, addr) = TcpRouter::spawn("127.0.0.1:0").unwrap();
    let transport = TcpTransport::new(scenario.parties());
    transport.connect(addr, &Backoff::default()).unwrap();
    let transport = Arc::new(transport);

    let chaos_handle = Arc::clone(&transport);
    let saboteur = std::thread::spawn(move || {
        // Two kills while the masked-comparison phase is in full flight.
        for wait_ms in [400u64, 1_500] {
            std::thread::sleep(Duration::from_millis(wait_ms));
            chaos_handle.sever_links();
        }
    });

    let wan = SimulatedWan::new(Arc::clone(&transport), WanProfile::lossy_dsl(), 19).unwrap();
    let mut engine = ShardedEngine::new(vec![wan]).unwrap();
    for spec in scenario.session_specs().unwrap() {
        engine.add_session(spec);
    }
    // Generous budget: the flagship compute phase between envelopes is
    // long on a single core.
    engine.set_stall_budget(Duration::from_millis(200), 3_000);
    let outcome = classify_engine_result(engine.run().map(|run| run.outcomes));
    saboteur.join().unwrap();
    router.shutdown();

    Expectation::CompletedIdenticalToOracle
        .check(&outcome, Some(oracle_fp))
        .unwrap_or_else(|e| panic!("flagship cell: {e}"));
}
