//! Multi-session protocol engine: eight hospitals' clustering requests
//! multiplexed over one simulated WAN with chunked streaming.
//!
//! ```text
//! cargo run --release --example multi_session_engine
//! ```
//!
//! Demonstrates the transport-abstracted stack end to end:
//!
//! * one [`SimulatedWan`] (10 Mbit/s, 50 ms, 1% loss) wrapping the
//!   in-memory [`Network`] carries **all** sessions' traffic;
//! * every session streams its pairwise blocks in 4-row chunks, so no
//!   party ever buffers more than 4 rows of any cross-site block;
//! * the engine, one shard of a [`ShardedEngine`], schedules sessions
//!   round-robin, and each published result is identical to what the
//!   in-memory reference driver computes.

use ppclust::cluster::Linkage;
use ppclust::core::protocol::driver::{ClusteringRequest, ThirdPartyDriver};
use ppclust::core::protocol::engine::SessionSpec;
use ppclust::core::protocol::party::TrustedSetup;
use ppclust::core::protocol::sharded::ShardedEngine;
use ppclust::core::protocol::ProtocolConfig;
use ppclust::crypto::Seed;
use ppclust::data::Workload;
use ppclust::net::{Network, SimulatedWan, WanProfile};

const SESSIONS: usize = 8;
const CHUNK_ROWS: usize = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Eight independent clustering requests (different synthetic cohorts),
    // all between the same three hospitals and one third party.
    let mut specs = Vec::new();
    for i in 0..SESSIONS {
        let workload = Workload::bird_flu(24, 3, 3, 1000 + i as u64)?;
        let schema = workload.schema().clone();
        let setup =
            TrustedSetup::deterministic(workload.partitions.clone(), &Seed::from_u64(i as u64))?;
        specs.push(SessionSpec {
            schema: schema.clone(),
            config: ProtocolConfig::default(),
            holders: setup.holders,
            keys: setup.third_party,
            request: ClusteringRequest {
                weights: schema.uniform_weights(),
                linkage: Linkage::Average,
                num_clusters: 3,
            },
            chunk_rows: Some(CHUNK_ROWS),
        });
    }

    // One lossy WAN carries everything; losses cost retransmissions on the
    // virtual clock but never reorder or drop protocol state.
    let profile = WanProfile::lossy_dsl();
    let wan = SimulatedWan::new(Network::with_parties(3), profile, 42)?;
    let mut engine = ShardedEngine::new(vec![wan])?;
    for spec in &specs {
        engine.add_session(spec.clone());
    }

    let started = std::time::Instant::now();
    let outcomes = engine.run()?.outcomes;
    let elapsed = started.elapsed();

    println!("=== {SESSIONS} concurrent sessions over one simulated WAN ===\n");
    for (i, (outcome, spec)) in outcomes.iter().zip(&specs).enumerate() {
        // Verify against the in-memory reference driver.
        let driver = ThirdPartyDriver::new(spec.schema.clone(), spec.config);
        let reference = driver.construct(&spec.holders, &spec.keys)?;
        let (expected, _) = driver.cluster(&reference, &spec.request)?;
        let matches = expected.clusters == outcome.result.clusters;
        println!(
            "session {i}: {} clusters, {} rounds, {} msgs, peak {} buffered rows, \
             matches driver: {matches}",
            outcome.result.num_clusters(),
            outcome.stats.rounds,
            outcome.stats.messages_sent,
            outcome.stats.peak_buffered_rows,
        );
        assert!(matches, "engine result diverged from the reference driver");
        assert!(outcome.stats.peak_buffered_rows <= CHUNK_ROWS);
    }

    let wan_stats = engine.transports()[0].stats();
    println!(
        "\nWAN: {} messages, {} retransmitted, {:.1} KiB on wire, {:.2} virtual seconds \
         ({} kbit/s, {} ms latency, {:.0}% loss)",
        wan_stats.messages,
        wan_stats.retransmissions(),
        wan_stats.bytes_on_wire as f64 / 1024.0,
        wan_stats.virtual_seconds,
        (profile.bandwidth_bytes_per_sec * 8.0 / 1000.0) as u64,
        (profile.latency_sec * 1000.0) as u64,
        profile.loss_probability * 100.0,
    );
    println!("wall clock: {elapsed:?} (simulation only — the WAN clock above is virtual)");
    Ok(())
}
