//! Threaded session sharding over loopback TCP: the quickstart for the
//! socket-backed engine tier.
//!
//! ```text
//! cargo run --release --example sharded_tcp
//! ```
//!
//! What happens:
//!
//! * a [`TcpRouter`] binds an ephemeral loopback port and routes frames
//!   between connections by the party each connection announced in its
//!   handshake (wire format: `docs/WIRE_FORMAT.md`);
//! * two shard transports dial it with [`Backoff`] (surviving the startup
//!   race where the router is not listening yet), each hosting all four
//!   parties — so the router reflects every frame back over the kernel's
//!   real TCP stack;
//! * a [`ShardedEngine`] hash-shards six clustering sessions across two
//!   worker threads; idle workers park in condvar-blocking receives until
//!   the socket reactor delivers the next frame;
//! * every published result is asserted identical to the in-memory
//!   reference driver — sharding and sockets change the plumbing, never
//!   the protocol.

use ppclust::cluster::Linkage;
use ppclust::core::protocol::driver::{ClusteringRequest, ThirdPartyDriver};
use ppclust::core::protocol::engine::SessionSpec;
use ppclust::core::protocol::party::TrustedSetup;
use ppclust::core::protocol::sharded::ShardedEngine;
use ppclust::core::protocol::ProtocolConfig;
use ppclust::crypto::Seed;
use ppclust::data::Workload;
use ppclust::net::{Backoff, PartyId, TcpRouter, TcpTransport};

const SESSIONS: usize = 6;
const SHARDS: usize = 2;
const HOLDERS: u32 = 3;
const CHUNK_ROWS: usize = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Six independent clustering requests between the same three
    // hospitals and one third party.
    let mut specs = Vec::new();
    for i in 0..SESSIONS {
        let workload = Workload::bird_flu(18, HOLDERS, 3, 2000 + i as u64)?;
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

    // The router is the only listener; binding port 0 picks a free port.
    let (mut router, addr) = TcpRouter::spawn("127.0.0.1:0")?;
    println!("frame router listening on {addr}");

    // One TCP connection per shard. Each announces every party, so the
    // router reflects the shard's own traffic back through the kernel.
    let parties: Vec<PartyId> = (0..HOLDERS)
        .map(PartyId::DataHolder)
        .chain([PartyId::ThirdParty])
        .collect();
    let mut transports = Vec::new();
    for shard in 0..SHARDS {
        let transport = TcpTransport::new(parties.iter().copied());
        transport.connect(addr, &Backoff::default())?;
        println!(
            "shard {shard} connected (hosting {} parties)",
            parties.len()
        );
        transports.push(transport);
    }

    let mut engine = ShardedEngine::new(transports)?;
    for spec in &specs {
        engine.add_session(spec.clone());
    }
    engine.set_stall_budget(std::time::Duration::from_millis(100), 100);

    let started = std::time::Instant::now();
    let run = engine.run()?;
    let elapsed = started.elapsed();

    println!("\n=== {SESSIONS} sessions across {SHARDS} shards over loopback TCP ===\n");
    for (i, (outcome, spec)) in run.outcomes.iter().zip(&specs).enumerate() {
        let driver = ThirdPartyDriver::new(spec.schema.clone(), spec.config);
        let reference = driver.construct(&spec.holders, &spec.keys)?;
        let (expected, _) = driver.cluster(&reference, &spec.request)?;
        let matches = expected.clusters == outcome.result.clusters;
        println!(
            "session {i} (shard {}): {} clusters, {} msgs, peak {} buffered rows, \
             matches driver: {matches}",
            i % SHARDS,
            outcome.result.num_clusters(),
            outcome.stats.messages_sent,
            outcome.stats.peak_buffered_rows,
        );
        assert!(matches, "sharded result diverged from the reference driver");
        assert!(outcome.stats.peak_buffered_rows <= CHUNK_ROWS);
    }
    println!();
    for stats in &run.shards {
        println!(
            "shard {}: sessions {:?}, {} rounds, {} blocking waits (parked, no spin), {} msgs",
            stats.shard, stats.sessions, stats.rounds, stats.blocking_waits, stats.messages_sent,
        );
    }
    println!(
        "\nrouter: {} connections, {} unroutable frames",
        router.connection_count(),
        router.unroutable_frames(),
    );
    println!("wall clock: {elapsed:?} (every envelope crossed the kernel's TCP stack twice)");

    for transport in engine.transports() {
        transport.shutdown();
    }
    router.shutdown();
    Ok(())
}
