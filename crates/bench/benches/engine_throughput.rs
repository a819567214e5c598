//! Multi-session engine throughput: wall-clock cost of completing 1 / 4
//! concurrent clustering sessions on one shard over one in-memory
//! transport, chunked vs whole-matrix streaming, plus 8 sessions on the
//! sharded engine at 1 / 2 / 4 worker threads over in-memory and
//! loopback-TCP transports (`sharded/memory/shards/1` is 8 sessions on one
//! shard).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ppc_cluster::Linkage;
use ppc_core::protocol::driver::ClusteringRequest;
use ppc_core::protocol::engine::SessionSpec;
use ppc_core::protocol::party::TrustedSetup;
use ppc_core::protocol::sharded::ShardedEngine;
use ppc_core::protocol::ProtocolConfig;
use ppc_crypto::Seed;
use ppc_data::Workload;
use ppc_net::{Backoff, Network, PartyId, TcpRouter, TcpTransport};

fn spec(seed: u64, chunk_rows: Option<usize>) -> SessionSpec {
    let workload = Workload::bird_flu(24, 3, 3, seed).unwrap();
    let schema = workload.schema().clone();
    let setup =
        TrustedSetup::deterministic(workload.partitions.clone(), &Seed::from_u64(seed)).unwrap();
    SessionSpec {
        schema: schema.clone(),
        config: ProtocolConfig::default(),
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

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    for &sessions in &[1usize, 4] {
        let specs: Vec<SessionSpec> = (0..sessions)
            .map(|i| spec(40 + i as u64, Some(4)))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("concurrent_sessions", sessions),
            &sessions,
            |b, _| b.iter(|| run_sharded_memory(black_box(&specs), 1)),
        );
    }
    let whole: Vec<SessionSpec> = vec![spec(40, None)];
    group.bench_function("one_session_whole_matrix", |b| {
        b.iter(|| run_sharded_memory(black_box(&whole), 1))
    });
    let chunked: Vec<SessionSpec> = vec![spec(40, Some(4))];
    group.bench_function("one_session_chunked_w4", |b| {
        b.iter(|| run_sharded_memory(black_box(&chunked), 1))
    });
    group.finish();
}

fn run_sharded_memory(specs: &[SessionSpec], shards: usize) -> usize {
    let transports: Vec<Network> = (0..shards).map(|_| Network::with_parties(3)).collect();
    let mut engine = ShardedEngine::new(transports).unwrap();
    for spec in specs {
        engine.add_session(spec.clone());
    }
    engine.run().unwrap().outcomes.len()
}

fn run_sharded_tcp(specs: &[SessionSpec], addr: std::net::SocketAddr, shards: usize) -> usize {
    let parties: Vec<PartyId> = (0..3u32)
        .map(PartyId::DataHolder)
        .chain([PartyId::ThirdParty])
        .collect();
    let transports: Vec<TcpTransport> = (0..shards)
        .map(|_| {
            let t = TcpTransport::new(parties.iter().copied());
            t.connect(addr, &Backoff::default()).unwrap();
            t
        })
        .collect();
    let mut engine = ShardedEngine::new(transports).unwrap();
    for spec in specs {
        engine.add_session(spec.clone());
    }
    engine.set_stall_budget(std::time::Duration::from_millis(100), 100);
    let count = engine.run().unwrap().outcomes.len();
    for transport in engine.transports() {
        transport.shutdown();
    }
    count
}

fn bench_sharded(c: &mut Criterion) {
    let specs: Vec<SessionSpec> = (0..8).map(|i| spec(40 + i as u64, Some(4))).collect();
    let mut group = c.benchmark_group("sharded");
    group.sample_size(10);
    for &shards in &[1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("memory/shards", shards),
            &shards,
            |b, &shards| b.iter(|| run_sharded_memory(black_box(&specs), shards)),
        );
    }
    let (mut router, addr) = TcpRouter::spawn("127.0.0.1:0").unwrap();
    for &shards in &[1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("loopback_tcp/shards", shards),
            &shards,
            |b, &shards| b.iter(|| run_sharded_tcp(black_box(&specs), addr, shards)),
        );
    }
    router.shutdown();
    group.finish();
}

criterion_group!(benches, bench_engine, bench_sharded);
criterion_main!(benches);
