//! End-to-end dissimilarity-matrix construction (Figure 11) benchmarks:
//! in-memory driver vs one session on a one-shard engine over an
//! instrumented in-memory network, over workload size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ppc_cluster::Linkage;
use ppc_core::protocol::driver::{ClusteringRequest, ThirdPartyDriver};
use ppc_core::protocol::engine::SessionSpec;
use ppc_core::protocol::party::TrustedSetup;
use ppc_core::protocol::sharded::ShardedEngine;
use ppc_core::protocol::ProtocolConfig;
use ppc_crypto::Seed;
use ppc_data::Workload;
use ppc_net::{Instrumented, Network};

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("construction");
    group.sample_size(10);
    for &objects in &[24usize, 48, 96] {
        let workload = Workload::bird_flu(objects, 3, 3, 11).unwrap();
        let schema = workload.schema().clone();
        let setup =
            TrustedSetup::deterministic(workload.partitions.clone(), &Seed::from_u64(1)).unwrap();
        let driver = ThirdPartyDriver::new(schema.clone(), ProtocolConfig::default());
        group.bench_with_input(
            BenchmarkId::new("driver_construct", objects),
            &objects,
            |b, _| {
                b.iter(|| {
                    driver
                        .construct(black_box(&setup.holders), &setup.third_party)
                        .unwrap()
                })
            },
        );
        let request = ClusteringRequest {
            weights: schema.uniform_weights(),
            linkage: Linkage::Average,
            num_clusters: 3,
        };
        group.bench_with_input(
            BenchmarkId::new("networked_session", objects),
            &objects,
            |b, _| {
                b.iter(|| {
                    let network = Instrumented::new(Network::with_parties(3));
                    let mut engine = ShardedEngine::new(vec![network]).unwrap();
                    engine.add_session(SessionSpec {
                        schema: schema.clone(),
                        config: ProtocolConfig::default(),
                        holders: black_box(&setup.holders).clone(),
                        keys: setup.third_party.clone(),
                        request: request.clone(),
                        chunk_rows: None,
                    });
                    engine.run().unwrap()
                })
            },
        );
        let output = driver
            .construct(&setup.holders, &setup.third_party)
            .unwrap();
        group.bench_with_input(
            BenchmarkId::new("cluster_stage", objects),
            &objects,
            |b, _| b.iter(|| driver.cluster(black_box(&output), &request).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_construction);
criterion_main!(benches);
