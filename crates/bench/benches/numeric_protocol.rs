//! Microbenchmarks of the numeric comparison protocol roles (§4.1), with the
//! batch vs per-pair and ChaCha20 vs Xoshiro ablations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ppc_core::protocol::numeric;
use ppc_crypto::{PairwiseSeeds, RngAlgorithm, Seed};

fn column(n: usize) -> Vec<i64> {
    (0..n as i64)
        .map(|i| i.wrapping_mul(1_000_003) % 1_000_000)
        .collect()
}

fn seeds() -> PairwiseSeeds {
    PairwiseSeeds::new(Seed::from_u64(1), Seed::from_u64(2))
}

fn bench_roles(c: &mut Criterion) {
    let mut group = c.benchmark_group("numeric_roles");
    group.sample_size(20);
    for &n in &[64usize, 256, 1024] {
        let j = column(n);
        let k = column(n / 2);
        let seeds = seeds();
        let algorithm = RngAlgorithm::ChaCha20;
        group.bench_with_input(BenchmarkId::new("initiator_mask", n), &n, |b, _| {
            b.iter(|| numeric::initiator_mask(black_box(&j), &seeds, algorithm))
        });
        let masked = numeric::initiator_mask(&j, &seeds, algorithm);
        group.bench_with_input(BenchmarkId::new("responder_fold", n), &n, |b, _| {
            b.iter(|| {
                numeric::responder_fold(black_box(&masked), &k, &seeds.holder_holder, algorithm)
            })
        });
        let pairwise = numeric::responder_fold(&masked, &k, &seeds.holder_holder, algorithm);
        group.bench_with_input(BenchmarkId::new("third_party_unmask", n), &n, |b, _| {
            b.iter(|| {
                numeric::third_party_unmask(
                    black_box(&pairwise),
                    &seeds.holder_third_party,
                    algorithm,
                )
            })
        });
    }
    group.finish();
}

fn bench_rng_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("numeric_rng_ablation");
    group.sample_size(20);
    let j = column(512);
    let k = column(256);
    let seeds = seeds();
    for algorithm in [
        RngAlgorithm::ChaCha20,
        RngAlgorithm::Xoshiro256PlusPlus,
        RngAlgorithm::SplitMix64,
    ] {
        group.bench_function(
            BenchmarkId::new("full_pair", format!("{algorithm:?}")),
            |b| {
                b.iter(|| {
                    let masked = numeric::initiator_mask(black_box(&j), &seeds, algorithm);
                    let pairwise =
                        numeric::responder_fold(&masked, &k, &seeds.holder_holder, algorithm);
                    numeric::third_party_unmask(&pairwise, &seeds.holder_third_party, algorithm)
                })
            },
        );
    }
    group.finish();
}

fn bench_batch_vs_per_pair(c: &mut Criterion) {
    let mut group = c.benchmark_group("numeric_batch_vs_per_pair");
    group.sample_size(15);
    let j = column(256);
    let k = column(128);
    let seeds = seeds();
    let algorithm = RngAlgorithm::ChaCha20;
    group.bench_function("batch", |b| {
        b.iter(|| {
            let masked = numeric::initiator_mask(black_box(&j), &seeds, algorithm);
            let pairwise = numeric::responder_fold(&masked, &k, &seeds.holder_holder, algorithm);
            numeric::third_party_unmask(&pairwise, &seeds.holder_third_party, algorithm)
        })
    });
    group.bench_function("per_pair", |b| {
        b.iter(|| {
            let masked =
                numeric::initiator_mask_per_pair(black_box(&j), k.len(), &seeds, algorithm);
            let pairwise =
                numeric::responder_fold_per_pair(&masked, &k, &seeds.holder_holder, algorithm)
                    .unwrap();
            numeric::third_party_unmask_per_pair(&pairwise, &seeds.holder_third_party, algorithm)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_roles,
    bench_rng_ablation,
    bench_batch_vs_per_pair
);
criterion_main!(benches);
