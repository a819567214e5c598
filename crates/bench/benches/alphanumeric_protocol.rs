//! Microbenchmarks of the alphanumeric (edit-distance) comparison protocol
//! roles (§4.2), swept over string length: 12 is the benchmark workloads'
//! sequence length, and 130 spans three 64-symbol blocks of the
//! bit-parallel kernel. The `third_party_edit_distances_scalar` row is the
//! retained per-cell oracle with the Levenshtein dynamic program, so the
//! kernel-to-oracle ratio is visible.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ppc_core::alphabet::Alphabet;
use ppc_core::protocol::alphanumeric;
use ppc_crypto::{PairwiseSeeds, RngAlgorithm, Seed};

fn strings(count: usize, length: usize, alphabet: &Alphabet) -> Vec<Vec<u32>> {
    (0..count)
        .map(|i| {
            (0..length)
                .map(|p| ((i * 31 + p * 7) as u32) % alphabet.size())
                .collect()
        })
        .collect()
}

fn bench_alphanumeric(c: &mut Criterion) {
    let alphabet = Alphabet::dna();
    let seeds = PairwiseSeeds::new(Seed::from_u64(3), Seed::from_u64(4));
    let algorithm = RngAlgorithm::ChaCha20;
    let mut group = c.benchmark_group("alphanumeric_roles");
    group.sample_size(15);
    for &length in &[12usize, 16, 32, 64, 130] {
        let j = strings(12, length, &alphabet);
        let k = strings(8, length, &alphabet);
        group.bench_with_input(
            BenchmarkId::new("initiator_mask", length),
            &length,
            |b, _| {
                b.iter(|| {
                    alphanumeric::initiator_mask_strings(
                        black_box(&j),
                        alphabet.size(),
                        &seeds,
                        algorithm,
                    )
                    .unwrap()
                })
            },
        );
        let masked =
            alphanumeric::initiator_mask_strings(&j, alphabet.size(), &seeds, algorithm).unwrap();
        group.bench_with_input(
            BenchmarkId::new("responder_bundle", length),
            &length,
            |b, _| {
                b.iter(|| {
                    alphanumeric::responder_build_bundle(black_box(&masked), &k, alphabet.size())
                        .unwrap()
                })
            },
        );
        let bundle = alphanumeric::responder_build_bundle(&masked, &k, alphabet.size()).unwrap();
        group.bench_with_input(
            BenchmarkId::new("third_party_edit_distances", length),
            &length,
            |b, _| {
                b.iter(|| {
                    alphanumeric::third_party_edit_distances(
                        black_box(&bundle),
                        alphabet.size(),
                        &seeds.holder_third_party,
                        algorithm,
                    )
                    .unwrap()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("third_party_edit_distances_scalar", length),
            &length,
            |b, _| {
                b.iter(|| {
                    alphanumeric::third_party_edit_distances_scalar(
                        black_box(&bundle),
                        alphabet.size(),
                        &seeds.holder_third_party,
                        algorithm,
                    )
                    .unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_alphanumeric);
criterion_main!(benches);
