//! Microbenchmarks of the alphanumeric (edit-distance) comparison protocol
//! roles (§4.2), swept over string length: 12 is the benchmark workloads'
//! sequence length, and 130 spans three 64-symbol blocks of the
//! bit-parallel kernel. The `third_party_edit_distances_scalar` row is the
//! retained per-cell oracle with the Levenshtein dynamic program, so the
//! kernel-to-oracle ratio is visible.
//!
//! The `third_party_widths` group times the third party at other cell
//! widths: lowercase (5 bits per cell) and a wide alphabet of 2,000
//! symbols (11 bits). The kernel reads packed rows at a stride of `b`
//! bits, so a match word holds only `⌊64 / b⌋` pattern symbols, and a wide
//! alphabet with long strings takes more word steps than a dense layout
//! would.
//!
//! The `ccm_bundle_codec` group times putting a `DH_K → TP` bundle onto
//! the wire and reading it back (`docs/WIRE_FORMAT.md` §6.6) for DNA (2
//! bits per cell) and lowercase (5 bits) strings. A bundle holds its cells
//! packed already, so both are a copy of the section plus the length
//! vectors and the checks; end to end this cost lands in the engine's
//! unattributed time, not in any timed layer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ppc_core::alphabet::Alphabet;
use ppc_core::protocol::alphanumeric;
use ppc_core::protocol::messages::CcmBundleMsg;
use ppc_crypto::{PairwiseSeeds, RngAlgorithm, Seed};

fn strings(count: usize, length: usize, size: u32) -> Vec<Vec<u32>> {
    (0..count)
        .map(|i| {
            (0..length)
                .map(|p| ((i * 31 + p * 7) as u32) % size)
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
        let j = strings(12, length, alphabet.size());
        let k = strings(8, length, alphabet.size());
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

fn bench_third_party_widths(c: &mut Criterion) {
    let seeds = PairwiseSeeds::new(Seed::from_u64(3), Seed::from_u64(4));
    let algorithm = RngAlgorithm::ChaCha20;
    let mut group = c.benchmark_group("third_party_widths");
    group.sample_size(15);
    for (name, size) in [("lowercase", 26u32), ("wide2000", 2000)] {
        for &length in &[12usize, 64] {
            let j = strings(12, length, size);
            let k = strings(8, length, size);
            let masked = alphanumeric::initiator_mask_strings(&j, size, &seeds, algorithm).unwrap();
            let bundle = alphanumeric::responder_build_bundle(&masked, &k, size).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("third_party_edit_distances/{name}"), length),
                &length,
                |b, _| {
                    b.iter(|| {
                        alphanumeric::third_party_edit_distances(
                            black_box(&bundle),
                            size,
                            &seeds.holder_third_party,
                            algorithm,
                        )
                        .unwrap()
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_ccm_codec(c: &mut Criterion) {
    let seeds = PairwiseSeeds::new(Seed::from_u64(3), Seed::from_u64(4));
    let algorithm = RngAlgorithm::ChaCha20;
    let mut group = c.benchmark_group("ccm_bundle_codec");
    group.sample_size(15);
    for (name, alphabet) in [
        ("dna", Alphabet::dna()),
        ("lowercase", Alphabet::lowercase()),
    ] {
        let size = alphabet.size();
        for &length in &[12usize, 64] {
            let j = strings(12, length, size);
            let k = strings(8, length, size);
            let masked = alphanumeric::initiator_mask_strings(&j, size, &seeds, algorithm).unwrap();
            let msg = CcmBundleMsg {
                attribute: name.into(),
                bundle: alphanumeric::responder_build_bundle(&masked, &k, size).unwrap(),
            };
            group.bench_with_input(
                BenchmarkId::new(format!("ccm_bundle_encode/{name}"), length),
                &length,
                |b, _| b.iter(|| black_box(&msg).encode(size)),
            );
            let payload = msg.encode(size);
            group.bench_with_input(
                BenchmarkId::new(format!("ccm_bundle_decode/{name}"), length),
                &length,
                |b, _| b.iter(|| CcmBundleMsg::decode(black_box(&payload), size).unwrap()),
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_alphanumeric,
    bench_third_party_widths,
    bench_ccm_codec
);
criterion_main!(benches);
