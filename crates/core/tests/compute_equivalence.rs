//! PR-7 equivalence properties for the compute path.
//!
//! * The derivation cache is a **pure memo**: a prefix served from cache
//!   is byte-identical to a fresh derivation, for every algorithm, any
//!   request-length sequence (shorter-after-longer hits, longer-after-
//!   shorter regrowth) and interleaved streams sharing one cache.
//! * The chunked row kernels are **bit-identical to the retained scalar
//!   oracles** over arbitrary inputs — including empty inputs and lengths
//!   that are not a multiple of the 8-lane stride.
//! * The bit-parallel edit-distance kernel **equals the Levenshtein
//!   dynamic program** on both protocol paths that use it: the third
//!   party's unmasked CCMs and each holder's local matrix, at string
//!   lengths across the 64- and 128-symbol block boundaries. These are the
//!   only independent check of the kernel: an end-to-end run computes
//!   every edit distance with the same kernel on both sides.

use proptest::prelude::*;

use ppc_core::alphabet::Alphabet;
use ppc_core::distance::edit_distance;
use ppc_core::protocol::derive_cache::DerivationCache;
use ppc_core::protocol::local::local_dissimilarity_column;
use ppc_core::protocol::{alphanumeric, numeric};
use ppc_core::schema::AttributeDescriptor;
use ppc_core::value::{AttributeKind, AttributeValue};
use ppc_crypto::prng::DynStreamRng;
use ppc_crypto::{
    negators_from_raw, offsets_from_raw, raw_u64_prefix, PairwiseSeeds, RngAlgorithm, Seed,
    SplitMix64, StreamRng,
};

const ALGS: [RngAlgorithm; 3] = [
    RngAlgorithm::ChaCha20,
    RngAlgorithm::Xoshiro256PlusPlus,
    RngAlgorithm::SplitMix64,
];

fn alg(index: usize) -> RngAlgorithm {
    ALGS[index % ALGS.len()]
}

/// Strings of the given lengths over `chars`, drawn from `rng`.
fn draw_strings(rng: &mut SplitMix64, lens: &[usize], chars: &[char]) -> Vec<String> {
    lens.iter()
        .map(|&len| {
            (0..len)
                .map(|_| chars[rng.next_below(chars.len() as u64) as usize])
                .collect()
        })
        .collect()
}

/// The local-matrix columns the kernel must handle: a declared ASCII
/// alphabet, a declared non-ASCII one, and a descriptor with no alphabet
/// (its fields are public, so a caller can build one).
fn local_column_case(case: usize) -> (AttributeDescriptor, Vec<char>) {
    match case % 3 {
        0 => (
            AttributeDescriptor::alphanumeric("dna", Alphabet::dna()),
            "acgt".chars().collect(),
        ),
        1 => {
            let chars: Vec<char> = "äöüßéαβ漢字🦀".chars().collect();
            let alphabet = Alphabet::new(chars.iter().copied()).expect("distinct symbols");
            (AttributeDescriptor::alphanumeric("glyphs", alphabet), chars)
        }
        _ => (
            AttributeDescriptor {
                name: "free".into(),
                kind: AttributeKind::Alphanumeric,
                alphabet: None,
            },
            "ab€ç漢🦀".chars().collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sequence of prefix requests against one cached stream returns
    /// exactly the bytes a fresh derivation would: hits, regrowth after a
    /// longer request, and re-hits after regrowth are all bit-identical.
    #[test]
    fn cached_prefixes_equal_fresh_derivation(
        seed in any::<u64>(),
        alg_index in 0usize..3,
        lens in prop::collection::vec(0usize..300, 1..12),
    ) {
        let algorithm = alg(alg_index);
        let seed = Seed::from_u64(seed).derive("prop/stream");
        let cache = DerivationCache::new();
        for &len in &lens {
            let got = cache.raw_prefix(algorithm, &seed, len);
            prop_assert!(got.len() >= len);
            let fresh = raw_u64_prefix(algorithm, &seed, len);
            prop_assert_eq!(&got[..len], &fresh[..]);
        }
    }

    /// Many streams interleaved through one shared cache never bleed into
    /// each other: every request still matches its own stream's fresh
    /// derivation, whatever the request order.
    #[test]
    fn interleaved_streams_stay_independent(
        master in any::<u64>(),
        // One flat draw per request (the vendored proptest has no tuple
        // strategies): stream = x % 6, algorithm = (x / 6) % 3,
        // len = x / 18.
        requests in prop::collection::vec(0usize..6 * 3 * 200, 1..24),
    ) {
        let cache = DerivationCache::new();
        let seeds: Vec<Seed> = (0..6)
            .map(|i| Seed::from_u64(master).derive(&format!("prop/attr{i}")))
            .collect();
        for &request in &requests {
            let (stream, alg_index, len) = (request % 6, (request / 6) % 3, request / 18);
            let algorithm = alg(alg_index);
            let got = cache.raw_prefix(algorithm, &seeds[stream], len);
            let fresh = raw_u64_prefix(algorithm, &seeds[stream], len);
            prop_assert_eq!(&got[..len], &fresh[..]);
        }
    }

    /// The negator and alphabet-offset views of a raw prefix equal the
    /// per-draw constructions they replaced.
    #[test]
    fn prefix_views_match_per_draw_construction(
        seed in any::<u64>(),
        alg_index in 0usize..3,
        len in 0usize..220,
        alphabet_size in 1u32..40,
    ) {
        let algorithm = alg(alg_index);
        let seed = Seed::from_u64(seed).derive("prop/views");
        let raw = raw_u64_prefix(algorithm, &seed, len);
        let mut rng = DynStreamRng::new(algorithm, &seed);
        let negators = negators_from_raw(&raw);
        let offsets = offsets_from_raw(&raw, alphabet_size);
        prop_assert_eq!(negators.len(), len);
        prop_assert_eq!(offsets.len(), len);
        for i in 0..len {
            let draw = rng.next_u64();
            prop_assert_eq!(raw[i], draw);
            prop_assert_eq!(offsets[i], (draw % u64::from(alphabet_size)) as u32);
        }
    }

    /// Batch-mode initiator masking through hoisted prefixes equals the
    /// scalar per-draw oracle, including the empty column.
    #[test]
    fn initiator_mask_kernel_matches_scalar(
        master in any::<u64>(),
        alg_index in 0usize..3,
        values in prop::collection::vec(-1_000_000i64..1_000_000, 0..130),
    ) {
        let algorithm = alg(alg_index);
        let seeds = PairwiseSeeds {
            holder_holder: Seed::from_u64(master).derive("prop/jk"),
            holder_third_party: Seed::from_u64(master).derive("prop/jt"),
        };
        let raw_jk = raw_u64_prefix(algorithm, &seeds.holder_holder, values.len());
        let raw_jt = raw_u64_prefix(algorithm, &seeds.holder_third_party, values.len());
        let vectorized = numeric::initiator_mask_with_prefixes(&values, &raw_jk, &raw_jt);
        let scalar = numeric::initiator_mask_scalar(&values, &seeds, algorithm);
        prop_assert_eq!(vectorized, scalar);
    }

    /// The responder's fold kernel equals the scalar oracle over arbitrary
    /// window shapes — empty windows, empty columns, widths off the
    /// 8-lane stride.
    #[test]
    fn responder_fold_kernel_matches_scalar(
        master in any::<u64>(),
        alg_index in 0usize..3,
        masked in prop::collection::vec(-1_000_000i64..1_000_000, 0..90),
        own in prop::collection::vec(-1_000_000i64..1_000_000, 0..9),
    ) {
        let algorithm = alg(alg_index);
        let seed = Seed::from_u64(master).derive("prop/jk");
        let negators = negators_from_raw(&raw_u64_prefix(algorithm, &seed, masked.len()));
        let vectorized = numeric::responder_fold_window(&masked, &own, &negators);
        let scalar = numeric::responder_fold_window_scalar(&masked, &own, &negators);
        prop_assert_eq!(vectorized, scalar);
    }

    /// The third party's unmask kernel equals the scalar oracle, including
    /// the empty-mask and whole-row-truncation edge cases.
    #[test]
    fn third_party_unmask_kernel_matches_scalar(
        master in any::<u64>(),
        alg_index in 0usize..3,
        cols in 0usize..40,
        rows in 0usize..7,
    ) {
        let algorithm = alg(alg_index);
        let seed = Seed::from_u64(master).derive("prop/jt");
        let masks = raw_u64_prefix(algorithm, &seed, cols);
        let values: Vec<i64> = (0..rows * cols)
            .map(|i| (i as i64).wrapping_mul(2_654_435_761) >> 16)
            .collect();
        let vectorized = numeric::third_party_unmask_window(&values, &masks);
        let scalar = numeric::third_party_unmask_window_scalar(&values, &masks);
        prop_assert_eq!(vectorized, scalar);
    }

    /// The per-pair streaming kernels (fresh randomness per cell) equal
    /// their scalar oracles when driven by identical stream states.
    #[test]
    fn per_pair_window_kernels_match_scalar(
        master in any::<u64>(),
        alg_index in 0usize..3,
        values in prop::collection::vec(-1_000_000i64..1_000_000, 0..40),
        rows in 0usize..6,
    ) {
        let algorithm = alg(alg_index);
        let jk = Seed::from_u64(master).derive("prop/pp/jk");
        let jt = Seed::from_u64(master).derive("prop/pp/jt");

        let mut rng_jk = DynStreamRng::new(algorithm, &jk);
        let mut rng_jt = DynStreamRng::new(algorithm, &jt);
        let vectorized =
            numeric::initiator_mask_per_pair_window(&values, rows, &mut rng_jk, &mut rng_jt);
        let mut rng_jk = DynStreamRng::new(algorithm, &jk);
        let mut rng_jt = DynStreamRng::new(algorithm, &jt);
        let scalar =
            numeric::initiator_mask_per_pair_window_scalar(&values, rows, &mut rng_jk, &mut rng_jt);
        prop_assert_eq!(&vectorized, &scalar);

        let cols = values.len();
        let own: Vec<i64> = (0..rows as i64).map(|i| i * 17 - 40).collect();
        let mut rng_jk = DynStreamRng::new(algorithm, &jk);
        let folded =
            numeric::responder_fold_per_pair_window(&vectorized, cols, &own, &mut rng_jk).unwrap();
        let mut rng_jk = DynStreamRng::new(algorithm, &jk);
        let folded_scalar =
            numeric::responder_fold_per_pair_window_scalar(&vectorized, cols, &own, &mut rng_jk)
                .unwrap();
        prop_assert_eq!(&folded, &folded_scalar);

        let mut rng_jt = DynStreamRng::new(algorithm, &jt);
        let unmasked = numeric::third_party_unmask_per_pair_window(&folded, &mut rng_jt);
        let mut rng_jt = DynStreamRng::new(algorithm, &jt);
        let unmasked_scalar =
            numeric::third_party_unmask_per_pair_window_scalar(&folded, &mut rng_jt);
        prop_assert_eq!(unmasked, unmasked_scalar);
    }

    /// The third party's bit-parallel path equals its scalar oracle (per-cell
    /// unmasking into a CCM, then the Levenshtein dynamic program) and the
    /// plaintext edit distance. Lengths 0–130 on both sides cross the 64-
    /// and 128-symbol block boundaries of the pattern (`DH_J`'s strings)
    /// and of the text (`DH_K`'s).
    #[test]
    fn third_party_kernel_matches_dp_oracle_and_plaintext(
        master in any::<u64>(),
        alg_index in 0usize..3,
        alphabet_size in 2u32..27,
        j_lens in prop::collection::vec(0usize..131, 1..4),
        k_lens in prop::collection::vec(0usize..131, 1..4),
    ) {
        let algorithm = alg(alg_index);
        let seeds = PairwiseSeeds {
            holder_holder: Seed::from_u64(master).derive("prop/alpha/jk"),
            holder_third_party: Seed::from_u64(master).derive("prop/alpha/jt"),
        };
        let chars: Vec<char> = ('a'..='z').take(alphabet_size as usize).collect();
        let mut rng = SplitMix64::from_seed(&Seed::from_u64(master));
        let j_strings = draw_strings(&mut rng, &j_lens, &chars);
        let k_strings = draw_strings(&mut rng, &k_lens, &chars);
        let encode = |s: &String| -> Vec<u32> { s.bytes().map(|c| u32::from(c - b'a')).collect() };
        let j: Vec<Vec<u32>> = j_strings.iter().map(encode).collect();
        let k: Vec<Vec<u32>> = k_strings.iter().map(encode).collect();
        let masked = alphanumeric::initiator_mask_strings(&j, alphabet_size, &seeds, algorithm)
            .unwrap();
        let bundle = alphanumeric::responder_build_bundle(&masked, &k, alphabet_size).unwrap();
        let kernel = alphanumeric::third_party_edit_distances(
            &bundle,
            alphabet_size,
            &seeds.holder_third_party,
            algorithm,
        )
        .unwrap();
        let oracle = alphanumeric::third_party_edit_distances_scalar(
            &bundle,
            alphabet_size,
            &seeds.holder_third_party,
            algorithm,
        )
        .unwrap();
        prop_assert_eq!(&kernel, &oracle);
        for (m, t) in k_strings.iter().enumerate() {
            for (n, s) in j_strings.iter().enumerate() {
                prop_assert_eq!(*kernel.get(m, n), edit_distance(s, t), "{} vs {}", s, t);
            }
        }
    }

    /// A holder's local matrix of an alphanumeric column equals pairwise
    /// `edit_distance`, for strings longer than one 64-symbol block,
    /// non-ASCII characters and a descriptor without an alphabet.
    #[test]
    fn local_alphanumeric_matrix_matches_pairwise_edit_distance(
        master in any::<u64>(),
        case in 0usize..3,
        lens in prop::collection::vec(0usize..140, 0..7),
    ) {
        let (descriptor, chars) = local_column_case(case);
        let mut rng = SplitMix64::from_seed(&Seed::from_u64(master));
        let strings = draw_strings(&mut rng, &lens, &chars);
        let values: Vec<AttributeValue> =
            strings.iter().map(AttributeValue::alphanumeric).collect();
        let column: Vec<&AttributeValue> = values.iter().collect();
        let matrix = local_dissimilarity_column(&descriptor, &column).unwrap();
        prop_assert_eq!(matrix.len(), strings.len());
        for i in 0..strings.len() {
            for j in 0..i {
                let expected = f64::from(edit_distance(&strings[i], &strings[j]));
                prop_assert_eq!(matrix.get(i, j), expected, "{} vs {}", strings[i], strings[j]);
            }
        }
    }
}
