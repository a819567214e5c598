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
//! * The packed CCM path **equals its oracles at every cell width**:
//!   `DH_K`'s packed rows build the scalar builder's bundle byte for byte,
//!   and the third party's stride-`b` kernel equals the scalar oracle and
//!   the plaintext edit distance, for `b` = 1–21 through real alphabets
//!   and up to 31 through raw sizes; off-domain cells are still rejected.

use std::sync::OnceLock;

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

/// Real alphabets whose packed widths cover b = 1–21: the smallest size of
/// each width, `2^(b−1) + 1` (2 at b = 1), then the largest, `2^b`, for
/// b = 2–12. Built once: the widest holds over a million `char`s.
fn width_alphabets() -> &'static [Alphabet] {
    static ALPHABETS: OnceLock<Vec<Alphabet>> = OnceLock::new();
    ALPHABETS.get_or_init(|| {
        let chars = (0..=u32::from(char::MAX)).filter_map(char::from_u32);
        let smallest = (1..=21).map(|b| if b == 1 { 2 } else { (1 << (b - 1)) + 1 });
        smallest
            .chain((2..=12).map(|b| 1 << b))
            .map(|size| Alphabet::new(chars.clone().take(size)).expect("distinct chars"))
            .collect()
    })
}

/// Raw alphabet sizes past any `Alphabet`, up to 2³¹ (b = 22–31).
const RAW_SIZES: [u32; 8] = [
    (1 << 21) + 1,
    1 << 22,
    (1 << 24) - 3,
    (1 << 27) + 1,
    1 << 30,
    (1 << 30) + 1,
    (1 << 31) - 1,
    1 << 31,
];

/// Case `index` of the width sweep: an alphabet size, and the alphabet
/// itself when it is a real one.
fn width_case(index: usize) -> (u32, Option<&'static Alphabet>) {
    let alphabets = width_alphabets();
    match alphabets.get(index) {
        Some(alphabet) => (alphabet.size(), Some(alphabet)),
        None => (RAW_SIZES[(index - alphabets.len()) % RAW_SIZES.len()], None),
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

    /// The packed CCM path at every cell width. Strings draw from a pool
    /// of at most five symbols, the alphabet's extremes among the
    /// candidates, so matches are common; lengths 0–150 on both sides
    /// cross the one- and two-word boundaries of every stride.
    #[test]
    fn packed_ccm_path_matches_the_oracles_at_every_width(
        master in any::<u64>(),
        alg_index in 0usize..3,
        case in 0usize..40,
        pool_size in 1usize..6,
        j_lens in prop::collection::vec(0usize..151, 1..4),
        k_lens in prop::collection::vec(0usize..151, 1..4),
    ) {
        let algorithm = alg(alg_index);
        let (size, alphabet) = width_case(case);
        let seeds = PairwiseSeeds {
            holder_holder: Seed::from_u64(master).derive("prop/packed/jk"),
            holder_third_party: Seed::from_u64(master).derive("prop/packed/jt"),
        };
        let mut rng = SplitMix64::from_seed(&Seed::from_u64(master));
        let mut pool: Vec<u32> = (0..pool_size)
            .map(|_| match rng.next_below(4) {
                0 => 0,
                1 => size - 1,
                _ => rng.next_below(u64::from(size)) as u32,
            })
            .collect();
        pool.sort_unstable();
        pool.dedup();
        let mut draw = |lens: &[usize]| -> Vec<Vec<u32>> {
            lens.iter()
                .map(|&len| (0..len).map(|_| pool[rng.next_below(pool.len() as u64) as usize]).collect())
                .collect()
        };
        let (j, k) = (draw(&j_lens), draw(&k_lens));
        // Plaintext for the dynamic program: the alphabet's own characters,
        // or one letter per pool symbol for a raw size.
        let spell = |s: &Vec<u32>| -> String {
            match alphabet {
                Some(alphabet) => alphabet.decode(s).unwrap(),
                None => s
                    .iter()
                    .map(|c| char::from(b'a' + pool.binary_search(c).unwrap() as u8))
                    .collect(),
            }
        };
        let masked = alphanumeric::initiator_mask_strings(&j, size, &seeds, algorithm).unwrap();
        let bundle = alphanumeric::responder_build_bundle(&masked, &k, size).unwrap();
        let scalar = alphanumeric::responder_build_bundle_scalar(&masked, &k, size).unwrap();
        prop_assert_eq!(bundle.packed(), scalar.packed(), "|A| = {}", size);
        prop_assert_eq!(&bundle, &scalar);
        let kernel = alphanumeric::third_party_edit_distances(
            &bundle,
            size,
            &seeds.holder_third_party,
            algorithm,
        )
        .unwrap();
        let oracle = alphanumeric::third_party_edit_distances_scalar(
            &bundle,
            size,
            &seeds.holder_third_party,
            algorithm,
        )
        .unwrap();
        prop_assert_eq!(&kernel, &oracle, "|A| = {}", size);
        for (m, t) in k.iter().enumerate() {
            for (n, s) in j.iter().enumerate() {
                prop_assert_eq!(*kernel.get(m, n), edit_distance(&spell(s), &spell(t)), "|A| = {}", size);
            }
        }
    }

    /// At |A| = 26 a 5-bit cell can hold 26–31. One such cell anywhere in
    /// a bundle makes the kernel and the scalar oracle both refuse it; a
    /// bundle without one, both accept it, with one result.
    #[test]
    fn off_domain_cells_are_rejected_by_kernel_and_oracle(
        master in any::<u64>(),
        responder_lens in prop::collection::vec(0u32..20, 1..4),
        initiator_lens in prop::collection::vec(0u32..20, 1..4),
        bad in 25u32..32,
        pick in any::<u64>(),
    ) {
        let mut rng = SplitMix64::from_seed(&Seed::from_u64(master));
        let rows: u32 = responder_lens.iter().sum();
        let cols: u32 = initiator_lens.iter().sum();
        let mut cells: Vec<u32> = (0..rows * cols).map(|_| rng.next_below(26) as u32).collect();
        // 25 plants an in-domain cell, 26–31 an off-domain one.
        if !cells.is_empty() {
            let at = (pick % cells.len() as u64) as usize;
            cells[at] = bad;
        }
        let tainted = cells.iter().any(|&cell| cell >= 26);
        let bundle = alphanumeric::MaskedCcmBundle::new(responder_lens, initiator_lens, &cells, 26)
            .unwrap();
        let seed = Seed::from_u64(master).derive("prop/off-domain");
        let kernel = alphanumeric::third_party_edit_distances(&bundle, 26, &seed, RngAlgorithm::ChaCha20);
        let oracle =
            alphanumeric::third_party_edit_distances_scalar(&bundle, 26, &seed, RngAlgorithm::ChaCha20);
        prop_assert_eq!(kernel.is_err(), tainted);
        prop_assert_eq!(oracle.is_err(), tainted);
        if !tainted {
            prop_assert_eq!(kernel.unwrap(), oracle.unwrap());
        }
    }
}
