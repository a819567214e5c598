//! Alphanumeric attribute comparison protocol (§4.2, Figures 7–10).
//!
//! Strings are first encoded as symbol indices over the attribute's finite
//! [`Alphabet`](crate::alphabet::Alphabet). For one attribute and one ordered
//! pair of data holders `(DH_J, DH_K)`:
//!
//! 1. `DH_J` masks every string character-wise, `s'[p] = (s[p] + r_p) mod
//!    |A|`, re-initialising the `rng_JT` stream after every string so all of
//!    its strings use the same offset sequence, and sends the masked strings
//!    to `DH_K` ([`initiator_mask_strings`]).
//! 2. `DH_K` builds, for every pair `(t, s')`, the intermediary matrix
//!    `M[q][p] = (s'[p] − t[q]) mod |A|` and ships the whole bundle to the
//!    third party ([`responder_build_bundle`]).
//! 3. `TP` regenerates the offsets and unmasks each row `q` of every matrix
//!    straight into match words, where bit `p` is set exactly when
//!    `s[p] = t[q]`. That is row `q` of the character comparison matrix, and
//!    the bit-parallel edit-distance kernel consumes it as the match words of
//!    text symbol `q` ([`third_party_edit_distances`]).
//!
//! The third party therefore learns the *pattern of character equalities*
//! between string pairs (exactly the CCM) and the resulting edit distance,
//! but never the characters themselves.
//!
//! ## Kernels and oracles
//!
//! The character loops run through the branch-free modular kernels of
//! [`kernels`], and every edit distance through the bit-parallel kernel
//! of [`distance::edit`](crate::distance::edit). Both need their operands
//! inside the alphabet domain,
//! so `DH_K` rejects masked symbols, and `TP` rejects CCM cells, that lie
//! outside `[0, |A|)`. Data produced by this protocol never does; a peer
//! that sends such values gets a [`CoreError::Protocol`]. The `*_scalar`
//! oracles keep the per-cell masker arithmetic, the explicit
//! [`CharacterComparisonMatrix`] and the Levenshtein dynamic program, and
//! the kernels are property-tested against them. The shared `rng_JT`
//! offset prefix is exposed through the `*_with_offsets` variants so a
//! derivation cache can hand the same prefix to many sessions.

use ppc_crypto::prng::DynStreamRng;
use ppc_crypto::{
    offsets_from_raw, raw_u64_prefix, AlphabetMasker, PairwiseSeeds, RngAlgorithm, Seed,
};

use crate::ccm::CharacterComparisonMatrix;
use crate::distance::edit::{BitParallel, WORD_BITS};
use crate::distance::edit_distance_from_ccm;
use crate::error::CoreError;
use crate::pairwise::PairwiseBlock;
use crate::protocol::kernels;

/// The bundle `DH_K` sends to the third party: one intermediary (still
/// masked) comparison matrix per (responder object, initiator object) pair,
/// row-major. Entry `[q][p]` of a matrix corresponds to `DH_K`'s character
/// `q` and `DH_J`'s (masked) character `p`.
///
/// The bundle is flat: one `(responder_len, initiator_len)` shape per matrix
/// and one buffer holding the cells of every matrix, matrix after matrix,
/// each row-major. [`MaskedCcmBundle::new`] checks that the shapes and the
/// buffer agree, so every bundle is well-formed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskedCcmBundle {
    responder_count: usize,
    initiator_count: usize,
    shapes: Vec<(u32, u32)>,
    cells: Vec<u32>,
}

impl MaskedCcmBundle {
    /// Builds a bundle of `responder_count · initiator_count` matrices with
    /// the given shapes, whose cells, concatenated in matrix order, are
    /// `cells`.
    pub fn new(
        responder_count: usize,
        initiator_count: usize,
        shapes: Vec<(u32, u32)>,
        cells: Vec<u32>,
    ) -> Result<Self, CoreError> {
        if responder_count.checked_mul(initiator_count) != Some(shapes.len()) {
            return Err(CoreError::Protocol(format!(
                "bundle holds {} matrices, expected {responder_count}·{initiator_count}",
                shapes.len()
            )));
        }
        let needed: u64 = shapes
            .iter()
            .map(|&(rows, cols)| u64::from(rows) * u64::from(cols))
            .sum();
        if needed != cells.len() as u64 {
            return Err(CoreError::Protocol(format!(
                "bundle holds {} cells, its matrix shapes need {needed}",
                cells.len()
            )));
        }
        Ok(MaskedCcmBundle {
            responder_count,
            initiator_count,
            shapes,
            cells,
        })
    }

    /// Number of responder objects (`DH_K`).
    pub fn responder_count(&self) -> usize {
        self.responder_count
    }

    /// Number of initiator objects (`DH_J`).
    pub fn initiator_count(&self) -> usize {
        self.initiator_count
    }

    /// Number of matrices, `responder_count · initiator_count`.
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// Whether the bundle holds no matrix.
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    /// The cells of every matrix, matrix after matrix.
    pub fn cells(&self) -> &[u32] {
        &self.cells
    }

    /// Consumes the bundle, returning its cell buffer.
    pub fn into_cells(self) -> Vec<u32> {
        self.cells
    }

    /// Column count of the widest matrix (the longest initiator string).
    pub fn max_initiator_len(&self) -> usize {
        self.shapes
            .iter()
            .map(|&(_, cols)| cols as usize)
            .max()
            .unwrap_or(0)
    }

    /// The matrices in order, as `(responder_len, initiator_len, cells)`.
    pub fn matrices(&self) -> impl Iterator<Item = (usize, usize, &[u32])> {
        let mut rest = self.cells.as_slice();
        self.shapes.iter().map(move |&(rows, cols)| {
            let (rows, cols) = (rows as usize, cols as usize);
            let (cells, tail) = rest.split_at(rows * cols);
            rest = tail;
            (rows, cols, cells)
        })
    }
}

/// Checks that every symbol a peer sent lies in `[0, size)`, the domain of
/// the modular kernels.
fn check_domain<'a>(
    symbols: impl IntoIterator<Item = &'a [u32]>,
    size: u32,
    what: &str,
) -> Result<(), CoreError> {
    let max = symbols
        .into_iter()
        .map(|s| s.iter().fold(0, |max, &c| max.max(c)))
        .max()
        .unwrap_or(0);
    if max < size {
        Ok(())
    } else {
        Err(CoreError::Protocol(format!(
            "{what} holds {max}, outside the alphabet of {size} symbols"
        )))
    }
}

/// The shared `rng_JT` offset prefix both `DH_J` and `TP` replay: the first
/// `len` stream draws reduced modulo the alphabet size.
pub fn offset_prefix(
    len: usize,
    alphabet_size: u32,
    seed_jt: &Seed,
    algorithm: RngAlgorithm,
) -> Vec<u32> {
    offsets_from_raw(&raw_u64_prefix(algorithm, seed_jt, len), alphabet_size)
}

/// `DH_J` (Figure 8): masks each of its encoded strings character-wise.
pub fn initiator_mask_strings(
    strings: &[Vec<u32>],
    alphabet_size: u32,
    seeds: &PairwiseSeeds,
    algorithm: RngAlgorithm,
) -> Result<Vec<Vec<u32>>, CoreError> {
    // "DHJ re-initializes its pseudo-random number generator with the same
    // seed after disguising each input string" — every string is masked
    // against the same offset prefix, so one draw of the longest prefix
    // serves all strings (identical stream values, drawn once).
    let max_len = strings.iter().map(Vec::len).max().unwrap_or(0);
    let offsets = offset_prefix(max_len, alphabet_size, &seeds.holder_third_party, algorithm);
    initiator_mask_strings_with_offsets(strings, alphabet_size, &offsets)
}

/// [`initiator_mask_strings`] over an already-derived offset prefix (the
/// cacheable form). `offsets` must cover the longest string.
pub fn initiator_mask_strings_with_offsets(
    strings: &[Vec<u32>],
    alphabet_size: u32,
    offsets: &[u32],
) -> Result<Vec<Vec<u32>>, CoreError> {
    let masker = AlphabetMasker::new(alphabet_size)?;
    let max_len = strings.iter().map(Vec::len).max().unwrap_or(0);
    if offsets.len() < max_len {
        return Err(CoreError::Protocol(format!(
            "offset prefix of {} covers strings up to {max_len} characters",
            offsets.len()
        )));
    }
    let mut out = Vec::with_capacity(strings.len());
    for s in strings {
        let mut masked = vec![0u32; s.len()];
        if s.iter().all(|&c| c < alphabet_size) {
            kernels::alpha_mod_add_row(s, &offsets[..s.len()], alphabet_size, &mut masked);
        } else {
            // Out-of-domain symbols (callers should have encoded via the
            // alphabet): defer to the scalar masker's modular arithmetic.
            for (o, (&symbol, &offset)) in masked.iter_mut().zip(s.iter().zip(offsets)) {
                *o = masker.mask(symbol % alphabet_size, offset);
            }
        }
        out.push(masked);
    }
    Ok(out)
}

/// Scalar oracle for [`initiator_mask_strings`], retained for equivalence
/// tests and microbenchmarks.
pub fn initiator_mask_strings_scalar(
    strings: &[Vec<u32>],
    alphabet_size: u32,
    seeds: &PairwiseSeeds,
    algorithm: RngAlgorithm,
) -> Result<Vec<Vec<u32>>, CoreError> {
    let masker = AlphabetMasker::new(alphabet_size)?;
    let mut rng_jt = DynStreamRng::new(algorithm, &seeds.holder_third_party);
    let max_len = strings.iter().map(Vec::len).max().unwrap_or(0);
    let offsets: Vec<u32> = (0..max_len)
        .map(|_| (rng_jt.next_u64() % alphabet_size as u64) as u32)
        .collect();
    let mut out = Vec::with_capacity(strings.len());
    for s in strings {
        let masked: Vec<u32> = s
            .iter()
            .zip(&offsets)
            .map(|(&symbol, &offset)| masker.mask(symbol, offset))
            .collect();
        out.push(masked);
    }
    Ok(out)
}

/// `DH_K` (Figure 9): subtracts its own characters from every masked string,
/// building one intermediary matrix per string pair into one cell buffer.
///
/// Rejects masked strings holding a symbol outside `[0, alphabet_size)`.
pub fn responder_build_bundle(
    masked_initiator: &[Vec<u32>],
    own_strings: &[Vec<u32>],
    alphabet_size: u32,
) -> Result<MaskedCcmBundle, CoreError> {
    // Rejects alphabets of fewer than two symbols.
    AlphabetMasker::new(alphabet_size)?;
    check_domain(
        masked_initiator.iter().map(Vec::as_slice),
        alphabet_size,
        "masked string",
    )?;
    // The pair (t, s') contributes |t|·|s'| cells, so the bundle holds
    // Σ|t| · Σ|s'|.
    let own_symbols: usize = own_strings.iter().map(Vec::len).sum();
    let masked_symbols: usize = masked_initiator.iter().map(Vec::len).sum();
    let mut cells = vec![0u32; own_symbols * masked_symbols];
    let mut shapes = Vec::with_capacity(own_strings.len() * masked_initiator.len());
    let mut at = 0;
    for t in own_strings {
        for s_masked in masked_initiator {
            shapes.push((t.len() as u32, s_masked.len() as u32));
            for &tq in t {
                let row = &mut cells[at..at + s_masked.len()];
                let addend = alphabet_size - (tq % alphabet_size);
                kernels::alpha_mod_add_broadcast(s_masked, addend, alphabet_size, row);
                at += s_masked.len();
            }
        }
    }
    MaskedCcmBundle::new(own_strings.len(), masked_initiator.len(), shapes, cells)
}

/// Scalar oracle for [`responder_build_bundle`].
pub fn responder_build_bundle_scalar(
    masked_initiator: &[Vec<u32>],
    own_strings: &[Vec<u32>],
    alphabet_size: u32,
) -> Result<MaskedCcmBundle, CoreError> {
    let masker = AlphabetMasker::new(alphabet_size)?;
    check_domain(
        masked_initiator.iter().map(Vec::as_slice),
        alphabet_size,
        "masked string",
    )?;
    let mut shapes = Vec::with_capacity(own_strings.len() * masked_initiator.len());
    let mut cells = Vec::new();
    for t in own_strings {
        for s_masked in masked_initiator {
            shapes.push((t.len() as u32, s_masked.len() as u32));
            for &tq in t {
                for &sp in s_masked {
                    cells.push(masker.subtract(sp, tq));
                }
            }
        }
    }
    MaskedCcmBundle::new(own_strings.len(), masked_initiator.len(), shapes, cells)
}

/// `TP` (Figure 10): unmasks every intermediary matrix into match words and
/// evaluates the edit distance on them.
///
/// Returns the `responder_count × initiator_count` block of edit distances
/// (flat row-major, one allocation).
pub fn third_party_edit_distances(
    bundle: &MaskedCcmBundle,
    alphabet_size: u32,
    seed_jt: &Seed,
    algorithm: RngAlgorithm,
) -> Result<PairwiseBlock<u32>, CoreError> {
    // Every CCM row is decoded against the same offset sequence — the
    // stream is re-initialised per row (Figure 10, step 5) and again per
    // matrix — so the whole bundle consumes one shared offset prefix. Draw
    // the longest prefix once instead of regenerating it for every row of
    // every matrix: the unmasking below is value-identical while the cipher
    // work drops from Σ rows·cols draws to max(cols).
    let offsets = offset_prefix(
        bundle.max_initiator_len(),
        alphabet_size,
        seed_jt,
        algorithm,
    );
    third_party_edit_distances_with_offsets(bundle, alphabet_size, &offsets)
}

/// [`third_party_edit_distances`] over an already-derived offset prefix
/// (the cacheable form). `offsets` must cover the widest matrix.
///
/// Rejects a bundle holding a cell outside `[0, alphabet_size)`.
pub fn third_party_edit_distances_with_offsets(
    bundle: &MaskedCcmBundle,
    alphabet_size: u32,
    offsets: &[u32],
) -> Result<PairwiseBlock<u32>, CoreError> {
    // Rejects alphabets of fewer than two symbols.
    AlphabetMasker::new(alphabet_size)?;
    let max_cols = bundle.max_initiator_len();
    if offsets.len() < max_cols {
        return Err(CoreError::Protocol(format!(
            "offset prefix of {} covers matrices up to {max_cols} columns",
            offsets.len()
        )));
    }
    check_domain([bundle.cells()], alphabet_size, "masked CCM")?;
    // With the cells in [0, |A|), `(cell − offset) mod |A| = 0` exactly when
    // the cell equals the offset reduced mod |A|.
    let reduced: Vec<u32> = offsets[..max_cols]
        .iter()
        .map(|&o| o % alphabet_size)
        .collect();
    let mut kernel = BitParallel::default();
    let mut words = Vec::new();
    let mut distances = Vec::with_capacity(bundle.len());
    for (rows, cols, cells) in bundle.matrices() {
        // DH_J's string (the columns) is the pattern and DH_K's (the rows)
        // the text: row q unmasks to the match words of t[q].
        let blocks = cols.div_ceil(WORD_BITS);
        words.resize(rows * blocks, 0);
        if blocks > 0 {
            for (row, out) in cells.chunks_exact(cols).zip(words.chunks_exact_mut(blocks)) {
                kernels::alpha_match_words(row, &reduced[..cols], out);
            }
        }
        distances.push(kernel.distance(cols, rows, |q| &words[q * blocks..][..blocks]));
    }
    PairwiseBlock::new(
        bundle.responder_count(),
        bundle.initiator_count(),
        distances,
    )
}

/// Scalar oracle for [`third_party_edit_distances`]: per-cell unmasking
/// into a [`CharacterComparisonMatrix`] and the Levenshtein dynamic
/// program.
pub fn third_party_edit_distances_scalar(
    bundle: &MaskedCcmBundle,
    alphabet_size: u32,
    seed_jt: &Seed,
    algorithm: RngAlgorithm,
) -> Result<PairwiseBlock<u32>, CoreError> {
    let masker = AlphabetMasker::new(alphabet_size)?;
    check_domain([bundle.cells()], alphabet_size, "masked CCM")?;
    let mut rng_jt = DynStreamRng::new(algorithm, seed_jt);
    let offsets: Vec<u32> = (0..bundle.max_initiator_len())
        .map(|_| (rng_jt.next_u64() % alphabet_size as u64) as u32)
        .collect();
    let mut distances = Vec::with_capacity(bundle.len());
    for (rows, cols, cells) in bundle.matrices() {
        let row_offsets = &offsets[..cols];
        let mut mismatch = Vec::with_capacity(cells.len());
        for row in cells.chunks_exact(cols.max(1)) {
            for (&cell, &offset) in row.iter().zip(row_offsets) {
                mismatch.push(!masker.is_match(cell, offset));
            }
        }
        // CCM convention: source = DH_K's string (rows), target = DH_J's.
        let ccm = CharacterComparisonMatrix::from_mismatches(rows, cols, mismatch)?;
        distances.push(edit_distance_from_ccm(&ccm));
    }
    PairwiseBlock::new(
        bundle.responder_count(),
        bundle.initiator_count(),
        distances,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::distance::edit_distance;
    use ppc_crypto::Seed;

    fn seeds() -> PairwiseSeeds {
        PairwiseSeeds::new(Seed::from_u64(11), Seed::from_u64(13))
    }

    fn run_protocol(
        alphabet: &Alphabet,
        j_strings: &[&str],
        k_strings: &[&str],
        algorithm: RngAlgorithm,
    ) -> PairwiseBlock<u32> {
        let seeds = seeds();
        let j_encoded: Vec<Vec<u32>> = j_strings
            .iter()
            .map(|s| alphabet.encode(s).unwrap())
            .collect();
        let k_encoded: Vec<Vec<u32>> = k_strings
            .iter()
            .map(|s| alphabet.encode(s).unwrap())
            .collect();
        let masked =
            initiator_mask_strings(&j_encoded, alphabet.size(), &seeds, algorithm).unwrap();
        let bundle = responder_build_bundle(&masked, &k_encoded, alphabet.size()).unwrap();
        third_party_edit_distances(
            &bundle,
            alphabet.size(),
            &seeds.holder_third_party,
            algorithm,
        )
        .unwrap()
    }

    #[test]
    fn figure7_example_recovers_correct_ccm_and_distance() {
        // S = "abc" at DH_J, T = "bd" at DH_K over alphabet {a,b,c,d}.
        let alphabet = Alphabet::abcd();
        let distances = run_protocol(&alphabet, &["abc"], &["bd"], RngAlgorithm::ChaCha20);
        assert_eq!(distances.values(), &[edit_distance("bd", "abc")]);
        assert_eq!(*distances.get(0, 0), 2);
    }

    #[test]
    fn protocol_matches_plaintext_edit_distance_for_dna_batches() {
        let alphabet = Alphabet::dna();
        let j = ["acgt", "gattaca", "tttt", ""];
        let k = ["acct", "gattaca", "a"];
        for algorithm in [RngAlgorithm::ChaCha20, RngAlgorithm::Xoshiro256PlusPlus] {
            let distances = run_protocol(&alphabet, &j, &k, algorithm);
            for (m, t) in k.iter().enumerate() {
                for (n, s) in j.iter().enumerate() {
                    assert_eq!(
                        *distances.get(m, n),
                        edit_distance(s, t),
                        "{s} vs {t} with {algorithm:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_pipeline_matches_scalar_oracles() {
        let alphabet = Alphabet::lowercase();
        let j = ["privacy", "preserving", "", "x", "clustering"];
        let k = ["pres", "clustered", ""];
        let j_encoded: Vec<Vec<u32>> = j.iter().map(|s| alphabet.encode(s).unwrap()).collect();
        let k_encoded: Vec<Vec<u32>> = k.iter().map(|s| alphabet.encode(s).unwrap()).collect();
        for algorithm in [RngAlgorithm::ChaCha20, RngAlgorithm::SplitMix64] {
            let seeds = seeds();
            let masked =
                initiator_mask_strings(&j_encoded, alphabet.size(), &seeds, algorithm).unwrap();
            assert_eq!(
                masked,
                initiator_mask_strings_scalar(&j_encoded, alphabet.size(), &seeds, algorithm)
                    .unwrap()
            );
            let bundle = responder_build_bundle(&masked, &k_encoded, alphabet.size()).unwrap();
            assert_eq!(
                bundle,
                responder_build_bundle_scalar(&masked, &k_encoded, alphabet.size()).unwrap()
            );
            let distances = third_party_edit_distances(
                &bundle,
                alphabet.size(),
                &seeds.holder_third_party,
                algorithm,
            )
            .unwrap();
            assert_eq!(
                distances,
                third_party_edit_distances_scalar(
                    &bundle,
                    alphabet.size(),
                    &seeds.holder_third_party,
                    algorithm,
                )
                .unwrap()
            );
        }
    }

    #[test]
    fn cached_offset_form_matches_fresh_derivation() {
        let alphabet = Alphabet::dna();
        let seeds = seeds();
        let algorithm = RngAlgorithm::ChaCha20;
        let encoded = vec![
            alphabet.encode("gattaca").unwrap(),
            alphabet.encode("acgt").unwrap(),
        ];
        // An over-long cached prefix serves any request at or below its
        // length.
        let offsets = offset_prefix(32, alphabet.size(), &seeds.holder_third_party, algorithm);
        let masked =
            initiator_mask_strings_with_offsets(&encoded, alphabet.size(), &offsets).unwrap();
        assert_eq!(
            masked,
            initiator_mask_strings(&encoded, alphabet.size(), &seeds, algorithm).unwrap()
        );
        let bundle = responder_build_bundle(
            &masked,
            &[alphabet.encode("catcat").unwrap()],
            alphabet.size(),
        )
        .unwrap();
        assert_eq!(
            third_party_edit_distances_with_offsets(&bundle, alphabet.size(), &offsets).unwrap(),
            third_party_edit_distances(
                &bundle,
                alphabet.size(),
                &seeds.holder_third_party,
                algorithm,
            )
            .unwrap()
        );
        // A prefix shorter than the longest string is rejected.
        assert!(
            initiator_mask_strings_with_offsets(&encoded, alphabet.size(), &offsets[..3]).is_err()
        );
        assert!(
            third_party_edit_distances_with_offsets(&bundle, alphabet.size(), &offsets[..3])
                .is_err()
        );
    }

    #[test]
    fn off_domain_cells_are_rejected() {
        // Cells ≥ |A| can only come from a nonconforming peer. The kernel
        // and the scalar oracle both refuse them instead of wrapping.
        let seeds = seeds();
        let algorithm = RngAlgorithm::ChaCha20;
        for bad in [9, u32::MAX] {
            let bundle = MaskedCcmBundle::new(1, 1, vec![(2, 2)], vec![0, bad, 3, 2]).unwrap();
            for result in [
                third_party_edit_distances(&bundle, 4, &seeds.holder_third_party, algorithm),
                third_party_edit_distances_scalar(&bundle, 4, &seeds.holder_third_party, algorithm),
            ] {
                assert!(matches!(result, Err(CoreError::Protocol(_))), "{result:?}");
            }
        }
    }

    #[test]
    fn off_domain_masked_symbols_are_rejected() {
        let own = vec![vec![0, 1, 2]];
        for bad in [4, u32::MAX] {
            let masked = vec![vec![1, 2], vec![3, bad]];
            for result in [
                responder_build_bundle(&masked, &own, 4),
                responder_build_bundle_scalar(&masked, &own, 4),
            ] {
                assert!(matches!(result, Err(CoreError::Protocol(_))), "{result:?}");
            }
        }
    }

    #[test]
    fn masked_strings_stay_inside_the_alphabet_and_differ_from_plaintext() {
        let alphabet = Alphabet::lowercase();
        let strings = vec![alphabet.encode("confidential").unwrap()];
        let masked =
            initiator_mask_strings(&strings, alphabet.size(), &seeds(), RngAlgorithm::ChaCha20)
                .unwrap();
        assert_eq!(masked[0].len(), strings[0].len());
        assert!(masked[0].iter().all(|&c| c < alphabet.size()));
        // With 12 characters over a 26-letter alphabet the chance that the
        // masked string equals the plaintext is 26^-12; assert inequality.
        assert_ne!(masked[0], strings[0]);
    }

    #[test]
    fn bundle_dimensions_are_validated() {
        // A matrix count that is not responder_count · initiator_count.
        assert!(MaskedCcmBundle::new(2, 2, vec![], vec![]).is_err());
        assert!(MaskedCcmBundle::new(usize::MAX, 2, vec![], vec![]).is_err());
        // A cell buffer that does not match the matrix shapes.
        assert!(MaskedCcmBundle::new(2, 2, vec![(1, 1); 4], vec![0, 1]).is_err());
        assert!(MaskedCcmBundle::new(1, 1, vec![(u32::MAX, u32::MAX)], vec![]).is_err());
        let bundle = MaskedCcmBundle::new(1, 2, vec![(2, 1), (2, 0)], vec![3, 1]).unwrap();
        let matrices: Vec<_> = bundle.matrices().collect();
        assert_eq!(matrices, [(2, 1, &[3, 1][..]), (2, 0, &[][..])]);
        assert_eq!(bundle.max_initiator_len(), 1);
        let distances = third_party_edit_distances(
            &bundle,
            4,
            &seeds().holder_third_party,
            RngAlgorithm::ChaCha20,
        )
        .unwrap();
        assert_eq!((distances.rows(), distances.cols()), (1, 2));
        // Against an empty initiator string the distance is the row count.
        assert_eq!(*distances.get(0, 1), 2);
    }

    #[test]
    fn empty_string_sets_are_handled() {
        let alphabet = Alphabet::dna();
        let distances = run_protocol(&alphabet, &[], &["acgt"], RngAlgorithm::ChaCha20);
        assert_eq!((distances.rows(), distances.cols()), (1, 0));
        let distances = run_protocol(&alphabet, &["acgt"], &[], RngAlgorithm::ChaCha20);
        assert_eq!((distances.rows(), distances.cols()), (0, 1));
        assert!(distances.is_empty());
    }

    #[test]
    fn different_seeds_produce_different_maskings_but_same_distances() {
        let alphabet = Alphabet::dna();
        let encoded = vec![alphabet.encode("acgtacgt").unwrap()];
        let s1 = PairwiseSeeds::new(Seed::from_u64(1), Seed::from_u64(2));
        let s2 = PairwiseSeeds::new(Seed::from_u64(3), Seed::from_u64(4));
        let m1 = initiator_mask_strings(&encoded, 4, &s1, RngAlgorithm::ChaCha20).unwrap();
        let m2 = initiator_mask_strings(&encoded, 4, &s2, RngAlgorithm::ChaCha20).unwrap();
        assert_ne!(m1, m2);
        for (seeds, masked) in [(s1, m1), (s2, m2)] {
            let bundle =
                responder_build_bundle(&masked, &[alphabet.encode("aggt").unwrap()], 4).unwrap();
            let d = third_party_edit_distances(
                &bundle,
                4,
                &seeds.holder_third_party,
                RngAlgorithm::ChaCha20,
            )
            .unwrap();
            assert_eq!(*d.get(0, 0), edit_distance("acgtacgt", "aggt"));
        }
    }
}
