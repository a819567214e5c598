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
//!    third party ([`responder_build_bundle`]). Every cell is kept packed
//!    at `b = ⌈log₂|A|⌉` bits, the layout the wire carries
//!    (`docs/WIRE_FORMAT.md` §6.6): for each masked string `s'_n` and each
//!    distinct symbol `c` of its own strings, `DH_K` packs the row
//!    `(s'_n[p] − c) mod |A|` once, and each matrix row is then one
//!    bit-append of the row for `t[q]`.
//! 3. `TP` regenerates the offsets and reads each packed row straight
//!    into a match word: it XORs the row's `b`-bit fields with the
//!    reduced offsets, packed the same way, and a broadword zero test
//!    (D. E. Knuth, TAOCP Vol. 4A, §7.1.3) sets the top bit of field `p`
//!    exactly when `s[p] = t[q]`. That is row `q` of the character
//!    comparison matrix, and the bit-parallel edit-distance kernel
//!    consumes it at a field stride of `b` bits as the match word of text
//!    symbol `q` ([`third_party_edit_distances`]). No cell is ever
//!    unpacked.
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
//! inside the alphabet domain, so `DH_K` rejects masked symbols, and `TP`
//! rejects CCM cells, that lie outside `[0, |A|)`; `TP` tests every field
//! of a packed row in the same pass that builds its match word. Data
//! produced by this protocol never holds such values; a peer that sends
//! them gets a [`CoreError::Protocol`]. The `*_scalar` oracles keep the
//! per-cell masker arithmetic over unpacked `u32` cells, the explicit
//! [`CharacterComparisonMatrix`] and the Levenshtein dynamic program, and
//! the kernels are property-tested against them. The shared `rng_JT`
//! offset prefix is exposed through the `*_with_offsets` variants so a
//! derivation cache can hand the same prefix to many sessions.

use std::ops::Range;

use ppc_crypto::prng::DynStreamRng;
use ppc_crypto::{
    offsets_from_raw, raw_u64_prefix, AlphabetMasker, PairwiseSeeds, RngAlgorithm, Seed,
};
use ppc_net::{packed_len, packed_width, WireReader, WireWriter};

use crate::ccm::CharacterComparisonMatrix;
use crate::distance::edit::BitParallel;
use crate::distance::edit_distance_from_ccm;
use crate::error::CoreError;
use crate::pairwise::PairwiseBlock;
use crate::protocol::kernels;

/// The bundle `DH_K` sends to the third party: one intermediary (still
/// masked) comparison matrix per (responder object, initiator object) pair,
/// responder-major. Entry `[q][p]` of a matrix corresponds to `DH_K`'s
/// character `q` and `DH_J`'s (masked) character `p`.
///
/// The bundle is flat: matrix `(m, n)` is always `|t_m| × |s'_n|`, so one
/// length vector per side gives every shape, and one packed section holds
/// the cells of every matrix, matrix after matrix, each row-major, at `b`
/// bits per cell, exactly as the wire carries it (`docs/WIRE_FORMAT.md`
/// §6.6): `packed_len(Σ|t| · Σ|s'|, b)` bytes, least-significant bit
/// first, with zero padding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskedCcmBundle {
    responder_lens: Vec<u32>,
    initiator_lens: Vec<u32>,
    /// Bits per cell.
    bits: u32,
    packed: Vec<u8>,
}

/// Sum of a length vector. It cannot overflow a `u64` for fewer than 2³²
/// lengths, and a `u32` count prefix declares no more.
fn total_len(lens: &[u32]) -> u64 {
    lens.iter().map(|&len| u64::from(len)).sum()
}

/// The cells a bundle with these string lengths holds: the pair
/// `(t, s')` contributes `|t|·|s'|`, so the bundle holds `Σ|t| · Σ|s'|`.
/// `None` if that overflows a `u64`.
pub(crate) fn bundle_cells(responder_lens: &[u32], initiator_lens: &[u32]) -> Option<u64> {
    total_len(responder_lens).checked_mul(total_len(initiator_lens))
}

impl MaskedCcmBundle {
    /// Builds the bundle of `|t_m| × |s'_n|` matrices for the responder
    /// string lengths `responder_lens` (`|t_m|`) and the initiator string
    /// lengths `initiator_lens` (`|s'_n|`), whose cells, concatenated in
    /// matrix order, are `cells`, packing them at
    /// [`packed_width`]`(alphabet_size)` bits. Rejects a cell that does
    /// not fit that width.
    pub fn new(
        responder_lens: Vec<u32>,
        initiator_lens: Vec<u32>,
        cells: &[u32],
        alphabet_size: u32,
    ) -> Result<Self, CoreError> {
        let needed = bundle_cells(&responder_lens, &initiator_lens);
        if needed != Some(cells.len() as u64) {
            return Err(CoreError::Protocol(format!(
                "bundle holds {} cells, its string lengths need {}",
                cells.len(),
                needed.map_or_else(|| "more than 2^64".into(), |n| n.to_string())
            )));
        }
        let bits = packed_width(alphabet_size);
        if let Some(cell) = cells.iter().find(|&&cell| u64::from(cell) >> bits != 0) {
            return Err(CoreError::Protocol(format!(
                "CCM cell {cell} does not fit {bits} bits"
            )));
        }
        let mut w = WireWriter::with_capacity(packed_len(cells.len(), bits));
        w.put_packed(cells, bits);
        Ok(Self::from_packed(
            responder_lens,
            initiator_lens,
            bits,
            w.finish(),
        ))
    }

    /// A bundle over a packed section that is already laid out: exactly
    /// `packed_len(Σ|t| · Σ|s'|, bits)` bytes, with zero padding.
    pub(crate) fn from_packed(
        responder_lens: Vec<u32>,
        initiator_lens: Vec<u32>,
        bits: u32,
        packed: Vec<u8>,
    ) -> Self {
        debug_assert_eq!(
            bundle_cells(&responder_lens, &initiator_lens)
                .map(|cells| packed_len(cells as usize, bits)),
            Some(packed.len())
        );
        MaskedCcmBundle {
            responder_lens,
            initiator_lens,
            bits,
            packed,
        }
    }

    /// Number of responder objects (`DH_K`).
    pub fn responder_count(&self) -> usize {
        self.responder_lens.len()
    }

    /// Number of initiator objects (`DH_J`).
    pub fn initiator_count(&self) -> usize {
        self.initiator_lens.len()
    }

    /// The responder's string lengths, the row counts of the matrices.
    pub(crate) fn responder_lens(&self) -> &[u32] {
        &self.responder_lens
    }

    /// The initiator's string lengths, the column counts of the matrices.
    pub(crate) fn initiator_lens(&self) -> &[u32] {
        &self.initiator_lens
    }

    /// Number of matrices, `responder_count · initiator_count`.
    pub fn len(&self) -> usize {
        self.responder_count() * self.initiator_count()
    }

    /// Whether the bundle holds no matrix.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bits per cell, [`packed_width`] of the alphabet size.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The packed cells of every matrix, matrix after matrix.
    pub fn packed(&self) -> &[u8] {
        &self.packed
    }

    /// Unpacks every cell, matrix after matrix. The protocol never does
    /// this; the scalar oracles and tests do.
    pub fn unpack_cells(&self) -> Vec<u32> {
        let count = bundle_cells(&self.responder_lens, &self.initiator_lens)
            .expect("a bundle's cell count fits its section");
        WireReader::new(&self.packed)
            .get_packed(count, self.bits)
            .expect("a bundle's section is well-formed")
    }

    /// Column count of the widest matrix (the longest initiator string).
    pub fn max_initiator_len(&self) -> usize {
        self.initiator_lens
            .iter()
            .max()
            .map_or(0, |&len| len as usize)
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
/// building one intermediary matrix per string pair into one packed
/// section.
///
/// Rejects masked strings holding a symbol outside `[0, alphabet_size)`.
pub fn responder_build_bundle(
    masked_initiator: &[Vec<u32>],
    own_strings: &[Vec<u32>],
    alphabet_size: u32,
) -> Result<MaskedCcmBundle, CoreError> {
    let rows = ResponderRows::new(masked_initiator, own_strings, alphabet_size)?;
    Ok(rows.bundle(0..own_strings.len()))
}

/// `DH_K`'s packed rows for one masked-strings message: for each masked
/// initiator string `s'_n` and each distinct symbol `c` of `DH_K`'s
/// strings, the row `(s'_n[p] − c) mod |A|` packed at `b` bits, computed
/// once. Row `q` of matrix `(m, n)` is the row of `s'_n` for `t_m[q]`, so
/// [`bundle`](Self::bundle) builds every matrix by bit-appending rows; a
/// 12-symbol DNA row is 24 bits, one append. The table holds one row per
/// distinct symbol, never more rows than the bundle it builds.
#[derive(Debug)]
pub(crate) struct ResponderRows {
    bits: u32,
    initiator_lens: Vec<u32>,
    /// `DH_K`'s string lengths.
    own_lens: Vec<u32>,
    /// Where each of `DH_K`'s strings starts in `own_ids`, and the end.
    own_starts: Vec<usize>,
    /// `DH_K`'s strings, each symbol as its index among the distinct
    /// symbols.
    own_ids: Vec<u32>,
    /// The rows of each distinct symbol `c`, one block of `block` words
    /// per symbol: the row `(s'_n[p] − c) mod |A|` of masked string `s'_n`
    /// is packed from word `row_offsets[n]` of the block on, zero-padded
    /// to whole words, so a matrix row is appended a word at a time. A
    /// matrix row reads its symbol's block, so the rows of one of
    /// `DH_K`'s strings against every masked string come from a few
    /// blocks read front to back.
    row_offsets: Vec<usize>,
    block: usize,
    rows: Vec<u8>,
}

impl ResponderRows {
    /// Packs the rows of `masked_initiator` against the distinct symbols
    /// of `own_strings`. Rejects masked strings holding a symbol outside
    /// `[0, alphabet_size)`.
    pub(crate) fn new(
        masked_initiator: &[Vec<u32>],
        own_strings: &[Vec<u32>],
        alphabet_size: u32,
    ) -> Result<Self, CoreError> {
        // Rejects alphabet sizes outside [2, 2^31].
        AlphabetMasker::new(alphabet_size)?;
        check_domain(
            masked_initiator.iter().map(Vec::as_slice),
            alphabet_size,
            "masked string",
        )?;
        let bits = packed_width(alphabet_size);
        let mut symbols: Vec<u32> = own_strings
            .iter()
            .flatten()
            .map(|&c| c % alphabet_size)
            .collect();
        symbols.sort_unstable();
        symbols.dedup();
        let own_ids = own_strings
            .iter()
            .flatten()
            .map(|&c| {
                symbols
                    .binary_search(&(c % alphabet_size))
                    .expect("every symbol was collected") as u32
            })
            .collect();
        let mut own_starts = vec![0];
        own_starts.extend(own_strings.iter().scan(0, |end, t| {
            *end += t.len();
            Some(*end)
        }));
        let mut row_offsets = Vec::with_capacity(masked_initiator.len());
        let mut block = 0;
        for s_masked in masked_initiator {
            row_offsets.push(block);
            block += (s_masked.len() * bits as usize).div_ceil(64);
        }
        let mut rows = WireWriter::with_capacity(8 * block * symbols.len());
        let mut cells = Vec::new();
        for &c in &symbols {
            for s_masked in masked_initiator {
                cells.resize(s_masked.len(), 0);
                kernels::alpha_mod_add_broadcast(
                    s_masked,
                    alphabet_size - c,
                    alphabet_size,
                    &mut cells,
                );
                let len = packed_len(cells.len(), bits);
                rows.put_packed(&cells, bits)
                    .put_packed_raw(&[0; 7][..len.next_multiple_of(8) - len]);
            }
        }
        let rows = rows.finish();
        Ok(ResponderRows {
            bits,
            initiator_lens: lens(masked_initiator),
            own_lens: lens(own_strings),
            own_starts,
            own_ids,
            row_offsets,
            block,
            rows,
        })
    }

    /// Number of `DH_K`'s strings.
    pub(crate) fn own_count(&self) -> usize {
        self.own_lens.len()
    }

    /// The bundle of the matrices of `DH_K`'s strings `own` against every
    /// masked string.
    pub(crate) fn bundle(&self, own: Range<usize>) -> MaskedCcmBundle {
        let bits = self.bits as usize;
        let own_lens = &self.own_lens[own.clone()];
        let mut ids = &self.own_ids[self.own_starts[own.start]..self.own_starts[own.end]];
        let cells = ids.len() * total_len(&self.initiator_lens) as usize;
        let mut packed = vec![0u8; (cells * bits).div_ceil(64) * 8];
        let mut out = BitAppender::new(&mut packed);
        for &len in own_lens {
            let (t, rest) = ids.split_at(len as usize);
            ids = rest;
            for (&cols, &at) in self.initiator_lens.iter().zip(&self.row_offsets) {
                let row_bits = cols as usize * bits;
                let words = row_bits.div_ceil(64);
                for &id in t {
                    let row = &self.rows[8 * (id as usize * self.block + at)..][..8 * words];
                    out.append(row, row_bits);
                }
            }
        }
        out.finish();
        packed.truncate(packed_len(cells, self.bits));
        MaskedCcmBundle::from_packed(
            own_lens.to_vec(),
            self.initiator_lens.clone(),
            self.bits,
            packed,
        )
    }
}

/// Appends bit strings to a byte buffer, 64 bits at a time.
struct BitAppender<'a> {
    out: &'a mut [u8],
    /// Bytes written.
    at: usize,
    /// Bits not yet written, in the low `filled` bits.
    acc: u64,
    filled: u32,
}

impl<'a> BitAppender<'a> {
    /// An appender writing into `out`, which must hold the appended bits
    /// rounded up to whole words.
    fn new(out: &'a mut [u8]) -> Self {
        BitAppender {
            out,
            at: 0,
            acc: 0,
            filled: 0,
        }
    }

    /// Appends the low `bits` bits of `row`, little-endian words whose
    /// other bits are zero.
    #[inline(always)]
    fn append(&mut self, row: &[u8], bits: usize) {
        let (full, rest) = (bits / 64, (bits % 64) as u32);
        let mut words = row
            .chunks_exact(8)
            .map(|word| u64::from_le_bytes(word.try_into().expect("8 bytes")));
        for word in words.by_ref().take(full) {
            self.push(word, 64);
        }
        if rest > 0 {
            self.push(words.next().expect("a partial word"), rest);
        }
    }

    /// Appends the low `bits` bits of `word`, whose other bits are zero.
    #[inline(always)]
    fn push(&mut self, word: u64, bits: u32) {
        self.acc |= word << self.filled;
        let filled = self.filled + bits;
        if filled >= 64 {
            self.out[self.at..self.at + 8].copy_from_slice(&self.acc.to_le_bytes());
            self.at += 8;
            // The bits of `word` that did not fit; none if `filled` was 0.
            self.acc = (word >> 1) >> (63 - self.filled);
            self.filled = filled - 64;
        } else {
            self.filled = filled;
        }
    }

    /// Writes the bits still held.
    fn finish(self) {
        let bytes = self.filled.div_ceil(8) as usize;
        self.out[self.at..self.at + bytes].copy_from_slice(&self.acc.to_le_bytes()[..bytes]);
    }
}

/// The lengths of `strings`, as a bundle stores them.
fn lens(strings: &[Vec<u32>]) -> Vec<u32> {
    strings.iter().map(|s| s.len() as u32).collect()
}

/// Scalar oracle for [`responder_build_bundle`]: per-cell masker
/// arithmetic into `u32` cells, packed by [`MaskedCcmBundle::new`].
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
    let mut cells = Vec::new();
    for t in own_strings {
        for s_masked in masked_initiator {
            for &tq in t {
                for &sp in s_masked {
                    cells.push(masker.subtract(sp, tq));
                }
            }
        }
    }
    MaskedCcmBundle::new(
        lens(own_strings),
        lens(masked_initiator),
        &cells,
        alphabet_size,
    )
}

/// `TP` (Figure 10): reads every packed CCM row into a match word and
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

/// Checks that the bundle's cells are as wide as the alphabet's.
fn check_width(bundle: &MaskedCcmBundle, alphabet_size: u32) -> Result<(), CoreError> {
    let bits = packed_width(alphabet_size);
    if bundle.bits() == bits {
        Ok(())
    } else {
        Err(CoreError::Protocol(format!(
            "CCM cells are {} bits wide, an alphabet of {alphabet_size} symbols takes {bits}",
            bundle.bits()
        )))
    }
}

/// The 64 bits of `bytes` from bit `at` on, least-significant first; bits
/// past the end read as zero.
#[inline(always)]
fn bits_at(bytes: &[u8], at: usize) -> u64 {
    let (i, shift) = (at / 8, (at % 8) as u32);
    let mut end = [0u8; 9];
    let window = match bytes.get(i..i + 9) {
        Some(window) => window,
        None => {
            let tail = bytes.get(i..).unwrap_or_default();
            end[..tail.len()].copy_from_slice(tail);
            &end[..]
        }
    };
    let low = u64::from_le_bytes(window[..8].try_into().expect("8 bytes"));
    (low >> shift) | (u64::from(window[8]) << (63 - shift) << 1)
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
    // Rejects alphabet sizes outside [2, 2^31].
    AlphabetMasker::new(alphabet_size)?;
    check_width(bundle, alphabet_size)?;
    let max_cols = bundle.max_initiator_len();
    if offsets.len() < max_cols {
        return Err(CoreError::Protocol(format!(
            "offset prefix of {} covers matrices up to {max_cols} columns",
            offsets.len()
        )));
    }
    // A match word at stride b holds k = ⌊64 / b⌋ fields of b bits: H is
    // each field's top bit, L its other bits, and K = 2^b − |A| in each
    // field (0 for a power-of-two alphabet).
    let bits = bundle.bits();
    let stride = bits as usize;
    let fields = 64 / stride;
    let (mut high, mut low, mut excess) = (0u64, 0u64, 0u64);
    for base in (0..fields).map(|f| f * stride) {
        high |= 1 << (base + stride - 1);
        low |= ((1 << (stride - 1)) - 1) << base;
        excess |= ((1 << stride) - u64::from(alphabet_size)) << base;
    }
    // With the cells in [0, |A|), `(cell − offset) mod |A| = 0` exactly when
    // the cell equals the offset reduced mod |A|, so each word of a row is
    // XORed with the reduced offsets of its fields.
    let offset_words: Vec<u64> = offsets[..max_cols]
        .chunks(fields)
        .map(|chunk| {
            chunk.iter().enumerate().fold(0, |word, (f, &offset)| {
                word | u64::from(offset % alphabet_size) << (f * stride)
            })
        })
        .collect();
    let packed = bundle.packed();
    let word_bits = fields * stride;
    let mut kernel = BitParallel::default();
    let mut off_domain = 0;
    let mut at = 0;
    let mut distances = Vec::with_capacity(bundle.len());
    for &rows in bundle.responder_lens() {
        for &cols in bundle.initiator_lens() {
            // DH_J's string (the columns) is the pattern and DH_K's (the
            // rows) the text: row q is the match word of t[q]. A row's
            // last word reads on into the next row or the zero padding,
            // which lands in fields past the pattern's end: the kernel
            // ignores them, and the next row's cells are tested anyway.
            let (rows, cols) = (rows as usize, cols as usize);
            let row_bits = cols * stride;
            let matrix = at;
            distances.push(kernel.distance(bits, cols, rows, |q, w| {
                let x = bits_at(packed, matrix + q * row_bits + w * word_bits);
                // A field's top bit is set here exactly when it holds a
                // value ≥ |A|.
                off_domain |= x & ((x & low) + excess) & high;
                // ...and here exactly when it equals the offset.
                let y = x ^ offset_words[w];
                !(((y & low) + low) | y | low) & high
            }));
            at += rows * row_bits;
        }
    }
    if off_domain != 0 {
        return Err(CoreError::Protocol(format!(
            "masked CCM holds a cell outside the alphabet of {alphabet_size} symbols"
        )));
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
    check_width(bundle, alphabet_size)?;
    let cells = bundle.unpack_cells();
    check_domain([cells.as_slice()], alphabet_size, "masked CCM")?;
    let mut rng_jt = DynStreamRng::new(algorithm, seed_jt);
    let offsets: Vec<u32> = (0..bundle.max_initiator_len())
        .map(|_| (rng_jt.next_u64() % alphabet_size as u64) as u32)
        .collect();
    let mut distances = Vec::with_capacity(bundle.len());
    let mut rest = cells.as_slice();
    let shapes = bundle.responder_lens().iter().flat_map(|&rows| {
        bundle
            .initiator_lens()
            .iter()
            .map(move |&cols| (rows as usize, cols as usize))
    });
    for (rows, cols) in shapes {
        let (cells, tail) = rest.split_at(rows * cols);
        rest = tail;
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
    use ppc_crypto::{Seed, SplitMix64, StreamRng};

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
        // Cells ≥ |A| can only come from a nonconforming peer. At |A| = 26
        // a 5-bit cell can hold 26–31: the kernel and the scalar oracle
        // both refuse them instead of wrapping, wherever they sit.
        let seeds = seeds();
        let algorithm = RngAlgorithm::ChaCha20;
        for bad in 26..32 {
            for at in 0..4 {
                let mut cells = vec![0, 25, 3, 2];
                cells[at] = bad;
                let bundle = MaskedCcmBundle::new(vec![2], vec![2], &cells, 26).unwrap();
                for result in [
                    third_party_edit_distances(&bundle, 26, &seeds.holder_third_party, algorithm),
                    third_party_edit_distances_scalar(
                        &bundle,
                        26,
                        &seeds.holder_third_party,
                        algorithm,
                    ),
                ] {
                    assert!(matches!(result, Err(CoreError::Protocol(_))), "{result:?}");
                }
            }
        }
        // A cell that does not fit the width is refused when the bundle is
        // built, and a bundle is read only at its own width.
        for bad in [4, 9, u32::MAX] {
            assert!(MaskedCcmBundle::new(vec![2], vec![2], &[0, bad, 3, 2], 4).is_err());
        }
        let bundle = MaskedCcmBundle::new(vec![1], vec![1], &[1], 4).unwrap();
        for result in [
            third_party_edit_distances(&bundle, 26, &seeds.holder_third_party, algorithm),
            third_party_edit_distances_scalar(&bundle, 26, &seeds.holder_third_party, algorithm),
        ] {
            assert!(matches!(result, Err(CoreError::Protocol(_))), "{result:?}");
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
        // A cell buffer that does not match the string lengths.
        assert!(MaskedCcmBundle::new(vec![1, 1], vec![1, 1], &[0, 1], 4).is_err());
        assert!(MaskedCcmBundle::new(vec![1], vec![1], &[], 4).is_err());
        assert!(MaskedCcmBundle::new(vec![u32::MAX], vec![u32::MAX], &[], 4).is_err());
        // Σ|t| · Σ|s'| overflowing a u64.
        assert!(MaskedCcmBundle::new(vec![u32::MAX; 3], vec![u32::MAX; 3], &[], 4).is_err());
        // Empty strings on either side need no cells.
        let empty = MaskedCcmBundle::new(vec![0; 3], vec![5, 7], &[], 4).unwrap();
        assert_eq!((empty.len(), empty.max_initiator_len()), (6, 7));
        assert!(empty.packed().is_empty());
        // The section is packed at ⌈log₂|A|⌉ bits with zero padding.
        let bundle = MaskedCcmBundle::new(vec![2], vec![1, 0], &[3, 1], 4).unwrap();
        assert_eq!((bundle.bits(), bundle.packed()), (2, &[0b0111][..]));
        assert_eq!(bundle.unpack_cells(), [3, 1]);
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
        // Responder-major: matrix (m, n) is |t_m| × |s'_n|, and its cells
        // follow those of every earlier matrix. With every offset 0, cell
        // 0 is a match and any other cell a mismatch, so each matrix's
        // distance shows which cells it read.
        let cells = vec![0, 1, 0, 1, 0, 0, 1, 1, 1];
        let ordered = MaskedCcmBundle::new(vec![1, 2], vec![2, 1], &cells, 4).unwrap();
        assert_eq!(ordered.unpack_cells(), cells);
        let distances = third_party_edit_distances_with_offsets(&ordered, 4, &[0, 0]).unwrap();
        // [0 1] → 1, [0] → 0, [1 0; 0 1] → 2, [1; 1] → 2.
        assert_eq!(distances.values(), &[1, 0, 2, 2]);
    }

    #[test]
    fn packed_rows_match_the_scalar_builder_at_every_width() {
        // One alphabet per width b = 1..=31, strings crossing a 64-bit
        // word inside a row and a whole number of words.
        let mut rng = SplitMix64::from_seed(&Seed::from_u64(7));
        for bits in 1..=31u32 {
            let size = if bits == 1 { 2 } else { (1 << (bits - 1)) + 1 };
            let mut draw = |len: usize| -> Vec<u32> {
                (0..len)
                    .map(|_| rng.next_below(u64::from(size)) as u32)
                    .collect()
            };
            let masked: Vec<Vec<u32>> = [0, 1, 5, 64, 70].iter().map(|&n| draw(n)).collect();
            let own: Vec<Vec<u32>> = [3, 0, 9].iter().map(|&n| draw(n)).collect();
            let fast = responder_build_bundle(&masked, &own, size).unwrap();
            assert_eq!(
                fast,
                responder_build_bundle_scalar(&masked, &own, size).unwrap(),
                "{bits} bits"
            );
            // A window of DH_K's strings is the same section as a bundle of
            // those strings alone.
            let rows = ResponderRows::new(&masked, &own, size).unwrap();
            assert_eq!(
                rows.bundle(1..3),
                responder_build_bundle(&masked, &own[1..], size).unwrap()
            );
        }
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
