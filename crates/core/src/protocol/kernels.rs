//! Chunked, autovectorizable row kernels for the comparison protocols'
//! hot loops.
//!
//! The numeric mask/fold/unmask operations and the alphanumeric
//! subtract/unmask are element-wise wrapping arithmetic over flat slices —
//! exactly the shape LLVM's autovectorizer handles, *if* the loop body is
//! branch-free and the trip count is a fixed stride. Each kernel here
//! follows the ChaCha wide-kernel idiom from `ppc-crypto`: the bulk of the
//! row is processed in [`LANES`]-wide chunks whose fixed-size inner loops
//! compile to SIMD, and a scalar remainder loop handles the tail, so any
//! row length (including empty and non-multiple-of-stride) is supported.
//!
//! Negation choices enter the kernels as precomputed sign slices (`+1`/`-1`
//! as `i64`), because `x · sign` in wrapping arithmetic is the branch-free
//! form of "negate if the shared parity says so". The conversions from raw
//! RNG draws ([`signs_j_from_raw`]) and from [`Negator`] slices
//! ([`signs_j_of`]) are both provided so the cached-prefix and the legacy
//! call paths share one kernel.
//!
//! Every kernel is value-identical to the scalar role functions in
//! [`numeric`](crate::protocol::numeric) and
//! [`alphanumeric`](crate::protocol::alphanumeric) — the `_scalar` oracles
//! retained there are property-tested against these implementations.

use ppc_crypto::Negator;

use crate::distance::edit::WORD_BITS;

/// Fixed vector width of the chunked kernels (in 64-bit lanes).
///
/// Eight lanes give the autovectorizer a full AVX-512 row or two AVX2 rows
/// per chunk while keeping the remainder loop at most seven elements.
pub const LANES: usize = 8;

/// `DH_J`'s signs (`-1` when it negates) from raw `rng_JK` draws: odd ⇒
/// `DH_J` negates.
pub fn signs_j_from_raw(raw: &[u64]) -> Vec<i64> {
    raw.iter().map(|&r| 1 - 2 * ((r & 1) as i64)).collect()
}

/// `DH_K`'s signs from raw `rng_JK` draws (always the opposite of `DH_J`'s).
pub fn signs_k_from_raw(raw: &[u64]) -> Vec<i64> {
    raw.iter().map(|&r| 2 * ((r & 1) as i64) - 1).collect()
}

/// `DH_J`'s signs from already-materialised negation choices.
pub fn signs_j_of(negators: &[Negator]) -> Vec<i64> {
    negators.iter().map(Negator::sign_j).collect()
}

/// `DH_K`'s signs from already-materialised negation choices.
pub fn signs_k_of(negators: &[Negator]) -> Vec<i64> {
    negators.iter().map(Negator::sign_k).collect()
}

/// Initiator mask kernel: `out[i] = values[i] · signs_j[i] + masks[i]`
/// (wrapping over `Z_{2^64}`). All four slices must share one length.
pub fn mask_row(values: &[i64], signs_j: &[i64], masks: &[u64], out: &mut [i64]) {
    assert_eq!(values.len(), signs_j.len());
    assert_eq!(values.len(), masks.len());
    assert_eq!(values.len(), out.len());
    let main = values.len() - values.len() % LANES;
    let chunks = values[..main]
        .chunks_exact(LANES)
        .zip(signs_j[..main].chunks_exact(LANES))
        .zip(masks[..main].chunks_exact(LANES))
        .zip(out[..main].chunks_exact_mut(LANES));
    for (((v, s), m), o) in chunks {
        for i in 0..LANES {
            o[i] = v[i].wrapping_mul(s[i]).wrapping_add(m[i] as i64);
        }
    }
    for i in main..values.len() {
        out[i] = values[i]
            .wrapping_mul(signs_j[i])
            .wrapping_add(masks[i] as i64);
    }
}

/// Responder fold kernel for one row: `out[i] = masked[i] + y · signs_k[i]`
/// (wrapping), with the responder value `y` broadcast across the row.
pub fn fold_row(masked: &[i64], y: i64, signs_k: &[i64], out: &mut [i64]) {
    assert_eq!(masked.len(), signs_k.len());
    assert_eq!(masked.len(), out.len());
    let main = masked.len() - masked.len() % LANES;
    let chunks = masked[..main]
        .chunks_exact(LANES)
        .zip(signs_k[..main].chunks_exact(LANES))
        .zip(out[..main].chunks_exact_mut(LANES));
    for ((m, s), o) in chunks {
        for i in 0..LANES {
            o[i] = m[i].wrapping_add(y.wrapping_mul(s[i]));
        }
    }
    for i in main..masked.len() {
        out[i] = masked[i].wrapping_add(y.wrapping_mul(signs_k[i]));
    }
}

/// Third-party unmask kernel: `out[i] = |values[i] − masks[i]|` (wrapping
/// subtraction, then absolute value over `Z_{2^64}`).
pub fn unmask_row(values: &[i64], masks: &[u64], out: &mut [u64]) {
    assert_eq!(values.len(), masks.len());
    assert_eq!(values.len(), out.len());
    let main = values.len() - values.len() % LANES;
    let chunks = values[..main]
        .chunks_exact(LANES)
        .zip(masks[..main].chunks_exact(LANES))
        .zip(out[..main].chunks_exact_mut(LANES));
    for ((v, m), o) in chunks {
        for i in 0..LANES {
            o[i] = v[i].wrapping_sub(m[i] as i64).unsigned_abs();
        }
    }
    for i in main..values.len() {
        out[i] = values[i].wrapping_sub(masks[i] as i64).unsigned_abs();
    }
}

/// Alphanumeric modular-add kernel: `out[p] = (symbols[p] + addends[p]) mod
/// size`, branch-free via conditional subtraction.
///
/// Precondition: every `symbols[p] < size` and every `addends[p] ≤ size`
/// (the callers pass alphabet-domain symbols and `size − t mod size`
/// style terms). Under that domain the sum stays below `2·size`, so one
/// conditional subtract equals the oracle's `% size`.
pub fn alpha_mod_add_row(symbols: &[u32], addends: &[u32], size: u32, out: &mut [u32]) {
    assert_eq!(symbols.len(), addends.len());
    assert_eq!(symbols.len(), out.len());
    let main = symbols.len() - symbols.len() % LANES;
    let chunks = symbols[..main]
        .chunks_exact(LANES)
        .zip(addends[..main].chunks_exact(LANES))
        .zip(out[..main].chunks_exact_mut(LANES));
    for ((s, a), o) in chunks {
        for i in 0..LANES {
            let d = s[i] + a[i];
            o[i] = if d >= size { d - size } else { d };
        }
    }
    for i in main..symbols.len() {
        let d = symbols[i] + addends[i];
        out[i] = if d >= size { d - size } else { d };
    }
}

/// Alphanumeric broadcast variant of [`alpha_mod_add_row`]: one addend for
/// the whole row (`DH_K` subtracting a single character `t_q` from every
/// masked initiator character). Same domain precondition.
pub fn alpha_mod_add_broadcast(symbols: &[u32], addend: u32, size: u32, out: &mut [u32]) {
    assert_eq!(symbols.len(), out.len());
    let main = symbols.len() - symbols.len() % LANES;
    let chunks = symbols[..main]
        .chunks_exact(LANES)
        .zip(out[..main].chunks_exact_mut(LANES));
    for (s, o) in chunks {
        for i in 0..LANES {
            let d = s[i] + addend;
            o[i] = if d >= size { d - size } else { d };
        }
    }
    for i in main..symbols.len() {
        let d = symbols[i] + addend;
        out[i] = if d >= size { d - size } else { d };
    }
}

/// Third-party match-word kernel: bit `p % 64` of `out[p / 64]` is set
/// exactly when `cells[p] == offsets[p]`, which for operands reduced
/// modulo the alphabet size is when the unmasked cell
/// `(cells[p] − offsets[p]) mod |A|` is 0 and the two characters match.
/// `out` holds `⌈cells.len() / 64⌉` words: one CCM row becomes the match
/// words of [`BitParallel`](crate::distance::edit::BitParallel) for one
/// text symbol.
pub(crate) fn alpha_match_words(cells: &[u32], offsets: &[u32], out: &mut [u64]) {
    assert_eq!(cells.len(), offsets.len());
    assert_eq!(out.len(), cells.len().div_ceil(WORD_BITS));
    let words = cells.chunks(WORD_BITS).zip(offsets.chunks(WORD_BITS));
    for (word, (c, o)) in out.iter_mut().zip(words) {
        let mut bits = 0u64;
        for (p, (&cell, &offset)) in c.iter().zip(o).enumerate() {
            bits |= u64::from(cell == offset) << p;
        }
        *word = bits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_crypto::{AlphabetMasker, NumericMasker, Seed, SplitMix64, StreamRng};

    fn rng() -> SplitMix64 {
        SplitMix64::from_seed(&Seed::from_u64(20260808))
    }

    #[test]
    fn sign_conversions_match_negator_rules() {
        let raw: Vec<u64> = (0..32).collect();
        let negators: Vec<Negator> = raw.iter().map(|&r| Negator::from_random(r)).collect();
        assert_eq!(signs_j_from_raw(&raw), signs_j_of(&negators));
        assert_eq!(signs_k_from_raw(&raw), signs_k_of(&negators));
        for (s_j, s_k) in signs_j_from_raw(&raw).iter().zip(signs_k_from_raw(&raw)) {
            assert_eq!(*s_j, -s_k);
        }
    }

    #[test]
    fn numeric_kernels_match_masker_at_awkward_lengths() {
        let mut rng = rng();
        for len in [0usize, 1, 7, 8, 9, 16, 31] {
            let values: Vec<i64> = (0..len).map(|_| rng.next_u64() as i64).collect();
            let raw: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let masks: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let negators: Vec<Negator> = raw.iter().map(|&r| Negator::from_random(r)).collect();
            let y = rng.next_u64() as i64;

            let mut masked = vec![0i64; len];
            mask_row(&values, &signs_j_from_raw(&raw), &masks, &mut masked);
            let mut folded = vec![0i64; len];
            fold_row(&masked, y, &signs_k_from_raw(&raw), &mut folded);
            let mut distances = vec![0u64; len];
            unmask_row(&folded, &masks, &mut distances);

            for i in 0..len {
                let m = NumericMasker::mask_initiator(values[i], masks[i], negators[i]);
                assert_eq!(masked[i], m);
                let f = NumericMasker::fold_responder(m, y, negators[i]);
                assert_eq!(folded[i], f);
                assert_eq!(distances[i], NumericMasker::unmask_distance(f, masks[i]));
            }
        }
    }

    #[test]
    fn alpha_kernels_match_masker_at_awkward_lengths() {
        let size = 26u32;
        let masker = AlphabetMasker::new(size).unwrap();
        let mut rng = rng();
        for len in [0usize, 1, 5, 8, 13, 24] {
            let symbols: Vec<u32> = (0..len)
                .map(|_| rng.next_below(size as u64) as u32)
                .collect();
            let offsets: Vec<u32> = (0..len)
                .map(|_| rng.next_below(size as u64) as u32)
                .collect();
            let t = rng.next_below(size as u64) as u32;

            let mut masked = vec![0u32; len];
            alpha_mod_add_row(&symbols, &offsets, size, &mut masked);
            let mut cells = vec![0u32; len];
            alpha_mod_add_broadcast(&masked, size - t, size, &mut cells);
            let mut words = vec![0u64; len.div_ceil(WORD_BITS)];
            alpha_match_words(&cells, &offsets, &mut words);

            for p in 0..len {
                assert_eq!(masked[p], masker.mask(symbols[p], offsets[p]));
                assert_eq!(cells[p], masker.subtract(masked[p], t));
                let matched = words[p / WORD_BITS] >> (p % WORD_BITS) & 1 == 1;
                assert_eq!(matched, masker.is_match(cells[p], offsets[p]));
            }
        }
    }
}
