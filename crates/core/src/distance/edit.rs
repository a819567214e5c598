//! Edit (Levenshtein) distance, over plaintext strings, over character
//! comparison matrices, and over match words.
//!
//! Two implementations compute the same number:
//!
//! * the dynamic program ([`edit_distance`], [`edit_distance_from_ccm`])
//!   fills an `(n+1) × (m+1)` table with insertion, deletion and
//!   substitution costs of 1, reading the substitution cost of a cell from
//!   the plaintext characters or from a [`CharacterComparisonMatrix`]. It
//!   is the reference;
//! * the bit-parallel kernel (`BitParallel`, crate-internal) computes every
//!   edit distance the protocol needs — the third party's straight off
//!   packed CCM rows, at a field stride of ⌈log₂|A|⌉ bits, and each
//!   holder's local matrix at stride 1 — and is tested against the
//!   dynamic program at every stride.

use crate::ccm::CharacterComparisonMatrix;

/// Edit distance between two plaintext strings.
pub fn edit_distance(source: &str, target: &str) -> u32 {
    let s: Vec<char> = source.chars().collect();
    let t: Vec<char> = target.chars().collect();
    edit_distance_by(s.len(), t.len(), |i, j| u32::from(s[i] != t[j]))
}

/// Edit distance computed from a character comparison matrix, the way the
/// third party does it in the alphanumeric protocol.
pub fn edit_distance_from_ccm(ccm: &CharacterComparisonMatrix) -> u32 {
    edit_distance_by(ccm.source_len(), ccm.target_len(), |i, j| {
        ccm.substitution_cost(i, j)
    })
}

/// Shared dynamic program: `cost(i, j)` returns the substitution cost of
/// aligning source position `i` with target position `j`.
fn edit_distance_by<F: Fn(usize, usize) -> u32>(n: usize, m: usize, cost: F) -> u32 {
    if n == 0 {
        return m as u32;
    }
    if m == 0 {
        return n as u32;
    }
    // Two-row rolling table.
    let mut prev: Vec<u32> = (0..=m as u32).collect();
    let mut curr = vec![0u32; m + 1];
    for i in 1..=n {
        curr[0] = i as u32;
        for j in 1..=m {
            let substitution = prev[j - 1] + cost(i - 1, j - 1);
            let deletion = prev[j] + 1;
            let insertion = curr[j - 1] + 1;
            curr[j] = substitution.min(deletion).min(insertion);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[m]
}

/// Pattern symbols per match word at stride 1.
pub(crate) const WORD_BITS: usize = 64;

/// Bit-parallel global edit distance: Myers' bit-vector algorithm
/// (G. Myers, J. ACM 46(3), 1999) in the global form given by H. Hyyrö
/// (Nordic J. Computing 10(1), 2003), over blocks of pattern symbols
/// (Myers §4), so every pattern length runs the same code.
///
/// The kernel never sees a symbol. For each text symbol it takes that
/// symbol's *match words*, whose layout a *stride* `b` (1 to 32) fixes:
/// a word holds `k = ⌊64 / b⌋` fields of `b` bits, and pattern symbol `p`
/// sits at the top bit of field `p mod k` of word `⌊p / k⌋`, bit
/// `(p mod k)·b + b − 1`. That bit is set exactly when the pattern symbol
/// equals the text symbol; every other bit of the word must be clear.
/// Fields at or above the pattern's end in the last word are ignored.
///
/// Stride 1 is the dense layout, bit `p % 64` of word `p / 64`: each
/// holder builds its local matrix's words that way, from per-character
/// masks. The third party's words come straight out of packed CCM rows,
/// whose cells are `b` bits wide, so it runs the kernel at stride `b`.
/// The lower `b − 1` bits of every field are gaps: there the vertical
/// deltas stay `Pv = 1`, `Mv = 0`, so the addition's carry passes
/// straight through them, and the horizontal deltas shift by `b`.
///
/// The value holds the per-block vertical deltas of multi-word patterns
/// and reuses them across calls, so computing many distances allocates
/// once; a one-word pattern keeps its deltas in registers.
#[derive(Debug, Default)]
pub(crate) struct BitParallel {
    /// Per block: the rows whose vertical delta is +1.
    pv: Vec<u64>,
    /// Per block: the rows whose vertical delta is −1.
    mv: Vec<u64>,
}

impl BitParallel {
    /// Edit distance between a pattern of `pattern_len` symbols and a text
    /// of `text_len` symbols, where `match_word(j, w)` returns word `w` of
    /// text symbol `j`'s match words at stride `stride`. The kernel asks
    /// for every word of every text symbol, in order.
    pub(crate) fn distance(
        &mut self,
        stride: u32,
        pattern_len: usize,
        text_len: usize,
        mut match_word: impl FnMut(usize, usize) -> u64,
    ) -> u32 {
        debug_assert!((1..=32).contains(&stride));
        let fields = 64 / stride as usize;
        let blocks = pattern_len.div_ceil(fields);
        if blocks == 0 {
            return text_len as u32;
        }
        // Row m, the score row, sits at the top bit of field (m − 1) mod k
        // of the last block; full blocks hand their bottom row's delta on
        // from their top field.
        let score_bit = ((pattern_len - 1) % fields) as u32 * stride + stride - 1;
        let mut score = pattern_len;
        if blocks == 1 {
            let (mut pv, mut mv) = (!0, 0);
            for j in 0..text_len {
                let eq = match_word(j, 0);
                let (hp, hn) = advance_block(&mut pv, &mut mv, eq, 1, 0, stride, score_bit);
                score = score + hp as usize - hn as usize;
            }
            return score as u32;
        }
        let last = blocks - 1;
        let top_bit = fields as u32 * stride - 1;
        self.pv.clear();
        self.pv.resize(blocks, !0);
        self.mv.clear();
        self.mv.resize(blocks, 0);
        for j in 0..text_len {
            // Global alignment: DP row 0 reads 0, 1, 2, …, so the
            // horizontal delta entering block 0 is +1 for every symbol.
            let (mut hp, mut hn) = (1, 0);
            for (w, (pv, mv)) in self.pv[..last]
                .iter_mut()
                .zip(&mut self.mv[..last])
                .enumerate()
            {
                let eq = match_word(j, w);
                (hp, hn) = advance_block(pv, mv, eq, hp, hn, stride, top_bit);
            }
            let eq = match_word(j, last);
            (hp, hn) = advance_block(
                &mut self.pv[last],
                &mut self.mv[last],
                eq,
                hp,
                hn,
                stride,
                score_bit,
            );
            // D[m][j] = D[m][j−1] + hp − hn ≥ 0, so adding first never
            // underflows.
            score = score + hp as usize - hn as usize;
        }
        score as u32
    }
}

/// Advances one block by one text symbol (Myers' `advance_block`, with the
/// horizontal delta carried as a `(+1, −1)` bit pair so the step has no
/// branch). `hp_in`/`hn_in` (0 or 1) are the delta entering the block's
/// top row, at bit `stride − 1`; the returned pair is the delta leaving
/// the row at bit `out_bit`.
#[inline(always)]
fn advance_block(
    pv: &mut u64,
    mv: &mut u64,
    eq: u64,
    hp_in: u64,
    hn_in: u64,
    stride: u32,
    out_bit: u32,
) -> (u64, u64) {
    let (hp_in, hn_in) = (hp_in << (stride - 1), hn_in << (stride - 1));
    let xv = eq | *mv;
    let eq = eq | hn_in;
    let xh = ((eq & *pv).wrapping_add(*pv) ^ *pv) | eq;
    let ph = *mv | !(xh | *pv);
    let mh = *pv & xh;
    let out = (ph >> out_bit & 1, mh >> out_bit & 1);
    let ph = (ph << stride) | hp_in;
    let mh = (mh << stride) | hn_in;
    *pv = mh | !(xv | ph);
    *mv = ph & xv;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_crypto::{Seed, SplitMix64, StreamRng};

    #[test]
    fn classic_examples() {
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("flaw", "lawn"), 2);
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", "abd"), 1);
        assert_eq!(edit_distance("gattaca", "gtacca"), 3);
    }

    #[test]
    fn symmetry_and_bounds() {
        let pairs = [("abcdef", "azced"), ("acgt", "tgca"), ("aaaa", "aa")];
        for (a, b) in pairs {
            let d = edit_distance(a, b);
            assert_eq!(d, edit_distance(b, a));
            assert!(d as usize <= a.chars().count().max(b.chars().count()));
            assert!(d as usize >= a.chars().count().abs_diff(b.chars().count()));
        }
    }

    #[test]
    fn ccm_variant_agrees_with_plaintext_variant() {
        let pairs = [
            ("abc", "bd"),
            ("kitten", "sitting"),
            ("gattaca", "gtacca"),
            ("", "xyz"),
            ("same", "same"),
            ("aaaaabbbbb", "bbbbbaaaaa"),
        ];
        for (s, t) in pairs {
            let ccm = CharacterComparisonMatrix::from_strings(s, t);
            assert_eq!(
                edit_distance_from_ccm(&ccm),
                edit_distance(s, t),
                "{s} vs {t}"
            );
        }
    }

    #[test]
    fn triangle_inequality_on_samples() {
        let words = ["acgt", "aggt", "tgca", "ac", "acgtacgt", ""];
        for a in words {
            for b in words {
                for c in words {
                    let ab = edit_distance(a, b);
                    let bc = edit_distance(b, c);
                    let ac = edit_distance(a, c);
                    assert!(ac <= ab + bc, "triangle violated for {a} {b} {c}");
                }
            }
        }
    }

    #[test]
    fn unicode_strings_are_compared_by_chars() {
        assert_eq!(edit_distance("naïve", "naive"), 1);
        assert_eq!(edit_distance("çava", "cava"), 1);
    }

    /// Draws two strings of `m` and `n` symbols over a random alphabet of
    /// 2–26 letters, lays the pattern's match words out at `stride`, with
    /// random match bits in the fields past the pattern's end, and checks
    /// the kernel against the dynamic program.
    fn check_kernel(
        rng: &mut SplitMix64,
        kernel: &mut BitParallel,
        stride: u32,
        m: usize,
        n: usize,
    ) {
        let size = 2 + rng.next_below(25);
        let mut draw = |len: usize| -> Vec<usize> {
            (0..len).map(|_| rng.next_below(size) as usize).collect()
        };
        let (pattern, text) = (draw(m), draw(n));
        let fields = 64 / stride as usize;
        let blocks = m.div_ceil(fields);
        let bit = |p: usize| 1u64 << ((p % fields) as u32 * stride + stride - 1);
        let mut peq = vec![0u64; 26 * blocks];
        for (p, &c) in pattern.iter().enumerate() {
            peq[c * blocks + p / fields] |= bit(p);
        }
        for c in 0..26 {
            for p in m..blocks * fields {
                if rng.next_below(2) == 1 {
                    peq[c * blocks + p / fields] |= bit(p);
                }
            }
        }
        let spell =
            |s: &[usize]| -> String { s.iter().map(|&c| (b'a' + c as u8) as char).collect() };
        let fast = kernel.distance(stride, m, n, |j, w| peq[text[j] * blocks + w]);
        assert_eq!(
            fast,
            edit_distance(&spell(&pattern), &spell(&text)),
            "stride={stride} m={m} n={n}"
        );
    }

    #[test]
    fn bit_parallel_kernel_matches_the_dynamic_program() {
        let mut rng = SplitMix64::from_seed(&Seed::from_u64(20261017));
        let mut kernel = BitParallel::default();
        // Every pairing of lengths around the 64- and 128-symbol block
        // boundaries, then random lengths.
        let edges = [0usize, 1, 2, 63, 64, 65, 127, 128, 129, 130];
        for &m in &edges {
            for &n in &edges {
                check_kernel(&mut rng, &mut kernel, 1, m, n);
            }
        }
        for _ in 0..600 {
            let (m, n) = (rng.next_below(201) as usize, rng.next_below(201) as usize);
            check_kernel(&mut rng, &mut kernel, 1, m, n);
        }
    }

    #[test]
    fn strided_kernel_matches_the_dynamic_program_at_every_stride() {
        let mut rng = SplitMix64::from_seed(&Seed::from_u64(20261018));
        let mut kernel = BitParallel::default();
        for stride in 1..=32 {
            // Lengths around one and two blocks of k = ⌊64 / b⌋ fields.
            let k = 64 / stride as usize;
            for m in [0, 1, k - 1, k, k + 1, 2 * k, 2 * k + 1] {
                check_kernel(&mut rng, &mut kernel, stride, m, 1 + m % 5);
            }
            for _ in 0..40 {
                let (m, n) = (rng.next_below(151) as usize, rng.next_below(151) as usize);
                check_kernel(&mut rng, &mut kernel, stride, m, n);
            }
        }
    }
}
