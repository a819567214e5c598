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
//!   edit distance the protocol needs — the third party's over unmasked
//!   CCMs and each holder's local matrix — and is tested against the
//!   dynamic program.

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

/// Pattern symbols per match word.
pub(crate) const WORD_BITS: usize = 64;

/// Bit-parallel global edit distance: Myers' bit-vector algorithm
/// (G. Myers, J. ACM 46(3), 1999) in the global form given by H. Hyyrö
/// (Nordic J. Computing 10(1), 2003), over blocks of [`WORD_BITS`] pattern
/// symbols (Myers §4), so every pattern length runs the same code.
///
/// The kernel never sees a symbol. For each text symbol it takes that
/// symbol's *match words*: `⌈m / 64⌉` words in which bit `p % 64` of word
/// `p / 64` is set exactly when pattern symbol `p` equals the text symbol.
/// Bits at or above `m` in the last word are ignored. The third party
/// builds the words from unmasked CCM rows, and a holder from each
/// object's per-character masks.
///
/// The value holds the per-block vertical deltas and reuses them across
/// calls, so computing many distances allocates once.
#[derive(Debug, Default)]
pub(crate) struct BitParallel {
    /// Per block: the rows whose vertical delta is +1.
    pv: Vec<u64>,
    /// Per block: the rows whose vertical delta is −1.
    mv: Vec<u64>,
}

impl BitParallel {
    /// Edit distance between a pattern of `pattern_len` symbols and a text
    /// of `text_len` symbols, where `match_words(j)` returns the
    /// `⌈pattern_len / 64⌉` match words of text symbol `j`.
    pub(crate) fn distance<'w>(
        &mut self,
        pattern_len: usize,
        text_len: usize,
        match_words: impl Fn(usize) -> &'w [u64],
    ) -> u32 {
        let blocks = pattern_len.div_ceil(WORD_BITS);
        if blocks == 0 {
            return text_len as u32;
        }
        let last = blocks - 1;
        self.pv.clear();
        self.pv.resize(blocks, !0);
        self.mv.clear();
        self.mv.resize(blocks, 0);
        // Row m, the score row, sits at this bit of the last block; full
        // blocks hand their bottom row's delta on from bit 63.
        let score_bit = 1u64 << ((pattern_len - 1) % WORD_BITS);
        let mut score = pattern_len;
        for j in 0..text_len {
            let eq = match_words(j);
            debug_assert_eq!(eq.len(), blocks);
            // Global alignment: DP row 0 reads 0, 1, 2, …, so the
            // horizontal delta entering block 0 is +1 for every symbol.
            let (mut hp, mut hn) = (1, 0);
            for ((pv, mv), &word) in self.pv[..last]
                .iter_mut()
                .zip(&mut self.mv[..last])
                .zip(&eq[..last])
            {
                (hp, hn) = advance_block(pv, mv, word, hp, hn, 1 << 63);
            }
            (hp, hn) = advance_block(
                &mut self.pv[last],
                &mut self.mv[last],
                eq[last],
                hp,
                hn,
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
/// branch). `hp_in`/`hn_in` are the delta entering the block's top row;
/// the returned pair is the delta leaving the row at `out_bit`.
#[inline(always)]
fn advance_block(
    pv: &mut u64,
    mv: &mut u64,
    eq: u64,
    hp_in: u64,
    hn_in: u64,
    out_bit: u64,
) -> (u64, u64) {
    let xv = eq | *mv;
    let eq = eq | hn_in;
    let xh = ((eq & *pv).wrapping_add(*pv) ^ *pv) | eq;
    let ph = *mv | !(xh | *pv);
    let mh = *pv & xh;
    let out = (u64::from(ph & out_bit != 0), u64::from(mh & out_bit != 0));
    let ph = (ph << 1) | hp_in;
    let mh = (mh << 1) | hn_in;
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
    /// 2–26 letters and checks the kernel against the dynamic program.
    fn check_kernel(rng: &mut SplitMix64, kernel: &mut BitParallel, m: usize, n: usize) {
        let size = 2 + rng.next_below(25);
        let mut draw = |len: usize| -> Vec<usize> {
            (0..len).map(|_| rng.next_below(size) as usize).collect()
        };
        let (pattern, text) = (draw(m), draw(n));
        let blocks = m.div_ceil(WORD_BITS);
        let mut peq = vec![0u64; 26 * blocks];
        for (p, &c) in pattern.iter().enumerate() {
            peq[c * blocks + p / WORD_BITS] |= 1 << (p % WORD_BITS);
        }
        let spell =
            |s: &[usize]| -> String { s.iter().map(|&c| (b'a' + c as u8) as char).collect() };
        let fast = kernel.distance(m, n, |j| &peq[text[j] * blocks..][..blocks]);
        assert_eq!(
            fast,
            edit_distance(&spell(&pattern), &spell(&text)),
            "m={m} n={n}"
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
                check_kernel(&mut rng, &mut kernel, m, n);
            }
        }
        for _ in 0..600 {
            let (m, n) = (rng.next_below(201) as usize, rng.next_below(201) as usize);
            check_kernel(&mut rng, &mut kernel, m, n);
        }
    }
}
