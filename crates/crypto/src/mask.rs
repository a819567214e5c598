//! Masking arithmetic used by the comparison protocols (§4.1, §4.2).
//!
//! Numeric values are exchanged in fixed-point form (an `i64`, scaling is
//! handled by `ppc-core`), and masks act additively in the group
//! `Z_{2^64}` using wrapping arithmetic: a uniformly random 64-bit additive
//! mask is a one-time pad over that group, so a single masked value reveals
//! nothing about the input. Characters of alphanumeric values are masked
//! additively modulo the alphabet size, matching the paper's "addition of a
//! random number and a character is another alphabet character".

use serde::{Deserialize, Serialize};

use crate::error::CryptoError;
use crate::prng::StreamRng;

/// Which data holder negates its input for a given object pair.
///
/// The paper: *"If the random number generated by rngJK is odd, DHJ negates
/// its input. Otherwise, DHK does."* Both holders derive the same value from
/// the shared `rng_JK` stream, so they always agree; the third party cannot
/// predict it, which hides whether `x > y` or `y > x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Negator {
    /// The initiating holder `DH_J` negates its value.
    HolderJ,
    /// The responding holder `DH_K` negates its value.
    HolderK,
}

impl Negator {
    /// Derives the negator from the next value of the shared `rng_JK` stream.
    pub fn from_rng<R: StreamRng>(rng: &mut R) -> Self {
        Negator::from_random(rng.next_u64())
    }

    /// Derives the negator from an already-drawn random value.
    pub fn from_random(random: u64) -> Self {
        if random & 1 == 1 {
            Negator::HolderJ
        } else {
            Negator::HolderK
        }
    }

    /// Sign applied by `DH_J` (`-1` if it negates, `+1` otherwise).
    pub fn sign_j(&self) -> i64 {
        match self {
            Negator::HolderJ => -1,
            Negator::HolderK => 1,
        }
    }

    /// Sign applied by `DH_K` (always the opposite of [`sign_j`](Self::sign_j)).
    pub fn sign_k(&self) -> i64 {
        -self.sign_j()
    }
}

/// Additive masking of fixed-point numeric values over `Z_{2^64}`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NumericMasker;

impl NumericMasker {
    /// `DH_J` side: computes `x' = r ± x` (wrapping), where the sign is
    /// decided by the shared negator and `r` is the additive mask from the
    /// `rng_JT` stream.
    pub fn mask_initiator(value: i64, mask: u64, negator: Negator) -> i64 {
        let signed = value.wrapping_mul(negator.sign_j());
        signed.wrapping_add(mask as i64)
    }

    /// `DH_K` side: folds its own value into the already-masked message,
    /// producing `m = x' ∓ y = r ± (x − y)`.
    pub fn fold_responder(masked_initiator: i64, value: i64, negator: Negator) -> i64 {
        masked_initiator.wrapping_add(value.wrapping_mul(negator.sign_k()))
    }

    /// Third-party side: removes the mask and takes the absolute value,
    /// recovering `|x − y|` without learning the comparison direction.
    pub fn unmask_distance(message: i64, mask: u64) -> u64 {
        message.wrapping_sub(mask as i64).unsigned_abs()
    }
}

/// The largest alphabet the modular arithmetic supports, 2³¹ symbols: the
/// masker and the protocol kernels add two values below the alphabet size
/// in a `u32`. A symbol set of distinct `char`s holds
/// at most 1,112,064 symbols, far below it; the bound guards the role
/// functions, which take a raw size.
pub const MAX_ALPHABET: u32 = 1 << 31;

/// Modular masking of alphabet characters for the alphanumeric protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlphabetMasker {
    size: u32,
}

impl AlphabetMasker {
    /// Creates a masker for an alphabet of `size` symbols, at least 2
    /// and at most [`MAX_ALPHABET`].
    pub fn new(size: u32) -> Result<Self, CryptoError> {
        if size < 2 {
            return Err(CryptoError::InvalidAlphabet(format!(
                "alphabet must have at least 2 symbols, got {size}"
            )));
        }
        if size > MAX_ALPHABET {
            return Err(CryptoError::InvalidAlphabet(format!(
                "alphabet must have at most 2^31 symbols, got {size}"
            )));
        }
        Ok(AlphabetMasker { size })
    }

    /// Alphabet size.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Draws a uniformly random symbol offset from the stream.
    pub fn random_offset<R: StreamRng>(&self, rng: &mut R) -> u32 {
        rng.next_below(self.size as u64) as u32
    }

    /// `DH_J` side: masks a symbol index, `s' = (s + r) mod |A|`.
    pub fn mask(&self, symbol: u32, offset: u32) -> u32 {
        debug_assert!(symbol < self.size, "symbol {symbol} outside alphabet");
        (symbol + offset % self.size) % self.size
    }

    /// `DH_K` side: subtracts its own symbol, `(s' − t) mod |A|`.
    pub fn subtract(&self, masked: u32, symbol: u32) -> u32 {
        debug_assert!(symbol < self.size, "symbol {symbol} outside alphabet");
        (masked + self.size - (symbol % self.size)) % self.size
    }

    /// Third-party side: removes the mask; the result is `0` exactly when
    /// the two underlying symbols were equal.
    pub fn unmask(&self, value: u32, offset: u32) -> u32 {
        (value + self.size - (offset % self.size)) % self.size
    }

    /// Convenience: whether the unmasked value signals symbol equality.
    pub fn is_match(&self, value: u32, offset: u32) -> bool {
        self.unmask(value, offset) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::{splitmix::SplitMix64, Seed};

    #[test]
    fn negator_matches_paper_parity_rule() {
        assert_eq!(Negator::from_random(5), Negator::HolderJ); // odd ⇒ DHJ negates
        assert_eq!(Negator::from_random(4), Negator::HolderK);
        assert_eq!(Negator::HolderJ.sign_j(), -1);
        assert_eq!(Negator::HolderJ.sign_k(), 1);
        assert_eq!(Negator::HolderK.sign_j(), 1);
        assert_eq!(Negator::HolderK.sign_k(), -1);
    }

    #[test]
    fn figure3_worked_example() {
        // Paper Figure 3: x = 3, y = 8, R_JK = 5 (odd ⇒ DHJ negates), R_JT = 7.
        let negator = Negator::from_random(5);
        let x_masked = NumericMasker::mask_initiator(3, 7, negator);
        assert_eq!(x_masked, 4); // x'' = -3 + 7 = 4
        let m = NumericMasker::fold_responder(x_masked, 8, negator);
        assert_eq!(m, 12); // m = 8 + 4 = 12
        assert_eq!(NumericMasker::unmask_distance(m, 7), 5); // |12 - 7| = 5
    }

    #[test]
    fn numeric_roundtrip_recovers_absolute_difference() {
        let mut rng = SplitMix64::from_seed(&Seed::from_u64(4242));
        for _ in 0..2000 {
            let x = (rng.next_u64() >> 20) as i64 - (1 << 42);
            let y = (rng.next_u64() >> 20) as i64 - (1 << 42);
            let mask = rng.next_u64();
            let negator = Negator::from_rng(&mut rng);
            let x_masked = NumericMasker::mask_initiator(x, mask, negator);
            let m = NumericMasker::fold_responder(x_masked, y, negator);
            assert_eq!(NumericMasker::unmask_distance(m, mask), x.abs_diff(y));
        }
    }

    #[test]
    fn numeric_roundtrip_survives_wrapping_masks() {
        // Masks near u64::MAX exercise wrap-around in Z_{2^64}.
        for mask in [u64::MAX, u64::MAX - 1, 1u64 << 63, 0] {
            for negator in [Negator::HolderJ, Negator::HolderK] {
                let x = 1_000_000i64;
                let y = -2_500_000i64;
                let x_masked = NumericMasker::mask_initiator(x, mask, negator);
                let m = NumericMasker::fold_responder(x_masked, y, negator);
                assert_eq!(NumericMasker::unmask_distance(m, mask), x.abs_diff(y));
            }
        }
    }

    #[test]
    fn alphabet_masker_rejects_degenerate_alphabets() {
        assert!(AlphabetMasker::new(0).is_err());
        assert!(AlphabetMasker::new(1).is_err());
        assert!(AlphabetMasker::new(2).is_ok());
    }

    #[test]
    fn alphabet_size_is_bounded_where_the_sums_still_fit() {
        // Above 2^31 symbols a sum of two symbols overflows a u32.
        for size in [MAX_ALPHABET + 1, u32::MAX] {
            assert!(AlphabetMasker::new(size).is_err(), "{size}");
        }
        let masker = AlphabetMasker::new(MAX_ALPHABET).unwrap();
        let top = MAX_ALPHABET - 1;
        for symbol in [0, 1, top - 1, top] {
            for offset in [0, 1, top, u32::MAX] {
                let masked = masker.mask(symbol, offset);
                assert!(masked < MAX_ALPHABET);
                assert_eq!(masker.unmask(masked, offset), symbol);
                for own in [0, symbol, top] {
                    let cell = masker.subtract(masked, own);
                    assert_eq!(masker.is_match(cell, offset), own == symbol);
                }
            }
        }
    }

    #[test]
    fn figure7_worked_example() {
        // Paper Figure 7: alphabet {a,b,c,d}, S = "abc", R = "013", T = "bd".
        // Masked S' = "acb…" — the third symbol wraps: (2 + 3) mod 4 = 1 = 'b'.
        let masker = AlphabetMasker::new(4).unwrap();
        let s = [0u32, 1, 2]; // "abc"
        let r = [0u32, 1, 3];
        let masked: Vec<u32> = s.iter().zip(&r).map(|(&c, &o)| masker.mask(c, o)).collect();
        assert_eq!(masked, vec![0, 2, 1]); // "acb"
                                           // DHK subtracts its characters t = "bd" = [1, 3] column-wise; TP
                                           // unmasks and checks zeros. CCM[0][1] must flag equality of s[1]='b'
                                           // with t[0]='b'.
        let t = [1u32, 3];
        let m_0_1 = masker.subtract(masked[1], t[0]);
        assert!(masker.is_match(m_0_1, r[1]));
        // And a non-equal pair: s[0]='a' vs t[0]='b'.
        let m_0_0 = masker.subtract(masked[0], t[0]);
        assert!(!masker.is_match(m_0_0, r[0]));
    }

    #[test]
    fn alphabet_mask_roundtrip_detects_equality_exactly() {
        let masker = AlphabetMasker::new(26).unwrap();
        let mut rng = SplitMix64::from_seed(&Seed::from_u64(7));
        for _ in 0..5000 {
            let s = rng.next_below(26) as u32;
            let t = rng.next_below(26) as u32;
            let offset = masker.random_offset(&mut rng);
            let masked = masker.mask(s, offset);
            let folded = masker.subtract(masked, t);
            assert_eq!(masker.is_match(folded, offset), s == t);
        }
    }
}
