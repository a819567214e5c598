//! Communication-cost model of the Atallah–Kerschbaum–Du secure
//! edit-distance protocol ("Secure and Private Sequence Comparisons",
//! WPES 2003), used as the comparison point for the paper's alphanumeric
//! protocol.
//!
//! The original protocol computes edit distance between two private strings
//! held by two parties using additively homomorphic encryption and a
//! blind-and-permute sub-protocol for every cell of the `(n+1) × (m+1)`
//! dynamic-programming table: each cell costs a constant number of
//! ciphertext exchanges. We do not re-implement the cryptography (the paper
//! only argues against it on *communication cost* grounds); instead
//! [`AtallahCostModel`] reproduces its traffic shape so the cost experiment
//! can compare bytes-on-the-wire for the same workload.
//!
//! This is a documented substitution (see `DESIGN.md`): the relevant
//! behaviour — how many bytes cross the network per string pair as a
//! function of string lengths and the homomorphic ciphertext size — is
//! preserved; the cryptographic internals, which do not affect the measured
//! quantity, are not simulated.

use serde::{Deserialize, Serialize};

use crate::error::BaselineError;

/// Cost model for the Atallah et al. secure edit-distance protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AtallahCostModel {
    /// Size of one additively homomorphic ciphertext in bytes
    /// (Paillier with a 2048-bit modulus ⇒ 512-byte ciphertexts).
    pub ciphertext_bytes: u64,
    /// Ciphertext exchanges per dynamic-programming cell. The
    /// blind-and-permute minimum-selection sub-protocol exchanges the three
    /// candidate values twice (blinded and permuted), plus one value carries
    /// the result forward: 8 ciphertexts per cell is a faithful (slightly
    /// charitable) count.
    pub ciphertexts_per_cell: u64,
    /// Fixed per-pair handshake overhead in bytes (keys, permutations).
    pub per_pair_overhead_bytes: u64,
}

impl Default for AtallahCostModel {
    fn default() -> Self {
        AtallahCostModel {
            ciphertext_bytes: 256, // 2048-bit Paillier modulus ⇒ 2048-bit ciphertext components
            ciphertexts_per_cell: 8,
            per_pair_overhead_bytes: 1024,
        }
    }
}

impl AtallahCostModel {
    /// A cost model with a given Paillier modulus size in bits.
    pub fn with_modulus_bits(bits: u64) -> Result<Self, BaselineError> {
        if bits < 512 || !bits.is_multiple_of(8) {
            return Err(BaselineError::InvalidParameter(format!(
                "modulus bits must be a byte multiple ≥ 512, got {bits}"
            )));
        }
        Ok(AtallahCostModel {
            ciphertext_bytes: bits / 8,
            ..AtallahCostModel::default()
        })
    }

    /// Bytes exchanged to compare one pair of strings of the given lengths.
    pub fn bytes_per_pair(&self, source_len: usize, target_len: usize) -> u64 {
        let cells = (source_len as u64 + 1) * (target_len as u64 + 1);
        cells * self.ciphertexts_per_cell * self.ciphertext_bytes + self.per_pair_overhead_bytes
    }

    /// Bytes exchanged to compare every cross-site pair between a site with
    /// `initiator_lengths` strings and one with `responder_lengths` strings.
    pub fn bytes_for_columns(
        &self,
        initiator_lengths: &[usize],
        responder_lengths: &[usize],
    ) -> u64 {
        let mut total = 0u64;
        for &s in initiator_lengths {
            for &t in responder_lengths {
                total += self.bytes_per_pair(s, t);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_2048_bit_paillier() {
        let model = AtallahCostModel::default();
        assert_eq!(model.ciphertext_bytes, 256);
        let m = AtallahCostModel::with_modulus_bits(2048).unwrap();
        assert_eq!(m.ciphertext_bytes, 256);
        assert!(AtallahCostModel::with_modulus_bits(100).is_err());
        assert!(AtallahCostModel::with_modulus_bits(1023).is_err());
    }

    #[test]
    fn cost_grows_with_the_dp_table() {
        let model = AtallahCostModel::default();
        let short = model.bytes_per_pair(8, 8);
        let long = model.bytes_per_pair(64, 64);
        assert!(
            long > short * 30,
            "quadratic growth expected: {short} vs {long}"
        );
        // One 8×8 pair: 81 cells · 8 ciphertexts · 256 bytes + 1024.
        assert_eq!(short, 81 * 8 * 256 + 1024);
    }

    #[test]
    fn column_cost_sums_all_pairs() {
        let model = AtallahCostModel::default();
        let total = model.bytes_for_columns(&[4, 4], &[4]);
        assert_eq!(total, 2 * model.bytes_per_pair(4, 4));
    }

    /// The comparison the paper makes: for realistic string batches the
    /// Atallah protocol costs orders of magnitude more traffic than the
    /// masking-based CCM protocol, whose cost per pair is ⌈log₂|A|⌉ bits
    /// per CCM cell (2 for DNA) plus its share of the two string-length
    /// vectors, rather than kilobytes of ciphertext.
    #[test]
    fn atallah_is_far_more_expensive_than_ccm_shipping() {
        let model = AtallahCostModel::default();
        let ccm_bytes_per_pair = |s: u64, t: u64| (s * t * 2).div_ceil(8) + 8;
        let s = 32u64;
        let t = 32u64;
        let ratio =
            model.bytes_per_pair(s as usize, t as usize) as f64 / ccm_bytes_per_pair(s, t) as f64;
        assert!(ratio > 1000.0, "expected ≫1000× overhead, got {ratio}");
    }
}
