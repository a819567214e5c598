//! Per-link channel key derivation.
//!
//! The socket tier (`ppc-net::secure`) seals frames with
//! [`crate::aead::ChaCha20Poly1305`]. Both ends derive the per-direction
//! link keys ([`psk_pair_seed`] / [`psk_direction_key`]) from the
//! federation's shared master seed through the same labelled-derivation
//! family the `TrustedSetup` uses for protocol secrets, so **key material
//! never crosses a socket**. Every party already holds the master seed,
//! and keys stay stable across reconnects (which is what lets the replay
//! window retransmit sealed frames byte-identically after a resume). The
//! same keys serve links brokered through a frame router: the router is not
//! the far party, so a hop-wise key exchange would terminate the channel
//! at the router — exactly the hop-by-hop trust the design rejects.

use crate::prng::Seed;

/// Derives the undirected pair seed for the channel between two parties
/// identified by stable labels (e.g. `"DH0"`, `"TP"`), from the shared
/// channel PSK. Label order does not matter.
pub fn psk_pair_seed(psk: &Seed, a: &str, b: &str) -> Seed {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    psk.derive(&format!("channel/{lo}/{hi}"))
}

/// Derives the directed AEAD key for traffic flowing `from → to` on the
/// pair's channel. The two directions get independent keys, so the two
/// ends can run independent nonce counters without coordination.
pub fn psk_direction_key(psk: &Seed, from: &str, to: &str) -> Seed {
    psk_pair_seed(psk, from, to).derive(&format!("dir/{from}->{to}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psk_keys_are_symmetric_per_pair_and_asymmetric_per_direction() {
        let psk = Seed::from_u64(42);
        assert_eq!(
            psk_pair_seed(&psk, "DH0", "TP"),
            psk_pair_seed(&psk, "TP", "DH0")
        );
        assert_ne!(
            psk_pair_seed(&psk, "DH0", "TP"),
            psk_pair_seed(&psk, "DH1", "TP")
        );
        // Direction keys differ per direction but are agreed by both ends.
        let d0 = psk_direction_key(&psk, "DH0", "TP");
        let d1 = psk_direction_key(&psk, "TP", "DH0");
        assert_ne!(d0, d1);
        assert_eq!(d0, psk_direction_key(&psk, "DH0", "TP"));
        // A different PSK gives unrelated keys.
        assert_ne!(d0, psk_direction_key(&Seed::from_u64(43), "DH0", "TP"));
    }
}
