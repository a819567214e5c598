//! # ppc-crypto — cryptographic substrate for `ppclust`
//!
//! The İnan et al. (ICDE Workshops 2006) protocols assume three primitives
//! that the paper treats as given:
//!
//! 1. *"a high quality pseudo-random number generator, that has a long period
//!    and that is not predictable"*, instantiated twice per protocol run with
//!    **shared seeds**: `r_JK` (shared by the two data holders) and `r_JT`
//!    (shared by the initiating data holder and the third party). The
//!    protocols repeatedly **re-initialise** these generators from the seed,
//!    so the generator abstraction here is explicitly *resettable*
//!    ([`StreamRng::reseed`]).
//! 2. A way for two parties to **agree on those shared seeds** ("DHJ and DHK
//!    share a secret number"). We provide finite-field Diffie–Hellman over a
//!    61-bit Mersenne prime ([`dh`]) plus deterministic seed derivation
//!    ([`prng::pairwise`]).
//! 3. A shared-key **deterministic encryption** scheme for categorical
//!    values (§4.3: "If ciphertext of two categorical values are the same,
//!    then plaintexts must be the same"), provided by [`det`] on top of the
//!    [`block`] ciphers and the [`mac`] keyed hash.
//!
//! [`mask`] contains the small arithmetic helpers the comparison protocols
//! use to disguise values (additive one-time masks over `Z_{2^64}`,
//! parity-driven negation, modular alphabet masking).
//!
//! The paper further requires the pairwise channels themselves to be
//! *secured* (§4.1 shows concrete eavesdropper inferences otherwise).
//! [`aead`] provides the ChaCha20-Poly1305 sealing primitive (RFC 8439,
//! test-vector checked) and [`channel`] the per-link keys, derived from
//! the shared master seed (key material never on the wire).
//!
//! Everything in this crate is implemented from scratch (no external crypto
//! crates) so that the repository is a self-contained reproduction; the
//! stream ciphers and SipHash are tested against published test vectors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod block;
pub mod channel;
pub mod det;
pub mod dh;
pub mod error;
pub mod mac;
pub mod mask;
pub mod prng;

pub use aead::{ChaCha20Poly1305, Poly1305, KEY_LEN, NONCE_LEN, TAG_LEN};
pub use block::{feistel::FeistelCipher, speck::Speck64, BlockCipher64};
pub use channel::{psk_direction_key, psk_pair_seed};
pub use det::{DeterministicCipher, Prf128};
pub use dh::{DhKeyPair, DhParams, DhSharedSecret};
pub use error::CryptoError;
pub use mac::SipHash24;
pub use mask::{AlphabetMasker, Negator, NumericMasker, MAX_ALPHABET};
pub use prng::pairwise::{PairwiseSeeds, SeedRegistry};
pub use prng::prefix::{negators_from_raw, offsets_from_raw, raw_u64_prefix};
pub use prng::{chacha::ChaCha20Rng, splitmix::SplitMix64, xoshiro::Xoshiro256PlusPlus};
pub use prng::{RngAlgorithm, Seed, StreamRng};
