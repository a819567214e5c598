//! The privacy-preserving comparison protocols and the dissimilarity-matrix
//! construction they feed (§4, §5).
//!
//! Each protocol is written as *role functions* — what `DH_J` (the
//! initiator), `DH_K` (the responder) and `TP` (the third party) each
//! compute — operating on plain data and returning the exact values the
//! paper's pseudocode produces (Figures 4–6 for numeric, 8–10 for
//! alphanumeric). Three orchestrators drive the roles:
//!
//! * [`driver::ThirdPartyDriver`] — in-memory construction of all
//!   per-attribute dissimilarity matrices and the final clustering,
//!   convenient for library users and tests, and the reference the others
//!   are checked against;
//! * [`sharded::ShardedEngine`] — the same construction executed as
//!   messages by the per-party state machines of [`machines`], N sessions
//!   at a time, hash-sharded across a pool of worker threads with one
//!   [`ppc_net::WaitTransport`] per shard, with fair round-robin
//!   scheduling, chunked attribute-block streaming that bounds every
//!   party's buffering by a configurable window of pairwise rows, and idle
//!   shards parked in condvar-blocking receives. One transport is one
//!   shard: the in-process engine, and the oracle of every other run
//!   (over an `Instrumented<Network>` it also counts every link's bytes);
//! * [`party_engine::PartyEngine`] — one process's local parties of the
//!   same sessions, opened through the in-band `ctl/` control plane and
//!   run over real TCP / Unix-domain sockets.
//!
//! Both engines run on the one engine round of [`engine`].

pub mod alphanumeric;
pub mod categorical;
pub mod derive_cache;
pub mod driver;
pub mod engine;
pub mod kernels;
pub mod local;
pub mod machines;
pub mod messages;
pub mod numeric;
pub mod party;
pub mod party_engine;
pub mod sharded;
pub mod topic;

use serde::{Deserialize, Serialize};

use ppc_crypto::RngAlgorithm;

use crate::fixed::FixedPointCodec;

/// How numeric columns are masked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum NumericMode {
    /// The paper's batch protocol: each of `DH_J`'s values is masked once and
    /// reused against every one of `DH_K`'s values (cheap, but §4.1 notes a
    /// frequency-analysis risk when the value range is small).
    #[default]
    Batch,
    /// Hardened variant: fresh randomness for every object pair, as the paper
    /// suggests `DH_K` may request. Costs a factor `m` more traffic from
    /// `DH_J`.
    PerPair,
}

/// Configuration shared by all protocol runs of one clustering session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// Which pseudo-random stream backs the masking.
    pub rng_algorithm: RngAlgorithm,
    /// Batch or per-pair numeric masking.
    pub numeric_mode: NumericMode,
    /// Fixed-point codec for numeric values.
    pub fixed_point: FixedPointCodec,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            rng_algorithm: RngAlgorithm::ChaCha20,
            numeric_mode: NumericMode::Batch,
            fixed_point: FixedPointCodec::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setting() {
        let c = ProtocolConfig::default();
        assert_eq!(c.numeric_mode, NumericMode::Batch);
        assert_eq!(c.rng_algorithm, RngAlgorithm::ChaCha20);
        assert_eq!(c.fixed_point.scale(), 1_000_000.0);
    }
}
