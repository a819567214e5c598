//! Pairwise shared seeds between protocol participants.
//!
//! The paper assumes every pair of parties that needs one "shares a secret
//! number" used to seed its generators: `r_JK` between the two data holders
//! and `r_JT` between the initiating data holder and the third party. This
//! module provides:
//!
//! * [`PairwiseSeeds`] — the pair of seeds one protocol run needs, with
//!   per-attribute derivation so a single agreement covers a whole
//!   clustering session, and
//! * [`SeedRegistry`] — a small registry a simulation harness can use to
//!   hand the right seed to the right party (indexed by an unordered pair of
//!   party identifiers).
//!
//! Seed *establishment* is handled either out-of-band (tests, worked
//! examples) or with Diffie–Hellman (see [`crate::dh`]).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use super::Seed;

/// The two shared seeds a single comparison-protocol run requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairwiseSeeds {
    /// `r_JK`: shared between data holders `DH_J` and `DH_K`.
    /// Decides which side negates its input (hides the comparison sign from
    /// the third party).
    pub holder_holder: Seed,
    /// `r_JT`: shared between the initiating holder `DH_J` and the third
    /// party. Provides the additive mask the third party later removes.
    pub holder_third_party: Seed,
}

impl PairwiseSeeds {
    /// Creates the seed pair from two independent secrets.
    pub fn new(holder_holder: Seed, holder_third_party: Seed) -> Self {
        PairwiseSeeds {
            holder_holder,
            holder_third_party,
        }
    }

    /// Derives per-attribute seeds so each attribute's protocol run uses an
    /// independent stream (a fresh protocol instance per attribute, as the
    /// paper's construction algorithm requires).
    pub fn for_attribute(&self, attribute: &str) -> PairwiseSeeds {
        PairwiseSeeds {
            holder_holder: self.holder_holder.derive(&format!("jk/{attribute}")),
            holder_third_party: self.holder_third_party.derive(&format!("jt/{attribute}")),
        }
    }

    /// Derives per-run seeds; `run` distinguishes repetitions (e.g. the
    /// per-pair hardened mode that uses fresh randomness for every object
    /// pair).
    pub fn for_run(&self, run: u64) -> PairwiseSeeds {
        PairwiseSeeds {
            holder_holder: self.holder_holder.derive(&format!("jk/run/{run}")),
            holder_third_party: self.holder_third_party.derive(&format!("jt/run/{run}")),
        }
    }
}

/// Unordered pair of party identifiers used as a registry key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PartyPair(u32, u32);

impl PartyPair {
    /// Builds the canonical (sorted) pair.
    pub fn new(a: u32, b: u32) -> Self {
        if a <= b {
            PartyPair(a, b)
        } else {
            PartyPair(b, a)
        }
    }

    /// Lower party index.
    pub fn low(&self) -> u32 {
        self.0
    }

    /// Higher party index.
    pub fn high(&self) -> u32 {
        self.1
    }
}

/// A registry of pairwise seeds, indexed by unordered party pairs.
///
/// In a deployment each party would only hold the seeds it participates in;
/// a simulation can use the registry as the trusted setup and hand each
/// party its own view (`ppc-core`'s `TrustedSetup` does the same with one
/// pairwise seed per holder pair).
#[derive(Debug, Default, Clone)]
pub struct SeedRegistry {
    seeds: HashMap<PartyPair, Seed>,
}

impl SeedRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        SeedRegistry {
            seeds: HashMap::new(),
        }
    }

    /// Creates a registry with deterministic seeds for every pair among
    /// `parties`, derived from a single master seed. Useful for tests and
    /// reproducible experiments.
    pub fn deterministic(master: &Seed, parties: &[u32]) -> Self {
        let mut registry = SeedRegistry::new();
        for (i, &a) in parties.iter().enumerate() {
            for &b in parties.iter().skip(i + 1) {
                let pair = PartyPair::new(a, b);
                let seed = master.derive(&format!("pair/{}/{}", pair.low(), pair.high()));
                registry.insert(a, b, seed);
            }
        }
        registry
    }

    /// Inserts (or replaces) the seed shared by `a` and `b`.
    pub fn insert(&mut self, a: u32, b: u32, seed: Seed) {
        self.seeds.insert(PartyPair::new(a, b), seed);
    }

    /// Returns the seed shared by `a` and `b`, if established.
    pub fn get(&self, a: u32, b: u32) -> Option<Seed> {
        self.seeds.get(&PartyPair::new(a, b)).copied()
    }

    /// Number of established pairs.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Whether no pair has been established.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn party_pair_is_unordered() {
        assert_eq!(PartyPair::new(3, 1), PartyPair::new(1, 3));
        assert_eq!(PartyPair::new(1, 3).low(), 1);
        assert_eq!(PartyPair::new(1, 3).high(), 3);
    }

    #[test]
    fn registry_lookup_is_symmetric() {
        let mut reg = SeedRegistry::new();
        reg.insert(0, 1, Seed::from_u64(9));
        assert_eq!(reg.get(1, 0), Some(Seed::from_u64(9)));
        assert_eq!(reg.get(0, 2), None);
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
    }

    #[test]
    fn deterministic_registry_covers_all_pairs() {
        let reg = SeedRegistry::deterministic(&Seed::from_u64(5), &[0, 1, 2, 3]);
        assert_eq!(reg.len(), 6);
        // All pair seeds distinct.
        let mut seen = std::collections::HashSet::new();
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                let s = reg.get(a, b).expect("pair seed present");
                assert!(seen.insert(s.0), "duplicate seed for pair ({a},{b})");
            }
        }
    }

    #[test]
    fn attribute_and_run_derivation_are_independent() {
        let base = PairwiseSeeds::new(Seed::from_u64(1), Seed::from_u64(2));
        let age = base.for_attribute("age");
        let income = base.for_attribute("income");
        assert_ne!(age.holder_holder, income.holder_holder);
        assert_ne!(age.holder_third_party, income.holder_third_party);
        assert_ne!(age.holder_holder, age.holder_third_party);
        let r0 = base.for_run(0);
        let r1 = base.for_run(1);
        assert_ne!(r0.holder_holder, r1.holder_holder);
        // Derivation is deterministic.
        assert_eq!(base.for_attribute("age"), age);
    }
}
