//! # ppc-core — privacy-preserving dissimilarity construction (İnan et al. 2006)
//!
//! This crate is the paper's primary contribution: secure multi-party
//! construction of the **global dissimilarity matrix** of objects that are
//! horizontally partitioned across `k ≥ 2` data holders, orchestrated by a
//! semi-trusted third party, for numeric, categorical and alphanumeric
//! attributes. The resulting matrix feeds any distance-based clustering
//! algorithm (see `ppc-cluster`) as well as record linkage and outlier
//! detection.
//!
//! ## Layout
//!
//! * Data model — [`value`], [`schema`], [`alphabet`], [`record`],
//!   [`matrix`]: attribute values and typed schemas, object identities
//!   (`A1`, `B4`, …) and horizontally partitioned data matrices (§2.1, §3).
//! * Comparison functions — [`distance`], [`ccm`]: absolute difference,
//!   categorical equality and edit distance, in both the plaintext form used
//!   locally and the character-comparison-matrix form the third party uses
//!   (§2.3).
//! * Dissimilarity matrices — [`dissimilarity`]: per-attribute matrices,
//!   `[0, 1]` normalisation and weighted merging (§2.2, §5).
//! * Protocols — [`protocol`]: the three privacy-preserving comparison
//!   protocols (§4) as explicit role functions (`DH_J`, `DH_K`, `TP`), the
//!   local-matrix algorithm (Figure 12), the third-party construction driver
//!   (Figure 11), and the engines that run the same construction as
//!   messages between per-party state machines over any transport.
//! * Privacy analysis — [`privacy`]: the frequency-analysis attack on batch
//!   mode and the eavesdropping inferences the paper warns about, as
//!   executable experiments.
//! * Results — [`result`]: published cluster membership lists (Figure 13)
//!   and quality parameters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alphabet;
pub mod ccm;
pub mod csv;
pub mod dissimilarity;
pub mod distance;
pub mod error;
pub mod fixed;
pub mod linkage;
pub mod matrix;
pub mod pairwise;
pub mod par;
pub mod privacy;
pub mod protocol;
pub mod record;
pub mod result;
pub mod schema;
pub mod value;

pub use alphabet::Alphabet;
pub use ccm::CharacterComparisonMatrix;
pub use dissimilarity::{AttributeDissimilarity, DissimilarityMatrix, ObjectIndex};
pub use error::CoreError;
pub use fixed::FixedPointCodec;
pub use linkage::{greedy_one_to_one_linkage, threshold_linkage, MatchedPair};
pub use matrix::{DataMatrix, HorizontalPartition};
pub use pairwise::PairwiseBlock;
pub use record::{ObjectId, Record};
pub use result::ClusteringResult;
pub use schema::{AttributeDescriptor, Schema, WeightVector};
pub use value::{AttributeKind, AttributeValue};
