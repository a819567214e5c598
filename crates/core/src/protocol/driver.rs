//! Third-party construction driver (Figure 11) and clustering stage.
//!
//! The driver executes the whole construction *in memory*: it calls the same
//! role functions a networked deployment would, in the same order, but
//! passes their outputs directly instead of serialising them. It is the
//! reference implementation the networked engines
//! ([`ShardedEngine`](super::sharded::ShardedEngine),
//! [`PartyEngine`](super::party_engine::PartyEngine)) are tested against,
//! and the convenient entry point for library users who only want the
//! result.
//!
//! With the `parallel` cargo feature enabled, independent attributes and
//! independent holder pairs mask/fold/unmask concurrently (the work items
//! commute: every task writes a disjoint block of the global matrix, and the
//! RNG streams are scoped per `(pair, attribute)`), so the output is
//! identical to the sequential run.

use ppc_cluster::quality::{average_within_cluster_squared_distance, silhouette};
use ppc_cluster::{AgglomerativeClustering, CondensedDistanceMatrix, Linkage};

use crate::dissimilarity::{AttributeDissimilarity, DissimilarityMatrix, ObjectIndex};
use crate::error::CoreError;
use crate::pairwise::PairwiseBlock;
use crate::par::try_par_map;
use crate::protocol::party::{DataHolder, ThirdPartyKeys};
use crate::protocol::{alphanumeric, categorical, local, numeric, NumericMode, ProtocolConfig};
use crate::result::ClusteringResult;
use crate::schema::{Schema, WeightVector};
use crate::value::AttributeKind;

/// What the data holders ask the third party to run once the matrices exist.
#[derive(Debug, Clone)]
pub struct ClusteringRequest {
    /// Attribute weights for merging per-attribute matrices.
    pub weights: WeightVector,
    /// Hierarchical linkage the third party should use.
    pub linkage: Linkage,
    /// Number of flat clusters to publish.
    pub num_clusters: usize,
}

impl ClusteringRequest {
    /// Uniform weights, average linkage, `k` clusters.
    pub fn uniform(schema: &Schema, k: usize) -> Self {
        ClusteringRequest {
            weights: schema.uniform_weights(),
            linkage: Linkage::Average,
            num_clusters: k,
        }
    }
}

/// Everything the third party holds after the construction phase.
#[derive(Debug, Clone)]
pub struct ConstructionOutput {
    /// Global object index (site concatenation order).
    pub index: ObjectIndex,
    /// One (un-normalised) dissimilarity matrix per attribute, schema order.
    pub per_attribute: Vec<AttributeDissimilarity>,
}

impl ConstructionOutput {
    /// Merges the per-attribute matrices under `weights` into the final
    /// matrix (normalising each attribute first).
    pub fn merge(
        &self,
        schema: &Schema,
        weights: &WeightVector,
    ) -> Result<DissimilarityMatrix, CoreError> {
        DissimilarityMatrix::merge(self.index.clone(), &self.per_attribute, schema, weights)
    }
}

/// The third party's in-memory protocol driver.
#[derive(Debug, Clone)]
pub struct ThirdPartyDriver {
    schema: Schema,
    config: ProtocolConfig,
}

impl ThirdPartyDriver {
    /// Creates a driver for the agreed schema and protocol configuration.
    pub fn new(schema: Schema, config: ProtocolConfig) -> Self {
        ThirdPartyDriver { schema, config }
    }

    /// The agreed schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Runs the full construction of Figure 11 for every attribute.
    pub fn construct(
        &self,
        holders: &[DataHolder],
        keys: &ThirdPartyKeys,
    ) -> Result<ConstructionOutput, CoreError> {
        if holders.len() < 2 {
            return Err(CoreError::Protocol(
                "the protocol requires at least two data holders".into(),
            ));
        }
        for holder in holders {
            holder.validate_schema(&self.schema)?;
        }
        let site_sizes: Vec<(u32, usize)> = holders.iter().map(|h| (h.site(), h.len())).collect();
        let index = ObjectIndex::from_site_sizes(&site_sizes);
        if index.is_empty() {
            return Err(CoreError::EmptyInput);
        }

        // Attributes are independent of each other: with the `parallel`
        // feature enabled their construction fans out over worker threads
        // (see [`crate::par`]); results come back in schema order either way.
        let descriptors = self.schema.attributes();
        let matrices = try_par_map(descriptors.len(), |attribute_index| {
            match descriptors[attribute_index].kind {
                AttributeKind::Categorical => self.construct_categorical(holders, attribute_index),
                AttributeKind::Numeric | AttributeKind::Alphanumeric => {
                    self.construct_pairwise(holders, keys, &index, attribute_index)
                }
            }
        })?;
        let per_attribute = descriptors
            .iter()
            .zip(matrices)
            .map(|(d, m)| AttributeDissimilarity::new(d.name.clone(), m))
            .collect();
        Ok(ConstructionOutput {
            index,
            per_attribute,
        })
    }

    /// Categorical attributes: every holder encrypts its column under the
    /// shared key; the third party merges and compares ciphertexts (§4.3).
    fn construct_categorical(
        &self,
        holders: &[DataHolder],
        attribute_index: usize,
    ) -> Result<CondensedDistanceMatrix, CoreError> {
        let mut columns = Vec::with_capacity(holders.len());
        for holder in holders {
            let values = holder
                .partition()
                .matrix()
                .categorical_column(attribute_index)?;
            columns.push(categorical::encrypt_column(
                &values,
                &holder.categorical_key(),
            ));
        }
        categorical::third_party_dissimilarity(&columns)
    }

    /// Numeric / alphanumeric attributes: local matrices plus one comparison
    /// protocol run per ordered holder pair `(J, K)`, `J < K` (Figure 11).
    fn construct_pairwise(
        &self,
        holders: &[DataHolder],
        keys: &ThirdPartyKeys,
        index: &ObjectIndex,
        attribute_index: usize,
    ) -> Result<CondensedDistanceMatrix, CoreError> {
        let descriptor = self.schema.attribute_at(attribute_index)?;
        let mut global = CondensedDistanceMatrix::zeros(index.len());

        // Step 1: each holder's local dissimilarity matrix.
        for holder in holders {
            let local = local::local_dissimilarity(holder.partition().matrix(), attribute_index)?;
            let range = index.site_range(holder.site())?;
            for i in 1..local.len() {
                for j in 0..i {
                    global.set(range.start + i, range.start + j, local.get(i, j));
                }
            }
        }

        // Step 2: pairwise comparison protocol for each ordered holder pair
        // `(J, K)`, `J < K`. Pairs are mutually independent, so they unmask
        // and fold concurrently under the `parallel` feature; the blocks are
        // scattered into the global matrix sequentially afterwards.
        let pairs: Vec<(usize, usize)> = (0..holders.len())
            .flat_map(|j| ((j + 1)..holders.len()).map(move |k| (j, k)))
            .collect();
        let blocks = try_par_map(pairs.len(), |p| {
            let (j_pos, k_pos) = pairs[p];
            let (holder_j, holder_k) = (&holders[j_pos], &holders[k_pos]);
            match descriptor.kind {
                AttributeKind::Numeric => {
                    self.run_numeric_pair(holder_j, holder_k, keys, attribute_index)
                }
                AttributeKind::Alphanumeric => {
                    self.run_alphanumeric_pair(holder_j, holder_k, keys, attribute_index)
                }
                AttributeKind::Categorical => unreachable!("handled separately"),
            }
        })?;
        for (&(j_pos, k_pos), block) in pairs.iter().zip(&blocks) {
            let range_j = index.site_range(holders[j_pos].site())?;
            let range_k = index.site_range(holders[k_pos].site())?;
            for (m, row) in block.iter_rows().enumerate() {
                for (n, &d) in row.iter().enumerate() {
                    global.set(range_k.start + m, range_j.start + n, d);
                }
            }
        }
        Ok(global)
    }

    /// One numeric protocol run between initiator `holder_j` and responder
    /// `holder_k`, returning `|DH_K| × |DH_J|` distances in attribute units.
    fn run_numeric_pair(
        &self,
        holder_j: &DataHolder,
        holder_k: &DataHolder,
        keys: &ThirdPartyKeys,
        attribute_index: usize,
    ) -> Result<PairwiseBlock<f64>, CoreError> {
        let descriptor = self.schema.attribute_at(attribute_index)?;
        let attribute = descriptor.name.as_str();
        let codec = self.config.fixed_point;
        let algorithm = self.config.rng_algorithm;

        // DH_J side.
        let j_values = codec.encode_column(
            &holder_j
                .partition()
                .matrix()
                .numeric_column(attribute_index)?,
        )?;
        let initiator_seeds = holder_j.pairwise_seeds(holder_k.site(), attribute)?;
        // DH_K side.
        let k_values = codec.encode_column(
            &holder_k
                .partition()
                .matrix()
                .numeric_column(attribute_index)?,
        )?;
        let responder_seed = holder_k.responder_seed(holder_j.site(), attribute)?;
        // TP side.
        let tp_seed = keys.seed_for(holder_j.site(), attribute)?;

        let distances = match self.config.numeric_mode {
            NumericMode::Batch => {
                let masked = numeric::initiator_mask(&j_values, &initiator_seeds, algorithm);
                let pairwise =
                    numeric::responder_fold(&masked, &k_values, &responder_seed, algorithm);
                numeric::third_party_unmask(&pairwise, &tp_seed, algorithm)
            }
            NumericMode::PerPair => {
                let masked = numeric::initiator_mask_per_pair(
                    &j_values,
                    k_values.len(),
                    &initiator_seeds,
                    algorithm,
                );
                let pairwise = numeric::responder_fold_per_pair(
                    &masked,
                    &k_values,
                    &responder_seed,
                    algorithm,
                )?;
                numeric::third_party_unmask_per_pair(&pairwise, &tp_seed, algorithm)
            }
        };
        Ok(distances.map(|&d| codec.decode_distance(d)))
    }

    /// One alphanumeric protocol run between initiator `holder_j` and
    /// responder `holder_k`.
    fn run_alphanumeric_pair(
        &self,
        holder_j: &DataHolder,
        holder_k: &DataHolder,
        keys: &ThirdPartyKeys,
        attribute_index: usize,
    ) -> Result<PairwiseBlock<f64>, CoreError> {
        let descriptor = self.schema.attribute_at(attribute_index)?;
        let attribute = descriptor.name.as_str();
        let alphabet = descriptor.require_alphabet()?;
        let algorithm = self.config.rng_algorithm;

        let encode_column = |holder: &DataHolder| -> Result<Vec<Vec<u32>>, CoreError> {
            holder
                .partition()
                .matrix()
                .string_column(attribute_index)?
                .iter()
                .map(|s| alphabet.encode(s))
                .collect()
        };

        let j_encoded = encode_column(holder_j)?;
        let k_encoded = encode_column(holder_k)?;
        let initiator_seeds = holder_j.pairwise_seeds(holder_k.site(), attribute)?;
        let responder_seed = holder_k.responder_seed(holder_j.site(), attribute)?;
        let tp_seed = keys.seed_for(holder_j.site(), attribute)?;
        let _ = responder_seed; // the alphanumeric responder needs no randomness

        let masked = alphanumeric::initiator_mask_strings(
            &j_encoded,
            alphabet.size(),
            &initiator_seeds,
            algorithm,
        )?;
        let bundle = alphanumeric::responder_build_bundle(&masked, &k_encoded, alphabet.size())?;
        let distances = alphanumeric::third_party_edit_distances(
            &bundle,
            alphabet.size(),
            &tp_seed,
            algorithm,
        )?;
        Ok(distances.map(|&d| f64::from(d)))
    }

    /// Clustering stage (§5): merge under the requested weights, run the
    /// requested hierarchical algorithm and publish membership lists plus
    /// quality parameters.
    pub fn cluster(
        &self,
        output: &ConstructionOutput,
        request: &ClusteringRequest,
    ) -> Result<(ClusteringResult, DissimilarityMatrix), CoreError> {
        let final_matrix = output.merge(&self.schema, &request.weights)?;
        Self::cluster_matrix(final_matrix, request)
    }

    /// Clustering stage on an already-merged matrix.
    ///
    /// Split out of [`cluster`](Self::cluster) so the streaming session
    /// engine — which folds attributes into the final matrix incrementally
    /// instead of retaining per-attribute matrices — shares the exact same
    /// clustering and publication code path.
    pub fn cluster_matrix(
        final_matrix: DissimilarityMatrix,
        request: &ClusteringRequest,
    ) -> Result<(ClusteringResult, DissimilarityMatrix), CoreError> {
        let clustering = AgglomerativeClustering::new(request.linkage);
        let assignment = clustering.fit_k(final_matrix.matrix(), request.num_clusters)?;
        let scatter = average_within_cluster_squared_distance(final_matrix.matrix(), &assignment)?;
        let sil =
            if assignment.num_clusters() >= 2 && final_matrix.len() > assignment.num_clusters() {
                silhouette(final_matrix.matrix(), &assignment).ok()
            } else {
                None
            };
        let result =
            ClusteringResult::from_assignment(&assignment, final_matrix.index(), scatter, sil)?;
        Ok((result, final_matrix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::matrix::{DataMatrix, HorizontalPartition};
    use crate::protocol::party::TrustedSetup;
    use crate::record::{ObjectId, Record};
    use crate::schema::AttributeDescriptor;
    use crate::value::AttributeValue;
    use ppc_crypto::Seed;

    fn schema() -> Schema {
        Schema::new(vec![
            AttributeDescriptor::numeric("age"),
            AttributeDescriptor::categorical("blood"),
            AttributeDescriptor::alphanumeric("dna", Alphabet::dna()),
        ])
        .unwrap()
    }

    fn record(age: f64, blood: &str, dna: &str) -> Record {
        Record::new(vec![
            AttributeValue::numeric(age),
            AttributeValue::categorical(blood),
            AttributeValue::alphanumeric(dna),
        ])
    }

    fn partitions() -> Vec<HorizontalPartition> {
        let rows_a = vec![record(30.0, "A", "acgt"), record(31.0, "A", "acga")];
        let rows_b = vec![record(65.0, "B", "ttcg"), record(29.5, "A", "acgt")];
        let rows_c = vec![record(66.0, "B", "ttgg")];
        vec![
            HorizontalPartition::new(0, DataMatrix::with_rows(schema(), rows_a).unwrap()),
            HorizontalPartition::new(1, DataMatrix::with_rows(schema(), rows_b).unwrap()),
            HorizontalPartition::new(2, DataMatrix::with_rows(schema(), rows_c).unwrap()),
        ]
    }

    /// The privacy-preserving construction must equal the centralized
    /// (non-private) computation exactly — the paper's "no loss of accuracy".
    #[test]
    fn construction_matches_centralized_distances() {
        let setup = TrustedSetup::deterministic(partitions(), &Seed::from_u64(2024)).unwrap();
        let driver = ThirdPartyDriver::new(schema(), ProtocolConfig::default());
        let output = driver
            .construct(&setup.holders, &setup.third_party)
            .unwrap();
        assert_eq!(output.per_attribute.len(), 3);
        assert_eq!(output.index.len(), 5);

        // Centralized references.
        let all_rows: Vec<Record> = partitions()
            .iter()
            .flat_map(|p| p.matrix().rows().to_vec())
            .collect();
        let central = DataMatrix::with_rows(schema(), all_rows).unwrap();
        for (ai, dis) in output.per_attribute.iter().enumerate() {
            let reference = local::local_dissimilarity(&central, ai).unwrap();
            let diff = dis.matrix.max_abs_difference(&reference);
            assert!(diff < 1e-6, "attribute {ai} differs by {diff}");
        }
    }

    #[test]
    fn per_pair_mode_matches_batch_mode() {
        let setup = TrustedSetup::deterministic(partitions(), &Seed::from_u64(55)).unwrap();
        let batch_driver = ThirdPartyDriver::new(schema(), ProtocolConfig::default());
        let per_pair_driver = ThirdPartyDriver::new(
            schema(),
            ProtocolConfig {
                numeric_mode: NumericMode::PerPair,
                ..ProtocolConfig::default()
            },
        );
        let a = batch_driver
            .construct(&setup.holders, &setup.third_party)
            .unwrap();
        let b = per_pair_driver
            .construct(&setup.holders, &setup.third_party)
            .unwrap();
        for (x, y) in a.per_attribute.iter().zip(&b.per_attribute) {
            assert!(x.matrix.max_abs_difference(&y.matrix) < 1e-9);
        }
    }

    #[test]
    fn clustering_publishes_site_qualified_results() {
        let setup = TrustedSetup::deterministic(partitions(), &Seed::from_u64(1)).unwrap();
        let driver = ThirdPartyDriver::new(schema(), ProtocolConfig::default());
        let output = driver
            .construct(&setup.holders, &setup.third_party)
            .unwrap();
        let request = ClusteringRequest::uniform(&schema(), 2);
        let (result, matrix) = driver.cluster(&output, &request).unwrap();
        assert_eq!(result.num_clusters(), 2);
        assert_eq!(result.num_objects(), 5);
        // The two "old / B / tt*" objects (B1 and C1) should cluster together.
        let b1 = result.cluster_of(ObjectId::new(1, 0)).unwrap();
        let c1 = result.cluster_of(ObjectId::new(2, 0)).unwrap();
        assert_eq!(b1, c1);
        // And apart from the young A-type objects.
        let a1 = result.cluster_of(ObjectId::new(0, 0)).unwrap();
        assert_ne!(a1, b1);
        // Final matrix is normalised into [0, 1].
        assert!(matrix.matrix().max_value() <= 1.0 + 1e-12);
        assert!(result.average_within_cluster_squared_distance >= 0.0);
    }

    #[test]
    fn construct_validates_inputs() {
        let setup = TrustedSetup::deterministic(partitions(), &Seed::from_u64(9)).unwrap();
        let driver = ThirdPartyDriver::new(schema(), ProtocolConfig::default());
        assert!(driver
            .construct(&setup.holders[..1], &setup.third_party)
            .is_err());
        // Mismatched schema.
        let other_schema = Schema::new(vec![AttributeDescriptor::numeric("age")]).unwrap();
        let other_driver = ThirdPartyDriver::new(other_schema, ProtocolConfig::default());
        assert!(other_driver
            .construct(&setup.holders, &setup.third_party)
            .is_err());
    }

    #[test]
    fn weighting_affects_the_final_matrix() {
        let setup = TrustedSetup::deterministic(partitions(), &Seed::from_u64(4)).unwrap();
        let driver = ThirdPartyDriver::new(schema(), ProtocolConfig::default());
        let output = driver
            .construct(&setup.holders, &setup.third_party)
            .unwrap();
        let age_only = output
            .merge(&schema(), &WeightVector::new(vec![1.0, 0.0, 0.0]).unwrap())
            .unwrap();
        let dna_only = output
            .merge(&schema(), &WeightVector::new(vec![0.0, 0.0, 1.0]).unwrap())
            .unwrap();
        let a = ObjectId::new(0, 0);
        let b = ObjectId::new(1, 1); // same age-ish, same dna as A1
        assert!(age_only.distance(a, b).unwrap() < 0.05);
        assert!((dna_only.distance(a, b).unwrap() - 0.0).abs() < 1e-9);
        let c = ObjectId::new(1, 0); // very different in both
        assert!(age_only.distance(a, c).unwrap() > 0.9);
        assert!(dna_only.distance(a, c).unwrap() > 0.5);
    }
}
