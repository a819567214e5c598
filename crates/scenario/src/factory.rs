//! The seeded scenario factory.
//!
//! A [`ScenarioSpec`] is a small, copyable description of a federation
//! workload; [`ScenarioSpec::generate`] expands it — fully deterministically
//! — into a [`Scenario`]: the mixed schema, the generated dataset, its
//! horizontal partitioning across k sites, and a list of per-session plans
//! with deliberate diversity (linkage, weights, chunk windows, numeric
//! modes). The same seed always yields the byte-identical scenario, which
//! [`Scenario::fingerprint`] pins.
//!
//! Everything downstream consumes the same artefacts: in-process engines
//! take [`Scenario::session_specs`], the `ppc-party` CLI takes
//! [`Scenario::schema_cli`] + per-site CSVs ([`Scenario::write_csvs`]) + a
//! [`Scenario::manifest_text`] that round-trips through the CLI's
//! `--manifest` parser, and benches label rows with the scenario seed.

use std::path::{Path, PathBuf};

use rand::Rng;

use ppc_cluster::Linkage;
use ppc_core::csv::to_csv;
use ppc_core::protocol::driver::ClusteringRequest;
use ppc_core::protocol::engine::{EngineOutcome, SessionSpec};
use ppc_core::protocol::party::TrustedSetup;
use ppc_core::protocol::party_engine::SessionPlan;
use ppc_core::protocol::sharded::ShardedEngine;
use ppc_core::protocol::{NumericMode, ProtocolConfig};
use ppc_core::schema::WeightVector;
use ppc_core::{Alphabet, HorizontalPartition, Schema};
use ppc_crypto::Seed;
use ppc_data::categorical::CategoricalGenerator;
use ppc_data::mixed::{AttributeSpec, GeneratedDataset, MixedDatasetSpec};
use ppc_data::numeric::{rng_from_seed, GaussianMixture};
use ppc_data::partition::{partition, PartitionStrategy};
use ppc_data::sequence::SequenceGenerator;
use ppc_net::{Network, PartyId};

use crate::digest::{fingerprint_str, Fnv};

/// How rows are distributed across the k sites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SiteSkew {
    /// Balanced random assignment — every site holds ~n/k rows.
    Uniform,
    /// Site `i` holds a share ∝ `1/(i+1)^exponent` (heavy-tailed
    /// institution sizes).
    Zipf {
        /// Skew exponent (≥ 0; 0 is uniform, 1 harmonic, larger steeper).
        exponent: f64,
    },
    /// One dominant institution: site 0 holds `fraction` of all rows, the
    /// remainder is split evenly.
    DominantSite {
        /// Site 0's share (0 < fraction < 1).
        fraction: f64,
    },
}

/// Shape of the mixed schema: how many attributes of each kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemaShape {
    /// Gaussian-mixture numeric attributes.
    pub numeric: usize,
    /// Categorical attributes with per-cluster dominant labels.
    pub categorical: usize,
    /// Alphanumeric attributes mutated from per-cluster ancestors.
    pub alphanumeric: usize,
    /// Ancestor length of the alphanumeric attributes, in symbols.
    pub sequence_len: usize,
}

impl Default for SchemaShape {
    /// One attribute of every kind — the paper's mixed-schema setting.
    fn default() -> Self {
        SchemaShape {
            numeric: 1,
            categorical: 1,
            alphanumeric: 1,
            sequence_len: 10,
        }
    }
}

/// A seeded, deterministic description of a federation workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioSpec {
    /// Master seed: drives data generation, partitioning, session
    /// diversity *and* the trusted setup. Same seed ⇒ identical scenario.
    pub seed: u64,
    /// Number of data-holder sites (3–16).
    pub sites: u32,
    /// Total objects across all sites.
    pub objects: usize,
    /// Ground-truth clusters baked into the generated data.
    pub clusters: usize,
    /// Row-distribution skew across sites.
    pub skew: SiteSkew,
    /// Mixed-schema shape.
    pub shape: SchemaShape,
    /// Number of sessions (each gets its own diversified plan).
    pub sessions: usize,
    /// Base chunk window the per-session diversity varies around
    /// (`None` streams whole matrices).
    pub chunk_base: Option<usize>,
}

impl ScenarioSpec {
    /// The small deterministic scenario the CI slice runs: 5 sites, a few
    /// hundred objects, zipf row skew, one attribute of every kind, three
    /// diversified sessions.
    pub fn ci(seed: u64) -> Self {
        ScenarioSpec {
            seed,
            sites: 5,
            objects: 240,
            clusters: 3,
            skew: SiteSkew::Zipf { exponent: 1.0 },
            shape: SchemaShape::default(),
            sessions: 3,
            chunk_base: Some(8),
        }
    }

    /// The flagship acceptance scenario: 8 sites, 10⁴ objects, mixed
    /// schema, zipf row skew. Release-mode only — a debug build pays ~30×
    /// on the O(n²) masking kernels.
    pub fn flagship(seed: u64) -> Self {
        ScenarioSpec {
            seed,
            sites: 8,
            objects: 10_000,
            clusters: 4,
            skew: SiteSkew::Zipf { exponent: 0.8 },
            shape: SchemaShape {
                numeric: 1,
                categorical: 1,
                alphanumeric: 1,
                sequence_len: 12,
            },
            sessions: 1,
            chunk_base: Some(256),
        }
    }

    /// Expands the spec into the full deterministic scenario.
    pub fn generate(&self) -> Result<Scenario, String> {
        if !(3..=16).contains(&self.sites) {
            return Err(format!("sites must be in 3..=16, got {}", self.sites));
        }
        if self.objects < self.sites as usize {
            return Err(format!(
                "{} objects cannot cover {} sites",
                self.objects, self.sites
            ));
        }
        if self.clusters < 2 {
            return Err("at least two ground-truth clusters required".into());
        }
        if self.sessions == 0 {
            return Err("at least one session required".into());
        }
        let shape = &self.shape;
        if shape.numeric + shape.categorical + shape.alphanumeric == 0 {
            return Err("the schema shape declares no attributes".into());
        }
        if shape.alphanumeric > 0 && shape.sequence_len == 0 {
            return Err("alphanumeric attributes need a positive sequence_len".into());
        }

        let mut schema_rng = rng_from_seed(mix(self.seed, 0x5C11_E3A0));
        let mut attributes = Vec::new();
        let mut cli_fields = Vec::new();
        for i in 0..shape.numeric {
            let base = 10.0 + 17.0 * i as f64;
            let spacing = 6.0 + 2.0 * i as f64;
            attributes.push(AttributeSpec::Numeric {
                name: format!("num{i}"),
                mixture: GaussianMixture::evenly_spaced(self.clusters, base, spacing, 1.5)
                    .map_err(|e| e.to_string())?,
            });
            cli_fields.push(format!("num{i}:numeric"));
        }
        for i in 0..shape.categorical {
            let labels = LABEL_POOLS[i % LABEL_POOLS.len()]
                .iter()
                .map(|l| l.to_string())
                .collect();
            attributes.push(AttributeSpec::Categorical {
                name: format!("cat{i}"),
                generator: CategoricalGenerator::dominant_label(labels, self.clusters, 0.08)
                    .map_err(|e| e.to_string())?,
            });
            cli_fields.push(format!("cat{i}:categorical"));
        }
        for i in 0..shape.alphanumeric {
            let (alphabet_name, alphabet) = alphabet_pool(i);
            attributes.push(AttributeSpec::Alphanumeric {
                name: format!("seq{i}"),
                generator: SequenceGenerator::random_ancestors(
                    alphabet,
                    self.clusters,
                    shape.sequence_len,
                    0.06,
                    0.02,
                    &mut schema_rng,
                )
                .map_err(|e| e.to_string())?,
            });
            cli_fields.push(format!("seq{i}:alphanumeric:{alphabet_name}"));
        }
        let schema_cli = cli_fields.join(",");

        let dataset = MixedDatasetSpec {
            attributes,
            clusters: self.clusters,
            objects: self.objects,
            seed: mix(self.seed, 0x0DA7_A5E7),
        }
        .generate()
        .map_err(|e| e.to_string())?;

        let strategy = match self.skew {
            SiteSkew::Uniform => PartitionStrategy::Random {
                seed: mix(self.seed, 0x9A27),
            },
            SiteSkew::Zipf { exponent } => PartitionStrategy::Zipf {
                exponent,
                seed: mix(self.seed, 0x21BF),
            },
            SiteSkew::DominantSite { fraction } => PartitionStrategy::Skewed { fraction },
        };
        let (partitions, origins) =
            partition(&dataset.data, self.sites, strategy).map_err(|e| e.to_string())?;

        // Per-session manifest diversity: linkage, weights (small integers,
        // normalised through the same WeightVector path the manifest parser
        // uses), chunk window and numeric mode all rotate deterministically.
        let attrs = dataset.data.schema().len();
        let mut plan_rng = rng_from_seed(mix(self.seed, 0xD1CE));
        let mut profiles = Vec::with_capacity(self.sessions);
        for s in 0..self.sessions {
            let linkage = LINKAGE_POOL[s % LINKAGE_POOL.len()];
            let raw_weights: Vec<u32> = if s % 2 == 0 {
                vec![1; attrs]
            } else {
                (0..attrs).map(|_| plan_rng.gen_range(1..=4)).collect()
            };
            let chunk_rows = match (s % 3, self.chunk_base) {
                (_, None) | (2, _) => None,
                (0, Some(base)) => Some(base),
                (_, Some(base)) => Some((base * 2).max(2)),
            };
            let numeric_mode = if s % 2 == 0 {
                NumericMode::Batch
            } else {
                NumericMode::PerPair
            };
            let clusters = 2 + (s % 3);
            profiles.push(SessionProfile {
                clusters,
                linkage,
                raw_weights,
                chunk_rows,
                numeric_mode,
            });
        }

        let schema = dataset.data.schema().clone();
        let plans = profiles
            .iter()
            .map(|p| p.plan())
            .collect::<Result<Vec<SessionPlan>, String>>()?;

        Ok(Scenario {
            spec: *self,
            schema,
            schema_cli,
            dataset,
            partitions,
            origins,
            profiles,
            plans,
            master: Seed::from_u64(self.seed),
        })
    }
}

/// One session's diversified knobs, kept in renderable (raw) form so the
/// emitted manifest builds the *same* plan through the CLI parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionProfile {
    /// Requested number of clusters.
    pub clusters: usize,
    /// Linkage criterion.
    pub linkage: Linkage,
    /// Raw (pre-normalisation) attribute weights, one per attribute.
    pub raw_weights: Vec<u32>,
    /// Chunk window (`None` streams whole matrices).
    pub chunk_rows: Option<usize>,
    /// Numeric masking mode.
    pub numeric_mode: NumericMode,
}

impl SessionProfile {
    /// The manifest line for this session (`key=value` tokens, every key
    /// explicit so the base plan never leaks through).
    pub fn manifest_line(&self) -> String {
        let weights: Vec<String> = self.raw_weights.iter().map(u32::to_string).collect();
        format!(
            "clusters={} linkage={} weights={} chunk-rows={} numeric-mode={}",
            self.clusters,
            linkage_name(self.linkage),
            weights.join(","),
            match self.chunk_rows {
                Some(w) => w.to_string(),
                None => "none".into(),
            },
            numeric_mode_name(self.numeric_mode),
        )
    }

    /// Builds the session plan, normalising weights exactly like the
    /// manifest parser does.
    pub fn plan(&self) -> Result<SessionPlan, String> {
        let weights = WeightVector::new(self.raw_weights.iter().map(|&w| f64::from(w)).collect())
            .map_err(|e| e.to_string())?;
        Ok(SessionPlan {
            config: ProtocolConfig {
                numeric_mode: self.numeric_mode,
                ..ProtocolConfig::default()
            },
            request: ClusteringRequest {
                weights,
                linkage: self.linkage,
                num_clusters: self.clusters,
            },
            chunk_rows: self.chunk_rows,
        })
    }
}

/// A fully generated scenario: dataset, partitioning and session plans.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The spec this scenario was generated from.
    pub spec: ScenarioSpec,
    /// The mixed schema.
    pub schema: Schema,
    /// The schema in `ppc-party --schema` syntax.
    pub schema_cli: String,
    /// The generated global dataset with ground-truth labels.
    pub dataset: GeneratedDataset,
    /// Horizontal partitions, ascending site order.
    pub partitions: Vec<HorizontalPartition>,
    /// For every site, the global row index of each of its rows.
    pub origins: Vec<Vec<usize>>,
    /// Per-session diversity in renderable form.
    pub profiles: Vec<SessionProfile>,
    /// The session plans the profiles expand to.
    pub plans: Vec<SessionPlan>,
    /// The trusted-setup master seed (`Seed::from_u64(spec.seed)`).
    pub master: Seed,
}

impl Scenario {
    /// The schema in `ppc-party --schema` syntax.
    pub fn schema_cli(&self) -> &str {
        &self.schema_cli
    }

    /// The `--manifest` text: one diversified session per line. Parsing
    /// this with the CLI's manifest parser reproduces [`Self::plans`]
    /// exactly (the round-trip property the generator tests pin).
    pub fn manifest_text(&self) -> String {
        let mut out = format!(
            "# scenario seed={} sites={} objects={}\n",
            self.spec.seed, self.spec.sites, self.spec.objects
        );
        for profile in &self.profiles {
            out.push_str(&profile.manifest_line());
            out.push('\n');
        }
        out
    }

    /// Every party of the federation: `DH0..DH{k-1}` plus the third party.
    pub fn parties(&self) -> Vec<PartyId> {
        (0..self.spec.sites)
            .map(PartyId::DataHolder)
            .chain([PartyId::ThirdParty])
            .collect()
    }

    /// Expands the scenario into one [`SessionSpec`] per plan, running the
    /// deterministic trusted setup per session (sessions are independent).
    pub fn session_specs(&self) -> Result<Vec<SessionSpec>, String> {
        self.plans
            .iter()
            .map(|plan| {
                let setup = TrustedSetup::deterministic(self.partitions.clone(), &self.master)
                    .map_err(|e| e.to_string())?;
                Ok(SessionSpec {
                    schema: self.schema.clone(),
                    config: plan.config,
                    holders: setup.holders,
                    keys: setup.third_party,
                    request: plan.request.clone(),
                    chunk_rows: plan.chunk_rows,
                })
            })
            .collect()
    }

    /// Runs the uninterrupted in-process oracle, a one-shard
    /// [`ShardedEngine`] over an ideal in-memory network, returning
    /// outcomes in session order.
    pub fn oracle(&self) -> Result<Vec<EngineOutcome>, String> {
        let mut engine = ShardedEngine::new(vec![Network::with_parties(self.spec.sites)])
            .map_err(|e| e.to_string())?;
        for spec in self.session_specs()? {
            engine.add_session(spec);
        }
        engine
            .run()
            .map(|run| run.outcomes)
            .map_err(|e| e.to_string())
    }

    /// Writes one CSV per site into `dir` (`site0.csv`, `site1.csv`, …),
    /// returning the paths in site order.
    pub fn write_csvs(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        let mut paths = Vec::with_capacity(self.partitions.len());
        for partition in &self.partitions {
            let path = dir.join(format!("site{}.csv", partition.site()));
            std::fs::write(&path, to_csv(partition.matrix()))?;
            paths.push(path);
        }
        Ok(paths)
    }

    /// A digest over everything the scenario pins: the CLI schema, every
    /// partition's CSV rendering (site order), the ground-truth labels and
    /// the manifest. Two scenarios from the same spec always agree.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        h.update(self.schema_cli.as_bytes());
        for partition in &self.partitions {
            h.update(&partition.site().to_le_bytes());
            h.update(to_csv(partition.matrix()).as_bytes());
        }
        for &label in &self.dataset.labels {
            h.update(&(label as u64).to_le_bytes());
        }
        h.update(&fingerprint_str(&self.manifest_text()).to_le_bytes());
        h.finish()
    }
}

/// Stable lowercase linkage names matching the CLI's `parse_linkage`.
pub fn linkage_name(linkage: Linkage) -> &'static str {
    match linkage {
        Linkage::Single => "single",
        Linkage::Complete => "complete",
        Linkage::Average => "average",
        Linkage::Weighted => "weighted",
        Linkage::Ward => "ward",
        Linkage::Centroid => "centroid",
        Linkage::Median => "median",
    }
}

/// Stable numeric-mode names matching the CLI's `--numeric-mode`.
pub fn numeric_mode_name(mode: NumericMode) -> &'static str {
    match mode {
        NumericMode::Batch => "batch",
        NumericMode::PerPair => "per-pair",
    }
}

/// The linkage rotation applied across sessions.
const LINKAGE_POOL: [Linkage; 5] = [
    Linkage::Average,
    Linkage::Ward,
    Linkage::Single,
    Linkage::Complete,
    Linkage::Weighted,
];

/// Categorical label vocabularies, rotated per attribute.
const LABEL_POOLS: [&[&str]; 3] = [
    &["mild", "severe", "critical"],
    &["a", "b", "o", "ab"],
    &["north", "south", "east", "west"],
];

/// Alphabets with their CLI names, rotated per alphanumeric attribute.
fn alphabet_pool(i: usize) -> (&'static str, Alphabet) {
    match i % 3 {
        0 => ("dna", Alphabet::dna()),
        1 => ("abcd", Alphabet::abcd()),
        _ => ("lowercase", Alphabet::lowercase()),
    }
}

/// SplitMix64-style seed derivation so every sub-generator gets an
/// independent, reproducible stream.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_validate() {
        assert!(ScenarioSpec {
            sites: 2,
            ..ScenarioSpec::ci(1)
        }
        .generate()
        .is_err());
        assert!(ScenarioSpec {
            sites: 17,
            ..ScenarioSpec::ci(1)
        }
        .generate()
        .is_err());
        assert!(ScenarioSpec {
            objects: 4,
            ..ScenarioSpec::ci(1)
        }
        .generate()
        .is_err());
        assert!(ScenarioSpec {
            sessions: 0,
            ..ScenarioSpec::ci(1)
        }
        .generate()
        .is_err());
        assert!(ScenarioSpec {
            clusters: 1,
            ..ScenarioSpec::ci(1)
        }
        .generate()
        .is_err());
    }

    #[test]
    fn scenario_shape_matches_spec() {
        let scenario = ScenarioSpec::ci(7).generate().unwrap();
        assert_eq!(scenario.partitions.len(), 5);
        assert_eq!(scenario.plans.len(), 3);
        assert_eq!(scenario.schema.len(), 3);
        assert_eq!(
            scenario
                .partitions
                .iter()
                .map(HorizontalPartition::len)
                .sum::<usize>(),
            240
        );
        assert_eq!(scenario.parties().len(), 6);
        // Zipf skew: site 0 dominates the tail site.
        assert!(scenario.partitions[0].len() > scenario.partitions[4].len());
        // Session diversity: the three CI sessions differ in linkage and
        // numeric mode.
        assert_ne!(
            scenario.plans[0].request.linkage,
            scenario.plans[1].request.linkage
        );
        assert_ne!(
            scenario.plans[0].config.numeric_mode,
            scenario.plans[1].config.numeric_mode
        );
    }

    #[test]
    fn dominant_site_skew_applies() {
        let scenario = ScenarioSpec {
            skew: SiteSkew::DominantSite { fraction: 0.6 },
            ..ScenarioSpec::ci(3)
        }
        .generate()
        .unwrap();
        assert_eq!(scenario.partitions[0].len(), 144);
    }
}
