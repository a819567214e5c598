//! One function per experiment, each producing a printable report.
//!
//! Experiment ids are the ones the README's "Reproducing the paper's
//! experiments" section lists: E1–E3 reproduce the paper's worked examples
//! and published-result format, E4–E6 measure the communication-cost
//! claims, E7 the accuracy claim, E8 the privacy analysis, E9 the
//! multi-party scaling, E10 the hierarchical-vs-partitioning argument and
//! E11 the published clustering-quality parameters.

use std::fmt::Write as _;

use ppc_baselines::atallah::AtallahCostModel;
use ppc_baselines::distributed_kmeans::{distributed_kmeans, DistributedKMeansConfig};
use ppc_cluster::agreement::adjusted_rand_index;
use ppc_cluster::dbscan::{dbscan, DbscanConfig};
use ppc_cluster::kmedoids::{kmedoids, KMedoidsConfig};
use ppc_cluster::quality::silhouette;
use ppc_cluster::{AgglomerativeClustering, ClusterAssignment, CondensedDistanceMatrix, Linkage};
use ppc_core::alphabet::Alphabet;
use ppc_core::distance::edit_distance;
use ppc_core::privacy::{
    eavesdrop_initiator_link, eavesdrop_responder_link, frequency_attack_on_batch_column,
};
use ppc_core::protocol::driver::{ClusteringRequest, ThirdPartyDriver};
use ppc_core::protocol::party::TrustedSetup;
use ppc_core::protocol::{alphanumeric, numeric, NumericMode, ProtocolConfig};
use ppc_core::CoreError;
use ppc_crypto::prng::DynStreamRng;
use ppc_crypto::{Negator, NumericMasker, PairwiseSeeds, RngAlgorithm, Seed};
use ppc_data::Workload;
use ppc_net::{CostModel, PartyId};

use crate::runners::{
    accuracy_comparison, alphanumeric_cost_sweep, numeric_cost_sweep, run_session,
};

/// A rendered experiment report.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Experiment id (e.g. `"E4"`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The rendered table / narrative.
    pub body: String,
}

impl ExperimentReport {
    fn new(id: &str, title: &str, body: String) -> Self {
        ExperimentReport {
            id: id.to_string(),
            title: title.to_string(),
            body,
        }
    }
}

/// E1 — the paper's Figure 3 worked example of the numeric protocol.
pub fn e1_numeric_worked_example() -> Result<ExperimentReport, CoreError> {
    let mut body = String::new();
    // Figure 3 uses x = 3, y = 8, R_JK = 5, R_JT = 7.
    let negator = Negator::from_random(5);
    let x_masked = NumericMasker::mask_initiator(3, 7, negator);
    let m = NumericMasker::fold_responder(x_masked, 8, negator);
    let d = NumericMasker::unmask_distance(m, 7);
    writeln!(body, "step                        paper   reproduced").unwrap();
    writeln!(body, "x'' = -x + R_JT             4       {x_masked}").unwrap();
    writeln!(body, "m   = y + x''               12      {m}").unwrap();
    writeln!(body, "|x - y| = |m - R_JT|        5       {d}").unwrap();
    let ok = x_masked == 4 && m == 12 && d == 5;
    writeln!(body, "matches paper: {ok}").unwrap();
    // And the same distance recovered through the full batch protocol.
    let seeds = PairwiseSeeds::new(Seed::from_u64(5), Seed::from_u64(7));
    let masked = numeric::initiator_mask(&[3], &seeds, RngAlgorithm::ChaCha20);
    let pairwise =
        numeric::responder_fold(&masked, &[8], &seeds.holder_holder, RngAlgorithm::ChaCha20);
    let distances =
        numeric::third_party_unmask(&pairwise, &seeds.holder_third_party, RngAlgorithm::ChaCha20);
    writeln!(
        body,
        "full protocol |3 - 8|               {}",
        distances.get(0, 0)
    )
    .unwrap();
    Ok(ExperimentReport::new(
        "E1",
        "Figure 3 — numeric comparison worked example",
        body,
    ))
}

/// E2 — the paper's Figure 7 worked example of the alphanumeric protocol.
pub fn e2_alphanumeric_worked_example() -> Result<ExperimentReport, CoreError> {
    let mut body = String::new();
    let alphabet = Alphabet::abcd();
    let seeds = PairwiseSeeds::new(Seed::from_u64(11), Seed::from_u64(13));
    let s = "abc";
    let t = "bd";
    let s_encoded = vec![alphabet.encode(s)?];
    let t_encoded = vec![alphabet.encode(t)?];
    let masked = alphanumeric::initiator_mask_strings(
        &s_encoded,
        alphabet.size(),
        &seeds,
        RngAlgorithm::ChaCha20,
    )?;
    let masked_str = alphabet.decode(&masked[0])?;
    let bundle = alphanumeric::responder_build_bundle(&masked, &t_encoded, alphabet.size())?;
    let distances = alphanumeric::third_party_edit_distances(
        &bundle,
        alphabet.size(),
        &seeds.holder_third_party,
        RngAlgorithm::ChaCha20,
    )?;
    writeln!(body, "alphabet          {{a, b, c, d}}").unwrap();
    writeln!(body, "DH_J string S     {s}").unwrap();
    writeln!(body, "DH_K string T     {t}").unwrap();
    writeln!(
        body,
        "masked S' sent to DH_K: {masked_str} (random over the alphabet)"
    )
    .unwrap();
    writeln!(
        body,
        "TP edit distance via CCM: {}   plaintext edit distance: {}",
        distances.get(0, 0),
        edit_distance(s, t)
    )
    .unwrap();
    writeln!(
        body,
        "CCM reveals to TP only the character-equality pattern, never the symbols."
    )
    .unwrap();
    Ok(ExperimentReport::new(
        "E2",
        "Figure 7 — alphanumeric comparison worked example",
        body,
    ))
}

/// E3 — the published result format of Figure 13 on a 3-site mixed workload.
pub fn e3_published_result() -> Result<ExperimentReport, CoreError> {
    let workload =
        Workload::bird_flu(18, 3, 3, 2024).map_err(|e| CoreError::Protocol(e.to_string()))?;
    let schema = workload.schema().clone();
    let setup = TrustedSetup::deterministic(workload.partitions.clone(), &Seed::from_u64(99))?;
    let driver = ThirdPartyDriver::new(schema.clone(), ProtocolConfig::default());
    let output = driver.construct(&setup.holders, &setup.third_party)?;
    let (result, _) = driver.cluster(&output, &ClusteringRequest::uniform(&schema, 3))?;
    let truth = ClusterAssignment::from_labels(&workload.ground_truth_in_site_order());
    let published = crate::runners::assignment_from_result(&result, &workload.len());
    let ari = adjusted_rand_index(&published, &truth).unwrap_or(0.0);
    let mut body = String::new();
    writeln!(body, "{result}").unwrap();
    writeln!(body).unwrap();
    writeln!(
        body,
        "objects are labelled <site letter><local id> exactly as in Figure 13"
    )
    .unwrap();
    writeln!(
        body,
        "adjusted Rand index vs ground-truth strains: {ari:.3}"
    )
    .unwrap();
    Ok(ExperimentReport::new(
        "E3",
        "Figure 13 — published clustering result (3 sites)",
        body,
    ))
}

/// E4 — numeric communication-cost sweep (the §4.1 cost analysis, measured).
pub fn e4_numeric_costs() -> Result<ExperimentReport, CoreError> {
    let sizes = [32usize, 64, 128, 256, 512];
    let rows = numeric_cost_sweep(&sizes, NumericMode::Batch)?;
    let mut body = String::new();
    writeln!(
        body,
        "{:>6} {:>6} {:>14} {:>14} {:>14} {:>10} {:>10}",
        "n", "m", "DH_J bytes", "DH_K bytes", "total bytes", "J ratio", "K ratio"
    )
    .unwrap();
    let mut prev: Option<&crate::runners::CostRow> = None;
    for row in &rows {
        let (jr, kr) = match prev {
            Some(p) => (
                row.initiator_bytes as f64 / p.initiator_bytes as f64,
                row.responder_bytes as f64 / p.responder_bytes as f64,
            ),
            None => (1.0, 1.0),
        };
        writeln!(
            body,
            "{:>6} {:>6} {:>14} {:>14} {:>14} {:>10.2} {:>10.2}",
            row.initiator_objects,
            row.responder_objects,
            row.initiator_bytes,
            row.responder_bytes,
            row.total_bytes,
            jr,
            kr
        )
        .unwrap();
        prev = Some(row);
    }
    writeln!(body).unwrap();
    writeln!(
        body,
        "paper: DH_J cost O(n^2 + n), DH_K cost O(m^2 + m*n); doubling n should roughly"
    )
    .unwrap();
    writeln!(
        body,
        "quadruple both (the O(n^2) local-matrix term dominates), which the ratio columns show."
    )
    .unwrap();
    // Estimated transfer times under the three network profiles for the
    // largest configuration.
    if let Some(last) = rows.last() {
        let report = ppc_net::CommReport::default();
        let _ = report;
        writeln!(
            body,
            "largest run total = {} bytes; est. transfer time LAN {:.3}s / WAN {:.3}s / 2006 DSL {:.3}s",
            last.total_bytes,
            last.total_bytes as f64 / CostModel::lan().bandwidth_bytes_per_sec,
            last.total_bytes as f64 / CostModel::wan().bandwidth_bytes_per_sec,
            last.total_bytes as f64 / CostModel::dsl_2006().bandwidth_bytes_per_sec,
        )
        .unwrap();
    }
    Ok(ExperimentReport::new(
        "E4",
        "Numeric protocol communication cost (§4.1)",
        body,
    ))
}

/// E5 — alphanumeric cost sweep and comparison with the Atallah protocol.
pub fn e5_alphanumeric_costs() -> Result<ExperimentReport, CoreError> {
    let mut body = String::new();
    writeln!(
        body,
        "{:>4} {:>4} {:>6} {:>14} {:>14} {:>18} {:>10}",
        "n", "m", "|s|", "DH_J bytes", "DH_K bytes", "Atallah[8] bytes", "overhead"
    )
    .unwrap();
    for &(objects, length) in &[(8usize, 16usize), (16, 16), (16, 32), (32, 32), (32, 64)] {
        let rows = alphanumeric_cost_sweep(&[objects], length)?;
        let row = &rows[0];
        let atallah = AtallahCostModel::default();
        let lengths = vec![length; objects];
        let atallah_bytes = atallah.bytes_for_columns(&lengths, &lengths);
        let ours = row.initiator_bytes + row.responder_bytes;
        writeln!(
            body,
            "{:>4} {:>4} {:>6} {:>14} {:>14} {:>18} {:>9.0}x",
            row.initiator_objects,
            row.responder_objects,
            length,
            row.initiator_bytes,
            row.responder_bytes,
            atallah_bytes,
            atallah_bytes as f64 / ours as f64
        )
        .unwrap();
    }
    writeln!(body).unwrap();
    writeln!(
        body,
        "paper: DH_J O(n^2 + n*p), DH_K O(m^2 + m*q*n*p); the CCM bundle (ceil(log2|A|)"
    )
    .unwrap();
    writeln!(
        body,
        "bits/cell, 2 for DNA) dominates DH_K. The Atallah et al. [8] protocol ships ~8"
    )
    .unwrap();
    writeln!(
        body,
        "Paillier ciphertexts per DP cell (2048-bit modulus), hence the 3-4 orders of"
    )
    .unwrap();
    writeln!(
        body,
        "magnitude overhead column — the paper's 'not feasible for clustering'"
    )
    .unwrap();
    writeln!(body, "argument, measured.").unwrap();
    Ok(ExperimentReport::new(
        "E5",
        "Alphanumeric protocol communication cost vs Atallah et al. (§4.2)",
        body,
    ))
}

/// E6 — categorical cost (O(n) per site) measured over growing sites.
pub fn e6_categorical_costs() -> Result<ExperimentReport, CoreError> {
    let mut body = String::new();
    writeln!(
        body,
        "{:>8} {:>16} {:>16}",
        "objects", "bytes per site", "bytes/object"
    )
    .unwrap();
    for &n in &[64usize, 256, 1024, 4096] {
        // Build a categorical-only workload by hand.
        let workload = Workload::customer_segmentation(2 * n, 2, 3, 3)
            .map_err(|e| CoreError::Protocol(e.to_string()))?;
        // Only measure the categorical attribute's traffic: encrypt columns
        // directly (16-byte tags + framing).
        let column = workload.partitions[0]
            .matrix()
            .categorical_column(2)
            .map_err(|e| CoreError::Protocol(e.to_string()))?;
        let key = ppc_crypto::Prf128::new(&[7u8; 32]);
        let encrypted = ppc_core::protocol::categorical::encrypt_column(&column, &key);
        let msg = ppc_core::protocol::messages::EncryptedColumnMsg {
            attribute: "region".into(),
            tags: encrypted.tags.iter().map(|t| t.to_bytes()).collect(),
        };
        let bytes = msg.encode().len();
        writeln!(
            body,
            "{:>8} {:>16} {:>16.1}",
            column.len(),
            bytes,
            bytes as f64 / column.len() as f64
        )
        .unwrap();
    }
    writeln!(body).unwrap();
    writeln!(
        body,
        "paper: categorical cost is O(n) per site — bytes/object stays constant (~20 B:"
    )
    .unwrap();
    writeln!(
        body,
        "16-byte deterministic ciphertext + 4-byte length framing)."
    )
    .unwrap();
    Ok(ExperimentReport::new(
        "E6",
        "Categorical protocol communication cost (§4.3)",
        body,
    ))
}

/// E7 — accuracy: protocol vs centralized vs sanitization.
pub fn e7_accuracy() -> Result<ExperimentReport, CoreError> {
    let workload =
        Workload::bird_flu(36, 3, 3, 31).map_err(|e| CoreError::Protocol(e.to_string()))?;
    let rows = accuracy_comparison(&workload, 3, &[0.1, 0.3, 0.6])?;
    let mut body = String::new();
    writeln!(
        body,
        "workload: {} ({} objects, 3 sites)",
        workload.name,
        workload.len()
    )
    .unwrap();
    writeln!(
        body,
        "{:<44} {:>12} {:>16} {:>16}",
        "method", "ARI(truth)", "ARI(centralized)", "max matrix diff"
    )
    .unwrap();
    for row in &rows {
        writeln!(
            body,
            "{:<44} {:>12.3} {:>16.3} {:>16}",
            row.method,
            row.ari_vs_truth,
            row.ari_vs_centralized,
            row.matrix_max_difference
                .map(|d| format!("{d:.2e}"))
                .unwrap_or_else(|| "-".into()),
        )
        .unwrap();
    }
    writeln!(body).unwrap();
    writeln!(
        body,
        "paper claim: 'there is no loss of accuracy' — the protocol row must match the"
    )
    .unwrap();
    writeln!(
        body,
        "centralized row exactly (ARI 1.0, matrix diff ≈ fixed-point epsilon), while the"
    )
    .unwrap();
    writeln!(
        body,
        "sanitization baselines trade accuracy for privacy as noise grows."
    )
    .unwrap();
    Ok(ExperimentReport::new(
        "E7",
        "Accuracy: no loss vs centralized; sanitization degrades",
        body,
    ))
}

/// E8 — privacy: frequency-analysis attack and eavesdropping inferences.
pub fn e8_privacy() -> Result<ExperimentReport, CoreError> {
    let mut body = String::new();
    let algorithm = RngAlgorithm::ChaCha20;
    writeln!(
        body,
        "{:>12} {:>10} {:>22} {:>22}",
        "value range", "mode", "consistent candidates", "exact column recovered"
    )
    .unwrap();
    for &range in &[4i64, 16, 64, 256, 1024] {
        for (label, per_pair) in [("batch", false), ("per-pair", true)] {
            let seeds = PairwiseSeeds::new(Seed::from_u64(3), Seed::from_u64(4));
            let k_values: Vec<i64> = (0..24).map(|i| (i * 7) % range).collect();
            let j_values = vec![range / 2];
            let (column, mask) = if per_pair {
                let masked =
                    numeric::initiator_mask_per_pair(&j_values, k_values.len(), &seeds, algorithm);
                let pairwise = numeric::responder_fold_per_pair(
                    &masked,
                    &k_values,
                    &seeds.holder_holder,
                    algorithm,
                )?;
                let mut rng = DynStreamRng::new(algorithm, &seeds.holder_third_party);
                (
                    pairwise.iter_rows().map(|r| r[0]).collect::<Vec<_>>(),
                    rng.next_u64(),
                )
            } else {
                let masked = numeric::initiator_mask(&j_values, &seeds, algorithm);
                let pairwise =
                    numeric::responder_fold(&masked, &k_values, &seeds.holder_holder, algorithm);
                let mut rng = DynStreamRng::new(algorithm, &seeds.holder_third_party);
                (
                    pairwise.iter_rows().map(|r| r[0]).collect::<Vec<_>>(),
                    rng.next_u64(),
                )
            };
            let outcome = frequency_attack_on_batch_column(&column, mask, (0, range - 1));
            writeln!(
                body,
                "{:>12} {:>10} {:>22} {:>22}",
                format!("[0, {})", range),
                label,
                outcome.consistent_candidates,
                outcome.contains_truth(&k_values)
            )
            .unwrap();
        }
    }
    writeln!(body).unwrap();
    writeln!(
        body,
        "batch mode + small range ⇒ the third party pins DH_K's column down to a couple of"
    )
    .unwrap();
    writeln!(
        body,
        "candidates (the §4.1 frequency-analysis warning); per-pair masking removes the leak."
    )
    .unwrap();
    writeln!(body).unwrap();
    // Eavesdropping inferences (why channels must be secured).
    let tp_view = eavesdrop_initiator_link(4, 7);
    let dhj_view = eavesdrop_responder_link(12, 7, 3);
    writeln!(
        body,
        "eavesdropping on plaintext channels (Figure 3 values):"
    )
    .unwrap();
    writeln!(
        body,
        "  TP on DH_J→DH_K sees x''=4, knows r=7  ⇒ x ∈ {:?} (true x = 3)",
        tp_view.candidates()
    )
    .unwrap();
    writeln!(
        body,
        "  DH_J on DH_K→TP sees m=12, knows r=7, x=3 ⇒ y ∈ {:?} (true y = 8)",
        dhj_view.candidates()
    )
    .unwrap();
    writeln!(
        body,
        "with secured channels (the default) neither observation exists."
    )
    .unwrap();
    Ok(ExperimentReport::new(
        "E8",
        "Privacy: frequency-analysis attack and eavesdropping",
        body,
    ))
}

/// E9 — scaling with the number of data holders (C(k,2) protocol runs).
pub fn e9_party_scaling() -> Result<ExperimentReport, CoreError> {
    let mut body = String::new();
    writeln!(
        body,
        "{:>3} {:>8} {:>14} {:>14} {:>16}",
        "k", "objects", "total bytes", "TP recv bytes", "holder pair runs"
    )
    .unwrap();
    let objects = 48usize;
    for &k in &[2u32, 3, 4, 6, 8] {
        let workload = Workload::numeric_only(objects, k, 2, 5)
            .map_err(|e| CoreError::Protocol(e.to_string()))?;
        let summary = run_session(&workload, NumericMode::Batch, 2, Linkage::Average)?;
        let tp_recv = summary.communication.bytes_received_by(PartyId::ThirdParty);
        writeln!(
            body,
            "{:>3} {:>8} {:>14} {:>14} {:>16}",
            k,
            objects,
            summary.communication.total_bytes(),
            tp_recv,
            k * (k - 1) / 2
        )
        .unwrap();
    }
    writeln!(body).unwrap();
    writeln!(
        body,
        "with the total object count fixed, more sites mean smaller local matrices but"
    )
    .unwrap();
    writeln!(
        body,
        "C(k,2) pairwise protocol runs; the cross-site traffic still covers every object"
    )
    .unwrap();
    writeln!(body, "pair once, so total bytes stay in the same ballpark.").unwrap();
    Ok(ExperimentReport::new(
        "E9",
        "Scaling with the number of data holders (§4)",
        body,
    ))
}

/// E10 — hierarchical vs partitioning methods on non-spherical / string data.
pub fn e10_hierarchical_vs_partitioning() -> Result<ExperimentReport, CoreError> {
    let mut body = String::new();

    // Part 1: two concentric rings (numeric, non-spherical).
    let mut points: Vec<(f64, f64)> = Vec::new();
    let mut truth_labels = Vec::new();
    for i in 0..40 {
        let a = i as f64 * std::f64::consts::TAU / 40.0;
        points.push((a.cos(), a.sin()));
        truth_labels.push(0usize);
    }
    for i in 0..60 {
        let a = i as f64 * std::f64::consts::TAU / 60.0;
        points.push((5.0 * a.cos(), 5.0 * a.sin()));
        truth_labels.push(1usize);
    }
    let matrix = CondensedDistanceMatrix::from_fn(points.len(), |i, j| {
        let dx = points[i].0 - points[j].0;
        let dy = points[i].1 - points[j].1;
        (dx * dx + dy * dy).sqrt()
    });
    let truth = ClusterAssignment::from_labels(&truth_labels);
    let single = AgglomerativeClustering::new(Linkage::Single).fit_k(&matrix, 2)?;
    let average = AgglomerativeClustering::new(Linkage::Average).fit_k(&matrix, 2)?;
    let medoids = kmedoids(&matrix, &KMedoidsConfig::new(2))?;
    let density = dbscan(
        &matrix,
        &DbscanConfig {
            eps: 0.9,
            min_points: 3,
        },
    )?;
    writeln!(
        body,
        "two concentric rings (non-spherical clusters), 100 points:"
    )
    .unwrap();
    writeln!(body, "{:<36} {:>10}", "method", "ARI(truth)").unwrap();
    for (name, assignment) in [
        ("hierarchical, single linkage", &single),
        ("hierarchical, average linkage", &average),
        ("k-medoids (partitioning)", &medoids.assignment),
        ("DBSCAN (density, matrix-driven)", &density.assignment),
    ] {
        let ari = adjusted_rand_index(assignment, &truth).unwrap_or(0.0);
        writeln!(body, "{name:<36} {ari:>10.3}").unwrap();
    }
    writeln!(body).unwrap();

    // Part 2: DNA strings — partitioning methods have no mean to work with.
    let workload =
        Workload::dna_only(24, 2, 3, 24, 8).map_err(|e| CoreError::Protocol(e.to_string()))?;
    let summary = run_session(&workload, NumericMode::Batch, 3, Linkage::Average)?;
    let kmeans_result = distributed_kmeans(
        workload.schema(),
        &workload.partitions,
        &DistributedKMeansConfig {
            k: 3,
            max_iterations: 20,
            seed: 1,
        },
    );
    writeln!(
        body,
        "DNA strings (edit distance), 24 sequences across 2 sites:"
    )
    .unwrap();
    writeln!(
        body,
        "  hierarchical on protocol-built dissimilarity matrix: ARI(truth) = {:.3}",
        summary.ari_vs_truth
    )
    .unwrap();
    writeln!(
        body,
        "  secure-sum distributed k-means (numeric only):       {}",
        match kmeans_result {
            Ok(_) => "unexpectedly ran".to_string(),
            Err(e) => format!("cannot run — {e}"),
        }
    )
    .unwrap();
    writeln!(body).unwrap();
    writeln!(
        body,
        "paper argument: partitioning methods favour spherical clusters and 'can not handle"
    )
    .unwrap();
    writeln!(body, "string data type for which a mean is not defined'.").unwrap();
    Ok(ExperimentReport::new(
        "E10",
        "Hierarchical vs partitioning clustering (paper §2/§6 argument)",
        body,
    ))
}

/// E11 — internal quality parameters the third party can publish (§5).
pub fn e11_quality_parameters() -> Result<ExperimentReport, CoreError> {
    let workload =
        Workload::bird_flu(24, 3, 3, 77).map_err(|e| CoreError::Protocol(e.to_string()))?;
    let schema = workload.schema().clone();
    let setup = TrustedSetup::deterministic(workload.partitions.clone(), &Seed::from_u64(1))?;
    let driver = ThirdPartyDriver::new(schema.clone(), ProtocolConfig::default());
    let output = driver.construct(&setup.holders, &setup.third_party)?;
    let mut body = String::new();
    writeln!(
        body,
        "{:>3} {:>28} {:>14}",
        "k", "avg within-cluster sq dist", "silhouette"
    )
    .unwrap();
    for k in 2..=6 {
        let (result, matrix) = driver.cluster(&output, &ClusteringRequest::uniform(&schema, k))?;
        let assignment = crate::runners::assignment_from_result(&result, &workload.len());
        let sil = silhouette(matrix.matrix(), &assignment).unwrap_or(0.0);
        writeln!(
            body,
            "{:>3} {:>28.5} {:>14.3}",
            k, result.average_within_cluster_squared_distance, sil
        )
        .unwrap();
    }
    writeln!(body).unwrap();
    writeln!(
        body,
        "the third party can publish these aggregates without leaking private values;"
    )
    .unwrap();
    writeln!(
        body,
        "the silhouette peak identifies the ground-truth cluster count (3)."
    )
    .unwrap();
    Ok(ExperimentReport::new(
        "E11",
        "Published clustering-quality parameters (§5)",
        body,
    ))
}

/// Runs every experiment in order.
pub fn all_experiments() -> Vec<Result<ExperimentReport, CoreError>> {
    vec![
        e1_numeric_worked_example(),
        e2_alphanumeric_worked_example(),
        e3_published_result(),
        e4_numeric_costs(),
        e5_alphanumeric_costs(),
        e6_categorical_costs(),
        e7_accuracy(),
        e8_privacy(),
        e9_party_scaling(),
        e10_hierarchical_vs_partitioning(),
        e11_quality_parameters(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worked_examples_match_the_paper() {
        let e1 = e1_numeric_worked_example().unwrap();
        assert!(e1.body.contains("matches paper: true"));
        let e2 = e2_alphanumeric_worked_example().unwrap();
        assert!(e2
            .body
            .contains("TP edit distance via CCM: 2   plaintext edit distance: 2"));
    }

    #[test]
    fn small_experiments_render_tables() {
        let e3 = e3_published_result().unwrap();
        assert!(e3.body.contains("Cluster1"));
        let e8 = e8_privacy().unwrap();
        assert!(e8.body.contains("batch"));
        assert!(e8.body.contains("per-pair"));
        let e11 = e11_quality_parameters().unwrap();
        assert!(e11.body.contains("silhouette"));
    }
}
