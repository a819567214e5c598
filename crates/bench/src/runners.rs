//! Shared machinery for the experiments and benches.

use ppc_baselines::centralized::CentralizedBaseline;
use ppc_baselines::sanitization::SanitizationBaseline;
use ppc_cluster::agreement::adjusted_rand_index;
use ppc_cluster::{ClusterAssignment, Linkage};
use ppc_core::protocol::driver::ClusteringRequest;
use ppc_core::protocol::engine::SessionSpec;
use ppc_core::protocol::party::TrustedSetup;
use ppc_core::protocol::sharded::ShardedEngine;
use ppc_core::protocol::{NumericMode, ProtocolConfig};
use ppc_core::CoreError;
use ppc_crypto::Seed;
use ppc_data::Workload;
use ppc_net::{CommReport, Instrumented, Network, PartyId};

/// Summary of one networked protocol run.
#[derive(Debug, Clone)]
pub struct SessionSummary {
    /// Workload name.
    pub workload: String,
    /// Objects per site.
    pub site_sizes: Vec<usize>,
    /// Communication accounting.
    pub communication: CommReport,
    /// Adjusted Rand index of the published clustering against the
    /// workload's ground truth.
    pub ari_vs_truth: f64,
    /// Adjusted Rand index against the centralized baseline clustering
    /// (1.0 = identical partitions, the paper's "no loss of accuracy").
    pub ari_vs_centralized: f64,
    /// Maximum absolute difference between the protocol's final matrix and
    /// the centralized final matrix.
    pub matrix_max_difference: f64,
}

/// Runs the workload as one session on a one-shard engine over an
/// instrumented in-memory network, and compares it against the centralized
/// baseline.
pub fn run_session(
    workload: &Workload,
    mode: NumericMode,
    clusters: usize,
    linkage: Linkage,
) -> Result<SessionSummary, CoreError> {
    let schema = workload.schema().clone();
    let setup = TrustedSetup::deterministic(workload.partitions.clone(), &Seed::from_u64(0xA11CE))?;
    let config = ProtocolConfig {
        numeric_mode: mode,
        ..ProtocolConfig::default()
    };
    let network = Instrumented::new(Network::with_parties(workload.partitions.len() as u32));
    let mut engine = ShardedEngine::new(vec![network])?;
    engine.add_session(SessionSpec {
        schema: schema.clone(),
        config,
        holders: setup.holders,
        keys: setup.third_party,
        request: ClusteringRequest {
            weights: schema.uniform_weights(),
            linkage,
            num_clusters: clusters,
        },
        chunk_rows: None,
    });
    let outcome = engine.run()?.outcomes.remove(0);

    let truth = ClusterAssignment::from_labels(&workload.ground_truth_in_site_order());
    let published =
        assignment_from_result(&outcome.result, &outcome.final_matrix.index().ids().len());
    let ari_vs_truth = adjusted_rand_index(&published, &truth).unwrap_or(0.0);

    let central = CentralizedBaseline::new(schema.clone());
    let central_out = central
        .run(
            &workload.partitions,
            &schema.uniform_weights(),
            linkage,
            clusters,
        )
        .map_err(|e| CoreError::Protocol(e.to_string()))?;
    let ari_vs_centralized =
        adjusted_rand_index(&published, &central_out.assignment).unwrap_or(0.0);
    let matrix_max_difference = outcome
        .final_matrix
        .matrix()
        .max_abs_difference(central_out.final_matrix.matrix());

    Ok(SessionSummary {
        workload: workload.name.clone(),
        site_sizes: workload.partitions.iter().map(|p| p.len()).collect(),
        communication: engine.transports()[0].report(),
        ari_vs_truth,
        ari_vs_centralized,
        matrix_max_difference,
    })
}

/// Converts a published membership-list result back into a flat assignment
/// in global object order.
pub fn assignment_from_result(
    result: &ppc_core::ClusteringResult,
    total_objects: &usize,
) -> ClusterAssignment {
    let mut labels = vec![0usize; *total_objects];
    // Global order is site-sorted, matching ObjectIndex; recover it by
    // sorting all object ids.
    let mut ids: Vec<(ppc_core::ObjectId, usize)> = Vec::with_capacity(*total_objects);
    for (cluster, members) in result.clusters.iter().enumerate() {
        for &id in members {
            ids.push((id, cluster));
        }
    }
    ids.sort_by_key(|(id, _)| *id);
    for (global, (_, cluster)) in ids.into_iter().enumerate() {
        if global < labels.len() {
            labels[global] = cluster;
        }
    }
    ClusterAssignment::from_labels(&labels)
}

/// One row of a communication-cost sweep.
#[derive(Debug, Clone)]
pub struct CostRow {
    /// Number of objects at the initiator site (`n`).
    pub initiator_objects: usize,
    /// Number of objects at the responder site (`m`).
    pub responder_objects: usize,
    /// Bytes sent by the initiator (`DH_J`).
    pub initiator_bytes: u64,
    /// Bytes sent by the responder (`DH_K`).
    pub responder_bytes: u64,
    /// Total bytes across all links.
    pub total_bytes: u64,
}

/// Sweeps the numeric protocol's communication cost over object counts,
/// using a two-site workload so `DH_0` is the initiator and `DH_1` the
/// responder for the single cross-site pair.
pub fn numeric_cost_sweep(sizes: &[usize], mode: NumericMode) -> Result<Vec<CostRow>, CoreError> {
    let mut rows = Vec::with_capacity(sizes.len());
    for &n in sizes {
        let workload = Workload::numeric_only(2 * n, 2, 2, 7)
            .map_err(|e| CoreError::Protocol(e.to_string()))?;
        let summary = run_session(&workload, mode, 2, Linkage::Average)?;
        rows.push(CostRow {
            initiator_objects: summary.site_sizes[0],
            responder_objects: summary.site_sizes[1],
            initiator_bytes: summary.communication.bytes_sent_by(PartyId::DataHolder(0)),
            responder_bytes: summary.communication.bytes_sent_by(PartyId::DataHolder(1)),
            total_bytes: summary.communication.total_bytes(),
        });
    }
    Ok(rows)
}

/// Sweeps the alphanumeric protocol's communication cost over object counts
/// and string lengths.
pub fn alphanumeric_cost_sweep(
    sizes: &[usize],
    string_length: usize,
) -> Result<Vec<CostRow>, CoreError> {
    let mut rows = Vec::with_capacity(sizes.len());
    for &n in sizes {
        let workload = Workload::dna_only(2 * n, 2, 2, string_length, 13)
            .map_err(|e| CoreError::Protocol(e.to_string()))?;
        let summary = run_session(&workload, NumericMode::Batch, 2, Linkage::Average)?;
        rows.push(CostRow {
            initiator_objects: summary.site_sizes[0],
            responder_objects: summary.site_sizes[1],
            initiator_bytes: summary.communication.bytes_sent_by(PartyId::DataHolder(0)),
            responder_bytes: summary.communication.bytes_sent_by(PartyId::DataHolder(1)),
            total_bytes: summary.communication.total_bytes(),
        });
    }
    Ok(rows)
}

/// One row of the accuracy comparison (E7).
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Method label.
    pub method: String,
    /// Adjusted Rand index against ground truth.
    pub ari_vs_truth: f64,
    /// Adjusted Rand index against the centralized clustering.
    pub ari_vs_centralized: f64,
    /// Maximum dissimilarity-matrix deviation from centralized (if the
    /// method produces a matrix).
    pub matrix_max_difference: Option<f64>,
}

/// Runs the accuracy comparison on one workload: protocol vs centralized vs
/// sanitization at several noise levels.
pub fn accuracy_comparison(
    workload: &Workload,
    clusters: usize,
    noise_levels: &[f64],
) -> Result<Vec<AccuracyRow>, CoreError> {
    let schema = workload.schema().clone();
    let linkage = Linkage::Average;
    let truth = ClusterAssignment::from_labels(&workload.ground_truth_in_site_order());

    let central = CentralizedBaseline::new(schema.clone());
    let central_out = central
        .run(
            &workload.partitions,
            &schema.uniform_weights(),
            linkage,
            clusters,
        )
        .map_err(|e| CoreError::Protocol(e.to_string()))?;
    let central_ari = adjusted_rand_index(&central_out.assignment, &truth).unwrap_or(0.0);

    let mut rows = Vec::new();
    rows.push(AccuracyRow {
        method: "centralized (non-private)".into(),
        ari_vs_truth: central_ari,
        ari_vs_centralized: 1.0,
        matrix_max_difference: Some(0.0),
    });

    let summary = run_session(workload, NumericMode::Batch, clusters, linkage)?;
    rows.push(AccuracyRow {
        method: "this paper (privacy-preserving protocol)".into(),
        ari_vs_truth: summary.ari_vs_truth,
        ari_vs_centralized: summary.ari_vs_centralized,
        matrix_max_difference: Some(summary.matrix_max_difference),
    });

    for &noise in noise_levels {
        let sanitizer = SanitizationBaseline::new(schema.clone(), noise, 17)
            .map_err(|e| CoreError::Protocol(e.to_string()))?;
        let sanitized = sanitizer
            .sanitize_all(&workload.partitions)
            .map_err(|e| CoreError::Protocol(e.to_string()))?;
        let noisy = central
            .run(&sanitized, &schema.uniform_weights(), linkage, clusters)
            .map_err(|e| CoreError::Protocol(e.to_string()))?;
        rows.push(AccuracyRow {
            method: format!("sanitization baseline (noise {noise:.2})"),
            ari_vs_truth: adjusted_rand_index(&noisy.assignment, &truth).unwrap_or(0.0),
            ari_vs_centralized: adjusted_rand_index(&noisy.assignment, &central_out.assignment)
                .unwrap_or(0.0),
            matrix_max_difference: None,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_session_produces_consistent_summary() {
        let w = Workload::bird_flu(18, 3, 3, 4).unwrap();
        let s = run_session(&w, NumericMode::Batch, 3, Linkage::Average).unwrap();
        assert_eq!(s.site_sizes.iter().sum::<usize>(), 18);
        assert!(s.communication.total_bytes() > 0);
        assert!(s.matrix_max_difference < 1e-6);
        assert!((s.ari_vs_centralized - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cost_sweeps_grow_with_input_size() {
        let rows = numeric_cost_sweep(&[8, 32], NumericMode::Batch).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows[1].total_bytes > rows[0].total_bytes);
        assert!(rows[1].responder_bytes > rows[1].initiator_bytes);
        let rows = alphanumeric_cost_sweep(&[4, 8], 12).unwrap();
        assert!(rows[1].total_bytes > rows[0].total_bytes);
    }

    #[test]
    fn accuracy_comparison_reports_protocol_equivalence() {
        let w = Workload::customer_segmentation(24, 2, 3, 6).unwrap();
        let rows = accuracy_comparison(&w, 3, &[0.5]).unwrap();
        assert_eq!(rows.len(), 3);
        let protocol = &rows[1];
        assert!((protocol.ari_vs_centralized - 1.0).abs() < 1e-9);
        assert!(protocol.matrix_max_difference.unwrap() < 1e-6);
    }
}
