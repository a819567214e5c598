//! End-to-end integration tests: the privacy-preserving pipeline must match
//! the centralized computation exactly, in every mode, over the networked
//! engine as well as the in-memory driver, for every workload type.

use ppclust::baselines::centralized::CentralizedBaseline;
use ppclust::cluster::agreement::{adjusted_rand_index, rand_index};
use ppclust::cluster::{ClusterAssignment, Linkage};
use ppclust::core::protocol::driver::{ClusteringRequest, ThirdPartyDriver};
use ppclust::core::protocol::engine::SessionSpec;
use ppclust::core::protocol::party::TrustedSetup;
use ppclust::core::protocol::sharded::ShardedEngine;
use ppclust::core::protocol::{NumericMode, ProtocolConfig};
use ppclust::core::ClusteringResult;
use ppclust::crypto::{RngAlgorithm, Seed};
use ppclust::data::Workload;
use ppclust::net::{Instrumented, Network};

fn published_assignment(result: &ClusteringResult, total: usize) -> ClusterAssignment {
    let mut pairs: Vec<(ppclust::core::ObjectId, usize)> = Vec::new();
    for (cluster, members) in result.clusters.iter().enumerate() {
        for &id in members {
            pairs.push((id, cluster));
        }
    }
    pairs.sort_by_key(|(id, _)| *id);
    assert_eq!(pairs.len(), total);
    ClusterAssignment::from_labels(&pairs.into_iter().map(|(_, c)| c).collect::<Vec<_>>())
}

fn assert_matches_centralized(workload: &Workload, clusters: usize, config: ProtocolConfig) {
    let schema = workload.schema().clone();
    let setup =
        TrustedSetup::deterministic(workload.partitions.clone(), &Seed::from_u64(0xEE)).unwrap();
    let driver = ThirdPartyDriver::new(schema.clone(), config);
    let output = driver
        .construct(&setup.holders, &setup.third_party)
        .unwrap();
    let request = ClusteringRequest {
        weights: schema.uniform_weights(),
        linkage: Linkage::Average,
        num_clusters: clusters,
    };
    let (result, matrix) = driver.cluster(&output, &request).unwrap();

    let central = CentralizedBaseline::new(schema.clone());
    let reference = central
        .run(
            &workload.partitions,
            &schema.uniform_weights(),
            Linkage::Average,
            clusters,
        )
        .unwrap();

    // The dissimilarity matrices agree to fixed-point precision...
    let diff = matrix
        .matrix()
        .max_abs_difference(reference.final_matrix.matrix());
    assert!(diff < 1e-6, "matrix deviation {diff}");
    // ...and the published clustering is identical to the centralized one.
    let published = published_assignment(&result, workload.len());
    let ari = adjusted_rand_index(&published, &reference.assignment).unwrap();
    assert!((ari - 1.0).abs() < 1e-9, "ARI vs centralized {ari}");
    let ri = rand_index(&published, &reference.assignment).unwrap();
    assert!((ri - 1.0).abs() < 1e-9);
}

#[test]
fn protocol_matches_centralized_on_mixed_bird_flu_workload() {
    let workload = Workload::bird_flu(24, 3, 3, 100).unwrap();
    assert_matches_centralized(&workload, 3, ProtocolConfig::default());
}

#[test]
fn protocol_matches_centralized_on_customer_workload_with_four_sites() {
    let workload = Workload::customer_segmentation(32, 4, 4, 55).unwrap();
    assert_matches_centralized(&workload, 4, ProtocolConfig::default());
}

#[test]
fn protocol_matches_centralized_in_per_pair_mode() {
    let workload = Workload::numeric_only(30, 3, 3, 8).unwrap();
    let config = ProtocolConfig {
        numeric_mode: NumericMode::PerPair,
        ..ProtocolConfig::default()
    };
    assert_matches_centralized(&workload, 3, config);
}

#[test]
fn protocol_matches_centralized_with_xoshiro_streams() {
    let workload = Workload::dna_only(18, 2, 3, 20, 9).unwrap();
    let config = ProtocolConfig {
        rng_algorithm: RngAlgorithm::Xoshiro256PlusPlus,
        ..ProtocolConfig::default()
    };
    assert_matches_centralized(&workload, 3, config);
}

#[test]
fn networked_session_equals_in_memory_driver_and_counts_traffic() {
    let workload = Workload::bird_flu(21, 3, 3, 5).unwrap();
    let schema = workload.schema().clone();
    let setup =
        TrustedSetup::deterministic(workload.partitions.clone(), &Seed::from_u64(6)).unwrap();
    let request = ClusteringRequest {
        weights: schema.uniform_weights(),
        linkage: Linkage::Average,
        num_clusters: 3,
    };

    let driver = ThirdPartyDriver::new(schema.clone(), ProtocolConfig::default());
    let output = driver
        .construct(&setup.holders, &setup.third_party)
        .unwrap();
    let (reference, reference_matrix) = driver.cluster(&output, &request).unwrap();

    let mut engine = ShardedEngine::new(vec![Instrumented::new(Network::with_parties(3))]).unwrap();
    engine.add_session(SessionSpec {
        schema: schema.clone(),
        config: ProtocolConfig::default(),
        holders: setup.holders.clone(),
        keys: setup.third_party.clone(),
        request,
        chunk_rows: None,
    });
    let outcome = &engine.run().unwrap().outcomes[0];

    assert_eq!(outcome.result.clusters, reference.clusters);
    // Every attribute produced a matrix, and the engine's merge of them
    // equals the driver's bit for bit.
    assert_eq!(output.per_attribute.len(), schema.len());
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    assert_eq!(
        bits(outcome.final_matrix.matrix().condensed_values()),
        bits(reference_matrix.matrix().condensed_values())
    );
    assert!(engine.transports()[0].report().total_bytes() > 0);
}

#[test]
fn diffie_hellman_setup_produces_the_same_result_as_dealer_setup() {
    let workload = Workload::numeric_only(20, 2, 2, 77).unwrap();
    let schema = workload.schema().clone();
    let request = ClusteringRequest {
        weights: schema.uniform_weights(),
        linkage: Linkage::Average,
        num_clusters: 2,
    };
    let driver = ThirdPartyDriver::new(schema.clone(), ProtocolConfig::default());

    let dealer =
        TrustedSetup::deterministic(workload.partitions.clone(), &Seed::from_u64(1)).unwrap();
    let dh =
        TrustedSetup::via_diffie_hellman(workload.partitions.clone(), &Seed::from_u64(2)).unwrap();
    let (dealer_result, dealer_matrix) = driver
        .cluster(
            &driver
                .construct(&dealer.holders, &dealer.third_party)
                .unwrap(),
            &request,
        )
        .unwrap();
    let (dh_result, dh_matrix) = driver
        .cluster(
            &driver.construct(&dh.holders, &dh.third_party).unwrap(),
            &request,
        )
        .unwrap();
    // The masks differ, but the recovered distances — hence everything the
    // third party publishes — are identical.
    assert!(
        dealer_matrix
            .matrix()
            .max_abs_difference(dh_matrix.matrix())
            < 1e-9
    );
    assert_eq!(dealer_result.clusters, dh_result.clusters);
}

#[test]
fn ground_truth_is_recovered_on_well_separated_data() {
    let workload = Workload::bird_flu(30, 3, 3, 123).unwrap();
    let schema = workload.schema().clone();
    let setup =
        TrustedSetup::deterministic(workload.partitions.clone(), &Seed::from_u64(4)).unwrap();
    let driver = ThirdPartyDriver::new(schema.clone(), ProtocolConfig::default());
    let output = driver
        .construct(&setup.holders, &setup.third_party)
        .unwrap();
    let (result, _) = driver
        .cluster(
            &output,
            &ClusteringRequest {
                weights: schema.uniform_weights(),
                linkage: Linkage::Average,
                num_clusters: 3,
            },
        )
        .unwrap();
    let truth = ClusterAssignment::from_labels(&workload.ground_truth_in_site_order());
    let published = published_assignment(&result, workload.len());
    let ari = adjusted_rand_index(&published, &truth).unwrap();
    assert!(
        ari > 0.8,
        "expected near-perfect strain recovery, ARI {ari}"
    );
}
