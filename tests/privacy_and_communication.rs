//! Integration tests for the privacy analysis (eavesdropping, frequency
//! attack, channel security) and the measured communication-cost claims.

use ppclust::cluster::Linkage;
use ppclust::core::privacy::{eavesdrop_initiator_link, frequency_attack_on_batch_column};
use ppclust::core::protocol::driver::ClusteringRequest;
use ppclust::core::protocol::engine::{EngineOutcome, SessionSpec};
use ppclust::core::protocol::party::TrustedSetup;
use ppclust::core::protocol::sharded::ShardedEngine;
use ppclust::core::protocol::{numeric, NumericMode, ProtocolConfig};
use ppclust::crypto::prng::DynStreamRng;
use ppclust::crypto::{PairwiseSeeds, RngAlgorithm, Seed};
use ppclust::data::Workload;
use ppclust::net::{ChannelSecurity, CommReport, Instrumented, Network, PartyId};

/// The workload's parties on an instrumented in-memory network.
fn network_for(workload: &Workload) -> Instrumented<Network> {
    Instrumented::new(Network::with_parties(workload.partitions.len() as u32))
}

/// Runs one session of `workload` on a one-shard engine over `network`,
/// returning its outcome and the traffic the network counted.
fn run_networked(
    workload: &Workload,
    config: ProtocolConfig,
    network: Instrumented<Network>,
) -> (EngineOutcome, CommReport) {
    let schema = workload.schema().clone();
    let setup =
        TrustedSetup::deterministic(workload.partitions.clone(), &Seed::from_u64(0xFEED)).unwrap();
    let request = ClusteringRequest {
        weights: schema.uniform_weights(),
        linkage: Linkage::Average,
        num_clusters: workload.num_clusters().max(2),
    };
    let mut engine = ShardedEngine::new(vec![network]).unwrap();
    engine.add_session(SessionSpec {
        schema,
        config,
        holders: setup.holders,
        keys: setup.third_party,
        request,
        chunk_rows: None,
    });
    let outcome = engine.run().unwrap().outcomes.remove(0);
    (outcome, engine.transports()[0].report())
}

#[test]
fn secured_channels_leak_nothing_to_the_eavesdropper() {
    let workload = Workload::numeric_only(16, 2, 2, 1).unwrap();
    let network = network_for(&workload);
    let (_, report) = run_networked(&workload, ProtocolConfig::default(), network.clone());
    assert!(report.total_bytes() > 0);
    // All channels default to Secured: the eavesdropper capture list is empty.
    assert!(network.eavesdropped().is_empty());
}

#[test]
fn plaintext_channels_expose_masked_traffic_and_enable_the_paper_inference() {
    let workload = Workload::numeric_only(12, 2, 2, 3).unwrap();
    let network = network_for(&workload);
    // Leave the DH_0 → DH_1 channel unencrypted, as in the paper's warning.
    network.set_channel_security(
        PartyId::DataHolder(0),
        PartyId::DataHolder(1),
        ChannelSecurity::Plaintext,
    );
    let _ = run_networked(&workload, ProtocolConfig::default(), network.clone());
    let captured = network.eavesdropped();
    assert!(!captured.is_empty());
    assert!(captured
        .iter()
        .all(|e| e.from == PartyId::DataHolder(0) && e.to == PartyId::DataHolder(1)));
    // The captured payload is the masked vector; together with the rng_JT
    // stream (which the third party has) it narrows each value to two
    // candidates — demonstrated directly on a hand-run protocol below.
    let seeds = PairwiseSeeds::new(Seed::from_u64(1), Seed::from_u64(2));
    let x = 123_456i64;
    let masked = numeric::initiator_mask(&[x], &seeds, RngAlgorithm::ChaCha20);
    let mut rng = DynStreamRng::new(RngAlgorithm::ChaCha20, &seeds.holder_third_party);
    let inference = eavesdrop_initiator_link(masked[0], rng.next_u64());
    assert!(inference.contains(x));
    assert!(inference.candidates().len() <= 2);
}

#[test]
fn frequency_attack_succeeds_on_batch_and_fails_on_per_pair() {
    let algorithm = RngAlgorithm::ChaCha20;
    let seeds = PairwiseSeeds::new(Seed::from_u64(10), Seed::from_u64(20));
    let k_values: Vec<i64> = vec![1, 0, 2, 5, 4, 4, 3, 0, 5, 2, 1, 3];
    let j_values = vec![3i64];

    // Batch mode: the column leaks.
    let masked = numeric::initiator_mask(&j_values, &seeds, algorithm);
    let pairwise = numeric::responder_fold(&masked, &k_values, &seeds.holder_holder, algorithm);
    let column: Vec<i64> = pairwise.iter_rows().map(|r| r[0]).collect();
    let mut rng = DynStreamRng::new(algorithm, &seeds.holder_third_party);
    let mask = rng.next_u64();
    let outcome = frequency_attack_on_batch_column(&column, mask, (0, 5));
    assert!(outcome.contains_truth(&k_values));
    assert!(outcome.consistent_candidates <= 4);

    // Per-pair mode: the same attack recovers nothing.
    let masked = numeric::initiator_mask_per_pair(&j_values, k_values.len(), &seeds, algorithm);
    let pairwise =
        numeric::responder_fold_per_pair(&masked, &k_values, &seeds.holder_holder, algorithm)
            .unwrap();
    let column: Vec<i64> = pairwise.iter_rows().map(|r| r[0]).collect();
    let mut rng = DynStreamRng::new(algorithm, &seeds.holder_third_party);
    let mask = rng.next_u64();
    let outcome = frequency_attack_on_batch_column(&column, mask, (0, 5));
    assert!(!outcome.contains_truth(&k_values));
}

#[test]
fn numeric_cost_scales_quadratically_per_site_as_the_paper_claims() {
    let bytes_for = |objects: usize| {
        let workload = Workload::numeric_only(objects, 2, 2, 4).unwrap();
        let network = network_for(&workload);
        let (_, report) = run_networked(&workload, ProtocolConfig::default(), network);
        (
            report.bytes_sent_by(PartyId::DataHolder(0)),
            report.bytes_sent_by(PartyId::DataHolder(1)),
        )
    };
    let (j_small, k_small) = bytes_for(64);
    let (j_large, k_large) = bytes_for(256); // 4× the objects per site
                                             // O(n²) dominated: 4× objects ⇒ ~16× bytes; allow generous slack for the
                                             // O(n) and framing terms.
    let j_ratio = j_large as f64 / j_small as f64;
    let k_ratio = k_large as f64 / k_small as f64;
    assert!(j_ratio > 8.0 && j_ratio < 24.0, "DH_J ratio {j_ratio}");
    assert!(k_ratio > 8.0 && k_ratio < 24.0, "DH_K ratio {k_ratio}");
}

#[test]
fn per_pair_mode_multiplies_initiator_traffic_but_not_results() {
    let workload = Workload::numeric_only(64, 2, 2, 6).unwrap();
    let batch = run_networked(&workload, ProtocolConfig::default(), network_for(&workload));
    let per_pair = run_networked(
        &workload,
        ProtocolConfig {
            numeric_mode: NumericMode::PerPair,
            ..ProtocolConfig::default()
        },
        network_for(&workload),
    );
    assert_eq!(batch.0.result.clusters, per_pair.0.result.clusters);
    let link = |(_, report): &(EngineOutcome, CommReport)| {
        report.bytes_on_link(PartyId::DataHolder(0), PartyId::DataHolder(1))
    };
    // The initiator ships ~m copies of its masked column instead of one.
    assert!(link(&per_pair) > 10 * link(&batch));
}

#[test]
fn categorical_traffic_is_linear_in_the_number_of_objects() {
    let bytes_for = |objects: usize| {
        let workload = Workload::customer_segmentation(objects, 2, 3, 9).unwrap();
        let network = network_for(&workload);
        run_networked(&workload, ProtocolConfig::default(), network)
            .1
            .total_bytes()
    };
    // Total traffic includes quadratic numeric terms, so isolate the
    // categorical share by encoding columns directly.
    let key = ppclust::crypto::Prf128::new(&[3u8; 32]);
    let column_bytes = |objects: usize| {
        let workload = Workload::customer_segmentation(objects, 2, 3, 9).unwrap();
        let column = workload.partitions[0]
            .matrix()
            .categorical_column(2)
            .unwrap();
        let encrypted = ppclust::core::protocol::categorical::encrypt_column(&column, &key);
        ppclust::core::protocol::messages::EncryptedColumnMsg {
            attribute: "region".into(),
            tags: encrypted.tags.iter().map(|t| t.to_bytes()).collect(),
        }
        .encode()
        .len() as f64
            / column.len() as f64
    };
    let per_object_small = column_bytes(64);
    let per_object_large = column_bytes(512);
    assert!((per_object_small - per_object_large).abs() < 1.0);
    // And the full session still grows monotonically.
    assert!(bytes_for(96) > bytes_for(32));
}
