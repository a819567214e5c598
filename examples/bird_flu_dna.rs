//! The paper's motivating scenario: several institutions hold DNA sequences
//! of infected individuals and want to cluster strains without pooling the
//! (private) sequences. Runs the full networked protocol and reports both
//! the clustering and the communication bill.
//!
//! ```text
//! cargo run --release --example bird_flu_dna
//! ```

use ppclust::cluster::agreement::adjusted_rand_index;
use ppclust::cluster::{ClusterAssignment, Linkage};
use ppclust::core::protocol::driver::ClusteringRequest;
use ppclust::core::protocol::engine::SessionSpec;
use ppclust::core::protocol::party::TrustedSetup;
use ppclust::core::protocol::sharded::ShardedEngine;
use ppclust::core::protocol::ProtocolConfig;
use ppclust::crypto::Seed;
use ppclust::data::Workload;
use ppclust::net::{CostModel, Instrumented, Network, PartyId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three hospitals, 36 patients, 3 circulating strains.
    let workload = Workload::bird_flu(36, 3, 3, 7)?;
    let schema = workload.schema().clone();
    println!(
        "workload: {} — {} patients across {} institutions, attributes: {:?}",
        workload.name,
        workload.len(),
        workload.partitions.len(),
        schema
            .attributes()
            .iter()
            .map(|a| a.name.clone())
            .collect::<Vec<_>>()
    );

    // Dealer-free setup: every pair of parties agrees on seeds via
    // Diffie–Hellman; the categorical key never reaches the third party.
    let setup = TrustedSetup::via_diffie_hellman(workload.partitions.clone(), &Seed::from_u64(99))?;

    // One session on a one-shard engine; the instrumented network counts
    // every link's bytes.
    let mut engine = ShardedEngine::new(vec![Instrumented::new(Network::with_parties(3))])?;
    engine.add_session(SessionSpec {
        schema: schema.clone(),
        config: ProtocolConfig::default(),
        holders: setup.holders,
        keys: setup.third_party,
        request: ClusteringRequest {
            weights: schema.uniform_weights(),
            linkage: Linkage::Average,
            num_clusters: 3,
        },
        chunk_rows: None,
    });
    let outcome = engine.run()?.outcomes.remove(0);
    let communication = engine.transports()[0].report();

    println!();
    println!("Published result:");
    println!("{}", outcome.result);

    // How well did the private clustering recover the true strains?
    let truth = ClusterAssignment::from_labels(&workload.ground_truth_in_site_order());
    let mut labels = vec![0usize; workload.len()];
    for (cluster, members) in outcome.result.clusters.iter().enumerate() {
        for id in members {
            let global = outcome.final_matrix.index().global_index(*id)?;
            labels[global] = cluster;
        }
    }
    let published = ClusterAssignment::from_labels(&labels);
    println!();
    println!(
        "adjusted Rand index vs ground-truth strains: {:.3}",
        adjusted_rand_index(&published, &truth)?
    );

    println!();
    println!("Communication bill:");
    print!("{}", communication.to_table());
    for (name, model) in [("LAN", CostModel::lan()), ("WAN", CostModel::wan())] {
        println!(
            "estimated transfer time on {name}: {:.3} s",
            model.estimate_seconds(&communication)
        );
    }
    println!(
        "third party received {} bytes and never saw a single nucleotide.",
        communication.bytes_received_by(PartyId::ThirdParty)
    );
    Ok(())
}
