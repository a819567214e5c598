//! Networked clustering session (the sequential oracle path).
//!
//! Runs the full Figure 11 construction with every inter-party transfer
//! going through a [`ppc_net::Network`], so per-link byte counts, channel
//! security settings and eavesdroppers all apply.
//!
//! Since the protocol engine refactor the session no longer owns any role
//! logic: each party is one of the non-blocking state machines in
//! [`super::machines`], and this orchestrator merely *schedules* them in
//! the exact order the pre-refactor monolithic session used — poll the
//! initiator, deliver to the responder, deliver to the third party, one
//! protocol step at a time. Driven this way over the default in-memory
//! transport, the machines produce **byte-identical envelopes** to the
//! pre-refactor session (pinned by the golden-trace integration test), so
//! recorded protocol traces remain a valid oracle. It is the one
//! scheduler left that uses bare (unprefixed) topics. For concurrent,
//! chunked, or alternative-transport workloads use a
//! [`ShardedEngine`](super::sharded::ShardedEngine) instead (one transport
//! is one shard), which schedules the same machines with round-robin
//! fairness and bounded buffering under `s{id}/` topics.

use ppc_net::{CommReport, Network, PartyId};

use ppc_cluster::Linkage;

use crate::dissimilarity::{AttributeDissimilarity, DissimilarityMatrix};
use crate::error::CoreError;
use crate::protocol::driver::ClusteringRequest;
use crate::protocol::machines::{HolderMachine, SessionContext, ThirdPartyMachine};
use crate::protocol::party::{DataHolder, ThirdPartyKeys};
use crate::protocol::ProtocolConfig;
use crate::result::ClusteringResult;
use crate::schema::Schema;
use crate::value::AttributeKind;

/// Outcome of a networked session.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Published clustering result.
    pub result: ClusteringResult,
    /// The final merged dissimilarity matrix (kept secret by the third party
    /// in a deployment; exposed here for experiments and verification).
    pub final_matrix: DissimilarityMatrix,
    /// Per-attribute matrices before merging.
    pub per_attribute: Vec<AttributeDissimilarity>,
    /// Communication accounting for the whole session.
    pub communication: CommReport,
}

/// A networked clustering session.
#[derive(Debug)]
pub struct ClusteringSession {
    schema: Schema,
    config: ProtocolConfig,
    network: Network,
}

impl ClusteringSession {
    /// Creates a session over a fresh in-memory network with one endpoint per
    /// holder plus the third party.
    pub fn new(schema: Schema, config: ProtocolConfig, holders: usize) -> Self {
        ClusteringSession {
            schema,
            config,
            network: Network::with_parties(holders as u32),
        }
    }

    /// Creates a session over an existing network (e.g. one with custom
    /// channel-security settings for the eavesdropping experiments).
    pub fn with_network(schema: Schema, config: ProtocolConfig, network: Network) -> Self {
        ClusteringSession {
            schema,
            config,
            network,
        }
    }

    /// The underlying network (for security settings and inspection).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Runs the full protocol and clustering.
    pub fn run(
        &self,
        holders: &[DataHolder],
        keys: &ThirdPartyKeys,
        request: &ClusteringRequest,
    ) -> Result<SessionOutcome, CoreError> {
        if holders.len() < 2 {
            return Err(CoreError::Protocol(
                "the protocol requires at least two data holders".into(),
            ));
        }
        for holder in holders {
            holder.validate_schema(&self.schema)?;
        }
        self.network.reset_report();

        let site_sizes: Vec<(u32, usize)> = holders.iter().map(|h| (h.site(), h.len())).collect();
        let ctx = SessionContext::oracle(self.schema.clone(), self.config, request.clone());
        let mut tp = ThirdPartyMachine::new(ctx.clone(), keys.clone(), &site_sizes)?;
        let mut machines: Vec<HolderMachine> = holders
            .iter()
            .map(|h| HolderMachine::new(ctx.clone(), h.clone(), &site_sizes))
            .collect::<Result<_, _>>()?;

        // Legacy schedule. Each closure moves exactly one protocol step:
        // `poll` asks a machine for its next unprompted emission and
        // transmits it; `pump` delivers everything queued for a party and
        // transmits any reactive output.
        let send_all = |outgoing: Vec<ppc_net::Envelope>| -> Result<(), CoreError> {
            for envelope in outgoing {
                self.network.send(envelope)?;
            }
            Ok(())
        };
        let poll_holder = |machines: &mut Vec<HolderMachine>, i: usize| -> Result<(), CoreError> {
            let out = machines[i].step(None)?;
            send_all(out.outgoing)
        };
        let pump_holder = |machines: &mut Vec<HolderMachine>, i: usize| -> Result<(), CoreError> {
            let party = machines[i].party();
            while let Some(envelope) = self.network.receive_any(party) {
                let out = machines[i].step(Some(&envelope))?;
                send_all(out.outgoing)?;
            }
            Ok(())
        };
        let pump_tp = |tp: &mut ThirdPartyMachine| -> Result<(), CoreError> {
            while let Some(envelope) = self.network.receive_any(PartyId::ThirdParty) {
                let out = tp.step(Some(&envelope))?;
                send_all(out.outgoing)?;
            }
            Ok(())
        };

        for descriptor in self.schema.attributes() {
            match descriptor.kind {
                AttributeKind::Categorical => {
                    for i in 0..machines.len() {
                        poll_holder(&mut machines, i)?;
                    }
                    pump_tp(&mut tp)?;
                }
                _ => {
                    // Local matrices, then one pairwise run per ordered
                    // holder pair (J, K), J < K — each run fully completed
                    // before the next starts, exactly like the monolithic
                    // session.
                    for i in 0..machines.len() {
                        poll_holder(&mut machines, i)?;
                        pump_tp(&mut tp)?;
                    }
                    for j in 0..machines.len() {
                        for k in (j + 1)..machines.len() {
                            poll_holder(&mut machines, j)?;
                            pump_holder(&mut machines, k)?;
                            pump_tp(&mut tp)?;
                        }
                    }
                }
            }
        }
        // §5: every holder sends its weight vector and clustering choice;
        // the third party applies the agreed one, clusters and publishes.
        for i in 0..machines.len() {
            poll_holder(&mut machines, i)?;
        }
        pump_tp(&mut tp)?;
        let out = tp.step(None)?;
        send_all(out.outgoing)?;
        for i in 0..machines.len() {
            pump_holder(&mut machines, i)?;
        }

        if !tp.is_done() || machines.iter().any(|m| !m.is_done()) {
            return Err(CoreError::Protocol(
                "session finished its schedule with unfinished parties".into(),
            ));
        }
        let (result, final_matrix, per_attribute) = tp.into_outcome()?;
        Ok(SessionOutcome {
            result,
            final_matrix,
            per_attribute,
            communication: self.network.report(),
        })
    }
}

/// Parses a linkage name sent in a
/// [`ClusteringChoiceMsg`](super::messages::ClusteringChoiceMsg).
pub fn parse_linkage(name: &str) -> Result<Linkage, CoreError> {
    match name.to_ascii_lowercase().as_str() {
        "single" => Ok(Linkage::Single),
        "complete" => Ok(Linkage::Complete),
        "average" => Ok(Linkage::Average),
        "weighted" => Ok(Linkage::Weighted),
        "ward" => Ok(Linkage::Ward),
        "centroid" => Ok(Linkage::Centroid),
        "median" => Ok(Linkage::Median),
        other => Err(CoreError::Protocol(format!("unknown linkage '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::matrix::DataMatrix;
    use crate::matrix::HorizontalPartition;
    use crate::protocol::driver::ThirdPartyDriver;
    use crate::protocol::party::TrustedSetup;
    use crate::protocol::NumericMode;
    use crate::record::Record;
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

    fn setup() -> TrustedSetup {
        let rows_a = vec![record(30.0, "A", "acgt"), record(31.0, "A", "acga")];
        let rows_b = vec![record(65.0, "B", "ttcg"), record(29.5, "A", "acgt")];
        let rows_c = vec![record(66.0, "B", "ttgg")];
        let partitions = vec![
            HorizontalPartition::new(0, DataMatrix::with_rows(schema(), rows_a).unwrap()),
            HorizontalPartition::new(1, DataMatrix::with_rows(schema(), rows_b).unwrap()),
            HorizontalPartition::new(2, DataMatrix::with_rows(schema(), rows_c).unwrap()),
        ];
        TrustedSetup::deterministic(partitions, &Seed::from_u64(77)).unwrap()
    }

    #[test]
    fn networked_session_matches_in_memory_driver() {
        let setup = setup();
        let request = ClusteringRequest::uniform(&schema(), 2);
        let session = ClusteringSession::new(schema(), ProtocolConfig::default(), 3);
        let outcome = session
            .run(&setup.holders, &setup.third_party, &request)
            .unwrap();

        let driver = ThirdPartyDriver::new(schema(), ProtocolConfig::default());
        let output = driver
            .construct(&setup.holders, &setup.third_party)
            .unwrap();
        let (reference, reference_matrix) = driver.cluster(&output, &request).unwrap();

        assert_eq!(outcome.result.clusters, reference.clusters);
        assert!(
            outcome
                .final_matrix
                .matrix()
                .max_abs_difference(reference_matrix.matrix())
                < 1e-9
        );
        assert!(outcome.communication.total_bytes() > 0);
        assert!(outcome.communication.total_messages() > 0);
    }

    #[test]
    fn communication_flows_match_the_protocol_shape() {
        let setup = setup();
        let request = ClusteringRequest::uniform(&schema(), 2);
        let session = ClusteringSession::new(schema(), ProtocolConfig::default(), 3);
        let outcome = session
            .run(&setup.holders, &setup.third_party, &request)
            .unwrap();
        let report = &outcome.communication;
        // Every data holder talks to the third party.
        for site in 0..3u32 {
            assert!(report.bytes_on_link(PartyId::DataHolder(site), PartyId::ThirdParty) > 0);
            // The third party publishes the result back.
            assert!(report.bytes_on_link(PartyId::ThirdParty, PartyId::DataHolder(site)) > 0);
        }
        // Initiators send masked vectors to responders (J < K pairs only).
        assert!(report.bytes_on_link(PartyId::DataHolder(0), PartyId::DataHolder(1)) > 0);
        assert!(report.bytes_on_link(PartyId::DataHolder(0), PartyId::DataHolder(2)) > 0);
        assert!(report.bytes_on_link(PartyId::DataHolder(1), PartyId::DataHolder(2)) > 0);
        assert_eq!(
            report.bytes_on_link(PartyId::DataHolder(1), PartyId::DataHolder(0)),
            0
        );
        // The third party never sends bulk data to holders other than results.
        assert!(
            report.bytes_on_link(PartyId::ThirdParty, PartyId::DataHolder(0))
                < report.bytes_on_link(PartyId::DataHolder(0), PartyId::ThirdParty)
        );
    }

    #[test]
    fn per_pair_mode_costs_more_on_the_holder_link() {
        let setup = setup();
        let request = ClusteringRequest::uniform(&schema(), 2);
        let batch = ClusteringSession::new(schema(), ProtocolConfig::default(), 3)
            .run(&setup.holders, &setup.third_party, &request)
            .unwrap();
        let per_pair_config = ProtocolConfig {
            numeric_mode: NumericMode::PerPair,
            ..ProtocolConfig::default()
        };
        let per_pair = ClusteringSession::new(schema(), per_pair_config, 3)
            .run(&setup.holders, &setup.third_party, &request)
            .unwrap();
        // Same results…
        assert_eq!(batch.result.clusters, per_pair.result.clusters);
        // …but strictly more initiator → responder traffic.
        let link = |o: &SessionOutcome| {
            o.communication
                .bytes_on_link(PartyId::DataHolder(0), PartyId::DataHolder(1))
        };
        assert!(link(&per_pair) > link(&batch));
    }

    #[test]
    fn parse_linkage_accepts_all_names() {
        for l in Linkage::ALL {
            let name = format!("{l:?}").to_lowercase();
            assert_eq!(parse_linkage(&name).unwrap(), l);
        }
        assert!(parse_linkage("nonsense").is_err());
    }

    #[test]
    fn session_requires_two_holders() {
        let setup = setup();
        let session = ClusteringSession::new(schema(), ProtocolConfig::default(), 3);
        let request = ClusteringRequest::uniform(&schema(), 2);
        assert!(session
            .run(&setup.holders[..1], &setup.third_party, &request)
            .is_err());
    }
}
