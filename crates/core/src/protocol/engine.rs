//! The per-process session runtime and the one engine round.
//!
//! Besides the session types every engine shares ([`SessionSpec`],
//! [`EngineOutcome`]), this module holds the crate-internal engine core:
//! `PartyRuntime` is one live session as one process sees it (the party
//! machines this process drives, their per-party inbound queues and
//! stats), `ShardRound` owns one transport's sessions and the counters of
//! the loop that drives them, and `RoundPolicy` is that loop, written once:
//!
//! * every round pumps every local mailbox through the front end's route,
//!   gives every live session one fair turn, sends its output and flushes;
//! * a turn first drains the session's inbound envelopes (delivering each
//!   to the owning [`machine`](super::machines)), then polls each party
//!   machine once — so a chunk stream advances by at most one window per
//!   round and in-flight data per session stays bounded by the configured
//!   chunk window;
//! * a round that moves nothing parks once in
//!   [`WaitTransport::receive_any_of`] — a condvar wait on the in-memory
//!   network and the socket transports, so an idle engine burns no CPU;
//! * every session's topics carry its `s{id}/` prefix, and inbound
//!   envelopes are routed by that id
//!   ([`Topic::session_prefix_id`](super::topic::Topic::session_prefix_id));
//!   no session sends a bare topic.
//!
//! Two front ends run on it and keep only their own policies:
//! [`ShardedEngine`](super::sharded::ShardedEngine), one round per worker
//! thread with every party of its sessions local, and
//! [`PartyEngine`](super::party_engine::PartyEngine), one round per process
//! with only its local seats.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Duration;

use ppc_net::{Envelope, NetError, PartyId, WaitTransport};

use crate::dissimilarity::DissimilarityMatrix;
use crate::error::CoreError;
use crate::protocol::derive_cache::DerivationCache;
use crate::protocol::driver::ClusteringRequest;
use crate::protocol::machines::{
    ComputeStats, HolderMachine, SessionContext, StepOutput, ThirdPartyMachine,
};
use crate::protocol::party::{DataHolder, ThirdPartyKeys};
use crate::protocol::ProtocolConfig;
use crate::result::ClusteringResult;
use crate::schema::Schema;

/// One clustering request to run over the shared transport.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// The agreed schema.
    pub schema: Schema,
    /// Protocol configuration.
    pub config: ProtocolConfig,
    /// The participating data holders (≥ 2).
    pub holders: Vec<DataHolder>,
    /// The third party's seed store.
    pub keys: ThirdPartyKeys,
    /// What to cluster and how.
    pub request: ClusteringRequest,
    /// `Some(w)`: stream pairwise blocks in windows of at most `w` rows,
    /// bounding per-session peak buffering. `None`: legacy whole-matrix
    /// messages.
    pub chunk_rows: Option<usize>,
}

/// Per-session scheduling and memory statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Scheduling rounds the session was live for.
    pub rounds: u64,
    /// Envelopes the session's parties sent.
    pub messages_sent: u64,
    /// Largest number of pairwise-block rows any party of this session
    /// ever buffered in a single message (the quantity the chunk window
    /// bounds).
    pub peak_buffered_rows: usize,
    /// Compute-phase wall time summed over every party machine this
    /// runtime drove: randomness derivation, fold/unmask kernels, and the
    /// third party's matrix merge.
    pub compute: ComputeStats,
}

/// A completed session's published outcome.
#[derive(Debug, Clone)]
pub struct EngineOutcome {
    /// Published clustering result.
    pub result: ClusteringResult,
    /// The final merged dissimilarity matrix (kept secret by the third
    /// party in a deployment; exposed for experiments and verification).
    pub final_matrix: DissimilarityMatrix,
    /// Scheduling and buffering statistics.
    pub stats: SessionStats,
}

/// What one scheduling turn of a session produced.
pub(crate) struct TurnOutput {
    /// Envelopes the session's machines emitted this turn, in send order.
    pub(crate) outgoing: Vec<Envelope>,
    /// Whether any machine delivered or advanced.
    pub(crate) progressed: bool,
}

impl TurnOutput {
    /// One machine's part of a turn: deliver every envelope queued for it,
    /// then poll it once.
    fn step(
        &mut self,
        queue: &mut VecDeque<Envelope>,
        mut step: impl FnMut(Option<&Envelope>) -> Result<StepOutput, CoreError>,
    ) -> Result<(), CoreError> {
        while let Some(envelope) = queue.pop_front() {
            self.outgoing.extend(step(Some(&envelope))?.outgoing);
            self.progressed = true;
        }
        let polled = step(None)?;
        self.progressed |= polled.progressed;
        self.outgoing.extend(polled.outgoing);
        Ok(())
    }
}

/// One live session *as seen by one process*: the party machines this
/// process drives, their per-party inbound queues and stats.
///
/// The worker-thread shards of
/// [`ShardedEngine`](crate::protocol::sharded::ShardedEngine) build it
/// with every party of the session ([`build`](Self::build)); the
/// multi-process [`PartyEngine`](crate::protocol::party_engine::PartyEngine)
/// builds it with only its local party set
/// ([`from_machines`](Self::from_machines)) — the runtime itself is
/// party-agnostic: it delivers, polls and collects emissions for whatever
/// machines it owns.
pub(crate) struct PartyRuntime {
    tp: Option<ThirdPartyMachine>,
    holders: Vec<HolderMachine>,
    inbound: HashMap<PartyId, VecDeque<Envelope>>,
    stats: SessionStats,
}

impl PartyRuntime {
    /// Assembles a runtime from already-built machines (any subset of a
    /// session's parties). Turn order is holders in the given order, then
    /// the third party.
    pub(crate) fn from_machines(
        holders: Vec<HolderMachine>,
        tp: Option<ThirdPartyMachine>,
    ) -> Self {
        let mut inbound = HashMap::new();
        for machine in &holders {
            inbound.insert(machine.party(), VecDeque::new());
        }
        if let Some(tp) = &tp {
            inbound.insert(tp.party(), VecDeque::new());
        }
        PartyRuntime {
            tp,
            holders,
            inbound,
            stats: SessionStats::default(),
        }
    }

    /// Instantiates *every* party machine for `spec` (the single-process
    /// path) as session `id`, topic-prefixing every envelope with `s{id}/`.
    /// All machines share `cache` (if any) for their randomness-prefix
    /// derivations.
    pub(crate) fn build(
        spec: &SessionSpec,
        id: u64,
        cache: Option<DerivationCache>,
    ) -> Result<Self, CoreError> {
        if spec.holders.len() < 2 {
            return Err(CoreError::Protocol(
                "the protocol requires at least two data holders".into(),
            ));
        }
        let site_sizes: Vec<(u32, usize)> =
            spec.holders.iter().map(|h| (h.site(), h.len())).collect();
        let ctx = SessionContext {
            schema: spec.schema.clone(),
            config: spec.config,
            request: spec.request.clone(),
            chunk_rows: spec.chunk_rows,
            session_id: id,
            cache,
        };
        let tp = ThirdPartyMachine::new(ctx.clone(), spec.keys.clone(), &site_sizes)?;
        let holders = spec
            .holders
            .iter()
            .map(|h| HolderMachine::new(ctx.clone(), h.clone(), &site_sizes))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::from_machines(holders, Some(tp)))
    }

    pub(crate) fn is_done(&self) -> bool {
        self.tp.as_ref().is_none_or(ThirdPartyMachine::is_done)
            && self.holders.iter().all(HolderMachine::is_done)
    }

    /// Every party participating in this session.
    pub(crate) fn parties(&self) -> impl Iterator<Item = PartyId> + '_ {
        self.inbound.keys().copied()
    }

    /// Queues a transport envelope for delivery on this session's next
    /// turn. Fails if the addressee is not one of the session's parties.
    pub(crate) fn enqueue(&mut self, envelope: Envelope) -> Result<(), CoreError> {
        let queue = self.inbound.get_mut(&envelope.to).ok_or_else(|| {
            CoreError::Protocol(format!(
                "party {} is not part of the session claiming topic '{}'",
                envelope.to, envelope.topic
            ))
        })?;
        queue.push_back(envelope);
        Ok(())
    }

    /// One fair turn: every holder machine drains its queued envelopes and
    /// is polled once, then the third party does the same. Returns the
    /// emitted envelopes in send order.
    pub(crate) fn turn(&mut self) -> Result<TurnOutput, CoreError> {
        self.stats.rounds += 1;
        let mut turn = TurnOutput {
            outgoing: Vec::new(),
            progressed: false,
        };
        for machine in &mut self.holders {
            let queue = self.inbound.entry(machine.party()).or_default();
            turn.step(queue, |envelope| machine.step(envelope))?;
        }
        if let Some(tp) = &mut self.tp {
            let queue = self.inbound.entry(tp.party()).or_default();
            turn.step(queue, |envelope| tp.step(envelope))?;
        }
        self.stats.messages_sent += turn.outgoing.len() as u64;
        Ok(turn)
    }

    /// Consumes the runtime, returning its machines and its stats with
    /// peak buffering and compute time rolled in from every owned machine —
    /// the party-scoped engines extract per-party outcomes from these.
    pub(crate) fn into_parts(
        self,
    ) -> (Vec<HolderMachine>, Option<ThirdPartyMachine>, SessionStats) {
        let mut stats = self.stats;
        stats.peak_buffered_rows = self
            .holders
            .iter()
            .map(HolderMachine::peak_buffered_rows)
            .max()
            .unwrap_or(0)
            .max(
                self.tp
                    .as_ref()
                    .map(ThirdPartyMachine::peak_buffered_rows)
                    .unwrap_or(0),
            );
        for machine in &self.holders {
            stats.compute.absorb(&machine.compute_stats());
        }
        if let Some(tp) = &self.tp {
            stats.compute.absorb(&tp.compute_stats());
        }
        (self.holders, self.tp, stats)
    }

    /// Consumes the finished session, rolling peak buffering into its
    /// stats and extracting the third party's published outcome. Requires
    /// a runtime driving the third party (the full-session engines always
    /// do).
    pub(crate) fn finish(self) -> Result<EngineOutcome, CoreError> {
        let (_, tp, stats) = self.into_parts();
        let tp = tp.ok_or_else(|| {
            CoreError::Protocol("this runtime does not drive the third party".into())
        })?;
        let (result, final_matrix) = tp.into_outcome()?;
        Ok(EngineOutcome {
            result,
            final_matrix,
            stats,
        })
    }
}

/// Why one session's turn in a [`ShardRound`] failed.
pub(crate) enum TurnError {
    /// A machine of the session rejected its input.
    Session(CoreError),
    /// The transport refused one of the turn's envelopes; the rest of the
    /// turn's output was not sent.
    Send(NetError),
}

/// One transport's sessions and the counters of the loop that drives them.
pub(crate) struct ShardRound<'t, T> {
    pub(crate) transport: &'t T,
    /// The local mailboxes, in pump and park order.
    pub(crate) parties: Vec<PartyId>,
    /// Sessions by id. A front end may keep finished sessions here (they
    /// get no more turns) or remove them.
    pub(crate) sessions: BTreeMap<u64, PartyRuntime>,
    /// Rounds run.
    pub(crate) rounds: u64,
    /// Parks in [`WaitTransport::receive_any_of`].
    pub(crate) blocking_waits: u64,
    /// Envelopes sent: every turn's output, plus what the front end sends
    /// itself (`PartyEngine`'s `ctl/` traffic).
    pub(crate) messages_sent: u64,
}

impl<'t, T: WaitTransport> ShardRound<'t, T> {
    pub(crate) fn new(
        transport: &'t T,
        parties: Vec<PartyId>,
        sessions: BTreeMap<u64, PartyRuntime>,
    ) -> Self {
        ShardRound {
            transport,
            parties,
            sessions,
            rounds: 0,
            blocking_waits: 0,
            messages_sent: 0,
        }
    }

    /// Ids of the sessions that have not finished, in id order.
    pub(crate) fn unfinished(&self) -> Vec<u64> {
        self.sessions
            .iter()
            .filter(|(_, runtime)| !runtime.is_done())
            .map(|(&id, _)| id)
            .collect()
    }
}

/// A front end's policy over its [`ShardRound`]: where an envelope goes,
/// what a session's turn settles, when the run is over and what an empty
/// park means. The provided methods are the round itself.
pub(crate) trait RoundPolicy<'t, T: WaitTransport + 't> {
    /// The round this policy runs on.
    fn round(&mut self) -> &mut ShardRound<'t, T>;

    /// Takes one inbound envelope.
    fn route(&mut self, envelope: Envelope) -> Result<(), CoreError>;

    /// Settles session `id` after its turn (`Ok` once its whole output is
    /// sent). Returns whether that settled anything; an error ends the run.
    fn turned(&mut self, id: u64, result: Result<(), TurnError>) -> Result<bool, CoreError>;

    /// Whether the run is over.
    fn complete(&self) -> bool;

    /// Called after the `idle_waits`-th park in a row that timed out:
    /// errors once the front end's patience is spent.
    fn parked_empty(&mut self, idle_waits: u32) -> Result<(), CoreError>;

    /// Drains every local mailbox through [`route`](Self::route), returning
    /// whether anything arrived.
    fn pump(&mut self) -> Result<bool, CoreError> {
        let transport = self.round().transport;
        let mut progressed = false;
        for index in 0..self.round().parties.len() {
            let party = self.round().parties[index];
            while let Some(envelope) = transport.try_receive(party)? {
                self.route(envelope)?;
                progressed = true;
            }
        }
        Ok(progressed)
    }

    /// Gives every unfinished session one turn, in id order, sends its
    /// output and hands the result to [`turned`](Self::turned).
    fn turn(&mut self) -> Result<bool, CoreError> {
        let mut progressed = false;
        for id in self.round().unfinished() {
            let round = self.round();
            let runtime = round
                .sessions
                .get_mut(&id)
                .expect("a front end settles only the session whose turn it is");
            let result = match runtime.turn() {
                Ok(turn) => {
                    progressed |= turn.progressed;
                    round.messages_sent += turn.outgoing.len() as u64;
                    let transport = round.transport;
                    turn.outgoing
                        .into_iter()
                        .try_for_each(|envelope| transport.send(envelope))
                        .map_err(TurnError::Send)
                }
                Err(e) => Err(TurnError::Session(e)),
            };
            progressed |= self.turned(id, result)?;
        }
        Ok(progressed)
    }

    /// Parks once in [`WaitTransport::receive_any_of`], until an envelope
    /// arrives for a local mailbox (routed) or `wait` elapses.
    /// `idle_waits` counts the parks in a row that timed out; returns
    /// whether this one did.
    fn park(&mut self, wait: Duration, idle_waits: &mut u32) -> Result<bool, CoreError> {
        let round = self.round();
        round.blocking_waits += 1;
        match round.transport.receive_any_of(&round.parties, wait)? {
            Some(envelope) => {
                *idle_waits = 0;
                self.route(envelope)?;
                Ok(false)
            }
            None => {
                *idle_waits += 1;
                Ok(true)
            }
        }
    }

    /// Runs rounds until [`complete`](Self::complete): pump, turn, flush,
    /// and park once in a round that moved nothing. Completion is checked
    /// after each round's flush, so an envelope a park routes is always
    /// followed by a round; a front end with nothing to run (a shard
    /// without sessions) runs none.
    fn drive(&mut self, wait: Duration) -> Result<(), CoreError> {
        if self.complete() {
            return Ok(());
        }
        let mut idle_waits = 0u32;
        loop {
            self.round().rounds += 1;
            let mut progressed = self.pump()?;
            progressed |= self.turn()?;
            self.round().transport.flush()?;
            if self.complete() {
                return Ok(());
            }
            if progressed {
                idle_waits = 0;
            } else if self.park(wait, &mut idle_waits)? {
                self.parked_empty(idle_waits)?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::matrix::{DataMatrix, HorizontalPartition};
    use crate::protocol::driver::ThirdPartyDriver;
    use crate::protocol::party::TrustedSetup;
    use crate::protocol::sharded::ShardedEngine;
    use crate::protocol::NumericMode;
    use crate::record::Record;
    use crate::schema::AttributeDescriptor;
    use crate::value::AttributeValue;
    use ppc_crypto::Seed;
    use ppc_net::{CommReport, Instrumented, Network};

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

    fn setup(seed: u64) -> TrustedSetup {
        let rows_a = vec![record(30.0, "A", "acgt"), record(31.0, "A", "acga")];
        let rows_b = vec![record(65.0, "B", "ttcg"), record(29.5, "A", "acgt")];
        let rows_c = vec![record(66.0, "B", "ttgg")];
        let partitions = vec![
            HorizontalPartition::new(0, DataMatrix::with_rows(schema(), rows_a).unwrap()),
            HorizontalPartition::new(1, DataMatrix::with_rows(schema(), rows_b).unwrap()),
            HorizontalPartition::new(2, DataMatrix::with_rows(schema(), rows_c).unwrap()),
        ];
        TrustedSetup::deterministic(partitions, &Seed::from_u64(seed)).unwrap()
    }

    fn spec(seed: u64, chunk_rows: Option<usize>) -> SessionSpec {
        let setup = setup(seed);
        SessionSpec {
            schema: schema(),
            config: ProtocolConfig::default(),
            holders: setup.holders,
            keys: setup.third_party,
            request: ClusteringRequest::uniform(&schema(), 2),
            chunk_rows,
        }
    }

    fn driver_reference(seed: u64) -> (ClusteringResult, DissimilarityMatrix) {
        let setup = setup(seed);
        let driver = ThirdPartyDriver::new(schema(), ProtocolConfig::default());
        let output = driver
            .construct(&setup.holders, &setup.third_party)
            .unwrap();
        driver
            .cluster(&output, &ClusteringRequest::uniform(&schema(), 2))
            .unwrap()
    }

    /// Runs `specs` on a one-shard engine over an in-memory network.
    fn run(specs: Vec<SessionSpec>) -> Result<Vec<EngineOutcome>, CoreError> {
        let mut engine = ShardedEngine::new(vec![Network::with_parties(3)])?;
        for spec in specs {
            engine.add_session(spec);
        }
        Ok(engine.run()?.outcomes)
    }

    /// Runs `spec` alone on a one-shard engine over an instrumented
    /// in-memory network: its outcome and every link's traffic.
    fn run_counted(spec: SessionSpec) -> (EngineOutcome, CommReport) {
        let transport = Instrumented::new(Network::with_parties(3));
        let mut engine = ShardedEngine::new(vec![transport]).unwrap();
        engine.add_session(spec);
        let outcome = engine.run().unwrap().outcomes.remove(0);
        (outcome, engine.transports()[0].report())
    }

    fn bits(matrix: &DissimilarityMatrix) -> Vec<u64> {
        let values = matrix.matrix().condensed_values();
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Runs a session runtime to completion, injecting one duplicate of
    /// the first envelope whose topic starts with `s0/{replay_topic}`.
    /// Returns the error the replay must provoke.
    fn run_with_replay(replay_topic: &str) -> CoreError {
        let mut runtime = PartyRuntime::build(&spec(77, None), 0, None).unwrap();
        let replay_topic = format!("s0/{replay_topic}");
        let mut injected = false;
        for _ in 0..10_000 {
            let turn = match runtime.turn() {
                Ok(turn) => turn,
                Err(err) => return err,
            };
            for envelope in turn.outgoing {
                if !injected && envelope.topic.starts_with(&replay_topic) {
                    injected = true;
                    runtime.enqueue(envelope.clone()).unwrap();
                }
                runtime.enqueue(envelope).unwrap();
            }
            if runtime.is_done() {
                panic!("session completed despite the replayed '{replay_topic}' envelope");
            }
        }
        panic!("session neither completed nor rejected the replay");
    }

    /// Replayed envelopes (duplicated by a buggy or malicious transport)
    /// must fail the session loudly instead of double-counting completion
    /// gates and publishing a silently wrong clustering.
    #[test]
    fn replayed_envelopes_are_rejected_not_double_counted() {
        for topic in ["local/", "clustering-choice", "categorical/"] {
            let err = run_with_replay(topic);
            assert!(
                err.to_string().contains("twice"),
                "replaying '{topic}' produced the wrong error: {err}"
            );
        }
        let err = run_with_replay("numeric/");
        assert!(
            err.to_string().contains("duplicate") || err.to_string().contains("twice"),
            "replaying a numeric envelope produced the wrong error: {err}"
        );
    }

    /// A machine takes only topics under its own session's prefix: a bare
    /// step, or another session's topic, fails the session.
    #[test]
    fn machines_refuse_topics_outside_their_session() {
        for topic in ["clustering-choice", "s1/clustering-choice"] {
            let mut runtime = PartyRuntime::build(&spec(77, None), 0, None).unwrap();
            runtime
                .enqueue(Envelope::new(
                    PartyId::DataHolder(0),
                    PartyId::ThirdParty,
                    topic,
                    Vec::new(),
                ))
                .unwrap();
            let err = runtime.turn().err().expect("the topic is refused");
            assert!(
                err.to_string()
                    .contains(&format!("topic '{topic}' is not under session 0's prefix")),
                "{err}"
            );
        }
    }

    /// A pairwise result replayed under a transposed pair tag (`k-j` for a
    /// canonical `j-k` initiation) must be rejected outright — it would
    /// otherwise bypass per-pair deduplication and decrement the
    /// completion gate for a pair that never ran.
    #[test]
    fn transposed_pair_tags_are_rejected() {
        let mut runtime = PartyRuntime::build(&spec(77, None), 0, None).unwrap();
        for _ in 0..10_000 {
            let turn = runtime.turn().unwrap();
            for envelope in turn.outgoing {
                if let Some(rest) = envelope.topic.strip_prefix("s0/numeric/") {
                    if rest.ends_with("/pairwise") {
                        let mut transposed = envelope.clone();
                        let parts: Vec<&str> = rest.split('/').collect();
                        let (j, k) = parts[1].split_once('-').unwrap();
                        transposed.topic = format!("s0/numeric/{}/{k}-{j}/pairwise", parts[0]);
                        runtime.enqueue(transposed).unwrap();
                        runtime.enqueue(envelope).unwrap();
                        loop {
                            match runtime.turn() {
                                Ok(_) => assert!(
                                    !runtime.is_done(),
                                    "session completed despite the transposed pair tag"
                                ),
                                Err(err) => {
                                    assert!(
                                        err.to_string().contains("canonical"),
                                        "wrong error: {err}"
                                    );
                                    return;
                                }
                            }
                        }
                    }
                }
                runtime.enqueue(envelope).unwrap();
            }
        }
        panic!("no pairwise envelope was ever emitted");
    }

    /// A lone session publishes the driver's clusters and its final
    /// matrix bit for bit, and every envelope it sends is counted.
    #[test]
    fn single_session_engine_matches_the_driver() {
        let (outcome, report) = run_counted(spec(77, None));
        let (reference, reference_matrix) = driver_reference(77);
        assert_eq!(outcome.result.clusters, reference.clusters);
        assert_eq!(bits(&outcome.final_matrix), bits(&reference_matrix));
        assert!(outcome.stats.messages_sent > 0);
        assert_eq!(report.total_messages(), outcome.stats.messages_sent);
        assert!(report.total_bytes() > 0);
    }

    #[test]
    fn communication_flows_match_the_protocol_shape() {
        let (_, report) = run_counted(spec(77, None));
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
        let (batch, batch_report) = run_counted(spec(77, None));
        let mut per_pair_spec = spec(77, None);
        per_pair_spec.config.numeric_mode = NumericMode::PerPair;
        let (per_pair, per_pair_report) = run_counted(per_pair_spec);
        // Same results…
        assert_eq!(batch.result.clusters, per_pair.result.clusters);
        // …but strictly more initiator → responder traffic.
        let link = |r: &CommReport| r.bytes_on_link(PartyId::DataHolder(0), PartyId::DataHolder(1));
        assert!(link(&per_pair_report) > link(&batch_report));
    }

    #[test]
    fn chunked_session_is_value_identical_and_bounds_buffering() {
        let whole_out = &run(vec![spec(77, None)]).unwrap()[0];
        let chunked_out = &run(vec![spec(77, Some(1))]).unwrap()[0];

        assert_eq!(whole_out.result.clusters, chunked_out.result.clusters);
        assert!(
            whole_out
                .final_matrix
                .matrix()
                .max_abs_difference(chunked_out.final_matrix.matrix())
                < 1e-12
        );
        assert_eq!(chunked_out.stats.peak_buffered_rows, 1);
        assert!(whole_out.stats.peak_buffered_rows > 1);
        // Chunking splits the bulk transfers into more envelopes.
        assert!(chunked_out.stats.messages_sent > whole_out.stats.messages_sent);
    }

    #[test]
    fn concurrent_sessions_multiplex_over_one_transport() {
        let seeds = [1u64, 2, 3, 4];
        let outcomes = run(seeds.iter().map(|&seed| spec(seed, Some(2))).collect()).unwrap();
        assert_eq!(outcomes.len(), seeds.len());
        for (outcome, &seed) in outcomes.iter().zip(&seeds) {
            let (reference, _) = driver_reference(seed);
            assert_eq!(outcome.result.clusters, reference.clusters, "seed {seed}");
            assert!(outcome.stats.peak_buffered_rows <= 2, "seed {seed}");
        }
    }

    /// The derivation cache is a pure memo: an engine with the cache
    /// disabled must publish the same clusters and (bit-identical) final
    /// matrices as the default cached engine, for the same workload.
    #[test]
    fn cached_engine_is_bit_identical_to_uncached() {
        // Same master seed across sessions: identical derived seeds, so the
        // cache actually gets exercised (hits, not just misses).
        let run = |cache: Option<DerivationCache>| {
            let mut engine = ShardedEngine::new(vec![Network::with_parties(3)]).unwrap();
            engine.set_derivation_cache(cache);
            for _ in 0..3 {
                engine.add_session(spec(77, Some(2)));
            }
            engine.run().unwrap().outcomes
        };
        let cached = run(Some(DerivationCache::new()));
        let uncached = run(None);
        assert_eq!(cached.len(), uncached.len());
        for (a, b) in cached.iter().zip(&uncached) {
            assert_eq!(a.result.clusters, b.result.clusters);
            let identical = a
                .final_matrix
                .matrix()
                .condensed_values()
                .iter()
                .zip(b.final_matrix.matrix().condensed_values())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(identical, "cache changed the merged matrix");
        }
    }

    #[test]
    fn same_schema_sessions_hit_the_shared_cache() {
        let mut engine = ShardedEngine::new(vec![Network::with_parties(3)]).unwrap();
        for _ in 0..4 {
            engine.add_session(spec(77, None));
        }
        engine.run().unwrap();
        let stats = engine.derivation_cache_stats().expect("default cache");
        assert!(stats.hits > 0, "expected cache hits, got {stats:?}");
        // Sessions 2..4 replay session 1's derivations: at least three
        // quarters of requests must be hits.
        assert!(
            stats.hit_rate() >= 0.70,
            "hit rate {:.2} too low: {stats:?}",
            stats.hit_rate()
        );
        // Compute-phase timers actually accumulated.
        let outcomes = run(vec![spec(77, None)]).unwrap();
        assert!(outcomes[0].stats.compute.fold_unmask_nanos > 0);
    }

    /// The round's counters agree with its sessions': the shard counts
    /// every envelope a session sends once, runs exactly as many rounds as
    /// its longest-lived session takes turns, and never parks on an
    /// in-memory network, whose deliveries are synchronous.
    #[test]
    fn a_shard_counts_what_its_sessions_do() {
        let mut engine = ShardedEngine::new(vec![Network::with_parties(3)]).unwrap();
        for seed in [1, 2, 3] {
            engine.add_session(spec(seed, Some(1)));
        }
        let run = engine.run().unwrap();
        let shard = &run.shards[0];
        let sent: u64 = run.outcomes.iter().map(|o| o.stats.messages_sent).sum();
        assert_eq!(shard.messages_sent, sent);
        let longest = run.outcomes.iter().map(|o| o.stats.rounds).max();
        assert_eq!(Some(shard.rounds), longest);
        assert_eq!(shard.blocking_waits, 0);
    }

    #[test]
    fn engine_rejects_single_holder_sessions() {
        let mut bad = spec(5, None);
        bad.holders.truncate(1);
        let err = run(vec![bad]).unwrap_err().to_string();
        assert!(
            err.contains("the protocol requires at least two data holders"),
            "{err}"
        );
    }
}
