//! Threaded session sharding.
//!
//! [`ShardedEngine`] partitions N clustering sessions across a pool of
//! worker threads ("shards"), each worker driving its sessions' party
//! machines over its own [`WaitTransport`] on the engine round of
//! [`engine`](super::engine): fair round-robin turns, and a park in
//! [`WaitTransport::receive_any_of`] when a full round makes no progress,
//! until the next envelope arrives or the stall budget runs out. One
//! transport is one shard: `ShardedEngine::new(vec![transport])` is the
//! in-process engine, and the oracle every other run is compared against.
//!
//! Sessions are hash-sharded by session id (`id % shards`); every session
//! carries the `s{id}/` topic prefix with its *global* id, so any number
//! of shards can share one socket router without topic collisions.
//! Results come back in session order, with per-shard scheduling stats
//! rolled up next to the per-session `peak_buffered_rows` the chunk window
//! bounds. The first error in a shard aborts that shard.

use std::collections::BTreeMap;
use std::time::Duration;

use ppc_net::{Envelope, PartyId, WaitStats, WaitStatsReporter, WaitTransport};

use crate::error::CoreError;
use crate::protocol::derive_cache::{DerivationCache, DerivationCacheStats};
use crate::protocol::engine::{
    EngineOutcome, PartyRuntime, RoundPolicy, SessionSpec, ShardRound, TurnError,
};
use crate::protocol::topic::Topic;

/// What one shard worker returns: its sessions' outcomes (tagged with
/// their global ids) plus the shard's scheduling stats.
type ShardResult = Result<(Vec<(usize, EngineOutcome)>, ShardStats), CoreError>;

/// Per-shard scheduling statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Global session ids this shard drove.
    pub sessions: Vec<usize>,
    /// Scheduling rounds the worker executed.
    pub rounds: u64,
    /// Times the worker parked in a blocking receive because a full round
    /// made no progress (a measure of how often the shard was I/O-bound).
    pub blocking_waits: u64,
    /// Envelopes sent by this shard's sessions.
    pub messages_sent: u64,
    /// Largest pairwise-row buffer any of this shard's parties held.
    pub peak_buffered_rows: usize,
}

/// A completed sharded run: per-session outcomes plus per-shard stats.
#[derive(Debug)]
pub struct ShardedRun {
    /// Outcomes in global session order (identical to what a one-shard
    /// engine returns for the same specs).
    pub outcomes: Vec<EngineOutcome>,
    /// One stats record per shard, in shard order.
    pub shards: Vec<ShardStats>,
}

/// Multiplexes N clustering sessions over a pool of worker threads, one
/// per transport.
///
/// ```no_run
/// use ppc_core::protocol::sharded::ShardedEngine;
/// use ppc_net::Network;
/// # fn specs() -> Vec<ppc_core::protocol::engine::SessionSpec> { Vec::new() }
///
/// // Two shards, each with its own in-memory network.
/// let transports = vec![Network::with_parties(3), Network::with_parties(3)];
/// let mut engine = ShardedEngine::new(transports).unwrap();
/// for spec in specs() {
///     engine.add_session(spec);
/// }
/// let run = engine.run().unwrap();
/// assert_eq!(run.shards.len(), 2);
/// ```
#[derive(Debug)]
pub struct ShardedEngine<T> {
    transports: Vec<T>,
    specs: Vec<SessionSpec>,
    idle_wait: Duration,
    max_idle_waits: u32,
    /// One handle cloned into every shard worker: the cache is
    /// thread-safe, so same-schema sessions share derivations *across*
    /// shards. `None` disables memoisation; outputs are identical.
    cache: Option<DerivationCache>,
}

impl<T: WaitTransport + Sync> ShardedEngine<T> {
    /// Creates an engine with one worker (shard) per transport.
    pub fn new(transports: Vec<T>) -> Result<Self, CoreError> {
        if transports.is_empty() {
            return Err(CoreError::Protocol(
                "a sharded engine needs at least one transport".into(),
            ));
        }
        Ok(ShardedEngine {
            transports,
            specs: Vec::new(),
            idle_wait: Duration::from_millis(50),
            max_idle_waits: 40,
            cache: Some(DerivationCache::new()),
        })
    }

    /// Replaces the shared derivation cache (`None` disables memoisation —
    /// every session then derives every prefix fresh, the benchmark
    /// baseline). Pass a clone of another engine's cache to share entries
    /// across engines.
    pub fn set_derivation_cache(&mut self, cache: Option<DerivationCache>) {
        self.cache = cache;
    }

    /// Hit/miss counters of the shared derivation cache, if one is set.
    pub fn derivation_cache_stats(&self) -> Option<DerivationCacheStats> {
        self.cache.as_ref().map(DerivationCache::stats)
    }

    /// Number of shards (worker threads `run` will spawn).
    pub fn shards(&self) -> usize {
        self.transports.len()
    }

    /// The per-shard transports, in shard order.
    pub fn transports(&self) -> &[T] {
        &self.transports
    }

    /// Aggregated receive-path condvar statistics across every shard's
    /// transport, or `None` when no transport tracks them. Next to
    /// [`ShardStats::blocking_waits`] (parks the *scheduler* decided on)
    /// this reports what the *transport* actually did with those parks —
    /// how many ended in a wakeup versus a timeout.
    pub fn transport_wait_stats(&self) -> Option<WaitStats>
    where
        T: WaitStatsReporter,
    {
        let mut total = WaitStats::default();
        let mut any = false;
        for transport in &self.transports {
            if let Some(stats) = transport.wait_stats() {
                total.merge(&stats);
                any = true;
            }
        }
        any.then_some(total)
    }

    /// Queues a session, returning its global id.
    pub fn add_session(&mut self, spec: SessionSpec) -> usize {
        self.specs.push(spec);
        self.specs.len() - 1
    }

    /// Number of queued sessions.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether no sessions are queued.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Overrides the stall budget: a worker errors out after
    /// `max_idle_waits` consecutive blocking waits of `idle_wait` each
    /// with no progress anywhere in the shard.
    pub fn set_stall_budget(&mut self, idle_wait: Duration, max_idle_waits: u32) {
        self.idle_wait = idle_wait;
        self.max_idle_waits = max_idle_waits;
    }

    /// Runs every queued session to completion across the worker pool,
    /// returning outcomes in global session order plus per-shard stats.
    ///
    /// Workers shut down gracefully: each exits once its own sessions are
    /// done (flushing its transport first), and `run` joins every worker
    /// before returning, so no thread outlives the call. If any shard
    /// fails, the first error (in shard order) is returned after all
    /// workers have stopped.
    pub fn run(&mut self) -> Result<ShardedRun, CoreError> {
        let engine = &*self;
        let shard_results: Vec<ShardResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..engine.transports.len())
                .map(|shard| scope.spawn(move || drive_shard(engine, shard)))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(result) => result,
                    Err(_) => Err(CoreError::Protocol("a shard worker panicked".into())),
                })
                .collect()
        });

        let mut tagged = Vec::with_capacity(self.specs.len());
        let mut shards = Vec::with_capacity(shard_results.len());
        for result in shard_results {
            let (outcomes, stats) = result?;
            tagged.extend(outcomes);
            shards.push(stats);
        }
        tagged.sort_unstable_by_key(|&(id, _)| id);
        let outcomes = tagged.into_iter().map(|(_, outcome)| outcome).collect();
        Ok(ShardedRun { outcomes, shards })
    }
}

/// One worker's policy: sessions route by their `s{id}/` prefix, the first
/// error aborts the shard, and the stall budget is `max_idle_waits` empty
/// parks in a row.
struct Shard<'t, T> {
    index: usize,
    round: ShardRound<'t, T>,
    max_idle_waits: u32,
}

impl<'t, T: WaitTransport> RoundPolicy<'t, T> for Shard<'t, T> {
    fn round(&mut self) -> &mut ShardRound<'t, T> {
        &mut self.round
    }

    fn route(&mut self, envelope: Envelope) -> Result<(), CoreError> {
        match Topic::session_prefix_id(&envelope.topic)
            .and_then(|id| self.round.sessions.get_mut(&id))
        {
            Some(runtime) => runtime.enqueue(envelope),
            None => Err(CoreError::Protocol(format!(
                "shard {}: no session claims topic '{}'",
                self.index, envelope.topic
            ))),
        }
    }

    fn turned(&mut self, _: u64, result: Result<(), TurnError>) -> Result<bool, CoreError> {
        match result {
            Ok(()) => Ok(false),
            Err(TurnError::Session(e)) => Err(e),
            Err(TurnError::Send(e)) => Err(e.into()),
        }
    }

    fn complete(&self) -> bool {
        self.round.sessions.values().all(PartyRuntime::is_done)
    }

    fn parked_empty(&mut self, idle_waits: u32) -> Result<(), CoreError> {
        if idle_waits <= self.max_idle_waits {
            return Ok(());
        }
        Err(CoreError::Protocol(format!(
            "shard {} stalled with unfinished sessions {:?}",
            self.index,
            self.round.unfinished()
        )))
    }
}

/// Worker `index`: drives the sessions whose id modulo the shard count is
/// `index` over its transport until all complete, then extracts their
/// outcomes.
fn drive_shard<T: WaitTransport>(engine: &ShardedEngine<T>, index: usize) -> ShardResult {
    let ids: Vec<usize> = (index..engine.specs.len())
        .step_by(engine.transports.len())
        .collect();
    let runtimes = ids
        .iter()
        .map(|&id| {
            let runtime = PartyRuntime::build(&engine.specs[id], id as u64, engine.cache.clone())?;
            Ok((id as u64, runtime))
        })
        .collect::<Result<BTreeMap<_, _>, CoreError>>()?;
    let mut parties: Vec<PartyId> = runtimes.values().flat_map(PartyRuntime::parties).collect();
    parties.sort();
    parties.dedup();
    let mut shard = Shard {
        index,
        round: ShardRound::new(&engine.transports[index], parties, runtimes),
        max_idle_waits: engine.max_idle_waits,
    };
    shard.drive(engine.idle_wait)?;

    let round = shard.round;
    let mut stats = ShardStats {
        shard: index,
        sessions: ids,
        rounds: round.rounds,
        blocking_waits: round.blocking_waits,
        messages_sent: round.messages_sent,
        peak_buffered_rows: 0,
    };
    let mut outcomes = Vec::with_capacity(round.sessions.len());
    for (id, runtime) in round.sessions {
        let outcome = runtime.finish()?;
        stats.peak_buffered_rows = stats
            .peak_buffered_rows
            .max(outcome.stats.peak_buffered_rows);
        outcomes.push((id as usize, outcome));
    }
    Ok((outcomes, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::matrix::{DataMatrix, HorizontalPartition};
    use crate::protocol::driver::{ClusteringRequest, ThirdPartyDriver};
    use crate::protocol::party::TrustedSetup;
    use crate::protocol::ProtocolConfig;
    use crate::record::Record;
    use crate::schema::{AttributeDescriptor, Schema};
    use crate::value::AttributeValue;
    use ppc_crypto::Seed;
    use ppc_net::{NetError, Network, Transport};

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

    fn spec(seed: u64, chunk_rows: Option<usize>) -> SessionSpec {
        let rows_a = vec![record(30.0, "A", "acgt"), record(31.0, "A", "acga")];
        let rows_b = vec![record(65.0, "B", "ttcg"), record(29.5, "A", "acgt")];
        let rows_c = vec![record(66.0, "B", "ttgg")];
        let partitions = vec![
            HorizontalPartition::new(0, DataMatrix::with_rows(schema(), rows_a).unwrap()),
            HorizontalPartition::new(1, DataMatrix::with_rows(schema(), rows_b).unwrap()),
            HorizontalPartition::new(2, DataMatrix::with_rows(schema(), rows_c).unwrap()),
        ];
        let setup = TrustedSetup::deterministic(partitions, &Seed::from_u64(seed)).unwrap();
        SessionSpec {
            schema: schema(),
            config: ProtocolConfig::default(),
            holders: setup.holders,
            keys: setup.third_party,
            request: ClusteringRequest::uniform(&schema(), 2),
            chunk_rows,
        }
    }

    /// An in-memory network on which the third party never receives
    /// anything, so every session it takes part in stalls.
    struct DeafThirdParty(Network);

    impl Transport for DeafThirdParty {
        fn send(&self, envelope: Envelope) -> Result<(), NetError> {
            self.0.send(envelope)
        }

        fn try_receive(&self, receiver: PartyId) -> Result<Option<Envelope>, NetError> {
            if receiver == PartyId::ThirdParty {
                return Ok(None);
            }
            self.0.try_receive(receiver)
        }

        fn flush(&self) -> Result<(), NetError> {
            Ok(())
        }
    }

    impl WaitTransport for DeafThirdParty {
        fn receive_any_of(
            &self,
            receivers: &[PartyId],
            timeout: Duration,
        ) -> Result<Option<Envelope>, NetError> {
            let hearing: Vec<PartyId> = receivers
                .iter()
                .copied()
                .filter(|&r| r != PartyId::ThirdParty)
                .collect();
            self.0.receive_any_of(&hearing, timeout)
        }
    }

    #[test]
    fn empty_transport_list_is_rejected() {
        assert!(ShardedEngine::<Network>::new(Vec::new()).is_err());
    }

    #[test]
    fn two_shards_match_the_driver_and_report_stats() {
        let seeds = [11u64, 12, 13, 14];
        let mut engine =
            ShardedEngine::new(vec![Network::with_parties(3), Network::with_parties(3)]).unwrap();
        assert_eq!(engine.shards(), 2);
        for &seed in &seeds {
            engine.add_session(spec(seed, Some(1)));
        }
        assert_eq!(engine.len(), 4);
        assert!(!engine.is_empty());
        let run = engine.run().unwrap();
        assert_eq!(run.outcomes.len(), 4);
        assert_eq!(run.shards.len(), 2);
        assert_eq!(run.shards[0].sessions, vec![0, 2]);
        assert_eq!(run.shards[1].sessions, vec![1, 3]);
        for (outcome, &seed) in run.outcomes.iter().zip(&seeds) {
            let s = spec(seed, None);
            let driver = ThirdPartyDriver::new(s.schema.clone(), s.config);
            let constructed = driver.construct(&s.holders, &s.keys).unwrap();
            let (reference, _) = driver.cluster(&constructed, &s.request).unwrap();
            assert_eq!(outcome.result.clusters, reference.clusters, "seed {seed}");
            assert_eq!(outcome.stats.peak_buffered_rows, 1, "seed {seed}");
        }
        for stats in &run.shards {
            assert!(stats.rounds > 0);
            assert!(stats.messages_sent > 0);
            assert_eq!(stats.peak_buffered_rows, 1);
        }
    }

    /// A shard whose third party never hears anything parks until its
    /// stall budget is spent, then names every unfinished session.
    #[test]
    fn a_stalled_shard_reports_its_sessions() {
        let mut engine =
            ShardedEngine::new(vec![DeafThirdParty(Network::with_parties(3))]).unwrap();
        engine.add_session(spec(1, None));
        engine.add_session(spec(2, Some(1)));
        engine.set_stall_budget(Duration::from_millis(2), 3);
        let err = engine.run().unwrap_err().to_string();
        assert!(
            err.contains("shard 0 stalled with unfinished sessions [0, 1]"),
            "{err}"
        );
    }

    /// Routing is by the `s{id}/` prefix alone: a frame for a session the
    /// shard does not drive, or with a bare topic, fails the shard.
    #[test]
    fn a_frame_for_no_session_of_the_shard_is_rejected() {
        for topic in ["s7/clustering-choice", "clustering-choice"] {
            let network = Network::with_parties(3);
            network
                .send(Envelope::new(
                    PartyId::DataHolder(1),
                    PartyId::DataHolder(0),
                    topic,
                    Vec::new(),
                ))
                .unwrap();
            let mut engine = ShardedEngine::new(vec![network]).unwrap();
            engine.add_session(spec(1, None));
            let err = engine.run().unwrap_err().to_string();
            assert!(
                err.contains(&format!("shard 0: no session claims topic '{topic}'")),
                "{err}"
            );
        }
    }
}
