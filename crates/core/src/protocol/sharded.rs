//! Threaded session sharding.
//!
//! [`ShardedEngine`] partitions N clustering sessions across a pool of
//! worker threads ("shards"), each worker driving its sessions' party
//! machines over its own [`WaitTransport`]. Where the single-threaded
//! [`SessionEngine`](super::engine::SessionEngine) spins fair round-robin
//! turns, a shard worker *parks* when a full scheduling round makes no
//! progress: it blocks in [`WaitTransport::receive_any_of`] — a condvar
//! wait on the in-memory network and the socket transports, so idle shards
//! burn no CPU — until the next envelope arrives or its stall budget runs
//! out.
//!
//! Sessions are hash-sharded by session id (`id % shards`); every session
//! keeps the engine's `s{id}/` topic prefix with its *global* id, so any
//! number of shards can share one socket router without topic collisions.
//! Results come back in session order, with per-shard scheduling stats
//! rolled up next to the per-session `peak_buffered_rows` the chunk window
//! bounds.
//!
//! The sequential [`SessionEngine`](super::engine::SessionEngine) remains
//! the oracle: a sharded run over any transport must produce exactly the
//! results a single-threaded run produces (the integration tests in
//! `tests/sharded.rs` enforce this over in-memory, simulated-WAN and
//! loopback-TCP transports).

use std::time::Duration;

use ppc_net::{
    DeliveryReporter, DeliveryStats, PartyId, WaitStats, WaitStatsReporter, WaitTransport,
};

use crate::error::CoreError;
use crate::protocol::derive_cache::{DerivationCache, DerivationCacheStats};
use crate::protocol::engine::{EngineOutcome, PartyRuntime, SessionSpec};

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
    /// Outcomes in global session order (identical to what the
    /// single-threaded engine returns for the same specs).
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
    /// the benchmark baseline).
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
    /// how many ended in a wakeup versus a timeout — which is the number
    /// the reactor-vs-blocking benches compare.
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

    /// Aggregated delivery-path statistics (buffer-pool and queue-node
    /// hit rates, batched wakes) across every shard's transport, or `None`
    /// when no transport tracks them — in-memory networks don't, socket
    /// transports do.
    pub fn transport_delivery_stats(&self) -> Option<DeliveryStats>
    where
        T: DeliveryReporter,
    {
        let mut total: Option<DeliveryStats> = None;
        for transport in &self.transports {
            if let Some(stats) = transport.delivery_stats() {
                match &mut total {
                    Some(total) => total.merge(&stats),
                    None => total = Some(stats),
                }
            }
        }
        total
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

    /// The shard that will drive session `id` (hash-sharding by id).
    pub fn shard_of(&self, id: usize) -> usize {
        id % self.transports.len()
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
        let shard_count = self.transports.len();
        let mut assignments: Vec<Vec<(usize, SessionSpec)>> = vec![Vec::new(); shard_count];
        for (id, spec) in self.specs.iter().enumerate() {
            assignments[id % shard_count].push((id, spec.clone()));
        }

        let idle_wait = self.idle_wait;
        let max_idle_waits = self.max_idle_waits;
        let transports = &self.transports;
        let cache = &self.cache;

        let shard_results: Vec<ShardResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = transports
                .iter()
                .zip(assignments)
                .enumerate()
                .map(|(shard, (transport, sessions))| {
                    let cache = cache.clone();
                    scope.spawn(move || {
                        drive_shard(shard, transport, sessions, idle_wait, max_idle_waits, cache)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(result) => result,
                    Err(_) => Err(CoreError::Protocol("a shard worker panicked".into())),
                })
                .collect()
        });

        let mut outcomes: Vec<Option<EngineOutcome>> =
            (0..self.specs.len()).map(|_| None).collect();
        let mut shards = Vec::with_capacity(shard_count);
        for result in shard_results {
            let (shard_outcomes, stats) = result?;
            for (id, outcome) in shard_outcomes {
                outcomes[id] = Some(outcome);
            }
            shards.push(stats);
        }
        let outcomes = outcomes
            .into_iter()
            .map(|o| o.expect("every session id was assigned to exactly one shard"))
            .collect();
        Ok(ShardedRun { outcomes, shards })
    }
}

/// One worker: drives `sessions` over `transport` until all complete.
///
/// The loop mirrors [`SessionEngine::run`](super::engine::SessionEngine):
/// pump the transport, give every live session one fair turn, flush — but
/// where the single-threaded engine would spin on an idle round, the
/// worker parks in a condvar-blocking receive until traffic arrives.
fn drive_shard<T: WaitTransport>(
    shard: usize,
    transport: &T,
    sessions: Vec<(usize, SessionSpec)>,
    idle_wait: Duration,
    max_idle_waits: u32,
    cache: Option<DerivationCache>,
) -> ShardResult {
    let mut stats = ShardStats {
        shard,
        sessions: sessions.iter().map(|(id, _)| *id).collect(),
        ..ShardStats::default()
    };
    // Sessions always carry their global `s{id}/` prefix: ids are unique
    // across shards, so shards can share one router or WAN without their
    // topics colliding.
    let mut runtimes: Vec<(usize, PartyRuntime)> = sessions
        .iter()
        .map(|(id, spec)| {
            Ok((
                *id,
                PartyRuntime::build(spec, format!("s{id}/"), cache.clone())?,
            ))
        })
        .collect::<Result<_, CoreError>>()?;
    let parties: Vec<PartyId> = {
        let mut parties: Vec<PartyId> = runtimes
            .iter()
            .flat_map(|(_, r)| r.parties().collect::<Vec<_>>())
            .collect();
        parties.sort();
        parties.dedup();
        parties
    };

    let route = |runtimes: &mut Vec<(usize, PartyRuntime)>,
                 envelope: ppc_net::Envelope|
     -> Result<(), CoreError> {
        let (_, target) = runtimes
            .iter_mut()
            .find(|(_, r)| r.accepts(&envelope.topic))
            .ok_or_else(|| {
                CoreError::Protocol(format!(
                    "shard {shard}: no session claims topic '{}'",
                    envelope.topic
                ))
            })?;
        target.enqueue(envelope)
    };

    let mut idle_waits = 0u32;
    while runtimes.iter().any(|(_, r)| !r.is_done()) {
        stats.rounds += 1;
        let mut progressed = false;

        // Pump everything currently queued on the transport.
        for &party in &parties {
            while let Some(envelope) = transport.try_receive(party)? {
                route(&mut runtimes, envelope)?;
                progressed = true;
            }
        }

        // One fair turn per live session.
        for (_, runtime) in runtimes.iter_mut() {
            if runtime.is_done() {
                continue;
            }
            let turn = runtime.turn()?;
            progressed |= turn.progressed;
            stats.messages_sent += turn.outgoing.len() as u64;
            for envelope in turn.outgoing {
                transport.send(envelope)?;
            }
        }
        transport.flush()?;

        if progressed {
            idle_waits = 0;
            continue;
        }

        // Nothing moved: park until traffic arrives (condvar wait on the
        // in-memory and socket transports — no spinning).
        stats.blocking_waits += 1;
        match transport.receive_any_of(&parties, idle_wait)? {
            Some(envelope) => {
                route(&mut runtimes, envelope)?;
                idle_waits = 0;
            }
            None => {
                idle_waits += 1;
                if idle_waits > max_idle_waits {
                    let stuck: Vec<usize> = runtimes
                        .iter()
                        .filter(|(_, r)| !r.is_done())
                        .map(|(id, _)| *id)
                        .collect();
                    return Err(CoreError::Protocol(format!(
                        "shard {shard} stalled with unfinished sessions {stuck:?}"
                    )));
                }
            }
        }
    }

    let mut outcomes = Vec::with_capacity(runtimes.len());
    for (id, runtime) in runtimes {
        let outcome = runtime.finish()?;
        stats.peak_buffered_rows = stats
            .peak_buffered_rows
            .max(outcome.stats.peak_buffered_rows);
        outcomes.push((id, outcome));
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
    use ppc_net::Network;

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

    #[test]
    fn empty_transport_list_is_rejected() {
        assert!(ShardedEngine::<Network>::new(Vec::new()).is_err());
    }

    #[test]
    fn sessions_hash_shard_by_id() {
        let engine =
            ShardedEngine::new(vec![Network::with_parties(3), Network::with_parties(3)]).unwrap();
        assert_eq!(engine.shards(), 2);
        assert_eq!(engine.shard_of(0), 0);
        assert_eq!(engine.shard_of(1), 1);
        assert_eq!(engine.shard_of(4), 0);
    }

    #[test]
    fn two_shards_match_the_driver_and_report_stats() {
        let seeds = [11u64, 12, 13, 14];
        let mut engine =
            ShardedEngine::new(vec![Network::with_parties(3), Network::with_parties(3)]).unwrap();
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

    #[test]
    fn a_stalled_shard_reports_its_sessions() {
        // A transport with no parties registered errors on first receive.
        let mut engine = ShardedEngine::new(vec![Network::new()]).unwrap();
        engine.add_session(spec(1, None));
        assert!(engine.run().is_err());
    }
}
