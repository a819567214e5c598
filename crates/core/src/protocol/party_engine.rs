//! Per-party multi-process engine.
//!
//! [`ShardedEngine`](super::sharded::ShardedEngine) drives *all* parties of
//! its sessions inside one process — fine for experiments, but not the
//! paper's deployment model, where the data holders and the third party are
//! separate organisations on separate machines. [`PartyEngine`] completes
//! that story: a process drives only its **local party seats** and speaks to
//! the rest of the federation over one [`WaitTransport`] (typically a socket
//! transport dialled into a router or acceptor mesh), on the same engine
//! round of [`engine`](super::engine) a shard worker runs on. What it adds
//! on top is its policy: `ctl/` routing, a backlog for frames that beat
//! their announcement, per-session failures, and completion reports.
//!
//! ## The control plane
//!
//! Sessions are opened in-band on the reserved `ctl/` topic (see
//! [`ppc_net::control`] and `docs/WIRE_FORMAT.md` §7), so no out-of-band
//! configuration beyond transport addresses and the shared master seed is
//! needed:
//!
//! 1. every serving process sends [`SessionReady`] (its party + row count)
//!    to the coordinator, and the coordinator, once connected, greets
//!    every expected remote party with its own [`SessionReady`]; a serving
//!    process that hears the greeting before any announcement sends its
//!    readiness again at once. A router drops frames for parties no link
//!    has announced yet, but a serving party's first ready is dropped
//!    only if the coordinator joins the router after that party did, and
//!    then the greeting is routed, so startup order does not matter;
//! 2. the coordinator waits for every expected remote party, assembles the
//!    site-size roster, and sends one [`SessionAnnounce`] per session whose
//!    body is an encoded [`PartySessionSpec`] (schema, protocol config,
//!    clustering request, chunk window, site sizes);
//! 3. each process provisions its seats' secrets locally from the master
//!    seed ([`TrustedSetup::derive_holder`] /
//!    [`TrustedSetup::derive_third_party`] — **secrets never travel on the
//!    wire**), builds its party machines, and pumps `s{id}/`-prefixed
//!    session envelopes exactly like a shard worker;
//! 4. when a session's local machines finish, each seat reports
//!    [`SessionDone`] to the coordinator — the third party attaches its
//!    published result and final matrix ([`TpOutcome`]) so the coordinator
//!    can export or verify them.
//!
//! A multi-process run is **value-identical** to the in-process oracle: the
//! machines, schedules and wire payloads are the same, only the transport
//! and the process boundaries differ. The `ppc-party` crate's integration
//! test pins this with three real OS processes against the in-process
//! oracle, a one-shard `ShardedEngine`.
//!
//! Failure is a first-class outcome: when the socket layer exhausts its
//! reconnect backoff, the affected session is reported as
//! [`SessionFailure::PeerUnreachable`] *naming the unreachable party*
//! instead of a generic stall, and the engine keeps driving its other
//! sessions.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use ppc_crypto::{RngAlgorithm, Seed};
use ppc_net::control::{ControlAuth, SessionAnnounce, SessionDone, SessionReady};
use ppc_net::{
    is_control_topic, ControlMsg, Envelope, NetError, PartyId, WaitTransport, WireReader,
    WireWriter, TOPIC_ANNOUNCE, TOPIC_DONE, TOPIC_READY,
};

use crate::alphabet::Alphabet;
use crate::error::CoreError;
use crate::fixed::FixedPointCodec;
use crate::matrix::HorizontalPartition;
use crate::protocol::derive_cache::{DerivationCache, DerivationCacheStats};
use crate::protocol::driver::ClusteringRequest;
use crate::protocol::engine::{EngineOutcome, PartyRuntime, RoundPolicy, ShardRound, TurnError};
use crate::protocol::machines::{ComputeStats, HolderMachine, SessionContext, ThirdPartyMachine};
use crate::protocol::messages::{check_count, parse_linkage, PublishedResultMsg};
use crate::protocol::party::TrustedSetup;
use crate::protocol::topic::Topic;
use crate::protocol::{NumericMode, ProtocolConfig};
use crate::schema::{AttributeDescriptor, Schema, WeightVector};
use crate::value::AttributeKind;

/// Everything one session's machines need, in announceable form: the
/// payload of a [`SessionAnnounce`] body. Unlike
/// [`SessionSpec`](super::engine::SessionSpec) it carries **no secrets and
/// no data** — only the agreed schema, configuration, request, chunk
/// window and site-size roster; every process provisions its own party
/// from those plus its local partition and master seed.
#[derive(Debug, Clone)]
pub struct PartySessionSpec {
    /// The agreed schema.
    pub schema: Schema,
    /// Protocol configuration.
    pub config: ProtocolConfig,
    /// What to cluster and how.
    pub request: ClusteringRequest,
    /// `Some(w)`: stream pairwise blocks in windows of at most `w` rows.
    pub chunk_rows: Option<usize>,
    /// `(site, objects)` for every data holder, session order.
    pub site_sizes: Vec<(u32, u64)>,
}

fn encode_rng(algorithm: RngAlgorithm) -> u8 {
    match algorithm {
        RngAlgorithm::ChaCha20 => 0,
        RngAlgorithm::Xoshiro256PlusPlus => 1,
        RngAlgorithm::SplitMix64 => 2,
    }
}

fn decode_rng(tag: u8) -> Result<RngAlgorithm, CoreError> {
    match tag {
        0 => Ok(RngAlgorithm::ChaCha20),
        1 => Ok(RngAlgorithm::Xoshiro256PlusPlus),
        2 => Ok(RngAlgorithm::SplitMix64),
        other => Err(CoreError::Protocol(format!("unknown RNG tag {other}"))),
    }
}

impl PartySessionSpec {
    /// Serialises the spec (layout: `docs/WIRE_FORMAT.md` §7.2).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u32(self.schema.len() as u32);
        for attr in self.schema.attributes() {
            w.put_str(&attr.name);
            let (kind, alphabet) = match (&attr.kind, &attr.alphabet) {
                (AttributeKind::Numeric, _) => (0u8, None),
                (AttributeKind::Categorical, _) => (1, None),
                (AttributeKind::Alphanumeric, alphabet) => (2, alphabet.as_ref()),
            };
            w.put_u8(kind);
            match alphabet {
                Some(alphabet) => {
                    let symbols: String = (0..alphabet.size())
                        .map(|i| alphabet.char_at(i).expect("index in range"))
                        .collect();
                    w.put_u8(1).put_str(&symbols);
                }
                None => {
                    w.put_u8(0);
                }
            }
        }
        w.put_u8(encode_rng(self.config.rng_algorithm));
        w.put_u8(match self.config.numeric_mode {
            NumericMode::Batch => 0,
            NumericMode::PerPair => 1,
        });
        w.put_f64(self.config.fixed_point.scale());
        w.put_f64_slice(self.request.weights.weights());
        w.put_u32(self.request.num_clusters as u32);
        w.put_str(&format!("{:?}", self.request.linkage).to_lowercase());
        w.put_u64(self.chunk_rows.map(|c| c.max(1) as u64).unwrap_or(0));
        w.put_u32(self.site_sizes.len() as u32);
        for &(site, rows) in &self.site_sizes {
            w.put_u32(site).put_u64(rows);
        }
        w.finish()
    }

    /// Deserialises a spec.
    pub fn decode(payload: &[u8]) -> Result<Self, CoreError> {
        let mut r = WireReader::new(payload);
        let attr_count = r.get_u32()? as usize;
        // Each attribute takes at least a name length, a kind and an
        // alphabet flag.
        check_count(attr_count, 6, &r)?;
        let mut attributes = Vec::with_capacity(attr_count);
        for _ in 0..attr_count {
            let name = r.get_str()?;
            let kind = r.get_u8()?;
            let has_alphabet = r.get_u8()?;
            let alphabet = match has_alphabet {
                0 => None,
                1 => Some(Alphabet::new(r.get_str()?.chars())?),
                other => {
                    return Err(CoreError::Protocol(format!(
                        "bad alphabet flag {other} in session spec"
                    )))
                }
            };
            attributes.push(match kind {
                0 => AttributeDescriptor::numeric(name),
                1 => AttributeDescriptor::categorical(name),
                2 => AttributeDescriptor::alphanumeric(
                    name,
                    alphabet.ok_or_else(|| {
                        CoreError::Protocol("alphanumeric attribute without alphabet".into())
                    })?,
                ),
                other => {
                    return Err(CoreError::Protocol(format!(
                        "unknown attribute kind tag {other}"
                    )))
                }
            });
        }
        let schema = Schema::new(attributes)?;
        let rng_algorithm = decode_rng(r.get_u8()?)?;
        let numeric_mode = match r.get_u8()? {
            0 => NumericMode::Batch,
            1 => NumericMode::PerPair,
            other => {
                return Err(CoreError::Protocol(format!(
                    "unknown numeric mode tag {other}"
                )))
            }
        };
        let fixed_point = FixedPointCodec::new(r.get_f64()?)?;
        // The coordinator sends weights it already normalised: adopt them
        // bit for bit instead of re-normalising.
        let weights = WeightVector::from_normalised(r.get_f64_vec()?)?;
        let num_clusters = r.get_u32()? as usize;
        let linkage = parse_linkage(&r.get_str()?)?;
        let chunk = r.get_u64()?;
        let site_count = r.get_u32()? as usize;
        // Each site is a `u32` id and a `u64` row count.
        check_count(site_count, 12, &r)?;
        let mut site_sizes = Vec::with_capacity(site_count);
        for _ in 0..site_count {
            let site = r.get_u32()?;
            let rows = r.get_u64()?;
            site_sizes.push((site, rows));
        }
        r.expect_end()?;
        Ok(PartySessionSpec {
            schema,
            config: ProtocolConfig {
                rng_algorithm,
                numeric_mode,
                fixed_point,
            },
            request: ClusteringRequest {
                weights,
                linkage,
                num_clusters,
            },
            chunk_rows: (chunk > 0).then_some(chunk as usize),
            site_sizes,
        })
    }

    fn sites(&self) -> Vec<u32> {
        self.site_sizes.iter().map(|&(s, _)| s).collect()
    }

    fn site_sizes_usize(&self) -> Vec<(u32, usize)> {
        self.site_sizes
            .iter()
            .map(|&(s, n)| (s, n as usize))
            .collect()
    }
}

/// The third party's exported session outcome — the payload of its
/// [`SessionDone`]: the published result plus the final merged matrix (as
/// raw condensed values, so a byte-exact comparison against an oracle is
/// possible on the receiving side).
#[derive(Debug, Clone, PartialEq)]
pub struct TpOutcome {
    /// The result every holder received.
    pub result: PublishedResultMsg,
    /// Objects the final matrix covers.
    pub objects: u32,
    /// The final matrix's packed lower-triangular values.
    pub condensed: Vec<f64>,
}

impl TpOutcome {
    /// Builds the export from a finished third-party outcome.
    pub fn from_engine_outcome(outcome: &EngineOutcome) -> Self {
        TpOutcome {
            result: PublishedResultMsg {
                clusters: outcome
                    .result
                    .clusters
                    .iter()
                    .map(|members| {
                        members
                            .iter()
                            .map(|o| (o.site, o.local_index as u32))
                            .collect()
                    })
                    .collect(),
                average_within_cluster_squared_distance: outcome
                    .result
                    .average_within_cluster_squared_distance,
            },
            objects: outcome.final_matrix.len() as u32,
            condensed: outcome.final_matrix.matrix().condensed_values().to_vec(),
        }
    }

    /// Serialises the outcome.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_bytes(&self.result.encode())
            .put_u32(self.objects)
            .put_f64_slice(&self.condensed);
        w.finish()
    }

    /// Deserialises an outcome.
    pub fn decode(payload: &[u8]) -> Result<Self, CoreError> {
        let mut r = WireReader::new(payload);
        let result = PublishedResultMsg::decode(&r.get_bytes()?)?;
        let objects = r.get_u32()?;
        let condensed = r.get_f64_vec()?;
        r.expect_end()?;
        Ok(TpOutcome {
            result,
            objects,
            condensed,
        })
    }
}

/// One party this process plays: its role plus whatever that role needs to
/// provision itself for any announced roster.
#[derive(Debug, Clone)]
pub enum PartySeat {
    /// A data holder: its partition and the shared master seed its secrets
    /// derive from (never transmitted).
    Holder {
        /// The locally owned horizontal partition.
        partition: HorizontalPartition,
        /// The federation's shared master seed.
        master: Seed,
    },
    /// The third party: the master seed only (it owns no data).
    ThirdParty {
        /// The federation's shared master seed.
        master: Seed,
    },
}

impl PartySeat {
    /// The party this seat plays.
    pub fn party(&self) -> PartyId {
        match self {
            PartySeat::Holder { partition, .. } => PartyId::DataHolder(partition.site()),
            PartySeat::ThirdParty { .. } => PartyId::ThirdParty,
        }
    }

    /// The federation master seed this seat derives its secrets from.
    pub fn master(&self) -> &Seed {
        match self {
            PartySeat::Holder { master, .. } | PartySeat::ThirdParty { master } => master,
        }
    }

    /// Objects this seat holds (0 for the third party).
    pub fn rows(&self) -> u64 {
        match self {
            PartySeat::Holder { partition, .. } => partition.len() as u64,
            PartySeat::ThirdParty { .. } => 0,
        }
    }
}

/// Why a session failed at this process.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionFailure {
    /// The socket layer exhausted its reconnect backoff towards `party`:
    /// the distinguishable "peer is gone" outcome, as opposed to a generic
    /// protocol stall.
    PeerUnreachable {
        /// The unreachable destination.
        party: PartyId,
    },
    /// The channel-security tier detected active interference: a sealed
    /// frame was tampered with, truncated, replayed or reordered, a
    /// plaintext frame arrived on a secured channel, or a control-plane
    /// message failed its MAC. Distinguishable from both stalls and
    /// crashes — something on the path *modified* traffic.
    ChannelAuth {
        /// What failed to authenticate.
        detail: String,
    },
    /// Any other per-session error (remote failure text or local protocol
    /// error).
    Error(String),
}

/// What one party contributed to one finished session.
#[derive(Debug, Clone)]
pub enum PartyOutcome {
    /// A local third-party seat finished: the full engine outcome.
    ThirdParty(Box<EngineOutcome>),
    /// A local holder seat finished: the published result it received.
    Holder(PublishedResultMsg),
    /// A remote party reported completion; the third party attaches its
    /// exported outcome, holders report bare completion.
    Remote(Option<TpOutcome>),
    /// The session failed at this party.
    Failed(SessionFailure),
}

/// One `(session, party)` outcome row.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Global session id.
    pub session: u64,
    /// The party this row describes.
    pub party: PartyId,
    /// What happened.
    pub outcome: PartyOutcome,
}

/// Scheduling statistics of one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartyEngineStats {
    /// Scheduling rounds executed.
    pub rounds: u64,
    /// Times the engine parked in a blocking receive.
    pub blocking_waits: u64,
    /// Envelopes sent (session traffic and control messages).
    pub messages_sent: u64,
    /// Largest pairwise-row buffer any local machine held.
    pub peak_buffered_rows: usize,
    /// Sessions that completed at every local seat.
    pub sessions_completed: usize,
    /// Sessions that failed.
    pub sessions_failed: usize,
    /// Compute-phase wall time summed over completed local sessions.
    pub compute: ComputeStats,
    /// Hit/miss counters of this run's shared derivation cache.
    pub derivation_cache: DerivationCacheStats,
}

/// A completed run: per-`(session, party)` outcomes plus engine stats.
#[derive(Debug)]
pub struct PartyRunReport {
    /// Outcome rows, ordered by `(session, party)`.
    pub outcomes: Vec<SessionOutcome>,
    /// Scheduling statistics.
    pub stats: PartyEngineStats,
}

impl PartyRunReport {
    /// The outcome rows of one session.
    pub fn session(&self, id: u64) -> impl Iterator<Item = &SessionOutcome> + '_ {
        self.outcomes.iter().filter(move |o| o.session == id)
    }
}

/// One clustering request a coordinator opens against the federation (the
/// per-session half of a [`PartySessionSpec`]; the coordinator adds the
/// schema and the gathered site sizes).
#[derive(Debug, Clone)]
pub struct SessionPlan {
    /// Protocol configuration.
    pub config: ProtocolConfig,
    /// What to cluster and how.
    pub request: ClusteringRequest,
    /// Chunked streaming window.
    pub chunk_rows: Option<usize>,
}

/// Drives only a local party set over one transport, with sessions opened
/// through the in-band control plane.
///
/// One engine instance runs either [`serve`](Self::serve) (wait for a
/// coordinator's announcements) or [`coordinate`](Self::coordinate) (gather
/// the federation's readiness, announce every session, and collect remote
/// completions) — in both cases also driving its own seats' machines,
/// parking in [`WaitTransport::receive_any_of`] when idle, exactly like a
/// [`ShardedEngine`](super::sharded::ShardedEngine) worker.
#[derive(Debug)]
pub struct PartyEngine<T: WaitTransport> {
    transport: T,
    seats: Vec<PartySeat>,
    idle_wait: Duration,
    max_idle_waits: u32,
    /// Separate patience for the coordinator's readiness phase (peers may
    /// still be starting up); `None` falls back to the stall budget.
    readiness_budget: Option<(Duration, u32)>,
}

impl<T: WaitTransport> PartyEngine<T> {
    /// Creates an engine driving `seats` over `transport`.
    pub fn new(transport: T, seats: Vec<PartySeat>) -> Result<Self, CoreError> {
        if seats.is_empty() {
            return Err(CoreError::Protocol(
                "a party engine needs at least one local seat".into(),
            ));
        }
        let mut seen = BTreeSet::new();
        for seat in &seats {
            if !seen.insert(seat.party()) {
                return Err(CoreError::Protocol(format!(
                    "duplicate local seat for {}",
                    seat.party()
                )));
            }
        }
        Ok(PartyEngine {
            transport,
            seats,
            idle_wait: Duration::from_millis(50),
            max_idle_waits: 100,
            readiness_budget: None,
        })
    }

    /// The underlying transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// The local seats.
    pub fn seats(&self) -> &[PartySeat] {
        &self.seats
    }

    /// Overrides the stall budget: the engine errors out after
    /// `max_idle_waits` consecutive blocking waits of `idle_wait` each with
    /// no progress.
    pub fn set_stall_budget(&mut self, idle_wait: Duration, max_idle_waits: u32) {
        self.idle_wait = idle_wait;
        self.max_idle_waits = max_idle_waits;
    }

    /// The current stall budget as `(idle_wait, max_idle_waits)`.
    pub fn stall_budget(&self) -> (Duration, u32) {
        (self.idle_wait, self.max_idle_waits)
    }

    /// Overrides the *readiness* budget: how long the coordinator waits for
    /// every remote party's readiness announcement before giving up. This
    /// phase tolerates slow process startup (binaries still compiling,
    /// containers still scheduling), so it may deserve far more patience
    /// than the per-turn stall budget; unset, it follows the stall budget.
    pub fn set_readiness_budget(&mut self, idle_wait: Duration, max_idle_waits: u32) {
        self.readiness_budget = Some((idle_wait, max_idle_waits));
    }

    /// The effective readiness budget (explicit, or the stall budget).
    pub fn readiness_budget(&self) -> (Duration, u32) {
        self.readiness_budget
            .unwrap_or((self.idle_wait, self.max_idle_waits))
    }

    /// Serves the local seats: announces readiness to `coordinator`
    /// (again when the coordinator's greeting arrives, and on each empty
    /// stall-budget park until the first announcement, so startup order
    /// does not matter), runs every announced session to completion,
    /// reports each with `ctl/done`, and returns once all announced
    /// sessions are finished.
    pub fn serve(&self, coordinator: PartyId) -> Result<PartyRunReport, CoreError> {
        let mut flow = Flow::new(self, coordinator, BTreeSet::new());
        flow.settling(|flow| {
            flow.send_ready()?;
            flow.drive(flow.engine.idle_wait)
        })?;
        Ok(flow.into_report())
    }

    /// Coordinates a run: waits for every `remote` party's readiness,
    /// assembles the site roster, announces one session per plan, drives
    /// the local seats, and returns once every session has completed at
    /// every party (local and remote).
    pub fn coordinate(
        &self,
        schema: Schema,
        remote: impl IntoIterator<Item = PartyId>,
        plans: Vec<SessionPlan>,
    ) -> Result<PartyRunReport, CoreError> {
        let remote: BTreeSet<PartyId> = remote.into_iter().collect();
        if plans.is_empty() {
            return Err(CoreError::Protocol("no sessions to coordinate".into()));
        }
        for seat in &self.seats {
            if remote.contains(&seat.party()) {
                return Err(CoreError::Protocol(format!(
                    "{} is both a local seat and a remote party",
                    seat.party()
                )));
            }
        }
        let tp_count = self
            .seats
            .iter()
            .filter(|s| matches!(s, PartySeat::ThirdParty { .. }))
            .count()
            + usize::from(remote.contains(&PartyId::ThirdParty));
        if tp_count != 1 {
            return Err(CoreError::Protocol(format!(
                "a federation needs exactly one third party, found {tp_count}"
            )));
        }
        let coordinator = self.seats[0].party();
        let mut flow = Flow::new(self, coordinator, remote);
        flow.settling(|flow| flow.coordinate(schema, plans))?;
        Ok(flow.into_report())
    }
}

/// The in-flight state of one engine run: the engine round over the
/// transport, and this engine's policy on top of it — `ctl/` routing, the
/// pre-announcement backlog, per-session failures and completion reports.
struct Flow<'a, T: WaitTransport> {
    engine: &'a PartyEngine<T>,
    /// The local seats' mailboxes, in seat order, and the live sessions.
    round: ShardRound<'a, T>,
    /// Our identity on the control plane (the first seat's party).
    control_party: PartyId,
    /// MAC over every control payload, keyed from the master seed: a
    /// multi-tenant router (or any rogue peer behind it) cannot forge
    /// `ctl/` traffic (see `ppc_net::control::ControlAuth`).
    control_auth: ControlAuth,
    coordinator: PartyId,
    is_coordinator: bool,
    /// Session frames that arrived before their announcement.
    pending: BTreeMap<u64, Vec<Envelope>>,
    outcomes: Vec<SessionOutcome>,
    stats: PartyEngineStats,
    /// Announced session count, once known.
    total: Option<u32>,
    /// Sessions whose local seats completed or failed.
    finished: BTreeSet<u64>,
    /// The subset of `finished` that failed locally. A failed session is
    /// *settled*: the coordinator stops waiting for remote completions it
    /// can never receive (e.g. the unreachable peer's own `ctl/done`).
    failed: BTreeSet<u64>,
    /// Coordinator: parties expected to serve remotely.
    expected_remote: BTreeSet<PartyId>,
    /// Coordinator: readiness roster (party → rows).
    remote_rows: BTreeMap<PartyId, u64>,
    /// Coordinator: which remote parties reported each session done.
    remote_done: BTreeMap<u64, BTreeSet<PartyId>>,
    /// Shared derivation cache: every session this run builds derives its
    /// RNG prefixes through one process-wide memo.
    cache: DerivationCache,
}

impl<'a, T: WaitTransport> Flow<'a, T> {
    fn new(
        engine: &'a PartyEngine<T>,
        coordinator: PartyId,
        expected_remote: BTreeSet<PartyId>,
    ) -> Self {
        let locals: Vec<PartyId> = engine.seats.iter().map(PartySeat::party).collect();
        let control_party = locals[0];
        let control_auth = ControlAuth::from_master(engine.seats[0].master());
        Flow {
            engine,
            round: ShardRound::new(&engine.transport, locals, BTreeMap::new()),
            control_party,
            control_auth,
            // The coordinator is the engine whose own identity the control
            // traffic converges on; `coordinate` passes itself.
            is_coordinator: coordinator == control_party,
            coordinator,
            pending: BTreeMap::new(),
            outcomes: Vec::new(),
            stats: PartyEngineStats::default(),
            total: None,
            finished: BTreeSet::new(),
            failed: BTreeSet::new(),
            expected_remote,
            remote_rows: BTreeMap::new(),
            remote_done: BTreeMap::new(),
            cache: DerivationCache::new(),
        }
    }

    fn send_ctl(&mut self, to: PartyId, topic: &str, body: Vec<u8>) -> Result<(), NetError> {
        let payload = self.control_auth.seal(topic, self.control_party, to, &body);
        self.round.messages_sent += 1;
        self.round
            .transport
            .send(Envelope::new(self.control_party, to, topic, payload))
    }

    /// Announces every local seat's readiness to the coordinator.
    fn send_ready(&mut self) -> Result<(), CoreError> {
        for seat in &self.engine.seats {
            let msg = SessionReady {
                party: seat.party(),
                rows: seat.rows(),
            };
            self.send_ctl(self.coordinator, TOPIC_READY, msg.encode())?;
        }
        self.round.transport.flush()?;
        Ok(())
    }

    /// Coordinator: greets every expected remote party with this engine's
    /// own readiness, and flushes. A serving party whose first `ctl/ready`
    /// reached a shared router before this engine's link did was dropped
    /// as unroutable; the greeting tells it to send its readiness again.
    /// Sends and flush are best effort: a party that is already gone
    /// surfaces at the first announcement, as a settled `PeerUnreachable`
    /// outcome.
    fn greet(&mut self) {
        let greeting = SessionReady {
            party: self.control_party,
            rows: self.engine.seats[0].rows(),
        }
        .encode();
        for party in self.expected_remote.clone() {
            let _ = self.send_ctl(party, TOPIC_READY, greeting.clone());
        }
        let _ = self.round.transport.flush();
    }

    /// Builds this process's runtime for one announced session: validates
    /// the roster against the local seats and provisions each seat's
    /// secrets from the master seed.
    fn build_runtime(&self, spec: &PartySessionSpec, id: u64) -> Result<PartyRuntime, CoreError> {
        let sites = spec.sites();
        let site_sizes = spec.site_sizes_usize();
        let ctx = SessionContext {
            schema: spec.schema.clone(),
            config: spec.config,
            request: spec.request.clone(),
            chunk_rows: spec.chunk_rows,
            session_id: id,
            cache: Some(self.cache.clone()),
        };
        let mut holders = Vec::new();
        let mut tp = None;
        for seat in &self.engine.seats {
            match seat {
                PartySeat::Holder { partition, master } => {
                    let site = partition.site();
                    let announced = spec
                        .site_sizes
                        .iter()
                        .find(|&&(s, _)| s == site)
                        .map(|&(_, n)| n)
                        .ok_or_else(|| {
                            CoreError::Protocol(format!(
                                "session {id} roster {sites:?} does not include local site {site}"
                            ))
                        })?;
                    if announced != partition.len() as u64 {
                        return Err(CoreError::Protocol(format!(
                            "session {id} announces {announced} objects for site {site}, the \
                             local partition holds {}",
                            partition.len()
                        )));
                    }
                    let holder = TrustedSetup::derive_holder(partition.clone(), &sites, master)?;
                    holders.push(HolderMachine::new(ctx.clone(), holder, &site_sizes)?);
                }
                PartySeat::ThirdParty { master } => {
                    let keys = TrustedSetup::derive_third_party(&sites, master)?;
                    tp = Some(ThirdPartyMachine::new(ctx.clone(), keys, &site_sizes)?);
                }
            }
        }
        Ok(PartyRuntime::from_machines(holders, tp))
    }

    /// Registers a freshly built session runtime and replays any frames
    /// that arrived before the announcement.
    fn install_session(&mut self, id: u64, mut runtime: PartyRuntime) -> Result<(), CoreError> {
        if let Some(backlog) = self.pending.remove(&id) {
            for envelope in backlog {
                runtime.enqueue(envelope)?;
            }
        }
        self.round.sessions.insert(id, runtime);
        Ok(())
    }

    fn handle_announce(&mut self, announce: SessionAnnounce) -> Result<(), CoreError> {
        match self.total {
            None => self.total = Some(announce.sessions_total),
            Some(total) if total == announce.sessions_total => {}
            Some(total) => {
                return Err(CoreError::Protocol(format!(
                    "announcement declares {} total sessions, earlier ones declared {total}",
                    announce.sessions_total
                )))
            }
        }
        if announce.session >= u64::from(announce.sessions_total) {
            // Session ids are 0..total by contract; completion tracking
            // iterates exactly that range, so an out-of-range id must be
            // rejected here instead of silently stalling the run later.
            return Err(CoreError::Protocol(format!(
                "announced session id {} is outside 0..{}",
                announce.session, announce.sessions_total
            )));
        }
        if self.round.sessions.contains_key(&announce.session)
            || self.finished.contains(&announce.session)
        {
            return Err(CoreError::Protocol(format!(
                "session {} announced twice",
                announce.session
            )));
        }
        let spec = PartySessionSpec::decode(&announce.body)?;
        let runtime = self.build_runtime(&spec, announce.session)?;
        self.install_session(announce.session, runtime)
    }

    fn handle_done(&mut self, done: SessionDone) -> Result<(), CoreError> {
        if !self.expected_remote.contains(&done.party) {
            return Err(CoreError::Protocol(format!(
                "unexpected ctl/done from {} (not a remote party of this run)",
                done.party
            )));
        }
        if !self
            .remote_done
            .entry(done.session)
            .or_default()
            .insert(done.party)
        {
            return Err(CoreError::Protocol(format!(
                "{} reported session {} done twice",
                done.party, done.session
            )));
        }
        let outcome = match done.error {
            Some(error) => PartyOutcome::Failed(SessionFailure::Error(error)),
            None if done.payload.is_empty() => PartyOutcome::Remote(None),
            None => PartyOutcome::Remote(Some(TpOutcome::decode(&done.payload)?)),
        };
        self.record(done.session, done.party, outcome);
        Ok(())
    }

    /// Records one `(session, party)` outcome row.
    fn record(&mut self, session: u64, party: PartyId, outcome: PartyOutcome) {
        self.outcomes.push(SessionOutcome {
            session,
            party,
            outcome,
        });
    }

    /// Serving: reports one local seat's end of `session` to the
    /// coordinator. The coordinator records its own seats directly.
    fn report_done(
        &mut self,
        session: u64,
        party: PartyId,
        error: Option<String>,
        payload: Vec<u8>,
    ) -> Result<(), NetError> {
        if self.is_coordinator {
            return Ok(());
        }
        let done = SessionDone {
            session,
            party,
            error,
            payload,
        };
        self.send_ctl(self.coordinator, TOPIC_DONE, done.encode())
    }

    /// Marks a session failed at every local seat and (when serving)
    /// best-effort reports the failure to the coordinator.
    fn fail_session(&mut self, id: u64, failure: SessionFailure) {
        self.round.sessions.remove(&id);
        self.finished.insert(id);
        self.failed.insert(id);
        self.stats.sessions_failed += 1;
        let text = match &failure {
            SessionFailure::PeerUnreachable { party } => {
                format!("peer hosting {party} is unreachable")
            }
            SessionFailure::ChannelAuth { detail } => {
                format!("channel authentication failure: {detail}")
            }
            SessionFailure::Error(e) => e.clone(),
        };
        let seats = &self.engine.seats;
        for seat in seats {
            self.record(id, seat.party(), PartyOutcome::Failed(failure.clone()));
        }
        for seat in seats {
            // Best effort: if the coordinator is the unreachable peer there
            // is nobody to tell.
            let _ = self.report_done(id, seat.party(), Some(text.clone()), Vec::new());
        }
    }

    /// Extracts a finished session's per-seat outcomes and (when serving)
    /// reports them to the coordinator.
    fn finalize_session(&mut self, id: u64) -> Result<(), CoreError> {
        let runtime = self
            .round
            .sessions
            .remove(&id)
            .expect("finalize_session requires a live session");
        self.finished.insert(id);
        self.stats.sessions_completed += 1;
        let (holders, tp, session_stats) = runtime.into_parts();
        self.stats.peak_buffered_rows = self
            .stats
            .peak_buffered_rows
            .max(session_stats.peak_buffered_rows);
        self.stats.compute.absorb(&session_stats.compute);
        for holder in holders {
            let party = holder.party();
            let result = holder.published_result().cloned().ok_or_else(|| {
                CoreError::Protocol(format!(
                    "holder {party} finished session {id} without a published result"
                ))
            })?;
            self.report_done(id, party, None, Vec::new())?;
            self.record(id, party, PartyOutcome::Holder(result));
        }
        if let Some(tp) = tp {
            let party = tp.party();
            let (result, final_matrix) = tp.into_outcome()?;
            let outcome = EngineOutcome {
                result,
                final_matrix,
                stats: session_stats,
            };
            if !self.is_coordinator {
                let payload = TpOutcome::from_engine_outcome(&outcome).encode();
                self.report_done(id, party, None, payload)?;
            }
            self.record(id, party, PartyOutcome::ThirdParty(Box::new(outcome)));
        }
        Ok(())
    }

    /// Fails every session that is announced (or live) and not finished
    /// with `failure`. Returns whether there was any.
    fn fail_unfinished(&mut self, failure: SessionFailure) -> bool {
        let ids: Vec<u64> = match self.total {
            Some(total) => (0..u64::from(total))
                .filter(|id| !self.finished.contains(id))
                .collect(),
            None => self.round.sessions.keys().copied().collect(),
        };
        for &id in &ids {
            self.fail_session(id, failure.clone());
        }
        !ids.is_empty()
    }

    /// Runs `phases`, settling a run the channel-security tier condemns
    /// instead of erroring: every unfinished session becomes a
    /// [`SessionFailure::ChannelAuth`] outcome — tamper is a
    /// *distinguishable result*, not a generic stall. When nothing was
    /// ever announced there is nothing to settle and the auth failure
    /// surfaces as the run error instead.
    fn settling(
        &mut self,
        phases: impl FnOnce(&mut Self) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        match phases(self) {
            Err(CoreError::Net(NetError::AuthFailure { detail })) => {
                let failure = SessionFailure::ChannelAuth {
                    detail: detail.clone(),
                };
                if self.fail_unfinished(failure) {
                    Ok(())
                } else {
                    Err(CoreError::Net(NetError::AuthFailure { detail }))
                }
            }
            other => other,
        }
    }

    /// Coordinator: gather readiness, announce, drive.
    fn coordinate(&mut self, schema: Schema, plans: Vec<SessionPlan>) -> Result<(), CoreError> {
        self.total = Some(plans.len() as u32);
        // Phase 1: greet every remote party, then wait for its readiness
        // under its own (usually more patient) budget — peers may still be
        // starting up. Nothing routed while waiting sends a reply, so the
        // greeting's flush is the only one this phase needs.
        self.greet();
        let (ready_wait, ready_max_waits) = self.engine.readiness_budget();
        let mut idle = 0u32;
        while !self
            .expected_remote
            .iter()
            .all(|p| self.remote_rows.contains_key(p))
        {
            if self.pump()? {
                idle = 0;
            } else if self.park(ready_wait, &mut idle)? && idle > ready_max_waits {
                let missing: Vec<&PartyId> = self
                    .expected_remote
                    .iter()
                    .filter(|p| !self.remote_rows.contains_key(p))
                    .collect();
                return Err(CoreError::Protocol(format!(
                    "timed out waiting for readiness from {missing:?}"
                )));
            }
        }
        // Phase 2: assemble the site roster (ascending site order, the
        // same order an in-process setup lists its partitions in).
        let mut site_sizes: Vec<(u32, u64)> = Vec::new();
        for seat in &self.engine.seats {
            if let PartySeat::Holder { partition, .. } = seat {
                site_sizes.push((partition.site(), partition.len() as u64));
            }
        }
        for (&party, &rows) in &self.remote_rows {
            if let PartyId::DataHolder(site) = party {
                site_sizes.push((site, rows));
            }
        }
        site_sizes.sort_unstable();
        for pair in site_sizes.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(CoreError::Protocol(format!(
                    "two parties claim site {}",
                    pair[0].0
                )));
            }
        }
        if site_sizes.len() < 2 {
            return Err(CoreError::Protocol(
                "the protocol requires at least two data holders".into(),
            ));
        }
        // Phase 3: announce every session, flush, and only then build the
        // local runtimes, so the remote parties build theirs meanwhile.
        let total = plans.len() as u32;
        let specs: Vec<PartySessionSpec> = plans
            .into_iter()
            .map(|plan| PartySessionSpec {
                schema: schema.clone(),
                config: plan.config,
                request: plan.request,
                chunk_rows: plan.chunk_rows,
                site_sizes: site_sizes.clone(),
            })
            .collect();
        for (id, spec) in specs.iter().enumerate() {
            let id = id as u64;
            let body = spec.encode();
            for &party in &self.expected_remote.clone() {
                let announce = SessionAnnounce {
                    session: id,
                    sessions_total: total,
                    body: body.clone(),
                };
                match self.send_ctl(party, TOPIC_ANNOUNCE, announce.encode()) {
                    Ok(()) => {}
                    Err(NetError::PeerUnreachable { party, .. }) => {
                        // Every session needs the full roster: a peer that
                        // died between readiness and announcement dooms
                        // the whole run, but as *reported outcomes* (one
                        // PeerUnreachable row per seat and session), not
                        // as a bare error that discards everything.
                        self.fail_unfinished(SessionFailure::PeerUnreachable { party });
                        return Ok(());
                    }
                    Err(e) => return Err(e.into()),
                }
            }
        }
        self.round.transport.flush()?;
        for (id, spec) in specs.iter().enumerate() {
            let runtime = self.build_runtime(spec, id as u64)?;
            self.install_session(id as u64, runtime)?;
        }
        // Phase 4: drive to completion.
        self.drive(self.engine.idle_wait)
    }

    fn into_report(mut self) -> PartyRunReport {
        self.outcomes.sort_by_key(|o| (o.session, o.party));
        self.stats.rounds = self.round.rounds;
        self.stats.blocking_waits = self.round.blocking_waits;
        self.stats.messages_sent = self.round.messages_sent;
        self.stats.derivation_cache = self.cache.stats();
        PartyRunReport {
            outcomes: self.outcomes,
            stats: self.stats,
        }
    }
}

impl<'a, T: WaitTransport> RoundPolicy<'a, T> for Flow<'a, T> {
    fn round(&mut self) -> &mut ShardRound<'a, T> {
        &mut self.round
    }

    /// Control messages dispatch by role; session frames go to their
    /// runtime or the pre-announcement backlog.
    fn route(&mut self, envelope: Envelope) -> Result<(), CoreError> {
        if is_control_topic(&envelope.topic) {
            // Verify the control MAC before trusting a single byte: a
            // failure here is active forgery, surfaced as the settled
            // ChannelAuth outcome by `settling`.
            let body = self.control_auth.open(
                &envelope.topic,
                envelope.from,
                envelope.to,
                &envelope.payload,
            )?;
            let msg = ControlMsg::decode(&envelope.topic, &body)?;
            return match (msg, self.is_coordinator) {
                (ControlMsg::Announce(announce), false) => self.handle_announce(announce),
                (ControlMsg::Announce(_), true) => Err(CoreError::Protocol(
                    "the coordinator received a session announcement".into(),
                )),
                (ControlMsg::Ready(ready), true) => {
                    // A serving process may send readiness more than once
                    // (after the greeting, or on a fallback park); later
                    // copies just refresh the roster entry.
                    self.remote_rows.insert(ready.party, ready.rows);
                    Ok(())
                }
                (ControlMsg::Ready(_), false)
                    if envelope.from == self.coordinator && self.total.is_none() =>
                {
                    // The coordinator's greeting: it is connected now, and
                    // our first readiness may have reached the router
                    // before it did.
                    self.send_ready()
                }
                (ControlMsg::Ready(_), false) => Err(CoreError::Protocol(format!(
                    "a serving engine received a readiness announcement from {} (only its \
                     coordinator greets, and only before the first announcement)",
                    envelope.from
                ))),
                (ControlMsg::Done(done), true) => self.handle_done(done),
                (ControlMsg::Done(_), false) => Err(CoreError::Protocol(
                    "a serving engine received a completion report".into(),
                )),
            };
        }
        // Hot path: only the session id matters for routing, so use the
        // allocation-free prefix extraction; full grammar validation is the
        // machines' and tests' job.
        let Some(id) = Topic::session_prefix_id(&envelope.topic) else {
            return Err(CoreError::Protocol(format!(
                "topic '{}' has no session prefix (multi-process sessions are always \
                 s{{id}}/-prefixed)",
                envelope.topic
            )));
        };
        if self.finished.contains(&id) {
            // Late traffic for a session that already failed locally;
            // dropping it is the only sane option.
            return Ok(());
        }
        match self.round.sessions.get_mut(&id) {
            Some(runtime) => runtime.enqueue(envelope),
            None => {
                self.pending.entry(id).or_default().push(envelope);
                Ok(())
            }
        }
    }

    /// A failed session fails alone: its machines' errors and an
    /// unreachable peer settle it as a [`SessionFailure`], and only other
    /// send errors end the run. A finished session reports `ctl/done`
    /// before the round's flush.
    fn turned(&mut self, id: u64, result: Result<(), TurnError>) -> Result<bool, CoreError> {
        let failure = match result {
            Ok(()) => {
                let finished = self
                    .round
                    .sessions
                    .get(&id)
                    .is_some_and(PartyRuntime::is_done);
                if finished {
                    self.finalize_session(id)?;
                }
                return Ok(finished);
            }
            Err(TurnError::Session(e)) => SessionFailure::Error(e.to_string()),
            Err(TurnError::Send(NetError::PeerUnreachable { party, .. })) => {
                SessionFailure::PeerUnreachable { party }
            }
            Err(TurnError::Send(e)) => return Err(e.into()),
        };
        self.fail_session(id, failure);
        Ok(true)
    }

    /// Whether the run is over from this process's perspective. A session
    /// is settled when it failed locally (remote completions may never
    /// come — the unreachable peer cannot report), or when the local seats
    /// finished and every expected remote party reported (a serving engine
    /// expects none).
    fn complete(&self) -> bool {
        let Some(total) = self.total else {
            return false;
        };
        (0..u64::from(total)).all(|id| {
            if self.failed.contains(&id) {
                return true;
            }
            if !self.finished.contains(&id) {
                return false;
            }
            let reported = self.remote_done.get(&id);
            self.expected_remote
                .iter()
                .all(|p| reported.is_some_and(|set| set.contains(p)))
        })
    }

    fn parked_empty(&mut self, idle_waits: u32) -> Result<(), CoreError> {
        if !self.is_coordinator && self.total.is_none() {
            // A whole park with neither a greeting nor an announcement: in
            // case neither side's first message got through, repeat the
            // (idempotent) readiness announcement.
            self.send_ready()?;
        }
        if idle_waits > self.engine.max_idle_waits {
            return Err(CoreError::Protocol(format!(
                "party engine for {:?} stalled (sessions {:?} unfinished, {} of {:?} announced)",
                self.round.parties,
                self.round.unfinished(),
                self.finished.len(),
                self.total
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::matrix::{DataMatrix, HorizontalPartition};
    use crate::protocol::engine::SessionSpec;
    use crate::protocol::party::TrustedSetup;
    use crate::protocol::sharded::ShardedEngine;
    use crate::record::Record;
    use crate::schema::AttributeDescriptor;
    use crate::value::AttributeValue;
    use ppc_cluster::Linkage;
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

    fn partitions() -> Vec<HorizontalPartition> {
        let rows_a = vec![
            record(30.0, "A", "acgt"),
            record(31.0, "A", "acga"),
            record(64.0, "B", "ttcg"),
        ];
        let rows_b = vec![record(65.0, "B", "ttcg"), record(29.5, "A", "acgt")];
        vec![
            HorizontalPartition::new(0, DataMatrix::with_rows(schema(), rows_a).unwrap()),
            HorizontalPartition::new(1, DataMatrix::with_rows(schema(), rows_b).unwrap()),
        ]
    }

    fn plan(chunk_rows: Option<usize>, mode: NumericMode) -> SessionPlan {
        SessionPlan {
            config: ProtocolConfig {
                numeric_mode: mode,
                ..ProtocolConfig::default()
            },
            request: ClusteringRequest {
                weights: schema().uniform_weights(),
                linkage: Linkage::Average,
                num_clusters: 2,
            },
            chunk_rows,
        }
    }

    /// Each plan run alone on a one-shard `ShardedEngine`: the oracle
    /// every multi-process run must match.
    fn oracle_outcomes(
        parts: &[HorizontalPartition],
        master: &Seed,
        plans: &[SessionPlan],
    ) -> Vec<EngineOutcome> {
        plans
            .iter()
            .map(|p| {
                let setup = TrustedSetup::deterministic(parts.to_vec(), master).unwrap();
                let mut engine = ShardedEngine::new(vec![Network::with_parties(2)]).unwrap();
                engine.add_session(SessionSpec {
                    schema: schema(),
                    config: p.config,
                    holders: setup.holders,
                    keys: setup.third_party,
                    request: p.request.clone(),
                    chunk_rows: p.chunk_rows,
                });
                engine.run().unwrap().outcomes.remove(0)
            })
            .collect()
    }

    /// Checks a coordinator's report row by row against the oracle: every
    /// session completed, with exactly one row per party, the oracle's
    /// clusters at each local holder seat (`local_sites`), bare completion
    /// from each remote holder (`remote_sites`), and the oracle's final
    /// matrix, bit for bit, from the remote third party.
    fn assert_coordinator_report_matches(
        report: &PartyRunReport,
        oracle: &[EngineOutcome],
        local_sites: &[u32],
        remote_sites: &[u32],
    ) {
        let parties = local_sites.len() + remote_sites.len() + 1;
        assert_eq!(report.stats.sessions_completed, oracle.len());
        assert_eq!(report.stats.sessions_failed, 0);
        for (id, reference) in oracle.iter().enumerate() {
            let expected_clusters: Vec<Vec<(u32, u32)>> = reference
                .result
                .clusters
                .iter()
                .map(|m| m.iter().map(|o| (o.site, o.local_index as u32)).collect())
                .collect();
            let rows: Vec<&SessionOutcome> = report.session(id as u64).collect();
            assert_eq!(rows.len(), parties, "session {id} has a row per party");
            for row in rows {
                match (&row.party, &row.outcome) {
                    (PartyId::DataHolder(site), PartyOutcome::Holder(published))
                        if local_sites.contains(site) =>
                    {
                        assert_eq!(published.clusters, expected_clusters, "session {id}");
                    }
                    (PartyId::DataHolder(site), PartyOutcome::Remote(None))
                        if remote_sites.contains(site) => {}
                    (PartyId::ThirdParty, PartyOutcome::Remote(Some(tp_outcome))) => {
                        assert_eq!(tp_outcome.result.clusters, expected_clusters);
                        // Byte-exact final matrix: the acceptance criterion.
                        let expected_bits: Vec<u64> = reference
                            .final_matrix
                            .matrix()
                            .condensed_values()
                            .iter()
                            .map(|v| v.to_bits())
                            .collect();
                        let got_bits: Vec<u64> =
                            tp_outcome.condensed.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(got_bits, expected_bits, "session {id} final matrix");
                    }
                    (party, outcome) => {
                        panic!("session {id}: unexpected outcome for {party}: {outcome:?}")
                    }
                }
            }
        }
    }

    /// A `ctl/ready` from `from` to `to`, MAC'd under `master`.
    fn ready_envelope(master: &Seed, from: PartyId, to: PartyId, rows: u64) -> Envelope {
        let body = SessionReady { party: from, rows }.encode();
        Envelope::new(
            from,
            to,
            TOPIC_READY,
            ControlAuth::from_master(master).seal(TOPIC_READY, from, to, &body),
        )
    }

    #[test]
    fn session_spec_roundtrips() {
        let spec = PartySessionSpec {
            schema: schema(),
            config: ProtocolConfig {
                rng_algorithm: RngAlgorithm::Xoshiro256PlusPlus,
                numeric_mode: NumericMode::PerPair,
                fixed_point: FixedPointCodec::new(1000.0).unwrap(),
            },
            request: ClusteringRequest {
                weights: WeightVector::new(vec![0.5, 0.25, 0.25]).unwrap(),
                linkage: Linkage::Ward,
                num_clusters: 4,
            },
            chunk_rows: Some(3),
            site_sizes: vec![(0, 3), (1, 2), (7, 11)],
        };
        let back = PartySessionSpec::decode(&spec.encode()).unwrap();
        assert_eq!(back.schema, spec.schema);
        assert_eq!(back.config, spec.config);
        assert_eq!(
            back.request.weights.weights(),
            spec.request.weights.weights()
        );
        assert_eq!(back.request.linkage, spec.request.linkage);
        assert_eq!(back.request.num_clusters, spec.request.num_clusters);
        assert_eq!(back.chunk_rows, spec.chunk_rows);
        assert_eq!(back.site_sizes, spec.site_sizes);

        let whole = PartySessionSpec {
            chunk_rows: None,
            ..spec
        };
        assert_eq!(
            PartySessionSpec::decode(&whole.encode())
                .unwrap()
                .chunk_rows,
            None
        );
        assert!(PartySessionSpec::decode(&[1, 2, 3]).is_err());
    }

    /// Raw weights 4, 6, 4, 4, 8, 5 normalise to a vector whose float sum
    /// is 0.9999999999999999; dividing by that sum again on decode would
    /// move weights by an ulp and drift results from the oracle.
    #[test]
    fn announced_weights_decode_bit_for_bit() {
        let schema = Schema::new(
            (0..6)
                .map(|i| AttributeDescriptor::numeric(format!("a{i}")))
                .collect(),
        )
        .unwrap();
        let weights = WeightVector::new(vec![4.0, 6.0, 4.0, 4.0, 8.0, 5.0]).unwrap();
        let spec = PartySessionSpec {
            schema,
            config: ProtocolConfig::default(),
            request: ClusteringRequest {
                weights,
                linkage: Linkage::Average,
                num_clusters: 2,
            },
            chunk_rows: None,
            site_sizes: vec![(0, 3), (1, 2)],
        };
        let back = PartySessionSpec::decode(&spec.encode()).unwrap();
        let bits = |w: &WeightVector| w.weights().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.request.weights), bits(&spec.request.weights));
    }

    #[test]
    fn tp_outcome_roundtrips() {
        let msg = TpOutcome {
            result: PublishedResultMsg {
                clusters: vec![vec![(0, 0), (1, 1)], vec![(0, 1)]],
                average_within_cluster_squared_distance: 0.125,
            },
            objects: 3,
            condensed: vec![0.25, 0.5, 1.0],
        };
        assert_eq!(TpOutcome::decode(&msg.encode()).unwrap(), msg);
        assert!(TpOutcome::decode(&msg.encode()[..4]).is_err());
    }

    #[test]
    fn engine_rejects_empty_and_duplicate_seats() {
        assert!(PartyEngine::new(Network::with_parties(2), Vec::new()).is_err());
        let master = Seed::from_u64(1);
        let parts = partitions();
        assert!(PartyEngine::new(
            Network::with_parties(2),
            vec![
                PartySeat::Holder {
                    partition: parts[0].clone(),
                    master,
                },
                PartySeat::Holder {
                    partition: parts[0].clone(),
                    master,
                },
            ],
        )
        .is_err());
    }

    /// The full control plane over one in-memory network: a coordinating
    /// holder, a serving holder and a serving third party — three engines
    /// on three threads — must complete multiple concurrent sessions with
    /// results identical to the in-process oracle.
    #[test]
    fn three_party_engines_match_the_in_process_oracle() {
        let master = Seed::from_u64(2024);
        let parts = partitions();
        let plans = vec![
            plan(Some(1), NumericMode::Batch),
            plan(None, NumericMode::Batch),
            plan(Some(2), NumericMode::PerPair),
        ];

        let oracle = oracle_outcomes(&parts, &master, &plans);

        let net = Network::with_parties(2);
        let coordinator_engine = PartyEngine::new(
            net.clone(),
            vec![PartySeat::Holder {
                partition: parts[0].clone(),
                master,
            }],
        )
        .unwrap();
        let holder_engine = PartyEngine::new(
            net.clone(),
            vec![PartySeat::Holder {
                partition: parts[1].clone(),
                master,
            }],
        )
        .unwrap();
        let tp_engine =
            PartyEngine::new(net.clone(), vec![PartySeat::ThirdParty { master }]).unwrap();

        let (coordinator_report, holder_report, tp_report) = std::thread::scope(|scope| {
            let holder = scope.spawn(|| holder_engine.serve(PartyId::DataHolder(0)).unwrap());
            let tp = scope.spawn(|| tp_engine.serve(PartyId::DataHolder(0)).unwrap());
            let coordinator = coordinator_engine
                .coordinate(
                    schema(),
                    [PartyId::DataHolder(1), PartyId::ThirdParty],
                    plans.clone(),
                )
                .unwrap();
            (coordinator, holder.join().unwrap(), tp.join().unwrap())
        });

        assert_coordinator_report_matches(&coordinator_report, &oracle, &[0], &[1]);
        for (id, reference) in oracle.iter().enumerate() {
            // The serving third party holds the full outcome locally too.
            let tp_rows: Vec<&SessionOutcome> = tp_report.session(id as u64).collect();
            assert_eq!(tp_rows.len(), 1);
            match &tp_rows[0].outcome {
                PartyOutcome::ThirdParty(outcome) => {
                    assert_eq!(outcome.result.clusters, reference.result.clusters);
                }
                other => panic!("unexpected TP outcome {other:?}"),
            }
            let holder_rows: Vec<&SessionOutcome> = holder_report.session(id as u64).collect();
            assert_eq!(holder_rows.len(), 1);
            assert!(matches!(holder_rows[0].outcome, PartyOutcome::Holder(_)));
        }
        // Chunked sessions bound buffering on every engine.
        assert!(tp_report.stats.peak_buffered_rows > 0);
    }

    /// A coordinator hosting both holders gets the third party's ready over
    /// a real link, and then the third party dies for good. With
    /// `sever_first`, the link is also cut before `coordinate`, so the
    /// greeting's send already fails (every re-dial finds a closed port)
    /// and the ready is handed back to the hosted coordinator in process,
    /// as if it had just arrived. Either way the coordinator must *settle*:
    /// every session is reported as a `PeerUnreachable` failure naming the
    /// dead party, and `coordinate` returns a report instead of an error.
    fn settles_peer_unreachable_once_the_third_party_dies(seed: u64, sever_first: bool) {
        use ppc_net::{Backoff, TcpAcceptor, TcpTransport, Transport};

        let master = Seed::from_u64(seed);
        let parts = partitions();
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        let tp_side = TcpTransport::new([PartyId::ThirdParty]);
        let mut transport = TcpTransport::new([PartyId::DataHolder(0), PartyId::DataHolder(1)]);
        transport.set_reconnect_policy(Backoff {
            initial: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            max_attempts: 2,
        });
        let dial = std::thread::spawn(move || {
            transport.connect(addr, &Backoff::default()).unwrap();
            transport
        });
        acceptor.accept_into(&tp_side).unwrap();
        let transport = dial.join().unwrap();
        tp_side
            .send(ready_envelope(
                &master,
                PartyId::ThirdParty,
                PartyId::DataHolder(0),
                0,
            ))
            .unwrap();
        tp_side.flush().unwrap();
        let ready = sever_first.then(|| {
            transport
                .receive_any_of(&[PartyId::DataHolder(0)], Duration::from_secs(5))
                .unwrap()
                .expect("the third party's ready")
        });
        tp_side.shutdown();
        drop(tp_side);
        drop(acceptor);
        if let Some(ready) = ready {
            transport.sever_links();
            transport.send(ready).unwrap();
        }

        let mut engine = PartyEngine::new(
            transport,
            parts
                .iter()
                .map(|partition| PartySeat::Holder {
                    partition: partition.clone(),
                    master,
                })
                .collect(),
        )
        .unwrap();
        engine.set_stall_budget(Duration::from_millis(20), 50);
        let report = engine
            .coordinate(
                schema(),
                [PartyId::ThirdParty],
                vec![
                    plan(Some(2), NumericMode::Batch),
                    plan(None, NumericMode::Batch),
                ],
            )
            .expect("a dead peer must settle as failed sessions, not an error");
        assert_eq!(report.stats.sessions_failed, 2);
        assert_eq!(report.stats.sessions_completed, 0);
        assert!(!report.outcomes.is_empty());
        for row in &report.outcomes {
            match &row.outcome {
                PartyOutcome::Failed(SessionFailure::PeerUnreachable { party }) => {
                    assert_eq!(*party, PartyId::ThirdParty);
                }
                other => panic!(
                    "session {} at {}: expected PeerUnreachable, got {other:?}",
                    row.session, row.party
                ),
            }
        }
    }

    #[test]
    fn a_dead_remote_peer_yields_peer_unreachable_outcomes_not_a_stall() {
        settles_peer_unreachable_once_the_third_party_dies(31, false);
    }

    /// The greeting is best effort: a send and flush that fail must not
    /// end the run.
    #[test]
    fn a_greeting_that_cannot_be_sent_still_settles_peer_unreachable() {
        settles_peer_unreachable_once_the_third_party_dies(32, true);
    }

    /// An announcement whose session id falls outside `0..sessions_total`
    /// must be rejected immediately — completion tracking iterates exactly
    /// that range, so accepting it would stall the engine instead.
    #[test]
    fn out_of_range_session_ids_are_rejected_at_announce_time() {
        use ppc_net::TOPIC_ANNOUNCE;

        let master = Seed::from_u64(8);
        let parts = partitions();
        let net = Network::with_parties(2);
        let engine = PartyEngine::new(
            net.clone(),
            vec![PartySeat::Holder {
                partition: parts[1].clone(),
                master,
            }],
        )
        .unwrap();
        let spec = PartySessionSpec {
            schema: schema(),
            config: ProtocolConfig::default(),
            request: ClusteringRequest::uniform(&schema(), 2),
            chunk_rows: None,
            site_sizes: vec![(0, 4), (1, 2)],
        };
        let announce = ppc_net::SessionAnnounce {
            session: 5,
            sessions_total: 2,
            body: spec.encode(),
        };
        net.send(Envelope::new(
            PartyId::DataHolder(0),
            PartyId::DataHolder(1),
            TOPIC_ANNOUNCE,
            ControlAuth::from_master(&master).seal(
                TOPIC_ANNOUNCE,
                PartyId::DataHolder(0),
                PartyId::DataHolder(1),
                &announce.encode(),
            ),
        ))
        .unwrap();
        let err = engine.serve(PartyId::DataHolder(0)).unwrap_err();
        assert!(err.to_string().contains("outside 0..2"), "{err}");
    }

    /// A forged announcement (wrong MAC key) must surface as a channel
    /// authentication failure — never be acted upon, and never look like
    /// a stall.
    #[test]
    fn a_forged_announcement_is_a_distinguishable_auth_failure() {
        use ppc_net::TOPIC_ANNOUNCE;

        let master = Seed::from_u64(8);
        let parts = partitions();
        let net = Network::with_parties(2);
        let engine = PartyEngine::new(
            net.clone(),
            vec![PartySeat::Holder {
                partition: parts[1].clone(),
                master,
            }],
        )
        .unwrap();
        let spec = PartySessionSpec {
            schema: schema(),
            config: ProtocolConfig::default(),
            request: ClusteringRequest::uniform(&schema(), 2),
            chunk_rows: None,
            site_sizes: vec![(0, 4), (1, 2)],
        };
        let announce = ppc_net::SessionAnnounce {
            session: 0,
            sessions_total: 1,
            body: spec.encode(),
        };
        // The forger does not know the master seed, so it MACs under its
        // own key (an unkeyed payload fails identically).
        net.send(Envelope::new(
            PartyId::DataHolder(0),
            PartyId::DataHolder(1),
            TOPIC_ANNOUNCE,
            ControlAuth::from_master(&Seed::from_u64(9999)).seal(
                TOPIC_ANNOUNCE,
                PartyId::DataHolder(0),
                PartyId::DataHolder(1),
                &announce.encode(),
            ),
        ))
        .unwrap();
        let err = engine.serve(PartyId::DataHolder(0)).unwrap_err();
        match err {
            CoreError::Net(NetError::AuthFailure { detail }) => {
                assert!(detail.contains("MAC"), "{detail}");
            }
            other => panic!("expected a channel auth failure, got {other}"),
        }
    }

    /// A forged completion report arriving mid-run settles the whole run
    /// as `ChannelAuth` outcomes: tampering is a reported result, not a
    /// stall or a bare error.
    #[test]
    fn a_forged_completion_settles_the_run_with_channel_auth_outcomes() {
        use ppc_net::control::SessionDone;
        use ppc_net::TOPIC_DONE;

        let master = Seed::from_u64(21);
        let parts = partitions();
        let net = Network::with_parties(2);
        // Inject the forged ctl/done *before* the run: the coordinator
        // pumps it while gathering readiness, when no session is finished.
        let done = SessionDone {
            session: 0,
            party: PartyId::DataHolder(1),
            error: None,
            payload: Vec::new(),
        };
        net.send(Envelope::new(
            PartyId::DataHolder(1),
            PartyId::DataHolder(0),
            TOPIC_DONE,
            ControlAuth::from_master(&Seed::from_u64(4444)).seal(
                TOPIC_DONE,
                PartyId::DataHolder(1),
                PartyId::DataHolder(0),
                &done.encode(),
            ),
        ))
        .unwrap();

        let coordinator = PartyEngine::new(
            net.clone(),
            vec![PartySeat::Holder {
                partition: parts[0].clone(),
                master,
            }],
        )
        .unwrap();
        let holder = PartyEngine::new(
            net.clone(),
            vec![PartySeat::Holder {
                partition: parts[1].clone(),
                master,
            }],
        )
        .unwrap();
        let tp = PartyEngine::new(net.clone(), vec![PartySeat::ThirdParty { master }]).unwrap();

        let report = std::thread::scope(|scope| {
            // The serving engines will stall out once the coordinator
            // settles; their runs may end either way — only the
            // coordinator's report is under test.
            let mut holder = holder;
            let mut tp = tp;
            holder.set_stall_budget(Duration::from_millis(10), 20);
            tp.set_stall_budget(Duration::from_millis(10), 20);
            let h = scope.spawn(move || {
                let _ = holder.serve(PartyId::DataHolder(0));
            });
            let t = scope.spawn(move || {
                let _ = tp.serve(PartyId::DataHolder(0));
            });
            let report = coordinator
                .coordinate(
                    schema(),
                    [PartyId::DataHolder(1), PartyId::ThirdParty],
                    vec![plan(Some(2), NumericMode::Batch)],
                )
                .expect("tampering settles as outcomes, not an error");
            h.join().unwrap();
            t.join().unwrap();
            report
        });
        assert_eq!(report.stats.sessions_failed, 1);
        assert_eq!(report.stats.sessions_completed, 0);
        let mut saw_channel_auth = false;
        for row in &report.outcomes {
            if let PartyOutcome::Failed(SessionFailure::ChannelAuth { detail }) = &row.outcome {
                assert!(detail.contains("MAC"), "{detail}");
                saw_channel_auth = true;
            }
        }
        assert!(saw_channel_auth, "outcomes: {:?}", report.outcomes);
    }

    /// A serving engine with no coordinator in sight must hit its stall
    /// budget instead of hanging forever.
    #[test]
    fn serving_without_a_coordinator_stalls_loudly() {
        let master = Seed::from_u64(5);
        let parts = partitions();
        let mut engine = PartyEngine::new(
            Network::with_parties(2),
            vec![PartySeat::Holder {
                partition: parts[1].clone(),
                master,
            }],
        )
        .unwrap();
        engine.set_stall_budget(Duration::from_millis(5), 3);
        let err = engine.serve(PartyId::DataHolder(0)).unwrap_err();
        assert!(err.to_string().contains("stalled"), "{err}");
    }

    /// The readiness budget follows the stall budget until set explicitly,
    /// and a coordinator with absent peers times out under *it* — not
    /// under the per-turn stall budget.
    #[test]
    fn readiness_budget_defaults_to_stall_budget_and_is_separable() {
        let master = Seed::from_u64(6);
        let parts = partitions();
        let seat = || PartySeat::Holder {
            partition: parts[0].clone(),
            master,
        };
        let mut engine = PartyEngine::new(Network::with_parties(2), vec![seat()]).unwrap();
        assert_eq!(
            engine.readiness_budget(),
            (Duration::from_millis(50), 100),
            "default: mirror the stall budget"
        );
        engine.set_stall_budget(Duration::from_millis(5), 3);
        assert_eq!(engine.readiness_budget(), (Duration::from_millis(5), 3));
        engine.set_readiness_budget(Duration::from_millis(1), 2);
        assert_eq!(engine.readiness_budget(), (Duration::from_millis(1), 2));
        assert_eq!(
            engine.stall_budget(),
            (Duration::from_millis(5), 3),
            "the readiness override must not touch the stall budget"
        );

        let started = std::time::Instant::now();
        let err = engine
            .coordinate(
                schema(),
                [PartyId::ThirdParty, PartyId::DataHolder(1)],
                vec![plan(Some(2), NumericMode::Batch)],
            )
            .unwrap_err();
        assert!(err.to_string().contains("readiness"), "{err}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "a 2 × 1 ms readiness budget must fail fast"
        );
    }

    /// A serving engine answers its coordinator's greeting, received before
    /// any announcement, with exactly one fresh `ctl/ready`; a ready from
    /// any other party is still a protocol error.
    #[test]
    fn a_serving_engine_answers_its_coordinators_greeting_with_one_fresh_ready() {
        use ppc_net::Transport;

        let master = Seed::from_u64(12);
        let parts = partitions();
        let net = Network::with_parties(2);
        let mut engine = PartyEngine::new(
            net.clone(),
            vec![PartySeat::Holder {
                partition: parts[1].clone(),
                master,
            }],
        )
        .unwrap();
        // One long park: no fallback re-send fires while the test runs, so
        // every ready the coordinator sees is the first or an answer.
        engine.set_stall_budget(Duration::from_secs(30), 1);
        let coordinator = PartyId::DataHolder(0);
        let next_ready = || {
            let envelope = net
                .receive_any_of(&[coordinator], Duration::from_secs(10))
                .unwrap()
                .expect("a readiness announcement");
            assert_eq!(envelope.topic, TOPIC_READY);
            let body = ControlAuth::from_master(&master)
                .open(TOPIC_READY, envelope.from, envelope.to, &envelope.payload)
                .unwrap();
            SessionReady::decode(&body).unwrap()
        };
        let err = std::thread::scope(|scope| {
            let serving = scope.spawn(|| engine.serve(coordinator));
            let first = next_ready();
            assert_eq!(
                first,
                SessionReady {
                    party: PartyId::DataHolder(1),
                    rows: 2
                }
            );
            net.send(ready_envelope(
                &master,
                coordinator,
                PartyId::DataHolder(1),
                3,
            ))
            .unwrap();
            assert_eq!(next_ready(), first, "the greeting is answered at once");
            // A ready from a party other than the coordinator ends the run.
            net.send(ready_envelope(
                &master,
                PartyId::ThirdParty,
                PartyId::DataHolder(1),
                0,
            ))
            .unwrap();
            serving.join().unwrap().unwrap_err()
        });
        assert!(
            err.to_string()
                .contains("received a readiness announcement from TP"),
            "{err}"
        );
        assert!(
            net.try_receive(coordinator).unwrap().is_none(),
            "one greeting, one fresh ready"
        );
    }

    /// Once the first announcement has arrived, a ready even from the
    /// coordinator is a protocol error: the greeting only ever precedes
    /// the announcements on the coordinator's link.
    #[test]
    fn a_ready_from_the_coordinator_after_an_announcement_is_a_protocol_error() {
        use ppc_net::TOPIC_ANNOUNCE;

        let master = Seed::from_u64(13);
        let parts = partitions();
        let net = Network::with_parties(2);
        let spec = PartySessionSpec {
            schema: schema(),
            config: ProtocolConfig::default(),
            request: ClusteringRequest::uniform(&schema(), 2),
            chunk_rows: None,
            site_sizes: vec![(0, 3), (1, 2)],
        };
        let announce = ppc_net::SessionAnnounce {
            session: 0,
            sessions_total: 1,
            body: spec.encode(),
        };
        let (coordinator, me) = (PartyId::DataHolder(0), PartyId::DataHolder(1));
        net.send(Envelope::new(
            coordinator,
            me,
            TOPIC_ANNOUNCE,
            ControlAuth::from_master(&master).seal(
                TOPIC_ANNOUNCE,
                coordinator,
                me,
                &announce.encode(),
            ),
        ))
        .unwrap();
        net.send(ready_envelope(&master, coordinator, me, 3))
            .unwrap();
        let engine = PartyEngine::new(
            net.clone(),
            vec![PartySeat::Holder {
                partition: parts[1].clone(),
                master,
            }],
        )
        .unwrap();
        let err = engine.serve(coordinator).unwrap_err();
        assert!(
            err.to_string()
                .contains("received a readiness announcement from DH0"),
            "{err}"
        );
    }

    /// Over a real router: the third party starts first, so its first
    /// `ctl/ready` is dropped as unroutable. With every park 2 s long, only
    /// the coordinator's greeting can make the run finish within a second
    /// (the fallback re-send waits out a whole park), and it must match
    /// the oracle with no other frame dropped.
    #[test]
    fn a_first_ready_the_router_dropped_is_recovered_by_the_greeting_not_a_park() {
        use ppc_net::{Backoff, TcpRouter, TcpTransport};

        let master = Seed::from_u64(2025);
        let parts = partitions();
        let plans = vec![
            plan(Some(1), NumericMode::Batch),
            plan(None, NumericMode::PerPair),
        ];
        let oracle = oracle_outcomes(&parts, &master, &plans);
        let park = Duration::from_secs(2);

        let (router, addr) = TcpRouter::spawn("127.0.0.1:0").unwrap();
        let tp_transport = TcpTransport::new([PartyId::ThirdParty]);
        tp_transport.connect(addr, &Backoff::default()).unwrap();
        let mut tp =
            PartyEngine::new(tp_transport, vec![PartySeat::ThirdParty { master }]).unwrap();
        tp.set_stall_budget(park, 5);
        let mut coordinator = PartyEngine::new(
            TcpTransport::new([PartyId::DataHolder(0), PartyId::DataHolder(1)]),
            parts
                .iter()
                .map(|partition| PartySeat::Holder {
                    partition: partition.clone(),
                    master,
                })
                .collect(),
        )
        .unwrap();
        coordinator.set_stall_budget(park, 5);

        let (report, elapsed) = std::thread::scope(|scope| {
            let serving = scope.spawn(|| tp.serve(PartyId::DataHolder(0)));
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while router.unroutable_frames() == 0 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "the third party's first ready never reached the router"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            let started = std::time::Instant::now();
            coordinator
                .transport()
                .connect(addr, &Backoff::default())
                .unwrap();
            let report = coordinator
                .coordinate(schema(), [PartyId::ThirdParty], plans.clone())
                .unwrap();
            let tp_report = serving.join().unwrap().unwrap();
            assert_eq!(tp_report.stats.sessions_completed, plans.len());
            (report, started.elapsed())
        });
        assert!(
            elapsed < Duration::from_secs(1),
            "the run took {elapsed:?}: the dropped ready waited for a fallback park"
        );
        assert_coordinator_report_matches(&report, &oracle, &[0, 1], &[]);
        assert_eq!(router.unroutable_frames(), 1);
    }
}
