//! Per-party protocol state machines.
//!
//! The construction of Figure 11 decomposed into *non-blocking* machines:
//! every party (data holder or third party) is a state machine advanced by
//! [`step`](HolderMachine::step) calls, each of which either delivers one
//! incoming envelope or polls for the next unprompted emission, and returns
//! whatever envelopes the party wants sent. No machine ever waits — the
//! engine round of [`engine`](super::engine) owns all control flow.
//!
//! ## Wire compatibility
//!
//! Every topic a machine sends carries its session's `s{id}/` prefix, and
//! a machine takes only topics under that prefix. Every cross-site block
//! (the per-pair masked copies, the pairwise matrix, the CCM bundle) is a
//! stream of row windows ([`PairwiseChunkMsg`] / [`CcmChunkMsg`]): the
//! holder computes one window at a time, and the third party checks each
//! window against the session and folds it into its condensed accumulator
//! on arrival. `chunk_rows` decides only how many rows a window holds and
//! how it travels. With `chunk_rows: Some(w)` a window holds at most `w`
//! rows and travels on the `-chunk` step, so no party ever materialises
//! more than `w` rows of any cross-site block. With `chunk_rows: None` a
//! stream's one window holds every row and travels whole, on the whole
//! block's step without the window header ([`MaskedNumericMsg`],
//! [`PairwiseMatrixMsg`], [`CcmBundleMsg`]), so a one-session engine sends
//! the pre-refactor monolithic session's envelopes byte for byte once
//! `s0/` is stripped (pinned by the golden-trace tests, stream by stream,
//! in batch and per-pair mode). Either way the receiver reads a whole
//! message as the window `[0, total)` of its stream and runs the one
//! window path on it.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use ppc_cluster::{CondensedDistanceMatrix, MergeAccumulator};
use ppc_crypto::det::Tag128;
use ppc_crypto::prng::DynStreamRng;
use ppc_crypto::{negators_from_raw, offsets_from_raw, raw_u64_prefix, Negator, Seed};
use ppc_net::{Envelope, PartyId};

use crate::dissimilarity::{DissimilarityMatrix, ObjectIndex};
use crate::error::CoreError;
use crate::pairwise::PairwiseBlock;
use crate::protocol::alphanumeric::ResponderRows;
use crate::protocol::derive_cache::DerivationCache;
use crate::protocol::driver::{ClusteringRequest, ThirdPartyDriver};
use crate::protocol::messages::{
    parse_linkage, CcmBundleMsg, CcmChunkMsg, ClusteringChoiceMsg, EncryptedColumnMsg,
    LocalMatrixMsg, MaskedNumericMsg, MaskedStringsMsg, PairwiseChunkMsg, PairwiseMatrixMsg,
    PublishedResultMsg,
};
use crate::protocol::party::{DataHolder, ThirdPartyKeys};
use crate::protocol::topic::Topic;
use crate::protocol::{alphanumeric, categorical, local, numeric, NumericMode, ProtocolConfig};
use crate::result::ClusteringResult;
use crate::schema::{Schema, WeightVector};
use crate::value::AttributeKind;

/// Everything one session's machines agree on up front.
#[derive(Debug, Clone)]
pub struct SessionContext {
    /// The agreed schema.
    pub schema: Schema,
    /// Protocol configuration (RNG, numeric mode, fixed-point codec).
    pub config: ProtocolConfig,
    /// The clustering request every holder echoes to the third party.
    pub request: ClusteringRequest,
    /// `Some(w)`: each pairwise block travels as windows of at most `w`
    /// rows on its `-chunk` step. `None`: its one window holds every row
    /// and travels whole, without the window header (byte-identical
    /// traces).
    pub chunk_rows: Option<usize>,
    /// The session's id: every topic its machines send carries the
    /// `s{id}/` prefix, so sessions multiplex over one transport.
    pub session_id: u64,
    /// Shared derivation cache for raw RNG stream prefixes. `None` derives
    /// every prefix fresh; `Some` memoises them across sessions that share
    /// a schema. Either way the bytes are identical — the cache is a pure
    /// memo (see [`derive_cache`](crate::protocol::derive_cache)).
    pub cache: Option<DerivationCache>,
}

impl SessionContext {
    /// Rows in the next window of a stream with `remaining` rows left: at
    /// most `chunk_rows`, or every one of them when blocks travel whole.
    fn window_rows(&self, remaining: usize) -> usize {
        self.chunk_rows
            .map_or(remaining, |w| w.max(1).min(remaining))
    }

    /// The prefixed topic of a stream whose whole block travels on `step`:
    /// `step` itself, or `{step}-chunk` when the session streams windows.
    fn stream_topic(&self, step: &str) -> String {
        match self.chunk_rows {
            None => self.topic(step),
            Some(_) => self.topic(&format!("{step}-chunk")),
        }
    }

    /// A numeric window in the layout its stream's topic carries.
    fn encode_window(&self, window: &PairwiseChunkMsg) -> Vec<u8> {
        match self.chunk_rows {
            None => window.encode_whole(),
            Some(_) => window.encode(),
        }
    }

    fn topic(&self, base: &str) -> String {
        format!("s{}/{base}", self.session_id)
    }

    /// The step of `topic` with this session's `s{id}/` prefix stripped;
    /// a topic of any other session, or with no prefix, is refused.
    fn step_of<'a>(&self, topic: &'a str) -> Result<&'a str, CoreError> {
        match (Topic::session_prefix_id(topic), topic.split_once('/')) {
            (Some(id), Some((_, step))) if id == self.session_id => Ok(step),
            _ => Err(CoreError::Protocol(format!(
                "topic '{topic}' is not under session {}'s prefix",
                self.session_id
            ))),
        }
    }

    /// At least the first `len` raw `u64` draws of the configured RNG's
    /// stream under `seed` — served from the derivation cache when this
    /// session has one, freshly derived otherwise. Callers slice `[..len]`.
    fn raw_prefix(&self, seed: &Seed, len: usize) -> Arc<Vec<u64>> {
        match &self.cache {
            Some(cache) => cache.raw_prefix(self.config.rng_algorithm, seed, len),
            None => Arc::new(raw_u64_prefix(self.config.rng_algorithm, seed, len)),
        }
    }
}

/// Wall-time breakdown of one machine's protocol compute, in nanoseconds.
///
/// The engines sum these across machines into their session stats so
/// benchmark reports can separate randomness derivation (what the
/// [`DerivationCache`] elides) from the mask/fold/unmask kernels and the
/// third party's matrix merging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComputeStats {
    /// Producing randomness prefixes: negator parities, additive masks,
    /// alphabet offsets (cache-aware — hits cost almost nothing).
    pub derive_nanos: u64,
    /// Mask / fold / unmask kernels and CCM edit-distance evaluation.
    pub fold_unmask_nanos: u64,
    /// Folding completed attribute matrices into the merge accumulator and
    /// finishing the merged matrix (third party only).
    pub merge_nanos: u64,
}

impl ComputeStats {
    /// Element-wise accumulate.
    pub fn absorb(&mut self, other: &ComputeStats) {
        self.derive_nanos += other.derive_nanos;
        self.fold_unmask_nanos += other.fold_unmask_nanos;
        self.merge_nanos += other.merge_nanos;
    }
}

/// Result of advancing a machine by one step.
#[derive(Debug, Default)]
pub struct StepOutput {
    /// Envelopes the party wants transmitted, in order.
    pub outgoing: Vec<Envelope>,
    /// Whether the step did any work (delivered, emitted or completed
    /// something). Schedulers use this for stall detection.
    pub progressed: bool,
}

impl StepOutput {
    fn idle() -> Self {
        StepOutput::default()
    }

    fn emit(outgoing: Vec<Envelope>) -> Self {
        StepOutput {
            progressed: true,
            outgoing,
        }
    }
}

fn pair_tag(j: u32, k: u32) -> String {
    format!("{j}-{k}")
}

fn parse_pair_tag(tag: &str) -> Result<(u32, u32), CoreError> {
    let (j, k) = tag
        .split_once('-')
        .ok_or_else(|| CoreError::Protocol(format!("malformed pair tag '{tag}'")))?;
    Ok((
        j.parse()
            .map_err(|_| CoreError::Protocol(format!("malformed pair tag '{tag}'")))?,
        k.parse()
            .map_err(|_| CoreError::Protocol(format!("malformed pair tag '{tag}'")))?,
    ))
}

/// Splits `"numeric/{attr}/{j}-{k}/{kind}"`-shaped topics from the right so
/// attribute names containing `/` stay intact.
fn split_pair_topic(rest: &str) -> Result<(&str, &str, &str), CoreError> {
    let (rest, kind) = rest
        .rsplit_once('/')
        .ok_or_else(|| CoreError::Protocol(format!("malformed pair topic '{rest}'")))?;
    let (attr, tag) = rest
        .rsplit_once('/')
        .ok_or_else(|| CoreError::Protocol(format!("malformed pair topic '{rest}'")))?;
    Ok((attr, tag, kind))
}

fn attribute_index(schema: &Schema, name: &str) -> Result<usize, CoreError> {
    schema
        .attributes()
        .iter()
        .position(|a| a.name == name)
        .ok_or_else(|| CoreError::Protocol(format!("unknown attribute '{name}' in topic")))
}

// ---------------------------------------------------------------------------
// Data-holder machine
// ---------------------------------------------------------------------------

/// An unprompted emission a holder owes the protocol, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
enum HolderDuty {
    SendLocal { attribute: usize },
    SendCategorical { attribute: usize },
    InitiatePair { attribute: usize, responder: u32 },
    SendChoice,
}

/// The pairwise streams a holder emits, one row window at a time.
///
/// A window holds at most `chunk_rows` rows; with `chunk_rows: None` it
/// holds every remaining row, so the stream emits once, whole. The
/// attribute name, destination and (prefixed) topic are resolved once at
/// stream creation so the per-window hot path touches no session state.
#[derive(Debug)]
enum HolderStream {
    /// Responder of the batch numeric protocol: fold own rows against the
    /// (single) masked vector, one window at a time.
    NumericBatchResponse {
        attribute: String,
        topic: String,
        masked: Vec<i64>,
        negators: Vec<Negator>,
        own: Vec<i64>,
        next_row: usize,
    },
    /// Responder of the alphanumeric protocol: build and ship CCM bundles
    /// for a window of own strings at a time, from packed rows built once
    /// per masked-strings message.
    AlphaResponse {
        attribute: String,
        topic: String,
        rows: ResponderRows,
        alphabet_size: u32,
        next_row: usize,
    },
    /// Initiator of the per-pair numeric protocol: mask fresh copies of the
    /// own column, one window of responder rows at a time.
    PerPairInitiate {
        attribute: String,
        topic: String,
        responder: u32,
        values: Vec<i64>,
        rng_jk: DynStreamRng,
        rng_jt: DynStreamRng,
        next_row: usize,
        total_rows: usize,
    },
}

/// Per-`(attribute, initiator)` responder state for incoming per-pair
/// masked windows.
#[derive(Debug)]
struct PerPairResponderState {
    own: Vec<i64>,
    rng_jk: DynStreamRng,
    rows_done: usize,
}

/// One data holder as a non-blocking state machine.
#[derive(Debug)]
pub struct HolderMachine {
    ctx: SessionContext,
    holder: DataHolder,
    /// `(site, object_count)` for every holder, session order.
    site_sizes: Vec<(u32, usize)>,
    duties: VecDeque<HolderDuty>,
    streams: VecDeque<HolderStream>,
    per_pair_responses: HashMap<(usize, u32), PerPairResponderState>,
    published: Option<PublishedResultMsg>,
    done: bool,
    peak_rows: usize,
    compute: ComputeStats,
}

impl HolderMachine {
    /// Creates the machine for `holder` within a session covering
    /// `site_sizes` (session order).
    pub fn new(
        ctx: SessionContext,
        holder: DataHolder,
        site_sizes: &[(u32, usize)],
    ) -> Result<Self, CoreError> {
        holder.validate_schema(&ctx.schema)?;
        let me = holder.site();
        let my_pos = site_sizes
            .iter()
            .position(|&(s, _)| s == me)
            .ok_or_else(|| CoreError::Protocol(format!("holder {me} missing from site list")))?;
        let mut duties = VecDeque::new();
        for (attribute, descriptor) in ctx.schema.attributes().iter().enumerate() {
            match descriptor.kind {
                AttributeKind::Categorical => {
                    duties.push_back(HolderDuty::SendCategorical { attribute });
                }
                _ => {
                    duties.push_back(HolderDuty::SendLocal { attribute });
                    for &(responder, _) in site_sizes.iter().skip(my_pos + 1) {
                        duties.push_back(HolderDuty::InitiatePair {
                            attribute,
                            responder,
                        });
                    }
                }
            }
        }
        duties.push_back(HolderDuty::SendChoice);
        Ok(HolderMachine {
            ctx,
            holder,
            site_sizes: site_sizes.to_vec(),
            duties,
            streams: VecDeque::new(),
            per_pair_responses: HashMap::new(),
            published: None,
            done: false,
            peak_rows: 0,
            compute: ComputeStats::default(),
        })
    }

    /// The party this machine plays.
    pub fn party(&self) -> PartyId {
        PartyId::DataHolder(self.holder.site())
    }

    /// Whether the holder has received the published result.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The published result this holder received, once done — what a data
    /// holder process reports and prints in a multi-process deployment.
    pub fn published_result(&self) -> Option<&PublishedResultMsg> {
        self.published.as_ref()
    }

    /// Largest number of pairwise-block rows this machine ever held in one
    /// message buffer.
    pub fn peak_buffered_rows(&self) -> usize {
        self.peak_rows
    }

    /// Wall-time breakdown of this holder's protocol compute so far.
    pub fn compute_stats(&self) -> ComputeStats {
        self.compute
    }

    fn note_rows(&mut self, rows: usize) {
        self.peak_rows = self.peak_rows.max(rows);
    }

    fn site_len(&self, site: u32) -> Result<usize, CoreError> {
        self.site_sizes
            .iter()
            .find(|&&(s, _)| s == site)
            .map(|&(_, n)| n)
            .ok_or_else(|| CoreError::Protocol(format!("unknown site {site}")))
    }

    /// Advances the machine: delivers `incoming` if given, otherwise polls
    /// for the next pending emission.
    pub fn step(&mut self, incoming: Option<&Envelope>) -> Result<StepOutput, CoreError> {
        match incoming {
            Some(envelope) => self.deliver(envelope),
            None => self.poll(),
        }
    }

    fn poll(&mut self) -> Result<StepOutput, CoreError> {
        // Drain in-progress chunk streams before starting new duties: this
        // is the backpressure order (finish shipping what downstream is
        // already folding).
        if !self.streams.is_empty() {
            let envelope = self.advance_stream()?;
            return Ok(StepOutput::emit(vec![envelope]));
        }
        let Some(duty) = self.duties.pop_front() else {
            return Ok(StepOutput::idle());
        };
        let outgoing = match duty {
            HolderDuty::SendLocal { attribute } => vec![self.emit_local(attribute)?],
            HolderDuty::SendCategorical { attribute } => vec![self.emit_categorical(attribute)?],
            HolderDuty::InitiatePair {
                attribute,
                responder,
            } => vec![self.emit_initiate(attribute, responder)?],
            HolderDuty::SendChoice => vec![self.emit_choice()],
        };
        Ok(StepOutput::emit(outgoing))
    }

    fn emit_local(&mut self, attribute: usize) -> Result<Envelope, CoreError> {
        let descriptor = self.ctx.schema.attribute_at(attribute)?;
        let name = descriptor.name.clone();
        let local = local::local_dissimilarity(self.holder.partition().matrix(), attribute)?;
        let msg = LocalMatrixMsg {
            attribute: name.clone(),
            objects: local.len() as u32,
            condensed: local.condensed_values().to_vec(),
        };
        let topic = self
            .ctx
            .topic(&format!("local/{name}/{}", self.holder.site()));
        Ok(Envelope::new(
            self.party(),
            PartyId::ThirdParty,
            topic,
            msg.encode(),
        ))
    }

    fn emit_categorical(&mut self, attribute: usize) -> Result<Envelope, CoreError> {
        let descriptor = self.ctx.schema.attribute_at(attribute)?;
        let name = descriptor.name.clone();
        let values = self
            .holder
            .partition()
            .matrix()
            .categorical_column(attribute)?;
        let column = categorical::encrypt_column(&values, &self.holder.categorical_key());
        let msg = EncryptedColumnMsg {
            attribute: name.clone(),
            tags: column.tags.iter().map(|t| t.to_bytes()).collect(),
        };
        let topic = self.ctx.topic(&format!("categorical/{name}"));
        Ok(Envelope::new(
            self.party(),
            PartyId::ThirdParty,
            topic,
            msg.encode(),
        ))
    }

    fn emit_choice(&mut self) -> Envelope {
        let msg = ClusteringChoiceMsg {
            weights: self.ctx.request.weights.weights().to_vec(),
            num_clusters: self.ctx.request.num_clusters as u32,
            linkage: format!("{:?}", self.ctx.request.linkage).to_lowercase(),
        };
        Envelope::new(
            self.party(),
            PartyId::ThirdParty,
            self.ctx.topic("clustering-choice"),
            msg.encode(),
        )
    }

    fn emit_initiate(&mut self, attribute: usize, responder: u32) -> Result<Envelope, CoreError> {
        let descriptor = self.ctx.schema.attribute_at(attribute)?.clone();
        let name = descriptor.name.clone();
        let tag = pair_tag(self.holder.site(), responder);
        match descriptor.kind {
            AttributeKind::Numeric => {
                let codec = self.ctx.config.fixed_point;
                let algorithm = self.ctx.config.rng_algorithm;
                let values = codec
                    .encode_column(&self.holder.partition().matrix().numeric_column(attribute)?)?;
                let seeds = self.holder.pairwise_seeds(responder, &name)?;
                if self.ctx.config.numeric_mode == NumericMode::PerPair {
                    // Per-pair initiation: fresh masked copies, one per
                    // responder object, generated window by window.
                    let topic = self
                        .ctx
                        .stream_topic(&format!("numeric/{name}/{tag}/masked"));
                    self.streams.push_back(HolderStream::PerPairInitiate {
                        attribute: name,
                        topic,
                        responder,
                        values,
                        rng_jk: DynStreamRng::new(algorithm, &seeds.holder_holder),
                        rng_jt: DynStreamRng::new(algorithm, &seeds.holder_third_party),
                        next_row: 0,
                        total_rows: self.site_len(responder)?,
                    });
                    return self.advance_stream();
                }
                let n = values.len();
                let started = Instant::now();
                let raw_jk = self.ctx.raw_prefix(&seeds.holder_holder, n);
                let raw_jt = self.ctx.raw_prefix(&seeds.holder_third_party, n);
                self.compute.derive_nanos += started.elapsed().as_nanos() as u64;
                let started = Instant::now();
                let masked =
                    numeric::initiator_mask_with_prefixes(&values, &raw_jk[..n], &raw_jt[..n]);
                self.compute.fold_unmask_nanos += started.elapsed().as_nanos() as u64;
                let block = PairwiseBlock::new(1, n, masked)?;
                self.note_rows(block.rows());
                let msg = MaskedNumericMsg {
                    attribute: name.clone(),
                    block,
                };
                let topic = self.ctx.topic(&format!("numeric/{name}/{tag}/masked"));
                Ok(Envelope::new(
                    self.party(),
                    PartyId::DataHolder(responder),
                    topic,
                    msg.encode(),
                ))
            }
            AttributeKind::Alphanumeric => {
                let alphabet = descriptor.require_alphabet()?.clone();
                let encoded: Vec<Vec<u32>> = self
                    .holder
                    .partition()
                    .matrix()
                    .string_column(attribute)?
                    .iter()
                    .map(|s| alphabet.encode(s))
                    .collect::<Result<_, _>>()?;
                let seeds = self.holder.pairwise_seeds(responder, &name)?;
                let max_len = encoded.iter().map(Vec::len).max().unwrap_or(0);
                let started = Instant::now();
                let raw = self.ctx.raw_prefix(&seeds.holder_third_party, max_len);
                let offsets = offsets_from_raw(&raw[..max_len], alphabet.size());
                self.compute.derive_nanos += started.elapsed().as_nanos() as u64;
                let started = Instant::now();
                let masked = alphanumeric::initiator_mask_strings_with_offsets(
                    &encoded,
                    alphabet.size(),
                    &offsets,
                )?;
                self.compute.fold_unmask_nanos += started.elapsed().as_nanos() as u64;
                let msg = MaskedStringsMsg {
                    attribute: name.clone(),
                    strings: masked,
                };
                let topic = self.ctx.topic(&format!("alphanumeric/{name}/{tag}/masked"));
                Ok(Envelope::new(
                    self.party(),
                    PartyId::DataHolder(responder),
                    topic,
                    msg.encode(alphabet.size()),
                ))
            }
            AttributeKind::Categorical => Err(CoreError::Protocol(
                "categorical attributes have no pairwise protocol".into(),
            )),
        }
    }

    /// Emits the next window of the front stream, popping the stream after
    /// its last. Streams carry their resolved attribute name and topic, so
    /// this hot path touches no session state beyond the window's size and
    /// layout.
    fn advance_stream(&mut self) -> Result<Envelope, CoreError> {
        let party = PartyId::DataHolder(self.holder.site());
        let stream = self
            .streams
            .front_mut()
            .expect("advance_stream requires a stream");
        let (envelope, rows, finished) = match stream {
            HolderStream::NumericBatchResponse {
                attribute,
                topic,
                masked,
                negators,
                own,
                next_row,
            } => {
                let total = own.len();
                let rows = self.ctx.window_rows(total - *next_row);
                let started = Instant::now();
                let values = numeric::responder_fold_window(
                    masked,
                    &own[*next_row..*next_row + rows],
                    negators,
                );
                self.compute.fold_unmask_nanos += started.elapsed().as_nanos() as u64;
                let msg = PairwiseChunkMsg {
                    attribute: attribute.clone(),
                    start_row: *next_row as u32,
                    rows: rows as u32,
                    total_rows: total as u32,
                    cols: masked.len() as u32,
                    values,
                };
                *next_row += rows;
                (
                    Envelope::new(
                        party,
                        PartyId::ThirdParty,
                        topic.clone(),
                        self.ctx.encode_window(&msg),
                    ),
                    rows,
                    *next_row >= total,
                )
            }
            HolderStream::AlphaResponse {
                attribute,
                topic,
                rows: packed_rows,
                alphabet_size,
                next_row,
            } => {
                let total = packed_rows.own_count();
                let rows = self.ctx.window_rows(total - *next_row);
                let started = Instant::now();
                let bundle = packed_rows.bundle(*next_row..*next_row + rows);
                self.compute.fold_unmask_nanos += started.elapsed().as_nanos() as u64;
                let msg = CcmChunkMsg {
                    attribute: attribute.clone(),
                    start_row: *next_row as u32,
                    total_rows: total as u32,
                    window: bundle,
                };
                let payload = match self.ctx.chunk_rows {
                    None => msg.encode_whole(*alphabet_size),
                    Some(_) => msg.encode(*alphabet_size),
                };
                *next_row += rows;
                (
                    Envelope::new(party, PartyId::ThirdParty, topic.clone(), payload),
                    rows,
                    *next_row >= total,
                )
            }
            HolderStream::PerPairInitiate {
                attribute,
                topic,
                responder,
                values,
                rng_jk,
                rng_jt,
                next_row,
                total_rows,
            } => {
                let rows = self.ctx.window_rows(*total_rows - *next_row);
                let started = Instant::now();
                let chunk = numeric::initiator_mask_per_pair_window(values, rows, rng_jk, rng_jt);
                self.compute.fold_unmask_nanos += started.elapsed().as_nanos() as u64;
                let msg = PairwiseChunkMsg {
                    attribute: attribute.clone(),
                    start_row: *next_row as u32,
                    rows: rows as u32,
                    total_rows: *total_rows as u32,
                    cols: values.len() as u32,
                    values: chunk,
                };
                *next_row += rows;
                (
                    Envelope::new(
                        party,
                        PartyId::DataHolder(*responder),
                        topic.clone(),
                        self.ctx.encode_window(&msg),
                    ),
                    rows,
                    *next_row >= *total_rows,
                )
            }
        };
        self.note_rows(rows);
        if finished {
            self.streams.pop_front();
        }
        Ok(envelope)
    }

    fn deliver(&mut self, envelope: &Envelope) -> Result<StepOutput, CoreError> {
        let topic = self.ctx.step_of(&envelope.topic)?;
        if topic == "published-result" {
            self.published = Some(PublishedResultMsg::decode(&envelope.payload)?);
            self.done = true;
            return Ok(StepOutput {
                outgoing: Vec::new(),
                progressed: true,
            });
        }
        if let Some(rest) = topic.strip_prefix("numeric/") {
            let (attr, tag, kind) = split_pair_topic(rest)?;
            let attribute = attribute_index(&self.ctx.schema, attr)?;
            let (j, _k) = parse_pair_tag(tag)?;
            let payload = &envelope.payload;
            return match (self.ctx.config.numeric_mode, kind) {
                (NumericMode::Batch, "masked") => {
                    self.respond_numeric(attribute, j, MaskedNumericMsg::decode(payload)?)
                }
                (NumericMode::PerPair, "masked") => {
                    self.respond_per_pair(attribute, j, MaskedNumericMsg::decode(payload)?.into())
                }
                (NumericMode::PerPair, "masked-chunk") => {
                    self.respond_per_pair(attribute, j, PairwiseChunkMsg::decode(payload)?)
                }
                (mode, other) => Err(CoreError::Protocol(format!(
                    "holder received unexpected numeric topic kind '{other}' in {mode:?} mode"
                ))),
            };
        }
        if let Some(rest) = topic.strip_prefix("alphanumeric/") {
            let (attr, tag, kind) = split_pair_topic(rest)?;
            let attribute = attribute_index(&self.ctx.schema, attr)?;
            let (j, _k) = parse_pair_tag(tag)?;
            if kind != "masked" {
                return Err(CoreError::Protocol(format!(
                    "holder received unexpected alphanumeric topic kind '{kind}'"
                )));
            }
            return self.respond_alphanumeric(attribute, j, envelope);
        }
        Err(CoreError::Protocol(format!(
            "holder {} received unexpected topic '{}'",
            self.holder.site(),
            envelope.topic
        )))
    }

    /// Responder role for the batch numeric protocol: keeps the masked
    /// vector and folds own rows against it, one window at a time.
    fn respond_numeric(
        &mut self,
        attribute: usize,
        initiator: u32,
        masked: MaskedNumericMsg,
    ) -> Result<StepOutput, CoreError> {
        // The negators and every folded row are sized by the initiator's
        // object count, so refuse any other shape before deriving anything.
        let cols = self.site_len(initiator)?;
        if (masked.block.rows(), masked.block.cols()) != (1, cols) {
            return Err(CoreError::Protocol(format!(
                "masked vector from site {initiator} is {}×{}, expected 1×{cols}",
                masked.block.rows(),
                masked.block.cols()
            )));
        }
        let descriptor = self.ctx.schema.attribute_at(attribute)?;
        let name = descriptor.name.clone();
        let codec = self.ctx.config.fixed_point;
        let own =
            codec.encode_column(&self.holder.partition().matrix().numeric_column(attribute)?)?;
        let responder_seed = self.holder.responder_seed(initiator, &name)?;
        let started = Instant::now();
        let raw = self.ctx.raw_prefix(&responder_seed, cols);
        let negators = negators_from_raw(&raw[..cols]);
        self.compute.derive_nanos += started.elapsed().as_nanos() as u64;
        let topic = self.ctx.stream_topic(&format!(
            "numeric/{name}/{}/pairwise",
            pair_tag(initiator, self.holder.site())
        ));
        self.streams.push_back(HolderStream::NumericBatchResponse {
            attribute: name,
            topic,
            masked: masked.block.into_values(),
            negators,
            own,
            next_row: 0,
        });
        let envelope = self.advance_stream()?;
        Ok(StepOutput::emit(vec![envelope]))
    }

    /// Responder role for the per-pair numeric protocol: folds one window
    /// of masked copies (a whole block is the window of all of them) with
    /// the persistent `rng_JK` stream and forwards it at once.
    fn respond_per_pair(
        &mut self,
        attribute: usize,
        initiator: u32,
        window: PairwiseChunkMsg,
    ) -> Result<StepOutput, CoreError> {
        let descriptor = self.ctx.schema.attribute_at(attribute)?;
        let name = descriptor.name.clone();
        let codec = self.ctx.config.fixed_point;
        let algorithm = self.ctx.config.rng_algorithm;
        if window.cols as usize != self.site_len(initiator)? {
            return Err(CoreError::Protocol(format!(
                "masked stream from site {initiator} declares {} columns, expected {}",
                window.cols,
                self.site_len(initiator)?
            )));
        }
        let key = (attribute, initiator);
        if !self.per_pair_responses.contains_key(&key) {
            let own = codec
                .encode_column(&self.holder.partition().matrix().numeric_column(attribute)?)?;
            let responder_seed = self.holder.responder_seed(initiator, &name)?;
            self.per_pair_responses.insert(
                key,
                PerPairResponderState {
                    own,
                    rng_jk: DynStreamRng::new(algorithm, &responder_seed),
                    rows_done: 0,
                },
            );
        }
        let state = self.per_pair_responses.get_mut(&key).expect("inserted");
        if window.start_row as usize != state.rows_done {
            return Err(CoreError::Protocol(format!(
                "masked chunk for rows {}.. arrived after {} rows",
                window.start_row, state.rows_done
            )));
        }
        if window.total_rows as usize != state.own.len() {
            return Err(CoreError::Protocol(format!(
                "per-pair masked stream declares {} rows for {} responder objects",
                window.total_rows,
                state.own.len()
            )));
        }
        let rows = window.rows();
        let own_window = &state.own[state.rows_done..state.rows_done + rows];
        let started = Instant::now();
        let folded = numeric::responder_fold_per_pair_window(
            &window.values,
            window.cols as usize,
            own_window,
            &mut state.rng_jk,
        )?;
        self.compute.fold_unmask_nanos += started.elapsed().as_nanos() as u64;
        state.rows_done += rows;
        let finished = state.rows_done >= state.own.len();
        let total = state.own.len();
        if finished {
            self.per_pair_responses.remove(&key);
        }
        self.note_rows(rows);
        let msg = PairwiseChunkMsg {
            attribute: name.clone(),
            start_row: window.start_row,
            rows: rows as u32,
            total_rows: total as u32,
            cols: window.cols,
            values: folded,
        };
        let topic = self.ctx.stream_topic(&format!(
            "numeric/{name}/{}/pairwise",
            pair_tag(initiator, self.holder.site())
        ));
        Ok(StepOutput::emit(vec![Envelope::new(
            self.party(),
            PartyId::ThirdParty,
            topic,
            self.ctx.encode_window(&msg),
        )]))
    }

    /// Responder role for the alphanumeric protocol: builds the packed rows
    /// once and ships the CCM bundle one window of own strings at a time.
    fn respond_alphanumeric(
        &mut self,
        attribute: usize,
        initiator: u32,
        envelope: &Envelope,
    ) -> Result<StepOutput, CoreError> {
        let descriptor = self.ctx.schema.attribute_at(attribute)?;
        let name = descriptor.name.clone();
        let alphabet = descriptor.require_alphabet()?.clone();
        let masked = MaskedStringsMsg::decode(&envelope.payload, alphabet.size())?;
        let own: Vec<Vec<u32>> = self
            .holder
            .partition()
            .matrix()
            .string_column(attribute)?
            .iter()
            .map(|s| alphabet.encode(s))
            .collect::<Result<_, _>>()?;
        let started = Instant::now();
        let rows = ResponderRows::new(&masked.strings, &own, alphabet.size())?;
        self.compute.fold_unmask_nanos += started.elapsed().as_nanos() as u64;
        let topic = self.ctx.stream_topic(&format!(
            "alphanumeric/{name}/{}/ccms",
            pair_tag(initiator, self.holder.site())
        ));
        self.streams.push_back(HolderStream::AlphaResponse {
            attribute: name,
            topic,
            rows,
            alphabet_size: alphabet.size(),
            next_row: 0,
        });
        let envelope = self.advance_stream()?;
        Ok(StepOutput::emit(vec![envelope]))
    }
}

// ---------------------------------------------------------------------------
// Third-party machine
// ---------------------------------------------------------------------------

/// Progress of one in-flight pairwise stream at the third party.
#[derive(Debug)]
struct PairProgress {
    rows_done: usize,
    /// Batch mode: the reusable additive-mask prefix.
    masks: Option<Arc<Vec<u64>>>,
    /// Per-pair mode: the sequential unmasking stream.
    rng_jt: Option<DynStreamRng>,
}

/// Per-attribute construction state at the third party.
#[derive(Debug)]
struct AttrProgress {
    /// Pairwise kinds: the global accumulator being filled.
    matrix: Option<CondensedDistanceMatrix>,
    /// Categorical: buffered encrypted columns until all sites reported.
    columns: BTreeMap<usize, Vec<Tag128>>,
    locals_pending: usize,
    pairs_pending: usize,
    pairs: HashMap<(u32, u32), PairProgress>,
    /// Sites whose local matrix has been folded (duplicate rejection).
    locals_received: BTreeSet<u32>,
    /// Pairs whose cross-site block has completed (duplicate rejection).
    pairs_done: BTreeSet<(u32, u32)>,
    complete: bool,
}

/// The third party as a non-blocking state machine.
///
/// Folds every local matrix, encrypted column and pairwise block (or
/// chunk) into per-attribute accumulators as they arrive; when an
/// attribute completes it is folded straight into the final-matrix
/// accumulator and dropped (bounded memory). Once every attribute is
/// complete and every holder's clustering choice has arrived, the machine
/// clusters and publishes.
#[derive(Debug)]
pub struct ThirdPartyMachine {
    ctx: SessionContext,
    keys: ThirdPartyKeys,
    index: ObjectIndex,
    site_sizes: Vec<(u32, usize)>,
    /// Canonical initiation pairs (earlier site-list position initiates to
    /// later), the only pair tags the machine accepts: a transposed tag
    /// would otherwise bypass deduplication and fold into wrong ranges.
    expected_pairs: BTreeSet<(u32, u32)>,
    attrs: Vec<AttrProgress>,
    /// Completed attribute matrices not yet folded, keyed by
    /// attribute index (attributes can complete slightly out of schema
    /// order under concurrent scheduling; folds stay in schema order so
    /// float summation matches the batch merge exactly).
    finished: BTreeMap<usize, CondensedDistanceMatrix>,
    next_fold: usize,
    merge: MergeAccumulator,
    agreed: Option<ClusteringRequest>,
    /// Sites whose clustering choice has arrived (duplicate rejection: the
    /// all-holders gate must count distinct holders, not messages).
    choice_sites: BTreeSet<u32>,
    outcome: Option<(ClusteringResult, DissimilarityMatrix)>,
    publish_pending: bool,
    done: bool,
    peak_rows: usize,
    compute: ComputeStats,
}

impl ThirdPartyMachine {
    /// Creates the machine for a session covering `site_sizes` (session
    /// order).
    pub fn new(
        ctx: SessionContext,
        keys: ThirdPartyKeys,
        site_sizes: &[(u32, usize)],
    ) -> Result<Self, CoreError> {
        // The streaming path indexes the weight vector by attribute as each
        // attribute completes; reject a malformed request up front instead
        // of mid-protocol.
        ctx.request.weights.validate_for(&ctx.schema)?;
        let index = ObjectIndex::from_site_sizes(site_sizes);
        if index.is_empty() {
            return Err(CoreError::EmptyInput);
        }
        let holder_count = site_sizes.len();
        let pair_count = holder_count * (holder_count - 1) / 2;
        let mut expected_pairs = BTreeSet::new();
        for (i, &(initiator, _)) in site_sizes.iter().enumerate() {
            for &(responder, _) in site_sizes.iter().skip(i + 1) {
                expected_pairs.insert((initiator, responder));
            }
        }
        let attrs = ctx
            .schema
            .attributes()
            .iter()
            .map(|d| AttrProgress {
                matrix: match d.kind {
                    AttributeKind::Categorical => None,
                    _ => Some(CondensedDistanceMatrix::zeros(index.len())),
                },
                columns: BTreeMap::new(),
                locals_pending: holder_count,
                pairs_pending: pair_count,
                pairs: HashMap::new(),
                locals_received: BTreeSet::new(),
                pairs_done: BTreeSet::new(),
                complete: false,
            })
            .collect();
        let n = index.len();
        Ok(ThirdPartyMachine {
            ctx,
            keys,
            index,
            site_sizes: site_sizes.to_vec(),
            expected_pairs,
            attrs,
            finished: BTreeMap::new(),
            next_fold: 0,
            merge: MergeAccumulator::new(n),
            agreed: None,
            choice_sites: BTreeSet::new(),
            outcome: None,
            publish_pending: false,
            done: false,
            peak_rows: 0,
            compute: ComputeStats::default(),
        })
    }

    /// The party this machine plays.
    pub fn party(&self) -> PartyId {
        PartyId::ThirdParty
    }

    /// Whether the result has been published.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Largest number of pairwise-block rows ever buffered in one message.
    pub fn peak_buffered_rows(&self) -> usize {
        self.peak_rows
    }

    /// Wall-time breakdown of this third party's protocol compute so far.
    pub fn compute_stats(&self) -> ComputeStats {
        self.compute
    }

    /// The clustering outcome, once computed.
    pub fn outcome(&self) -> Option<&(ClusteringResult, DissimilarityMatrix)> {
        self.outcome.as_ref()
    }

    /// Consumes the machine, returning the result and the final matrix.
    pub fn into_outcome(self) -> Result<(ClusteringResult, DissimilarityMatrix), CoreError> {
        self.outcome
            .ok_or_else(|| CoreError::Protocol("third party has not finished clustering".into()))
    }

    fn note_rows(&mut self, rows: usize) {
        self.peak_rows = self.peak_rows.max(rows);
    }

    fn holder_pos(&self, site: u32) -> Result<usize, CoreError> {
        self.site_sizes
            .iter()
            .position(|&(s, _)| s == site)
            .ok_or_else(|| CoreError::Protocol(format!("unknown site {site}")))
    }

    /// Advances the machine: delivers `incoming` if given, otherwise polls
    /// (which emits the published results once clustering is done).
    pub fn step(&mut self, incoming: Option<&Envelope>) -> Result<StepOutput, CoreError> {
        match incoming {
            Some(envelope) => {
                self.deliver(envelope)?;
                Ok(StepOutput {
                    outgoing: Vec::new(),
                    progressed: true,
                })
            }
            None => self.poll(),
        }
    }

    fn poll(&mut self) -> Result<StepOutput, CoreError> {
        if !self.publish_pending {
            return Ok(StepOutput::idle());
        }
        self.publish_pending = false;
        let (result, _) = self.outcome.as_ref().expect("publish implies outcome");
        let publish = PublishedResultMsg {
            clusters: result
                .clusters
                .iter()
                .map(|members| {
                    members
                        .iter()
                        .map(|o| (o.site, o.local_index as u32))
                        .collect()
                })
                .collect(),
            average_within_cluster_squared_distance: result.average_within_cluster_squared_distance,
        };
        let payload = publish.encode();
        let topic = self.ctx.topic("published-result");
        let outgoing = self
            .site_sizes
            .iter()
            .map(|&(site, _)| {
                Envelope::new(
                    self.party(),
                    PartyId::DataHolder(site),
                    topic.clone(),
                    payload.clone(),
                )
            })
            .collect();
        self.done = true;
        Ok(StepOutput::emit(outgoing))
    }

    fn deliver(&mut self, envelope: &Envelope) -> Result<(), CoreError> {
        let topic = self.ctx.step_of(&envelope.topic)?;
        if topic == "clustering-choice" {
            let site = match envelope.from {
                PartyId::DataHolder(site) => site,
                PartyId::ThirdParty => {
                    return Err(CoreError::Protocol(
                        "third party cannot send itself a clustering choice".into(),
                    ))
                }
            };
            if !self.site_sizes.iter().any(|&(s, _)| s == site) {
                return Err(CoreError::Protocol(format!(
                    "clustering choice from unknown site {site}"
                )));
            }
            let decoded = ClusteringChoiceMsg::decode(&envelope.payload)?;
            self.agreed = Some(ClusteringRequest {
                weights: WeightVector::new(decoded.weights.clone())?,
                linkage: parse_linkage(&decoded.linkage)?,
                num_clusters: decoded.num_clusters as usize,
            });
            if !self.choice_sites.insert(site) {
                return Err(CoreError::Protocol(format!(
                    "site {site} sent its clustering choice twice"
                )));
            }
            return self.try_cluster();
        }
        if let Some(attr_name) = topic.strip_prefix("categorical/") {
            let attribute = attribute_index(&self.ctx.schema, attr_name)?;
            return self.on_categorical(attribute, envelope);
        }
        if let Some(rest) = topic.strip_prefix("local/") {
            let (attr_name, site) = rest
                .rsplit_once('/')
                .ok_or_else(|| CoreError::Protocol(format!("malformed local topic '{rest}'")))?;
            let site: u32 = site
                .parse()
                .map_err(|_| CoreError::Protocol(format!("malformed local topic '{rest}'")))?;
            let attribute = attribute_index(&self.ctx.schema, attr_name)?;
            return self.on_local(attribute, site, envelope);
        }
        if let Some(rest) = topic.strip_prefix("numeric/") {
            let (attr_name, tag, kind) = split_pair_topic(rest)?;
            let attribute = attribute_index(&self.ctx.schema, attr_name)?;
            let pair = parse_pair_tag(tag)?;
            self.check_expected_pair(pair)?;
            let window = match kind {
                "pairwise" => PairwiseMatrixMsg::decode(&envelope.payload)?.into(),
                "pairwise-chunk" => PairwiseChunkMsg::decode(&envelope.payload)?,
                other => {
                    return Err(CoreError::Protocol(format!(
                        "third party received unexpected numeric topic kind '{other}'"
                    )))
                }
            };
            return self.on_numeric(attribute, pair, window);
        }
        if let Some(rest) = topic.strip_prefix("alphanumeric/") {
            let (attr_name, tag, kind) = split_pair_topic(rest)?;
            let attribute = attribute_index(&self.ctx.schema, attr_name)?;
            let pair = parse_pair_tag(tag)?;
            self.check_expected_pair(pair)?;
            let descriptor = self.ctx.schema.attribute_at(attribute)?;
            let size = descriptor.require_alphabet()?.size();
            let window = match kind {
                "ccms" => CcmBundleMsg::decode(&envelope.payload, size)?.into(),
                "ccms-chunk" => CcmChunkMsg::decode(&envelope.payload, size)?,
                other => {
                    return Err(CoreError::Protocol(format!(
                        "third party received unexpected alphanumeric topic kind '{other}'"
                    )))
                }
            };
            return self.on_alpha(attribute, pair, window);
        }
        Err(CoreError::Protocol(format!(
            "third party received unexpected topic '{}'",
            envelope.topic
        )))
    }

    fn on_categorical(&mut self, attribute: usize, envelope: &Envelope) -> Result<(), CoreError> {
        let decoded = EncryptedColumnMsg::decode(&envelope.payload)?;
        let site = match envelope.from {
            PartyId::DataHolder(site) => site,
            PartyId::ThirdParty => {
                return Err(CoreError::Protocol(
                    "third party cannot send itself a categorical column".into(),
                ))
            }
        };
        let pos = self.holder_pos(site)?;
        let tags: Vec<Tag128> = decoded
            .tags
            .iter()
            .map(|raw| Tag128 {
                lo: u64::from_le_bytes(raw[0..8].try_into().expect("16-byte tag")),
                hi: u64::from_le_bytes(raw[8..16].try_into().expect("16-byte tag")),
            })
            .collect();
        let attr = &mut self.attrs[attribute];
        if attr.complete || attr.columns.insert(pos, tags).is_some() {
            return Err(CoreError::Protocol(format!(
                "site {site} sent its encrypted column twice for attribute {attribute}"
            )));
        }
        if attr.columns.len() == self.site_sizes.len() {
            let columns: Vec<categorical::EncryptedColumn> = attr
                .columns
                .values()
                .map(|tags| categorical::EncryptedColumn { tags: tags.clone() })
                .collect();
            let matrix = categorical::third_party_dissimilarity(&columns)?;
            attr.columns.clear();
            attr.complete = true;
            self.finish_attribute(attribute, matrix)?;
        }
        Ok(())
    }

    fn on_local(
        &mut self,
        attribute: usize,
        site: u32,
        envelope: &Envelope,
    ) -> Result<(), CoreError> {
        let decoded = LocalMatrixMsg::decode(&envelope.payload)?;
        let local =
            CondensedDistanceMatrix::from_condensed(decoded.objects as usize, decoded.condensed)?;
        let range = self.index.site_range(site)?;
        if range.len() != local.len() {
            return Err(CoreError::Protocol(format!(
                "site {site} sent a local matrix over {} objects, expected {}",
                local.len(),
                range.len()
            )));
        }
        let attr = &mut self.attrs[attribute];
        let matrix = attr
            .matrix
            .as_mut()
            .ok_or_else(|| CoreError::Protocol("local matrix for categorical attribute".into()))?;
        for i in 1..local.len() {
            for j in 0..i {
                matrix.set(range.start + i, range.start + j, local.get(i, j));
            }
        }
        if !attr.locals_received.insert(site) {
            return Err(CoreError::Protocol(format!(
                "site {site} sent its local matrix twice for attribute {attribute}"
            )));
        }
        attr.locals_pending -= 1;
        self.check_pairwise_attr_complete(attribute)
    }

    /// Folds a decoded rectangular block of distances (responder rows ×
    /// initiator columns) into the attribute accumulator at `start_row`.
    fn fold_pair_rows(
        &mut self,
        attribute: usize,
        pair: (u32, u32),
        start_row: usize,
        cols: usize,
        values: &[f64],
    ) -> Result<(), CoreError> {
        let (j, k) = pair;
        let range_j = self.index.site_range(j)?;
        let range_k = self.index.site_range(k)?;
        let attr = &mut self.attrs[attribute];
        let matrix = attr
            .matrix
            .as_mut()
            .ok_or_else(|| CoreError::Protocol("pairwise rows for categorical attribute".into()))?;
        matrix
            .set_block(range_k.start + start_row, range_j.start, cols, values)
            .map_err(CoreError::from)
    }

    fn site_len(&self, site: u32) -> Result<usize, CoreError> {
        self.site_sizes
            .iter()
            .find(|&&(s, _)| s == site)
            .map(|&(_, n)| n)
            .ok_or_else(|| CoreError::Protocol(format!("unknown site {site}")))
    }

    /// Rejects pair tags that are not canonical initiations (earlier
    /// site-list position → later): a transposed or self-referential tag
    /// would bypass per-pair bookkeeping and fold into wrong ranges.
    fn check_expected_pair(&self, pair: (u32, u32)) -> Result<(), CoreError> {
        if self.expected_pairs.contains(&pair) {
            Ok(())
        } else {
            Err(CoreError::Protocol(format!(
                "unexpected pair tag {}-{}: not a canonical initiation pair",
                pair.0, pair.1
            )))
        }
    }

    /// Admits the window at `start_row` of `pair`'s stream for `attribute`
    /// (a whole message is its stream's window `[0, total)`) before anything
    /// is derived for it or sized by it: the stream must cover the session's
    /// `|DH_K| × |DH_J|` objects — a wrong count would scatter into the
    /// wrong cross-block, desynchronise the batch mask prefix, or size the
    /// CCM kernel by an untrusted product — the pair must not have
    /// completed already, and the window must be the stream's next one.
    fn admit_window(
        &mut self,
        attribute: usize,
        pair: (u32, u32),
        stream: &str,
        (total_rows, cols): (usize, usize),
        start_row: usize,
    ) -> Result<(), CoreError> {
        let expected = (self.site_len(pair.1)?, self.site_len(pair.0)?);
        if (total_rows, cols) != expected {
            return Err(CoreError::Protocol(format!(
                "{stream} stream for pair {}-{} covers {total_rows}×{cols} objects, expected {}×{}",
                pair.0, pair.1, expected.0, expected.1
            )));
        }
        let attr = &mut self.attrs[attribute];
        if attr.pairs_done.contains(&pair) {
            return Err(CoreError::Protocol(format!(
                "duplicate pairwise result {}-{} for attribute {attribute}",
                pair.0, pair.1
            )));
        }
        let progress = attr.pairs.entry(pair).or_insert_with(|| PairProgress {
            rows_done: 0,
            masks: None,
            rng_jt: None,
        });
        if start_row != progress.rows_done {
            return Err(CoreError::Protocol(format!(
                "{stream} window for rows {start_row}.. arrived after {} rows",
                progress.rows_done
            )));
        }
        Ok(())
    }

    fn complete_pair(&mut self, attribute: usize, pair: (u32, u32)) -> Result<(), CoreError> {
        let attr = &mut self.attrs[attribute];
        attr.pairs_done.insert(pair);
        attr.pairs.remove(&pair);
        attr.pairs_pending -= 1;
        self.check_pairwise_attr_complete(attribute)
    }

    /// Unmasks one window of a numeric pairwise stream and folds it.
    fn on_numeric(
        &mut self,
        attribute: usize,
        pair: (u32, u32),
        window: PairwiseChunkMsg,
    ) -> Result<(), CoreError> {
        let shape = (window.total_rows as usize, window.cols as usize);
        self.admit_window(
            attribute,
            pair,
            "pairwise",
            shape,
            window.start_row as usize,
        )?;
        let descriptor = self.ctx.schema.attribute_at(attribute)?;
        let tp_seed = self.keys.seed_for(pair.0, &descriptor.name)?;
        let codec = self.ctx.config.fixed_point;
        let algorithm = self.ctx.config.rng_algorithm;
        let cols = shape.1;
        let progress = self.attrs[attribute]
            .pairs
            .get_mut(&pair)
            .expect("an admitted window has progress");
        let unmasked: Vec<u64> = match self.ctx.config.numeric_mode {
            NumericMode::Batch => {
                if progress.masks.is_none() {
                    let started = Instant::now();
                    progress.masks = Some(self.ctx.raw_prefix(&tp_seed, cols));
                    self.compute.derive_nanos += started.elapsed().as_nanos() as u64;
                }
                let masks = progress.masks.as_ref().expect("just ensured");
                let started = Instant::now();
                let unmasked = numeric::third_party_unmask_window(&window.values, &masks[..cols]);
                self.compute.fold_unmask_nanos += started.elapsed().as_nanos() as u64;
                unmasked
            }
            NumericMode::PerPair => {
                let rng = progress
                    .rng_jt
                    .get_or_insert_with(|| DynStreamRng::new(algorithm, &tp_seed));
                let started = Instant::now();
                let unmasked = numeric::third_party_unmask_per_pair_window(&window.values, rng);
                self.compute.fold_unmask_nanos += started.elapsed().as_nanos() as u64;
                unmasked
            }
        };
        progress.rows_done += window.rows();
        let finished = progress.rows_done >= shape.0;
        let decoded: Vec<f64> = unmasked.iter().map(|&d| codec.decode_distance(d)).collect();
        self.note_rows(window.rows());
        self.fold_pair_rows(attribute, pair, window.start_row as usize, cols, &decoded)?;
        if finished {
            self.complete_pair(attribute, pair)?;
        }
        Ok(())
    }

    /// Recovers the edit distances of one window of a CCM stream and folds
    /// them.
    fn on_alpha(
        &mut self,
        attribute: usize,
        pair: (u32, u32),
        window: CcmChunkMsg,
    ) -> Result<(), CoreError> {
        let shape = (window.total_rows as usize, window.window.initiator_count());
        self.admit_window(attribute, pair, "CCM", shape, window.start_row as usize)?;
        let descriptor = self.ctx.schema.attribute_at(attribute)?;
        let size = descriptor.require_alphabet()?.size();
        let tp_seed = self.keys.seed_for(pair.0, &descriptor.name)?;
        let rows = window.rows();
        let progress = self.attrs[attribute]
            .pairs
            .get_mut(&pair)
            .expect("an admitted window has progress");
        progress.rows_done += rows;
        let finished = progress.rows_done >= shape.0;
        // The offset prefix is a fixed stream prefix, so unmasking a window
        // of CCMs draws exactly the same offsets as unmasking the whole
        // bundle would.
        let max_cols = window.window.max_initiator_len();
        let started = Instant::now();
        let raw = self.ctx.raw_prefix(&tp_seed, max_cols);
        let offsets = offsets_from_raw(&raw[..max_cols], size);
        self.compute.derive_nanos += started.elapsed().as_nanos() as u64;
        let started = Instant::now();
        let distances =
            alphanumeric::third_party_edit_distances_with_offsets(&window.window, size, &offsets)?;
        self.compute.fold_unmask_nanos += started.elapsed().as_nanos() as u64;
        self.note_rows(rows);
        let decoded = distances.map(|&d| f64::from(d));
        self.fold_pair_rows(
            attribute,
            pair,
            window.start_row as usize,
            decoded.cols(),
            decoded.values(),
        )?;
        if finished {
            self.complete_pair(attribute, pair)?;
        }
        Ok(())
    }

    fn check_pairwise_attr_complete(&mut self, attribute: usize) -> Result<(), CoreError> {
        let attr = &mut self.attrs[attribute];
        if attr.complete || attr.locals_pending > 0 || attr.pairs_pending > 0 {
            return Ok(());
        }
        attr.complete = true;
        let matrix = attr.matrix.take().expect("pairwise attribute has a matrix");
        self.finish_attribute(attribute, matrix)
    }

    /// Folds a completed attribute matrix, then checks whether clustering
    /// can start.
    fn finish_attribute(
        &mut self,
        attribute: usize,
        matrix: CondensedDistanceMatrix,
    ) -> Result<(), CoreError> {
        // Fold strictly in schema order so the float accumulation matches
        // the batch merge bit for bit.
        self.finished.insert(attribute, matrix);
        let started = Instant::now();
        while let Some(matrix) = self.finished.remove(&self.next_fold) {
            let weight = self.ctx.request.weights.weights()[self.next_fold];
            push_normalized(&mut self.merge, &matrix, weight)?;
            self.next_fold += 1;
        }
        self.compute.merge_nanos += started.elapsed().as_nanos() as u64;
        self.try_cluster()
    }

    fn try_cluster(&mut self) -> Result<(), CoreError> {
        if self.outcome.is_some()
            || self.choice_sites.len() < self.site_sizes.len()
            || self.attrs.iter().any(|a| !a.complete)
        {
            return Ok(());
        }
        let agreed = self
            .agreed
            .clone()
            .unwrap_or_else(|| self.ctx.request.clone());
        let merged = std::mem::replace(&mut self.merge, MergeAccumulator::new(0));
        let started = Instant::now();
        let finished = merged.finish();
        self.compute.merge_nanos += started.elapsed().as_nanos() as u64;
        let final_matrix = DissimilarityMatrix::new(self.index.clone(), finished)?;
        self.outcome = Some(ThirdPartyDriver::cluster_matrix(final_matrix, &agreed)?);
        self.publish_pending = true;
        Ok(())
    }
}

/// Folds one attribute matrix into the accumulator — the parallel reduction
/// when the `parallel` feature is on, the sequential fold otherwise. Both
/// are bit-identical for every input (same per-element fold order within
/// each partition, deterministic combine order), so the feature changes
/// wall time only, never the merged matrix.
#[cfg(feature = "parallel")]
fn push_normalized(
    merge: &mut MergeAccumulator,
    matrix: &CondensedDistanceMatrix,
    weight: f64,
) -> Result<(), CoreError> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    merge.push_normalized_parallel(matrix, weight, threads)?;
    Ok(())
}

#[cfg(not(feature = "parallel"))]
fn push_normalized(
    merge: &mut MergeAccumulator,
    matrix: &CondensedDistanceMatrix,
    weight: f64,
) -> Result<(), CoreError> {
    merge.push_normalized(matrix, weight)?;
    Ok(())
}
