//! Per-party protocol state machines.
//!
//! The construction of Figure 11 decomposed into *non-blocking* machines:
//! every party (data holder or third party) is a state machine advanced by
//! [`step`](HolderMachine::step) calls, each of which either delivers one
//! incoming envelope or polls for the next unprompted emission, and returns
//! whatever envelopes the party wants sent. No machine ever waits — a
//! scheduler (the sequential [`ClusteringSession`](super::session) for the
//! byte-identical oracle path, or the engine round of
//! [`engine`](super::engine) for concurrent workloads) owns all control
//! flow.
//!
//! ## Wire compatibility
//!
//! With `chunk_rows: None` the machines emit exactly the legacy whole-matrix
//! messages on exactly the legacy topics, so a session driven in the legacy
//! order produces byte-identical envelopes to the pre-refactor monolithic
//! session (pinned by the golden-trace test). With `chunk_rows: Some(w)`,
//! the bulk pairwise streams are split into row windows ([`PairwiseChunkMsg`]
//! / [`CcmChunkMsg`]): the responder folds and ships at most `w` pairwise
//! rows at a time, the third party folds each window into its condensed
//! accumulator on arrival, and no party ever materialises more than `w`
//! rows of any cross-site block.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use ppc_cluster::{CondensedDistanceMatrix, MergeAccumulator};
use ppc_crypto::det::Tag128;
use ppc_crypto::prng::DynStreamRng;
use ppc_crypto::{negators_from_raw, offsets_from_raw, raw_u64_prefix, Negator, Seed};
use ppc_net::{Envelope, PartyId};

use crate::dissimilarity::{AttributeDissimilarity, DissimilarityMatrix, ObjectIndex};
use crate::error::CoreError;
use crate::pairwise::PairwiseBlock;
use crate::protocol::alphanumeric::ResponderRows;
use crate::protocol::derive_cache::DerivationCache;
use crate::protocol::driver::{ClusteringRequest, ConstructionOutput, ThirdPartyDriver};
use crate::protocol::messages::{
    CcmBundleMsg, CcmChunkMsg, ClusteringChoiceMsg, EncryptedColumnMsg, LocalMatrixMsg,
    MaskedNumericMsg, MaskedStringsMsg, PairwiseChunkMsg, PairwiseMatrixMsg, PublishedResultMsg,
};
use crate::protocol::party::{DataHolder, ThirdPartyKeys};
use crate::protocol::session::parse_linkage;
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
    /// `Some(w)`: stream pairwise blocks in windows of at most `w` rows.
    /// `None`: legacy whole-matrix messages (byte-identical traces).
    pub chunk_rows: Option<usize>,
    /// Prepended to every topic; the engine uses `"s{id}/"` to multiplex
    /// sessions over one transport. Empty for oracle-compatible runs.
    pub topic_prefix: String,
    /// Whether the third party retains per-attribute matrices (the legacy
    /// session outcome exposes them) or folds each completed attribute into
    /// the final accumulator and drops it (bounded memory).
    pub retain_attributes: bool,
    /// Shared derivation cache for raw RNG stream prefixes. `None` (the
    /// oracle configuration) derives every prefix fresh; `Some` memoises
    /// them across sessions that share a schema. Either way the bytes are
    /// identical — the cache is a pure memo (see
    /// [`derive_cache`](crate::protocol::derive_cache)).
    pub cache: Option<DerivationCache>,
}

impl SessionContext {
    /// Context matching the pre-refactor session byte-for-byte.
    pub fn oracle(schema: Schema, config: ProtocolConfig, request: ClusteringRequest) -> Self {
        SessionContext {
            schema,
            config,
            request,
            chunk_rows: None,
            topic_prefix: String::new(),
            retain_attributes: true,
            cache: None,
        }
    }

    fn window(&self) -> Option<usize> {
        self.chunk_rows.map(|w| w.max(1))
    }

    fn topic(&self, base: &str) -> String {
        format!("{}{base}", self.topic_prefix)
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

/// In-progress chunked emission streams on the holder side.
///
/// The attribute name, destination and (prefixed) topic are resolved once
/// at stream creation so the per-chunk hot path touches no session state.
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
/// masked chunks.
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
                match (self.ctx.config.numeric_mode, self.ctx.window()) {
                    (NumericMode::PerPair, Some(_)) => {
                        // Streamed per-pair initiation: fresh masked copies
                        // are generated window by window, never as a whole
                        // |K| × |J| block.
                        let topic = self
                            .ctx
                            .topic(&format!("numeric/{name}/{tag}/masked-chunk"));
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
                        self.advance_stream()
                    }
                    (mode, _) => {
                        let block = match mode {
                            NumericMode::Batch => {
                                let n = values.len();
                                let started = Instant::now();
                                let raw_jk = self.ctx.raw_prefix(&seeds.holder_holder, n);
                                let raw_jt = self.ctx.raw_prefix(&seeds.holder_third_party, n);
                                self.compute.derive_nanos += started.elapsed().as_nanos() as u64;
                                let started = Instant::now();
                                let masked = numeric::initiator_mask_with_prefixes(
                                    &values,
                                    &raw_jk[..n],
                                    &raw_jt[..n],
                                );
                                self.compute.fold_unmask_nanos +=
                                    started.elapsed().as_nanos() as u64;
                                PairwiseBlock::new(1, n, masked)?
                            }
                            NumericMode::PerPair => {
                                let started = Instant::now();
                                let block = numeric::initiator_mask_per_pair(
                                    &values,
                                    self.site_len(responder)?,
                                    &seeds,
                                    algorithm,
                                );
                                self.compute.fold_unmask_nanos +=
                                    started.elapsed().as_nanos() as u64;
                                block
                            }
                        };
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
                }
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

    /// Emits the next chunk of the front stream, popping it when finished.
    /// Streams carry their resolved attribute name and topic, so this hot
    /// path touches no session state beyond the window size.
    fn advance_stream(&mut self) -> Result<Envelope, CoreError> {
        let window = self
            .ctx
            .window()
            .expect("streams only exist in chunked mode");
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
                let rows = window.min(total - *next_row);
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
                    Envelope::new(party, PartyId::ThirdParty, topic.clone(), msg.encode()),
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
                let rows = window.min(total - *next_row);
                let started = Instant::now();
                let bundle = packed_rows.bundle(*next_row..*next_row + rows);
                self.compute.fold_unmask_nanos += started.elapsed().as_nanos() as u64;
                let msg = CcmChunkMsg {
                    attribute: attribute.clone(),
                    start_row: *next_row as u32,
                    total_rows: total as u32,
                    window: bundle,
                };
                *next_row += rows;
                (
                    Envelope::new(
                        party,
                        PartyId::ThirdParty,
                        topic.clone(),
                        msg.encode(*alphabet_size),
                    ),
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
                let rows = window.min(*total_rows - *next_row);
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
                        msg.encode(),
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
        let topic = envelope
            .topic
            .strip_prefix(&self.ctx.topic_prefix)
            .unwrap_or(&envelope.topic);
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
            return match kind {
                "masked" => self.respond_numeric(attribute, j, envelope),
                "masked-chunk" => self.respond_numeric_chunk(attribute, j, envelope),
                other => Err(CoreError::Protocol(format!(
                    "holder received unexpected numeric topic kind '{other}'"
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

    /// Responder role for the (whole-message) numeric protocol.
    fn respond_numeric(
        &mut self,
        attribute: usize,
        initiator: u32,
        envelope: &Envelope,
    ) -> Result<StepOutput, CoreError> {
        let descriptor = self.ctx.schema.attribute_at(attribute)?;
        let name = descriptor.name.clone();
        let codec = self.ctx.config.fixed_point;
        let algorithm = self.ctx.config.rng_algorithm;
        let masked = MaskedNumericMsg::decode(&envelope.payload)?;
        let own =
            codec.encode_column(&self.holder.partition().matrix().numeric_column(attribute)?)?;
        let responder_seed = self.holder.responder_seed(initiator, &name)?;
        match (self.ctx.config.numeric_mode, self.ctx.window()) {
            (NumericMode::Batch, Some(_)) => {
                // Chunked batch response: keep the masked vector and fold
                // own rows window by window.
                let cols = masked.block.cols();
                let started = Instant::now();
                let raw = self.ctx.raw_prefix(&responder_seed, cols);
                let negators = negators_from_raw(&raw[..cols]);
                self.compute.derive_nanos += started.elapsed().as_nanos() as u64;
                let topic = self.ctx.topic(&format!(
                    "numeric/{name}/{}/pairwise-chunk",
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
            (mode, _) => {
                let block = match mode {
                    NumericMode::Batch => {
                        let cols = masked.block.values().len();
                        let started = Instant::now();
                        let raw = self.ctx.raw_prefix(&responder_seed, cols);
                        let negators = negators_from_raw(&raw[..cols]);
                        self.compute.derive_nanos += started.elapsed().as_nanos() as u64;
                        let started = Instant::now();
                        let values =
                            numeric::responder_fold_window(masked.block.values(), &own, &negators);
                        self.compute.fold_unmask_nanos += started.elapsed().as_nanos() as u64;
                        PairwiseBlock::new(own.len(), cols, values)?
                    }
                    NumericMode::PerPair => {
                        let started = Instant::now();
                        let block = numeric::responder_fold_per_pair(
                            &masked.block,
                            &own,
                            &responder_seed,
                            algorithm,
                        )?;
                        self.compute.fold_unmask_nanos += started.elapsed().as_nanos() as u64;
                        block
                    }
                };
                self.note_rows(block.rows());
                let msg = PairwiseMatrixMsg {
                    attribute: name.clone(),
                    block,
                };
                let topic = self.ctx.topic(&format!(
                    "numeric/{name}/{}/pairwise",
                    pair_tag(initiator, self.holder.site())
                ));
                Ok(StepOutput::emit(vec![Envelope::new(
                    self.party(),
                    PartyId::ThirdParty,
                    topic,
                    msg.encode(),
                )]))
            }
        }
    }

    /// Responder role for a per-pair masked *chunk*: fold the window with
    /// the persistent `rng_JK` stream and forward it immediately.
    fn respond_numeric_chunk(
        &mut self,
        attribute: usize,
        initiator: u32,
        envelope: &Envelope,
    ) -> Result<StepOutput, CoreError> {
        let descriptor = self.ctx.schema.attribute_at(attribute)?;
        let name = descriptor.name.clone();
        let codec = self.ctx.config.fixed_point;
        let algorithm = self.ctx.config.rng_algorithm;
        let chunk = PairwiseChunkMsg::decode(&envelope.payload)?;
        if chunk.cols as usize != self.site_len(initiator)? {
            return Err(CoreError::Protocol(format!(
                "masked stream from site {initiator} declares {} columns, expected {}",
                chunk.cols,
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
        if chunk.start_row as usize != state.rows_done {
            return Err(CoreError::Protocol(format!(
                "masked chunk for rows {}.. arrived after {} rows",
                chunk.start_row, state.rows_done
            )));
        }
        if chunk.total_rows as usize != state.own.len() {
            return Err(CoreError::Protocol(format!(
                "per-pair masked stream declares {} rows for {} responder objects",
                chunk.total_rows,
                state.own.len()
            )));
        }
        let rows = chunk.rows();
        let own_window = &state.own[state.rows_done..state.rows_done + rows];
        let started = Instant::now();
        let folded = numeric::responder_fold_per_pair_window(
            &chunk.values,
            chunk.cols as usize,
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
            start_row: chunk.start_row,
            rows: rows as u32,
            total_rows: total as u32,
            cols: chunk.cols,
            values: folded,
        };
        let topic = self.ctx.topic(&format!(
            "numeric/{name}/{}/pairwise-chunk",
            pair_tag(initiator, self.holder.site())
        ));
        Ok(StepOutput::emit(vec![Envelope::new(
            self.party(),
            PartyId::ThirdParty,
            topic,
            msg.encode(),
        )]))
    }

    /// Responder role for the alphanumeric protocol.
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
        if self.ctx.window().is_some() {
            let topic = self.ctx.topic(&format!(
                "alphanumeric/{name}/{}/ccms-chunk",
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
            return Ok(StepOutput::emit(vec![envelope]));
        }
        let started = Instant::now();
        let bundle = rows.bundle(0..own.len());
        self.compute.fold_unmask_nanos += started.elapsed().as_nanos() as u64;
        self.note_rows(bundle.responder_count());
        let msg = CcmBundleMsg {
            attribute: name.clone(),
            bundle,
        };
        let topic = self.ctx.topic(&format!(
            "alphanumeric/{name}/{}/ccms",
            pair_tag(initiator, self.holder.site())
        ));
        Ok(StepOutput::emit(vec![Envelope::new(
            self.party(),
            PartyId::ThirdParty,
            topic,
            msg.encode(alphabet.size()),
        )]))
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
    masks: Option<Vec<u64>>,
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
/// attribute completes it is either retained (legacy outcome) or folded
/// straight into the final-matrix accumulator and dropped (bounded
/// memory). Once every attribute is complete and every holder's
/// clustering choice has arrived, the machine clusters and publishes.
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
    /// Completed attribute matrices not yet folded/retained, keyed by
    /// attribute index (attributes can complete slightly out of schema
    /// order under concurrent scheduling; folds stay in schema order so
    /// float summation matches the batch merge exactly).
    finished: BTreeMap<usize, CondensedDistanceMatrix>,
    next_fold: usize,
    retained: Vec<Option<AttributeDissimilarity>>,
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
        let attr_count = ctx.schema.len();
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
            retained: (0..attr_count).map(|_| None).collect(),
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

    /// Consumes the machine, returning result, final matrix and (when
    /// retained) the per-attribute matrices in schema order.
    #[allow(clippy::type_complexity)]
    pub fn into_outcome(
        self,
    ) -> Result<
        (
            ClusteringResult,
            DissimilarityMatrix,
            Vec<AttributeDissimilarity>,
        ),
        CoreError,
    > {
        let (result, matrix) = self
            .outcome
            .ok_or_else(|| CoreError::Protocol("third party has not finished clustering".into()))?;
        let per_attribute = self.retained.into_iter().flatten().collect();
        Ok((result, matrix, per_attribute))
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
        let topic = envelope
            .topic
            .strip_prefix(&self.ctx.topic_prefix)
            .unwrap_or(&envelope.topic)
            .to_string();
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
            return match kind {
                "pairwise" => self.on_numeric_whole(attribute, pair, envelope),
                "pairwise-chunk" => self.on_numeric_chunk(attribute, pair, envelope),
                other => Err(CoreError::Protocol(format!(
                    "third party received unexpected numeric topic kind '{other}'"
                ))),
            };
        }
        if let Some(rest) = topic.strip_prefix("alphanumeric/") {
            let (attr_name, tag, kind) = split_pair_topic(rest)?;
            let attribute = attribute_index(&self.ctx.schema, attr_name)?;
            let pair = parse_pair_tag(tag)?;
            self.check_expected_pair(pair)?;
            return match kind {
                "ccms" => self.on_alpha_whole(attribute, pair, envelope),
                "ccms-chunk" => self.on_alpha_chunk(attribute, pair, envelope),
                other => Err(CoreError::Protocol(format!(
                    "third party received unexpected alphanumeric topic kind '{other}'"
                ))),
            };
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

    fn pair_rows_expected(&self, responder: u32) -> Result<usize, CoreError> {
        self.site_sizes
            .iter()
            .find(|&&(s, _)| s == responder)
            .map(|&(_, n)| n)
            .ok_or_else(|| CoreError::Protocol(format!("unknown site {responder}")))
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

    fn complete_pair(&mut self, attribute: usize, pair: (u32, u32)) -> Result<(), CoreError> {
        let attr = &mut self.attrs[attribute];
        if !attr.pairs_done.insert(pair) {
            return Err(CoreError::Protocol(format!(
                "duplicate pairwise result {}-{} for attribute {attribute}",
                pair.0, pair.1
            )));
        }
        attr.pairs.remove(&pair);
        attr.pairs_pending -= 1;
        self.check_pairwise_attr_complete(attribute)
    }

    fn on_numeric_whole(
        &mut self,
        attribute: usize,
        pair: (u32, u32),
        envelope: &Envelope,
    ) -> Result<(), CoreError> {
        let descriptor = self.ctx.schema.attribute_at(attribute)?;
        let name = descriptor.name.clone();
        let codec = self.ctx.config.fixed_point;
        let algorithm = self.ctx.config.rng_algorithm;
        let pairwise = PairwiseMatrixMsg::decode(&envelope.payload)?;
        if pairwise.block.rows() != self.pair_rows_expected(pair.1)? {
            return Err(CoreError::Protocol(format!(
                "pairwise matrix for pair {}-{} has {} rows, expected {}",
                pair.0,
                pair.1,
                pairwise.block.rows(),
                self.pair_rows_expected(pair.1)?
            )));
        }
        if pairwise.block.cols() != self.pair_rows_expected(pair.0)? {
            return Err(CoreError::Protocol(format!(
                "pairwise matrix for pair {}-{} has {} columns, expected {}",
                pair.0,
                pair.1,
                pairwise.block.cols(),
                self.pair_rows_expected(pair.0)?
            )));
        }
        let tp_seed = self.keys.seed_for(pair.0, &name)?;
        let distances = match self.ctx.config.numeric_mode {
            NumericMode::Batch => {
                let cols = pairwise.block.cols();
                let started = Instant::now();
                let masks = self.ctx.raw_prefix(&tp_seed, cols);
                self.compute.derive_nanos += started.elapsed().as_nanos() as u64;
                let started = Instant::now();
                let values =
                    numeric::third_party_unmask_window(pairwise.block.values(), &masks[..cols]);
                self.compute.fold_unmask_nanos += started.elapsed().as_nanos() as u64;
                PairwiseBlock::new(pairwise.block.rows(), cols, values)?
            }
            NumericMode::PerPair => {
                let started = Instant::now();
                let block =
                    numeric::third_party_unmask_per_pair(&pairwise.block, &tp_seed, algorithm);
                self.compute.fold_unmask_nanos += started.elapsed().as_nanos() as u64;
                block
            }
        };
        self.note_rows(distances.rows());
        let decoded = distances.map(|&d| codec.decode_distance(d));
        self.fold_pair_rows(attribute, pair, 0, decoded.cols(), decoded.values())?;
        self.complete_pair(attribute, pair)
    }

    fn on_numeric_chunk(
        &mut self,
        attribute: usize,
        pair: (u32, u32),
        envelope: &Envelope,
    ) -> Result<(), CoreError> {
        let descriptor = self.ctx.schema.attribute_at(attribute)?;
        let name = descriptor.name.clone();
        let codec = self.ctx.config.fixed_point;
        let algorithm = self.ctx.config.rng_algorithm;
        let mode = self.ctx.config.numeric_mode;
        let chunk = PairwiseChunkMsg::decode(&envelope.payload)?;
        let expected_rows = self.pair_rows_expected(pair.1)?;
        if chunk.total_rows as usize != expected_rows {
            return Err(CoreError::Protocol(format!(
                "pairwise stream for pair {}-{} declares {} rows, expected {expected_rows}",
                pair.0, pair.1, chunk.total_rows
            )));
        }
        // A wrong column count would scatter into the wrong cross-block (or
        // desynchronise the cached batch mask prefix) — reject it here, the
        // one place that knows the initiator's true object count.
        let expected_cols = self.pair_rows_expected(pair.0)?;
        if chunk.cols as usize != expected_cols {
            return Err(CoreError::Protocol(format!(
                "pairwise stream for pair {}-{} declares {} columns, expected {expected_cols}",
                pair.0, pair.1, chunk.cols
            )));
        }
        let tp_seed = self.keys.seed_for(pair.0, &name)?;
        let attr = &mut self.attrs[attribute];
        let progress = attr.pairs.entry(pair).or_insert_with(|| PairProgress {
            rows_done: 0,
            masks: None,
            rng_jt: None,
        });
        if chunk.start_row as usize != progress.rows_done {
            return Err(CoreError::Protocol(format!(
                "pairwise chunk for rows {}.. arrived after {} rows",
                chunk.start_row, progress.rows_done
            )));
        }
        let unmasked: Vec<u64> = match mode {
            NumericMode::Batch => {
                if progress.masks.is_none() {
                    let cols = chunk.cols as usize;
                    let started = Instant::now();
                    let raw = self.ctx.raw_prefix(&tp_seed, cols);
                    progress.masks = Some(raw[..cols].to_vec());
                    self.compute.derive_nanos += started.elapsed().as_nanos() as u64;
                }
                let masks = progress.masks.as_ref().expect("just ensured");
                let started = Instant::now();
                let unmasked = numeric::third_party_unmask_window(&chunk.values, masks);
                self.compute.fold_unmask_nanos += started.elapsed().as_nanos() as u64;
                unmasked
            }
            NumericMode::PerPair => {
                let rng = progress
                    .rng_jt
                    .get_or_insert_with(|| DynStreamRng::new(algorithm, &tp_seed));
                let started = Instant::now();
                let unmasked = numeric::third_party_unmask_per_pair_window(&chunk.values, rng);
                self.compute.fold_unmask_nanos += started.elapsed().as_nanos() as u64;
                unmasked
            }
        };
        progress.rows_done += chunk.rows();
        let finished = progress.rows_done >= expected_rows;
        let decoded: Vec<f64> = unmasked.iter().map(|&d| codec.decode_distance(d)).collect();
        self.note_rows(chunk.rows());
        self.fold_pair_rows(
            attribute,
            pair,
            chunk.start_row as usize,
            chunk.cols as usize,
            &decoded,
        )?;
        if finished {
            self.complete_pair(attribute, pair)?;
        }
        Ok(())
    }

    fn on_alpha_whole(
        &mut self,
        attribute: usize,
        pair: (u32, u32),
        envelope: &Envelope,
    ) -> Result<(), CoreError> {
        let descriptor = self.ctx.schema.attribute_at(attribute)?;
        let name = descriptor.name.clone();
        let alphabet = descriptor.require_alphabet()?.clone();
        let bundle = CcmBundleMsg::decode(&envelope.payload, alphabet.size())?.bundle;
        // The matrix count is the product of two untrusted vector lengths:
        // check both against the session before the kernel sizes the
        // distance block by it.
        let expected = (
            self.pair_rows_expected(pair.1)?,
            self.pair_rows_expected(pair.0)?,
        );
        let declared = (bundle.responder_count(), bundle.initiator_count());
        if declared != expected {
            return Err(CoreError::Protocol(format!(
                "CCM bundle for pair {}-{} covers {}×{} objects, expected {}×{}",
                pair.0, pair.1, declared.0, declared.1, expected.0, expected.1
            )));
        }
        let tp_seed = self.keys.seed_for(pair.0, &name)?;
        let max_cols = bundle.max_initiator_len();
        let started = Instant::now();
        let raw = self.ctx.raw_prefix(&tp_seed, max_cols);
        let offsets = offsets_from_raw(&raw[..max_cols], alphabet.size());
        self.compute.derive_nanos += started.elapsed().as_nanos() as u64;
        let started = Instant::now();
        let distances = alphanumeric::third_party_edit_distances_with_offsets(
            &bundle,
            alphabet.size(),
            &offsets,
        )?;
        self.compute.fold_unmask_nanos += started.elapsed().as_nanos() as u64;
        self.note_rows(distances.rows());
        let decoded = distances.map(|&d| f64::from(d));
        self.fold_pair_rows(attribute, pair, 0, decoded.cols(), decoded.values())?;
        self.complete_pair(attribute, pair)
    }

    fn on_alpha_chunk(
        &mut self,
        attribute: usize,
        pair: (u32, u32),
        envelope: &Envelope,
    ) -> Result<(), CoreError> {
        let descriptor = self.ctx.schema.attribute_at(attribute)?;
        let name = descriptor.name.clone();
        let alphabet = descriptor.require_alphabet()?.clone();
        let chunk = CcmChunkMsg::decode(&envelope.payload, alphabet.size())?;
        let expected_rows = self.pair_rows_expected(pair.1)?;
        if chunk.total_rows as usize != expected_rows {
            return Err(CoreError::Protocol(format!(
                "CCM stream for pair {}-{} declares {} rows, expected {expected_rows}",
                pair.0, pair.1, chunk.total_rows
            )));
        }
        let expected_cols = self.pair_rows_expected(pair.0)?;
        if chunk.window.initiator_count() != expected_cols {
            return Err(CoreError::Protocol(format!(
                "CCM stream for pair {}-{} declares {} initiator objects, expected {expected_cols}",
                pair.0,
                pair.1,
                chunk.window.initiator_count()
            )));
        }
        let attr = &mut self.attrs[attribute];
        let progress = attr.pairs.entry(pair).or_insert_with(|| PairProgress {
            rows_done: 0,
            masks: None,
            rng_jt: None,
        });
        if chunk.start_row as usize != progress.rows_done {
            return Err(CoreError::Protocol(format!(
                "CCM chunk for rows {}.. arrived after {} rows",
                chunk.start_row, progress.rows_done
            )));
        }
        let rows = chunk.rows();
        progress.rows_done += rows;
        let finished = progress.rows_done >= expected_rows;
        let tp_seed = self.keys.seed_for(pair.0, &name)?;
        // The offset prefix is a fixed stream prefix, so unmasking a window
        // of CCMs draws exactly the same offsets as unmasking the whole
        // bundle would.
        let max_cols = chunk.window.max_initiator_len();
        let started = Instant::now();
        let raw = self.ctx.raw_prefix(&tp_seed, max_cols);
        let offsets = offsets_from_raw(&raw[..max_cols], alphabet.size());
        self.compute.derive_nanos += started.elapsed().as_nanos() as u64;
        let started = Instant::now();
        let distances = alphanumeric::third_party_edit_distances_with_offsets(
            &chunk.window,
            alphabet.size(),
            &offsets,
        )?;
        self.compute.fold_unmask_nanos += started.elapsed().as_nanos() as u64;
        self.note_rows(rows);
        let decoded = distances.map(|&d| f64::from(d));
        self.fold_pair_rows(
            attribute,
            pair,
            chunk.start_row as usize,
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

    /// Retains or folds a completed attribute matrix, then checks whether
    /// clustering can start.
    fn finish_attribute(
        &mut self,
        attribute: usize,
        matrix: CondensedDistanceMatrix,
    ) -> Result<(), CoreError> {
        if self.ctx.retain_attributes {
            let name = self.ctx.schema.attribute_at(attribute)?.name.clone();
            self.retained[attribute] = Some(AttributeDissimilarity::new(name, matrix));
        } else {
            // Fold strictly in schema order so the float accumulation
            // matches the batch merge bit for bit.
            self.finished.insert(attribute, matrix);
            let started = Instant::now();
            while let Some(matrix) = self.finished.remove(&self.next_fold) {
                let weight = self.ctx.request.weights.weights()[self.next_fold];
                push_normalized(&mut self.merge, &matrix, weight)?;
                self.next_fold += 1;
            }
            self.compute.merge_nanos += started.elapsed().as_nanos() as u64;
        }
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
        let (result, final_matrix) = if self.ctx.retain_attributes {
            let per_attribute: Vec<AttributeDissimilarity> =
                self.retained.iter().flatten().cloned().collect();
            let driver = ThirdPartyDriver::new(self.ctx.schema.clone(), self.ctx.config);
            let output = ConstructionOutput {
                index: self.index.clone(),
                per_attribute,
            };
            driver.cluster(&output, &agreed)?
        } else {
            let merged = std::mem::replace(&mut self.merge, MergeAccumulator::new(0));
            let started = Instant::now();
            let finished = merged.finish();
            self.compute.merge_nanos += started.elapsed().as_nanos() as u64;
            let final_matrix = DissimilarityMatrix::new(self.index.clone(), finished)?;
            ThirdPartyDriver::cluster_matrix(final_matrix, &agreed)?
        };
        self.outcome = Some((result, final_matrix));
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
