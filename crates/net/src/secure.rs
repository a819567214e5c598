//! Channel sealing: the AEAD security tier over socket transports.
//!
//! The paper's §4.1 concludes the pairwise channels "must be secured";
//! PRs 3–4 shipped them as plaintext TCP/UDS. This module closes that gap:
//!
//! * [`ChannelKeyring`] — per-party-pair, per-direction AEAD keys derived
//!   from a shared channel PSK through the same labelled-derivation family
//!   as the protocol's `TrustedSetup`, so **key material never crosses a
//!   socket** (see `ppc_crypto::channel` for the derivation and for the
//!   authenticated-DH alternative on direct links);
//! * [`ChannelSealer`] / [`ChannelOpener`] — the stateful seal/open halves
//!   a [`SocketTransport`](crate::socket::SocketTransport) installs via
//!   `set_security`. Sealing is **end-to-end between parties**: the sealed
//!   frame keeps `from`/`to` in the clear so frame routers forward it
//!   opaquely, while topic and payload travel encrypted and authenticated.
//!
//! ## Sealed record layout (coalesced)
//!
//! A sealed record is an ordinary wire frame whose topic is the reserved
//! marker [`SEALED_TOPIC`] and whose payload is
//!
//! ```text
//! salt: u32 | seq: u64 | ciphertext ‖ tag      (ChaCha20-Poly1305)
//! ```
//!
//! where the plaintext is a **batch** of one or more inner envelopes
//!
//! ```text
//! count: u32 | count × (topic: str, payload: bytes)
//! ```
//!
//! the AEAD nonce is `salt ‖ seq` (12 bytes, little endian) and the AAD
//! binds the routing metadata (`from ‖ to` party encodings). One AEAD
//! invocation and one 16-byte tag cover the whole batch; a record with
//! `count = 1` is the single-frame case and there is no other
//! single-frame format. The socket tier seals every envelope as its own
//! `count = 1` record (a coalescing link defers the *write*, not the
//! seal), while openers accept any `count ≥ 1`. All inner envelopes of a
//! record share the record's `(from, to)` routing, so coalescing never
//! crosses ordered party pairs and keyless routers still forward records
//! opaquely by their cleartext routing metadata.
//!
//! ## Nonce schedule
//!
//! `seq` is the implicit per-`(from, to)` **record** sequence number: the
//! sealer counts the records it seals for each ordered party pair (a
//! record consumes one sequence number regardless of how many envelopes
//! it carries). Because the socket tier records **sealed** records in its
//! replay window, a reconnect retransmits the lost suffix byte-identically
//! — the nonce a record was sealed under is the nonce it is re-sent under,
//! so the PR-4 lossless-resume machinery needs no re-keying. `salt` is
//! drawn from the endpoint id, so a restarted process (fresh counters)
//! seals under fresh nonces instead of reusing `(key, 0), (key, 1), …`.
//!
//! The opener enforces in-stream ordering: within one sender incarnation
//! (one salt) sequence numbers must arrive exactly in order, so a relay
//! that drops, reorders or replays sealed records is detected. A salt
//! change (sender restart) resets the expectation. Unsealing a record
//! yields its envelopes in batch order, which is send order — strict
//! in-stream ordering survives coalescing.

use std::collections::HashMap;

use std::sync::Arc;

use parking_lot::Mutex;
use ppc_crypto::{psk_direction_key, ChaCha20Poly1305, Seed, NONCE_LEN, TAG_LEN};

use crate::codec::{WireReader, WireWriter};
use crate::error::NetError;
use crate::framed::{check_frame_body, frame_body_len, party_bytes, put_frame_head};
use crate::message::Envelope;
use crate::metrics::{SealingReport, SealingStats};
use crate::party::PartyId;

/// The reserved topic marking a sealed frame. Never a valid session or
/// control topic (the topic grammar admits neither `!` nor any prefix of
/// it), so sealed and plaintext traffic cannot be confused.
pub const SEALED_TOPIC: &str = "!";

/// Derives the per-party-pair, per-direction AEAD keys of one federation's
/// channel tier. Cheap to clone (a 32-byte seed).
#[derive(Clone)]
pub struct ChannelKeyring {
    psk: Seed,
}

impl std::fmt::Debug for ChannelKeyring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Key material; expose nothing.
        f.debug_struct("ChannelKeyring").finish_non_exhaustive()
    }
}

impl ChannelKeyring {
    /// Builds the keyring from a dedicated channel pre-shared secret.
    pub fn from_psk(psk: Seed) -> Self {
        ChannelKeyring { psk }
    }

    /// Builds the keyring from the federation master seed (the deployment
    /// default: the channel PSK is a labelled derivation, so channel keys
    /// and protocol secrets stay in independent derivation branches).
    pub fn from_master(master: &Seed) -> Self {
        ChannelKeyring::from_psk(master.derive("channel-psk"))
    }

    /// The AEAD cipher for traffic flowing `from → to`.
    fn cipher(&self, from: PartyId, to: PartyId) -> ChaCha20Poly1305 {
        ChaCha20Poly1305::from_seed(&psk_direction_key(
            &self.psk,
            &from.to_string(),
            &to.to_string(),
        ))
    }
}

/// AAD binding the routing metadata of a sealed frame (stack-allocated:
/// this sits on the per-record hot path of both seal and open).
fn routing_aad(from: PartyId, to: PartyId) -> [u8; 10] {
    let mut aad = [0u8; 10];
    aad[..5].copy_from_slice(&party_bytes(from));
    aad[5..].copy_from_slice(&party_bytes(to));
    aad
}

/// A per-pair shard map: brief outer lock to find the shard, per-pair
/// inner lock for the actual AEAD work and schedule state.
type PairMap<T> = Mutex<HashMap<(PartyId, PartyId), Arc<Mutex<T>>>>;

fn nonce_bytes(salt: u32, seq: u64) -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    nonce[0..4].copy_from_slice(&salt.to_le_bytes());
    nonce[4..12].copy_from_slice(&seq.to_le_bytes());
    nonce
}

/// The shared `(from, to)` of a record's batch.
///
/// # Panics
///
/// If `envelopes` is empty or mixes ordered party pairs.
fn batch_routing(envelopes: &[Envelope]) -> (PartyId, PartyId) {
    let first = envelopes
        .first()
        .expect("seal_batch of at least one envelope");
    let (from, to) = (first.from, first.to);
    assert!(
        envelopes.iter().all(|e| e.from == from && e.to == to),
        "a coalesced record must not mix ordered party pairs"
    );
    (from, to)
}

/// Batch plaintext bytes: `count: u32`, then `topic: str, payload: bytes`
/// per envelope.
fn plaintext_len(envelopes: &[Envelope]) -> usize {
    4 + envelopes
        .iter()
        .map(|e| 8 + e.topic.len() + e.payload.len())
        .sum::<usize>()
}

/// Sealed record bytes: `salt: u32 | seq: u64 | ciphertext ‖ tag`.
fn record_len(envelopes: &[Envelope]) -> usize {
    12 + plaintext_len(envelopes) + TAG_LEN
}

/// One directed pair's sealing state: its cached cipher, the next
/// sequence number and the pair's sealing counters.
struct SealPair {
    cipher: ChaCha20Poly1305,
    next: u64,
    stats: SealingStats,
}

/// The sealing half: owned by the sending transport.
///
/// State is sharded **per ordered party pair**, each shard behind its own
/// lock: concurrent sends on different pairs (different links) encrypt in
/// parallel; sends on one pair serialize, which is exactly what keeps the
/// sequence schedule equal to the stream order. Callers must still ensure
/// seal order equals write order per pair (the socket tier seals inside
/// the per-link writer lock).
pub struct ChannelSealer {
    keyring: ChannelKeyring,
    salt: u32,
    pairs: PairMap<SealPair>,
}

impl std::fmt::Debug for ChannelSealer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelSealer")
            .field("salt", &self.salt)
            .finish_non_exhaustive()
    }
}

impl ChannelSealer {
    /// Creates a sealer; `salt` must be unique per sender incarnation
    /// (the socket tier derives it from its endpoint id).
    pub fn new(keyring: ChannelKeyring, salt: u32) -> Self {
        ChannelSealer {
            keyring,
            salt,
            pairs: Mutex::new(HashMap::new()),
        }
    }

    /// Seals one envelope for the wire: the `count = 1` case of
    /// [`seal_batch`](Self::seal_batch).
    pub fn seal(&self, envelope: &Envelope) -> Envelope {
        self.seal_batch(std::slice::from_ref(envelope))
    }

    /// Seals a batch of envelopes — all sharing one `(from, to)` routing —
    /// into one coalesced record: one AEAD invocation, one tag, one
    /// sequence number for the whole batch.
    ///
    /// # Panics
    ///
    /// If `envelopes` is empty or mixes ordered party pairs (the caller —
    /// the socket tier's per-link flush — groups by pair first).
    pub fn seal_batch(&self, envelopes: &[Envelope]) -> Envelope {
        let (from, to) = batch_routing(envelopes);
        let mut payload = Vec::with_capacity(record_len(envelopes));
        self.seal_record_into(from, to, envelopes, &mut payload);
        Envelope::new(from, to, SEALED_TOPIC, payload)
    }

    /// Seals a batch straight into one wire frame, byte-identical to
    /// `encode_frame(&self.seal_batch(envelopes))`: the frame header, salt
    /// and sequence number are written first and the AEAD pass appends
    /// ciphertext and tag behind them, so the record is built in the
    /// buffer that goes on the wire.
    ///
    /// Fails — before consuming a sequence number, so the pair's stream
    /// keeps no gap — if the frame would exceed
    /// [`MAX_FRAME_BODY`](crate::framed::MAX_FRAME_BODY).
    ///
    /// # Panics
    ///
    /// As [`seal_batch`](Self::seal_batch).
    pub(crate) fn seal_frame(&self, envelopes: &[Envelope]) -> Result<Vec<u8>, NetError> {
        let (from, to) = batch_routing(envelopes);
        let payload_len = record_len(envelopes);
        let body_len = frame_body_len(SEALED_TOPIC.len(), payload_len);
        check_frame_body(&envelopes[0].topic, body_len)?;
        let mut frame = Vec::with_capacity(4 + body_len);
        put_frame_head(&mut frame, from, to, SEALED_TOPIC, payload_len);
        self.seal_record_into(from, to, envelopes, &mut frame);
        debug_assert_eq!(frame.len(), 4 + body_len);
        Ok(frame)
    }

    /// The one sealing implementation: appends the record
    /// `salt | seq | ciphertext ‖ tag` for `envelopes` (all `from → to`)
    /// to `out`.
    fn seal_record_into(
        &self,
        from: PartyId,
        to: PartyId,
        envelopes: &[Envelope],
        out: &mut Vec<u8>,
    ) {
        let pair = {
            let mut pairs = self.pairs.lock();
            Arc::clone(pairs.entry((from, to)).or_insert_with(|| {
                Arc::new(Mutex::new(SealPair {
                    cipher: self.keyring.cipher(from, to),
                    next: 0,
                    stats: SealingStats::default(),
                }))
            }))
        };
        let mut pair = pair.lock();
        let seq = pair.next;
        let mut inner = WireWriter::with_capacity(plaintext_len(envelopes));
        inner.put_u32(envelopes.len() as u32);
        for e in envelopes {
            inner.put_str(&e.topic).put_bytes(&e.payload);
        }
        let plaintext = inner.finish();
        let record_start = out.len();
        out.extend_from_slice(&self.salt.to_le_bytes());
        out.extend_from_slice(&seq.to_le_bytes());
        pair.cipher.seal_append(
            &nonce_bytes(self.salt, seq),
            &routing_aad(from, to),
            &plaintext,
            out,
        );
        pair.next += 1;
        pair.stats.records_sealed += 1;
        pair.stats.frames_sealed += envelopes.len() as u64;
        pair.stats.plaintext_bytes += plaintext.len() as u64;
        pair.stats.sealed_bytes += (out.len() - record_start) as u64;
    }

    /// Snapshot of this sealer's per-link counters (seal-side fields).
    pub fn report(&self) -> SealingReport {
        let mut report = SealingReport::default();
        let pairs: Vec<_> = self
            .pairs
            .lock()
            .iter()
            .map(|(k, v)| (*k, Arc::clone(v)))
            .collect();
        for (link, pair) in pairs {
            report.links.insert(link, pair.lock().stats);
        }
        report
    }
}

/// Per-`(from, to)` receive state: the cached cipher, the current sender
/// incarnation's salt with the next expected sequence number, and the
/// retired salts of past incarnations (so an old incarnation's frames
/// cannot be replayed after a sender restart).
struct OpenPair {
    cipher: ChaCha20Poly1305,
    current: Option<(u32, u64)>,
    retired: std::collections::HashSet<u32>,
    stats: SealingStats,
}

/// The opening half: shared by the receiving transport's link readers.
///
/// Like the sealer, state is sharded per ordered party pair behind
/// per-pair locks: each pair's frames arrive on one link (one read
/// driver), so the pair lock is uncontended in practice, while readers of
/// *different* links never serialize on each other's AEAD work.
pub struct ChannelOpener {
    keyring: ChannelKeyring,
    pairs: PairMap<OpenPair>,
}

impl std::fmt::Debug for ChannelOpener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelOpener").finish_non_exhaustive()
    }
}

impl ChannelOpener {
    /// Creates an opener over the federation keyring.
    pub fn new(keyring: ChannelKeyring) -> Self {
        ChannelOpener {
            keyring,
            pairs: Mutex::new(HashMap::new()),
        }
    }

    /// Opens one wire record, returning its inner envelopes in batch
    /// order (which is send order, so per-pair FIFO survives coalescing).
    ///
    /// Fails with [`NetError::AuthFailure`] on plaintext frames (a secured
    /// channel accepts nothing else), tag mismatches (any tampering with
    /// payload, routing metadata or nonce), out-of-order or replayed
    /// sequence numbers within a sender incarnation, and malformed batches
    /// (zero count, a count the plaintext cannot back); other malformed
    /// batches (bad lengths, trailing bytes) fail as [`NetError::Decode`].
    pub fn open(&self, envelope: Envelope) -> Result<Vec<Envelope>, NetError> {
        let mut out = Vec::new();
        self.open_into(
            envelope.from,
            envelope.to,
            &envelope.topic,
            &envelope.payload,
            &mut Vec::new(),
            &mut out,
        )?;
        Ok(out)
    }

    /// Allocation-reusing form of [`open`](Self::open) over a record's
    /// parts, so a receiver can open a frame where it was decoded
    /// ([`Frame`](crate::framed::Frame)): decrypts into `scratch` (cleared
    /// first; a pooled buffer on the hot path) and appends the inner
    /// envelopes to `out`. On any failure `out` is left exactly as passed
    /// in — unauthenticated plaintext is never released.
    pub fn open_into(
        &self,
        from: PartyId,
        to: PartyId,
        topic: &str,
        payload: &[u8],
        scratch: &mut Vec<u8>,
        out: &mut Vec<Envelope>,
    ) -> Result<(), NetError> {
        let fail = |detail: String| NetError::AuthFailure {
            detail: format!("{from} -> {to}: {detail}"),
        };
        if topic != SEALED_TOPIC {
            return Err(fail(format!(
                "plaintext frame (topic '{topic}') on a secured channel"
            )));
        }
        if payload.len() < 12 {
            return Err(fail(format!(
                "sealed frame of {} bytes is too short for its header",
                payload.len()
            )));
        }
        let salt = u32::from_le_bytes(payload[0..4].try_into().expect("4 bytes"));
        let seq = u64::from_le_bytes(payload[4..12].try_into().expect("8 bytes"));
        let pair = {
            let mut pairs = self.pairs.lock();
            Arc::clone(pairs.entry((from, to)).or_insert_with(|| {
                Arc::new(Mutex::new(OpenPair {
                    cipher: self.keyring.cipher(from, to),
                    current: None,
                    retired: std::collections::HashSet::new(),
                    stats: SealingStats::default(),
                }))
            }))
        };
        // Validate, decrypt and advance under the pair lock, so the
        // check-then-advance of the sequence schedule is atomic per pair.
        let mut pair = pair.lock();
        match pair.current {
            Some((current_salt, next)) if current_salt == salt && seq != next => {
                return Err(fail(format!(
                    "sealed frame out of order: got sequence {seq}, expected {next} \
                     (replayed, dropped or reordered frame)"
                )));
            }
            Some((current_salt, _)) if current_salt == salt => {}
            _ if pair.retired.contains(&salt) => {
                return Err(fail(format!(
                    "sealed frame from retired sender incarnation {salt:#010x} \
                     (replay of pre-restart traffic)"
                )));
            }
            // First contact with this incarnation: accepted at any sequence
            // (the receiver may have restarted mid-stream); strict in-order
            // delivery is enforced from here on.
            _ => {}
        }
        scratch.clear();
        pair.cipher
            .open_into(
                &nonce_bytes(salt, seq),
                &routing_aad(from, to),
                &payload[12..],
                scratch,
            )
            .map_err(|e| fail(e.to_string()))?;
        // Only authenticated records advance the stream state; a verified
        // new incarnation retires its predecessor's salt for good.
        if let Some((current_salt, _)) = pair.current {
            if current_salt != salt {
                pair.retired.insert(current_salt);
            }
        }
        pair.current = Some((salt, seq + 1));
        let start = out.len();
        let parsed = (|| {
            let mut r = WireReader::new(scratch);
            let count = r.get_u32()?;
            if count == 0 {
                return Err(fail("coalesced record with zero frames".into()));
            }
            // Every inner envelope takes at least its two length prefixes:
            // refuse a count the plaintext cannot back before reserving.
            if count as usize > r.remaining() / 8 {
                return Err(fail(format!(
                    "coalesced record claims {count} frames, but its {} remaining \
                     plaintext bytes hold at most {}",
                    r.remaining(),
                    r.remaining() / 8
                )));
            }
            out.reserve(count as usize);
            for _ in 0..count {
                let topic = r.get_str()?;
                let payload = r.get_bytes()?;
                out.push(Envelope::new(from, to, topic, payload));
            }
            r.expect_end()?;
            Ok(count)
        })();
        let count = match parsed {
            Ok(count) => count,
            Err(e) => {
                out.truncate(start);
                return Err(e);
            }
        };
        pair.stats.records_opened += 1;
        pair.stats.frames_opened += count as u64;
        Ok(())
    }

    /// Snapshot of this opener's per-link counters (open-side fields).
    pub fn report(&self) -> SealingReport {
        let mut report = SealingReport::default();
        let pairs: Vec<_> = self
            .pairs
            .lock()
            .iter()
            .map(|(k, v)| (*k, Arc::clone(v)))
            .collect();
        for (link, pair) in pairs {
            report.links.insert(link, pair.lock().stats);
        }
        report
    }
}

/// The channel-security mode an endpoint announces in its handshake hello
/// (`docs/WIRE_FORMAT.md` §3 and §8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecurityMode {
    /// Frames travel in the clear.
    Plaintext,
    /// Frames are sealed end-to-end with PSK-derived AEAD keys.
    SealedPsk,
    /// A forwarder (frame router): forwards frames opaquely and accepts
    /// peers in any mode. Never an endpoint mode.
    Transparent,
}

impl SecurityMode {
    /// The wire encoding of the mode byte.
    pub fn to_wire(self) -> u8 {
        match self {
            SecurityMode::Plaintext => 0,
            SecurityMode::SealedPsk => 1,
            SecurityMode::Transparent => 0xFF,
        }
    }

    /// Decodes a mode byte.
    pub fn from_wire(byte: u8) -> Result<Self, NetError> {
        match byte {
            0 => Ok(SecurityMode::Plaintext),
            1 => Ok(SecurityMode::SealedPsk),
            0xFF => Ok(SecurityMode::Transparent),
            other => Err(NetError::Decode(format!(
                "unknown channel-security mode byte 0x{other:02x}"
            ))),
        }
    }

    /// Validates the handshake's security negotiation: a forwarder accepts
    /// anything; endpoints must agree exactly. Mismatches are rejected
    /// explicitly — there is no silent downgrade to plaintext.
    pub fn negotiate(local: SecurityMode, peer: SecurityMode) -> Result<(), NetError> {
        if local == SecurityMode::Transparent || peer == SecurityMode::Transparent {
            return Ok(());
        }
        if local == peer {
            return Ok(());
        }
        Err(NetError::AuthFailure {
            detail: format!(
                "channel security negotiation failed: this endpoint is {local:?}, the peer \
                 announced {peer:?}; downgrade rejected"
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyring() -> ChannelKeyring {
        ChannelKeyring::from_master(&Seed::from_u64(77))
    }

    fn envelope(topic: &str, payload: Vec<u8>) -> Envelope {
        Envelope::new(PartyId::DataHolder(0), PartyId::ThirdParty, topic, payload)
    }

    #[test]
    fn seal_open_roundtrip_hides_topic_and_payload() {
        let sealer = ChannelSealer::new(keyring(), 7);
        let opener = ChannelOpener::new(keyring());
        for i in 0..5u8 {
            let e = envelope(&format!("s0/numeric/age/0-1/masked/{i}"), vec![i; 40]);
            let wire = sealer.seal(&e);
            assert_eq!(wire.topic, SEALED_TOPIC);
            assert_eq!((wire.from, wire.to), (e.from, e.to));
            // Neither the topic nor the payload appear in the sealed bytes
            // (checked past the clear salt/sequence header, whose zero
            // bytes would otherwise false-positive on the i=0 needle).
            assert!(!crate::eavesdrop::contains_bytes(
                &wire.payload,
                e.topic.as_bytes()
            ));
            assert!(!crate::eavesdrop::contains_bytes(
                &wire.payload[12..],
                &[i; 8]
            ));
            assert_eq!(opener.open(wire).unwrap(), vec![e]);
        }
    }

    #[test]
    fn coalesced_batch_roundtrips_in_order_under_one_record() {
        let sealer = ChannelSealer::new(keyring(), 21);
        let opener = ChannelOpener::new(keyring());
        let batch: Vec<Envelope> = (0..7u8)
            .map(|i| envelope(&format!("s0/topic/{i}"), vec![i; 5 + i as usize]))
            .collect();
        let wire = sealer.seal_batch(&batch);
        assert_eq!(wire.topic, SEALED_TOPIC);
        // One record, one tag: far smaller than seven sealed singles.
        let singles: usize = batch
            .iter()
            .map(|e| ChannelSealer::new(keyring(), 21).seal(e).payload.len())
            .sum();
        assert!(wire.payload.len() < singles);
        // No topic or payload leaks into the record's sealed bytes.
        for e in &batch {
            assert!(!crate::eavesdrop::contains_bytes(
                &wire.payload,
                e.topic.as_bytes()
            ));
        }
        assert_eq!(opener.open(wire).unwrap(), batch);
        // The whole batch consumed exactly one sequence number.
        let next = sealer.seal(&batch[0]);
        let seq = u64::from_le_bytes(next.payload[4..12].try_into().unwrap());
        assert_eq!(seq, 1);
    }

    #[test]
    fn sealed_frames_are_the_encoded_sealed_batches() {
        // Two sealers with one salt walk the same sequence numbers.
        let framed = ChannelSealer::new(keyring(), 41);
        let enveloped = ChannelSealer::new(keyring(), 41);
        for n in [1u8, 4, 2] {
            let batch: Vec<Envelope> = (0..n)
                .map(|i| envelope(&format!("s0/topic/{i}"), vec![i; 40 * i as usize]))
                .collect();
            let frame = framed.seal_frame(&batch).unwrap();
            let record = enveloped.seal_batch(&batch);
            assert_eq!(frame, crate::framed::encode_frame(&record).unwrap());
        }
        // Both paths count records, frames and bytes identically.
        assert_eq!(framed.report().links, enveloped.report().links);
        assert_eq!(framed.report().total().records_sealed, 3);
    }

    #[test]
    fn tampered_and_malformed_batches_fail() {
        let sealer = ChannelSealer::new(keyring(), 22);
        let batch: Vec<Envelope> = (0..4u8).map(|i| envelope("t", vec![i; 30])).collect();
        let wire = sealer.seal_batch(&batch);
        // A bit flip anywhere inside the batch ciphertext kills the whole
        // record, and the failure names the pair.
        for offset in [12, 40, wire.payload.len() - 20] {
            let mut bad = wire.clone();
            bad.payload[offset] ^= 0x10;
            let err = ChannelOpener::new(keyring()).open(bad).unwrap_err();
            assert!(matches!(err, NetError::AuthFailure { .. }));
            assert!(err.to_string().contains("DH0 -> TP"), "{err}");
        }
        // Truncating the record (mid-batch) is rejected.
        let mut bad = wire.clone();
        bad.payload.truncate(wire.payload.len() / 2);
        assert!(ChannelOpener::new(keyring()).open(bad).is_err());
        // A forged record with count = 0 cannot be produced by seal_batch,
        // but a peer speaking the protocol wrong must still be rejected.
        let opener = ChannelOpener::new(keyring());
        let forged = {
            // Seal an empty batch body by hand: count 0, no envelopes.
            let pair_cipher = keyring().cipher(batch[0].from, batch[0].to);
            let mut w = WireWriter::with_capacity(4);
            w.put_u32(0);
            let sealed = pair_cipher.seal(
                &nonce_bytes(23, 0),
                &routing_aad(batch[0].from, batch[0].to),
                &w.finish(),
            );
            let mut payload = Vec::new();
            payload.extend_from_slice(&23u32.to_le_bytes());
            payload.extend_from_slice(&0u64.to_le_bytes());
            payload.extend_from_slice(&sealed);
            Envelope::new(batch[0].from, batch[0].to, SEALED_TOPIC, payload)
        };
        let err = opener.open(forged).unwrap_err();
        assert!(err.to_string().contains("zero frames"), "{err}");
    }

    #[test]
    fn sealing_stats_count_records_frames_and_bytes() {
        let sealer = ChannelSealer::new(keyring(), 31);
        let opener = ChannelOpener::new(keyring());
        let batch: Vec<Envelope> = (0..5u8).map(|i| envelope("t", vec![i; 100])).collect();
        let wire = sealer.seal_batch(&batch);
        let sealed_len = wire.payload.len() as u64;
        opener.open(wire).unwrap();
        opener.open(sealer.seal(&batch[0])).unwrap();

        let mut report = sealer.report();
        report.merge(&opener.report());
        let total = report.total();
        assert_eq!(total.records_sealed, 2);
        assert_eq!(total.frames_sealed, 6);
        assert_eq!(total.records_opened, 2);
        assert_eq!(total.frames_opened, 6);
        assert!(total.plaintext_bytes >= 5 * 100);
        assert!(total.sealed_bytes > sealed_len);
        assert_eq!(report.links.len(), 1);
        let link = report.links[&(PartyId::DataHolder(0), PartyId::ThirdParty)];
        assert!((link.frames_per_record() - 3.0).abs() < 1e-9);
        assert!(report.to_table().contains("total"));
    }

    #[test]
    fn bit_flips_truncation_and_metadata_tampering_fail() {
        let sealer = ChannelSealer::new(keyring(), 1);
        let e = envelope("s1/clustering-choice", vec![9; 24]);
        let wire = sealer.seal(&e);

        // Flip a ciphertext bit.
        let mut bad = wire.clone();
        bad.payload[20] ^= 1;
        assert!(matches!(
            ChannelOpener::new(keyring()).open(bad),
            Err(NetError::AuthFailure { .. })
        ));
        // Truncate the tag.
        let mut bad = wire.clone();
        bad.payload.truncate(bad.payload.len() - 1);
        assert!(ChannelOpener::new(keyring()).open(bad).is_err());
        // Truncate below the header.
        let mut bad = wire.clone();
        bad.payload.truncate(5);
        assert!(ChannelOpener::new(keyring()).open(bad).is_err());
        // Redirect the frame: the AAD binds from/to.
        let mut bad = wire.clone();
        bad.to = PartyId::DataHolder(1);
        assert!(ChannelOpener::new(keyring()).open(bad).is_err());
        // A different federation's keyring cannot open it.
        assert!(
            ChannelOpener::new(ChannelKeyring::from_master(&Seed::from_u64(78)))
                .open(wire)
                .is_err()
        );
    }

    #[test]
    fn replay_and_reorder_within_an_incarnation_are_rejected() {
        let sealer = ChannelSealer::new(keyring(), 3);
        let opener = ChannelOpener::new(keyring());
        let w0 = sealer.seal(&envelope("t/0", vec![0]));
        let w1 = sealer.seal(&envelope("t/1", vec![1]));
        let w2 = sealer.seal(&envelope("t/2", vec![2]));
        assert!(opener.open(w0.clone()).is_ok());
        // Replay of frame 0.
        assert!(matches!(opener.open(w0), Err(NetError::AuthFailure { .. })));
        // Skipping frame 1 (a dropped frame) is detected.
        let err = opener.open(w2).unwrap_err();
        assert!(err.to_string().contains("expected 1"), "{err}");
        // In-order delivery still works afterwards.
        assert!(opener.open(w1).is_ok());
    }

    #[test]
    fn a_new_sender_incarnation_resets_the_stream() {
        let opener = ChannelOpener::new(keyring());
        let first = ChannelSealer::new(keyring(), 10);
        assert!(opener.open(first.seal(&envelope("a", vec![]))).is_ok());
        assert!(opener.open(first.seal(&envelope("b", vec![]))).is_ok());
        // The sender restarts: fresh salt, counters back at zero.
        let second = ChannelSealer::new(keyring(), 11);
        assert!(opener.open(second.seal(&envelope("c", vec![]))).is_ok());
        // Old-incarnation frames can no longer be slipped in.
        assert!(opener.open(first.seal(&envelope("d", vec![]))).is_err());
    }

    #[test]
    fn plaintext_frames_on_a_secured_channel_are_rejected() {
        let opener = ChannelOpener::new(keyring());
        let err = opener
            .open(envelope("s0/local/age/0", vec![1, 2]))
            .unwrap_err();
        assert!(matches!(err, NetError::AuthFailure { .. }));
        assert!(err.to_string().contains("plaintext"), "{err}");
    }

    #[test]
    fn directions_use_independent_keys() {
        let sealer = ChannelSealer::new(keyring(), 1);
        let forward = sealer.seal(&envelope("t", vec![5; 16]));
        // An attacker reflecting the frame with swapped routing cannot
        // have it accepted as reverse-direction traffic.
        let reflected = Envelope::new(forward.to, forward.from, SEALED_TOPIC, forward.payload);
        assert!(ChannelOpener::new(keyring()).open(reflected).is_err());
    }

    #[test]
    fn security_modes_roundtrip_and_negotiate() {
        for mode in [
            SecurityMode::Plaintext,
            SecurityMode::SealedPsk,
            SecurityMode::Transparent,
        ] {
            assert_eq!(SecurityMode::from_wire(mode.to_wire()).unwrap(), mode);
        }
        assert!(SecurityMode::from_wire(7).is_err());
        assert!(SecurityMode::negotiate(SecurityMode::SealedPsk, SecurityMode::SealedPsk).is_ok());
        assert!(SecurityMode::negotiate(SecurityMode::Plaintext, SecurityMode::Plaintext).is_ok());
        assert!(
            SecurityMode::negotiate(SecurityMode::SealedPsk, SecurityMode::Transparent).is_ok()
        );
        let err =
            SecurityMode::negotiate(SecurityMode::SealedPsk, SecurityMode::Plaintext).unwrap_err();
        assert!(err.to_string().contains("downgrade rejected"), "{err}");
    }
}
