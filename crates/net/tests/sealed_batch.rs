//! Mutation fuzzing of sealed-batch open (`docs/WIRE_FORMAT.md` §8.2): the
//! batch plaintext `count: u32 | count × (topic: str, payload: bytes)`
//! inside a sealed record, parsed by `ChannelOpener::open_into` once the
//! record authenticates.
//!
//! The harness seals every plaintext under the real pair key, so the AEAD
//! accepts it and each mutation reaches the batch parser: the count lies
//! (zero, one short, one over, far over, `u32::MAX`), a topic or payload
//! length lies, bytes trail the last envelope, the plaintext is cut short,
//! a bit flips, or a topic is not UTF-8. Whatever the bytes:
//! * opening never panics;
//! * what it allocates is bounded by the record: room for at most
//!   `len / 8` envelopes (each takes at least its two length prefixes),
//!   topics and payloads that together hold at most the plaintext's
//!   bytes, and a decryption scratch no larger than the record;
//! * a plaintext that opens is exactly the encoding of the envelopes it
//!   opened to, and a rejected one releases nothing.
//!
//! Valid batches — of one envelope, as a coalescing link sends them, and of
//! many — open to exactly the envelopes sealed, in order, whether
//! `ChannelSealer::seal_batch` or the harness sealed them.

use proptest::prelude::*;

use ppc_crypto::{psk_direction_key, ChaCha20Poly1305, Seed};
use ppc_net::{
    encode_frame, ChannelKeyring, ChannelOpener, ChannelSealer, Envelope, NetError, PartyId,
    WireWriter, SEALED_TOPIC,
};

const FROM: PartyId = PartyId::DataHolder(3);
const TO: PartyId = PartyId::ThirdParty;

fn psk() -> Seed {
    Seed::from_u64(0x5EA1_BA7C)
}

fn opener() -> ChannelOpener {
    ChannelOpener::new(ChannelKeyring::from_psk(psk()))
}

/// Seals `plaintext`, whatever it holds, as a record `FROM → TO` under
/// the pair's direction key: `salt | seq | ciphertext ‖ tag`, with the
/// nonce `salt ‖ seq` and the two routing parties as associated data.
fn seal_plaintext(plaintext: &[u8], salt: u32, seq: u64) -> Envelope {
    let cipher = ChaCha20Poly1305::from_seed(&psk_direction_key(
        &psk(),
        &FROM.to_string(),
        &TO.to_string(),
    ));
    let mut nonce = [0u8; 12];
    nonce[..4].copy_from_slice(&salt.to_le_bytes());
    nonce[4..].copy_from_slice(&seq.to_le_bytes());
    // A frame's body opens with the same `from ‖ to` encodings.
    let aad = encode_frame(&Envelope::new(FROM, TO, "", Vec::new())).unwrap()[4..14].to_vec();
    let mut payload = Vec::new();
    payload.extend_from_slice(&salt.to_le_bytes());
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(&cipher.seal(&nonce, &aad, plaintext));
    Envelope::new(FROM, TO, SEALED_TOPIC, payload)
}

/// A batch plaintext and, per envelope, the offsets of its topic and
/// payload length prefixes.
struct Batch {
    plaintext: Vec<u8>,
    topic_lengths: Vec<usize>,
    payload_lengths: Vec<usize>,
}

fn encode_batch(envelopes: &[Envelope]) -> Batch {
    let mut w = WireWriter::new();
    w.put_u32(envelopes.len() as u32);
    let (mut topic_lengths, mut payload_lengths) = (Vec::new(), Vec::new());
    for e in envelopes {
        topic_lengths.push(w.len());
        w.put_str(&e.topic);
        payload_lengths.push(w.len());
        w.put_bytes(&e.payload);
    }
    Batch {
        plaintext: w.finish(),
        topic_lengths,
        payload_lengths,
    }
}

fn envelopes_from(topics: &[String], payloads: &[Vec<u8>]) -> Vec<Envelope> {
    topics
        .iter()
        .zip(payloads.iter().cycle())
        .map(|(topic, payload)| Envelope::new(FROM, TO, topic.clone(), payload.clone()))
        .collect()
}

fn put_u32(bytes: &mut [u8], at: usize, value: u32) {
    bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
}

/// Applies mutation `kind` to a valid batch; `value` and `noise` pick
/// where and what.
fn mutate(batch: &Batch, count: u32, kind: u32, value: u32, noise: &[u8]) -> Vec<u8> {
    let mut bytes = batch.plaintext.clone();
    let pick = |offsets: &[usize]| offsets[value as usize % offsets.len()];
    match kind {
        0 => put_u32(&mut bytes, 0, 0),
        1 => put_u32(&mut bytes, 0, count - 1),
        2 => put_u32(&mut bytes, 0, count + 1),
        3 => put_u32(&mut bytes, 0, u32::MAX),
        4 => put_u32(&mut bytes, 0, value),
        5 => {
            let at = pick(&batch.topic_lengths);
            let lie = [value, u32::MAX, value % 64][noise.len() % 3];
            put_u32(&mut bytes, at, lie);
        }
        6 => {
            let at = pick(&batch.payload_lengths);
            let lie = [value, u32::MAX, value % 64][noise.len() % 3];
            put_u32(&mut bytes, at, lie);
        }
        7 => bytes.extend_from_slice(if noise.is_empty() { &[0] } else { noise }),
        8 => bytes.truncate(value as usize % bytes.len()),
        9 => {
            let bit = value as usize % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        _ => {
            // A topic byte that is not UTF-8 (where the topic has one).
            let at = pick(&batch.topic_lengths);
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            if len > 0 {
                bytes[at + 4 + value as usize % len] = 0xFF;
            }
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Valid batches of one and of many envelopes open to exactly what was
    /// sealed, in order, sealed by `seal_batch` or by the harness.
    #[test]
    fn valid_batches_open_to_the_envelopes_sealed_in_order(
        topics in prop::collection::vec("[a-z0-9/-]{0,40}", 1..12),
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 1..6),
        salt in any::<u32>(),
        single in 0u32..2,
    ) {
        let topics = if single == 1 { &topics[..1] } else { &topics[..] };
        let envelopes = envelopes_from(topics, &payloads);
        let sealer = ChannelSealer::new(ChannelKeyring::from_psk(psk()), salt);
        let opened = opener().open(sealer.seal_batch(&envelopes)).unwrap();
        prop_assert_eq!(&opened, &envelopes);

        let sealed = seal_plaintext(&encode_batch(&envelopes).plaintext, salt, 0);
        let opened = opener().open(sealed).unwrap();
        prop_assert_eq!(&opened, &envelopes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Mutated batch plaintexts, sealed under the real key, never panic
    /// the opener, never make it allocate past the record, and open only
    /// to envelopes that re-encode to exactly the bytes sealed.
    #[test]
    fn mutated_batches_open_within_the_record_or_not_at_all(
        topics in prop::collection::vec("[a-z0-9/-]{0,24}", 1..8),
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..80), 1..4),
        kind in 0u32..11,
        value in any::<u32>(),
        noise in prop::collection::vec(any::<u8>(), 0..16),
        seq in any::<u64>(),
    ) {
        let envelopes = envelopes_from(&topics, &payloads);
        let batch = encode_batch(&envelopes);
        let plaintext = mutate(&batch, envelopes.len() as u32, kind, value, &noise);
        let record = seal_plaintext(&plaintext, 7, seq);

        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        let opened = opener().open_into(
            record.from,
            record.to,
            &record.topic,
            &record.payload,
            &mut scratch,
            &mut out,
        );
        prop_assert!(
            out.capacity() <= (plaintext.len() / 8).max(4),
            "room for {} envelopes from {} plaintext bytes", out.capacity(), plaintext.len()
        );
        prop_assert!(scratch.capacity() <= record.payload.len().max(8));
        match opened {
            Ok(()) => {
                let held: usize = out.iter().map(|e| e.topic.len() + e.payload.len()).sum();
                prop_assert!(held <= plaintext.len());
                prop_assert!(out.iter().all(|e| (e.from, e.to) == (FROM, TO)));
                prop_assert_eq!(encode_batch(&out).plaintext, plaintext);
            }
            Err(e) => {
                prop_assert!(out.is_empty(), "a rejected record released envelopes");
                prop_assert!(
                    matches!(e, NetError::AuthFailure { .. } | NetError::Decode(_)),
                    "{:?}", e
                );
            }
        }
    }
}

/// The counts a plaintext cannot back, at their extremes, are refused
/// before anything is reserved; the exact count opens.
#[test]
fn counts_past_what_the_plaintext_holds_are_refused_before_reserving() {
    for (count, body) in [(u32::MAX, 0usize), (1, 7), (2, 15), (1 << 20, 64)] {
        let mut plaintext = count.to_le_bytes().to_vec();
        plaintext.resize(4 + body, 0);
        let record = seal_plaintext(&plaintext, 9, 0);
        let mut out = Vec::new();
        let err = opener()
            .open_into(
                record.from,
                record.to,
                &record.topic,
                &record.payload,
                &mut Vec::new(),
                &mut out,
            )
            .unwrap_err();
        assert!(matches!(err, NetError::AuthFailure { .. }), "{err}");
        assert_eq!(out.capacity(), 0, "count {count}: nothing reserved");
    }
    // Two empty envelopes take exactly 16 bytes: a count of 2 opens.
    let mut plaintext = 2u32.to_le_bytes().to_vec();
    plaintext.resize(4 + 16, 0);
    let opened = opener().open(seal_plaintext(&plaintext, 9, 0)).unwrap();
    assert_eq!(opened, vec![Envelope::new(FROM, TO, "", Vec::new()); 2]);
}
