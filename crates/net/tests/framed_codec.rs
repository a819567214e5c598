//! Property-based coverage for the framed byte-stream codec: arbitrary
//! envelopes round-trip through arbitrary read fragmentation, interleaved
//! multi-session streams demultiplex intact, and the in-place frame path
//! routers forward verbatim agrees with owned decoding and with a
//! reference decoder on valid, corrupt and truncated streams — streams
//! that carry hop acks among the envelopes included, where the link view
//! (`next_link_frame`) yields each ack as encoded and the envelope views
//! skip them.

use proptest::prelude::*;

use ppc_net::framed::{ACK_BODY_LEN, MAX_FRAME_BODY};
use ppc_net::{
    encode_ack, encode_frame, Envelope, FrameDecoder, LinkFrame, NetError, PartyId, WireReader,
};

/// Rebuilds envelopes from parallel value lists (the vendored proptest has
/// no tuple strategies).
fn envelopes_from(
    topics: &[String],
    payloads: &[Vec<u8>],
    froms: &[u32],
    tos: &[u32],
) -> Vec<Envelope> {
    let party = |code: u32| -> PartyId {
        if code.is_multiple_of(4) {
            PartyId::ThirdParty
        } else {
            PartyId::DataHolder(code % 97)
        }
    };
    topics
        .iter()
        .enumerate()
        .map(|(i, topic)| {
            Envelope::new(
                party(froms[i % froms.len()]),
                party(tos[i % tos.len()]),
                topic.clone(),
                payloads[i % payloads.len()].clone(),
            )
        })
        .collect()
}

/// Feeds `stream` to a decoder in `fragment`-byte reads, draining complete
/// frames as they appear (the partial-read path a real socket exercises).
fn decode_fragmented(stream: &[u8], fragment: usize) -> Vec<Envelope> {
    let mut decoder = FrameDecoder::new();
    let mut out = Vec::new();
    for piece in stream.chunks(fragment.max(1)) {
        decoder.feed(piece);
        while let Some(envelope) = decoder.next_frame().expect("valid stream") {
            out.push(envelope);
        }
    }
    assert_eq!(decoder.buffered(), 0, "no trailing bytes may remain");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every envelope sequence survives encoding into one byte stream and
    /// incremental decoding under arbitrary fragmentation.
    #[test]
    fn frames_roundtrip_under_arbitrary_fragmentation(
        topics in prop::collection::vec("[a-z0-9/-]{1,40}", 1..12),
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 1..12),
        froms in prop::collection::vec(0u32..16, 1..8),
        tos in prop::collection::vec(0u32..16, 1..8),
        fragment in 1usize..64,
    ) {
        let envelopes = envelopes_from(&topics, &payloads, &froms, &tos);
        let mut stream = Vec::new();
        for e in &envelopes {
            stream.extend_from_slice(&encode_frame(e).unwrap());
        }
        let decoded = decode_fragmented(&stream, fragment);
        prop_assert_eq!(decoded, envelopes);
    }

    /// Chunk-stream headers (topics carrying `start_row`-style suffixes and
    /// session prefixes) from several interleaved sessions demultiplex back
    /// into per-session subsequences in original order.
    #[test]
    fn interleaved_multi_session_streams_demultiplex_in_order(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 3..30),
        fragment in 1usize..32,
        sessions in 2usize..5,
    ) {
        // Session s's i-th chunk travels on topic "s{s}/numeric/x/0-1/pairwise-chunk".
        let envelopes: Vec<Envelope> = payloads
            .iter()
            .enumerate()
            .map(|(i, payload)| {
                let session = i % sessions;
                Envelope::new(
                    PartyId::DataHolder(1),
                    PartyId::ThirdParty,
                    format!("s{session}/numeric/x/0-1/pairwise-chunk"),
                    payload.clone(),
                )
            })
            .collect();
        let mut stream = Vec::new();
        for e in &envelopes {
            stream.extend_from_slice(&encode_frame(e).unwrap());
        }
        let decoded = decode_fragmented(&stream, fragment);
        prop_assert_eq!(decoded.len(), envelopes.len());
        for session in 0..sessions {
            let prefix = format!("s{session}/");
            let expected: Vec<&Envelope> = envelopes
                .iter()
                .filter(|e| e.topic.starts_with(&prefix))
                .collect();
            let observed: Vec<&Envelope> = decoded
                .iter()
                .filter(|e| e.topic.starts_with(&prefix))
                .collect();
            prop_assert_eq!(observed, expected, "session {} stream reordered", session);
        }
    }

    /// Truncating a valid stream anywhere never yields a phantom frame and
    /// never panics: the decoder just waits for more bytes.
    #[test]
    fn truncated_streams_wait_instead_of_misdecoding(
        topic in "[a-z]{1,20}",
        payload in prop::collection::vec(any::<u8>(), 0..120),
        cut_fraction in 0.0f64..1.0,
    ) {
        let envelope = Envelope::new(
            PartyId::DataHolder(3),
            PartyId::ThirdParty,
            topic,
            payload,
        );
        let frame = encode_frame(&envelope).unwrap();
        let cut = ((frame.len() - 1) as f64 * cut_fraction) as usize;
        let mut decoder = FrameDecoder::new();
        decoder.feed(&frame[..cut]);
        prop_assert!(decoder.next_frame().expect("prefix is never corrupt").is_none());
        // Feeding the remainder completes the frame.
        decoder.feed(&frame[cut..]);
        prop_assert_eq!(decoder.next_frame().unwrap().unwrap(), envelope);
    }
}

// ---------------------------------------------------------------------
// The in-place frame path (`FrameDecoder::next_frame_ref`), which routers
// forward verbatim and receivers open without copying, against
// `next_frame` and against an independent reference decoder.
// ---------------------------------------------------------------------

/// What one decoder made of a stream: the frames it produced (as encoded
/// bytes) up to the first rejection, and whether it rejected.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    frames: Vec<Vec<u8>>,
    rejected: bool,
}

/// The frame grammar of `docs/WIRE_FORMAT.md` §4 read with the codec
/// primitives over the whole stream at once — the specification the
/// incremental decoders are checked against. Frames come out re-encoded
/// by `encode_frame`, and hop acks by `encode_ack`.
fn reference_link_decode(stream: &[u8]) -> Outcome {
    fn party(r: &mut WireReader<'_>) -> Result<PartyId, NetError> {
        let tag = r.get_u8()?;
        let index = r.get_u32()?;
        match tag {
            0 => Ok(PartyId::DataHolder(index)),
            1 => Ok(PartyId::ThirdParty),
            other => Err(NetError::Decode(format!("tag {other}"))),
        }
    }
    let mut frames = Vec::new();
    let mut rest = stream;
    while rest.len() >= 4 {
        let body_len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        if body_len > MAX_FRAME_BODY {
            return Outcome {
                frames,
                rejected: true,
            };
        }
        if rest.len() < 4 + body_len {
            break;
        }
        if body_len == ACK_BODY_LEN {
            let acked = u64::from_le_bytes(rest[4..12].try_into().unwrap());
            frames.push(encode_ack(acked).to_vec());
            rest = &rest[12..];
            continue;
        }
        let mut r = WireReader::new(&rest[4..4 + body_len]);
        let parsed = (|| {
            let from = party(&mut r)?;
            let to = party(&mut r)?;
            let topic = r.get_str()?;
            let payload = r.get_bytes()?;
            r.expect_end()?;
            Ok::<_, NetError>(Envelope::new(from, to, topic, payload))
        })();
        match parsed {
            Ok(envelope) => frames.push(encode_frame(&envelope).unwrap()),
            Err(_) => {
                return Outcome {
                    frames,
                    rejected: true,
                }
            }
        }
        rest = &rest[4 + body_len..];
    }
    Outcome {
        frames,
        rejected: false,
    }
}

/// Whether an encoded unit is a hop ack (no envelope frame is 12 bytes).
fn is_ack(frame: &[u8]) -> bool {
    frame.len() == 4 + ACK_BODY_LEN
}

/// The reference grammar's envelopes alone: what the envelope views yield.
fn reference_decode(stream: &[u8]) -> Outcome {
    let mut outcome = reference_link_decode(stream);
    outcome.frames.retain(|frame| !is_ack(frame));
    outcome
}

/// Feeds `stream` in the given fragment sizes, draining after each feed
/// with `pop`, which yields one frame's encoded bytes.
fn decode_with(
    stream: &[u8],
    fragments: &[usize],
    mut pop: impl FnMut(&mut FrameDecoder) -> Result<Option<Vec<u8>>, NetError>,
) -> Outcome {
    let mut decoder = FrameDecoder::new();
    let mut frames = Vec::new();
    for piece in fragment(stream, fragments) {
        decoder.feed(piece);
        loop {
            match pop(&mut decoder) {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break,
                Err(_) => {
                    return Outcome {
                        frames,
                        rejected: true,
                    }
                }
            }
        }
    }
    Outcome {
        frames,
        rejected: false,
    }
}

/// The bytes `next_frame_ref` yields — what a router forwards.
fn in_place_decode(stream: &[u8], fragments: &[usize]) -> Outcome {
    decode_with(stream, fragments, |d| {
        Ok(d.next_frame_ref()?.map(|frame| frame.bytes.to_vec()))
    })
}

/// Owned envelopes from `next_frame`, re-encoded.
fn owned_decode(stream: &[u8], fragments: &[usize]) -> Outcome {
    decode_with(stream, fragments, |d| {
        Ok(d.next_frame()?.map(|e| encode_frame(&e).unwrap()))
    })
}

/// What `next_link_frame` yields — what a socket's read driver takes —
/// with each ack re-encoded.
fn link_decode(stream: &[u8], fragments: &[usize]) -> Outcome {
    decode_with(stream, fragments, |d| {
        Ok(d.next_link_frame()?.map(|unit| match unit {
            LinkFrame::Envelope(frame) => frame.bytes.to_vec(),
            LinkFrame::Ack(acked) => encode_ack(acked).to_vec(),
        }))
    })
}

/// Interleaves an ack after every `every`-th envelope frame of `frames`,
/// drawing the acked counts from `acks`.
fn with_acks(frames: &[Vec<u8>], acks: &[u64], every: usize) -> Vec<Vec<u8>> {
    let mut units = Vec::new();
    for (i, frame) in frames.iter().enumerate() {
        if i % every.max(1) == 0 {
            units.push(encode_ack(acks[i % acks.len()]).to_vec());
        }
        units.push(frame.clone());
    }
    units
}

/// Splits `stream` into pieces of the given sizes, cycling through them.
fn fragment<'a>(stream: &'a [u8], sizes: &[usize]) -> Vec<&'a [u8]> {
    let mut pieces = Vec::new();
    let mut at = 0;
    let mut i = 0;
    while at < stream.len() {
        let len = sizes[i % sizes.len()].max(1).min(stream.len() - at);
        pieces.push(&stream[at..at + len]);
        at += len;
        i += 1;
    }
    pieces
}

/// Byte offsets of every frame in a valid stream.
fn frame_starts(stream: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut at = 0;
    while at < stream.len() {
        starts.push(at);
        at += 4 + u32::from_le_bytes(stream[at..at + 4].try_into().unwrap()) as usize;
    }
    starts
}

/// A valid stream of the given envelopes in which every third-party
/// field carries an arbitrary (non-canonical) index, as a peer may send.
fn stream_with_loose_indices(envelopes: &[Envelope], noise: &[u32]) -> Vec<u8> {
    let mut stream = Vec::new();
    for (i, e) in envelopes.iter().enumerate() {
        let mut frame = encode_frame(e).unwrap();
        for (k, offset) in [4usize, 9].into_iter().enumerate() {
            if frame[offset] == 1 {
                let index = noise[(2 * i + k) % noise.len()];
                frame[offset + 1..offset + 5].copy_from_slice(&index.to_le_bytes());
            }
        }
        stream.extend_from_slice(&frame);
    }
    stream
}

/// Applies one corruption of kind `kind` to the frame starting at `at`.
fn corrupt(stream: &mut Vec<u8>, at: usize, kind: u32, value: u32) {
    let body_len = u32::from_le_bytes(stream[at..at + 4].try_into().unwrap()) as usize;
    let topic_len = u32::from_le_bytes(stream[at + 14..at + 18].try_into().unwrap()) as usize;
    let set_u32 = |stream: &mut Vec<u8>, offset: usize, v: u32| {
        stream[offset..offset + 4].copy_from_slice(&v.to_le_bytes());
    };
    match kind {
        // A party tag (either field) set to an arbitrary byte.
        0 => stream[at + 4 + 5 * (value as usize % 2)] = (value >> 8) as u8,
        // The topic length prefix moved by a small amount.
        1 => set_u32(
            stream,
            at + 14,
            (topic_len as u32).wrapping_add(value % 9).wrapping_sub(4),
        ),
        // The payload length prefix moved by a small amount.
        2 => {
            let offset = at + 18 + topic_len;
            let payload_len = u32::from_le_bytes(stream[offset..offset + 4].try_into().unwrap());
            set_u32(
                stream,
                offset,
                payload_len.wrapping_add(value % 9).wrapping_sub(4),
            );
        }
        // Invalid UTF-8 inside the topic.
        3 => stream[at + 18 + value as usize % topic_len] = [0xFF, 0xC0, 0x80][value as usize % 3],
        // Trailing bytes inside the body.
        4 => {
            let extra = 1 + value as usize % 5;
            set_u32(stream, at, (body_len + extra) as u32);
            let end = at + 4 + body_len;
            stream.splice(end..end, std::iter::repeat_n(0xAB, extra));
        }
        // A body cut short: the length prefix claims fewer bytes.
        5 => set_u32(
            stream,
            at,
            (body_len - 1 - value as usize % body_len) as u32,
        ),
        // An over-cap length prefix.
        6 => set_u32(
            stream,
            at,
            (MAX_FRAME_BODY as u32 + 1).saturating_add(value),
        ),
        // A flip anywhere in the body.
        _ => stream[at + 4 + value as usize % body_len] ^= 1 << (value % 8),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// For every valid frame, under arbitrary fragmentation, the in-place
    /// path yields exactly `encode_frame(next_frame())` — including the
    /// canonical third-party index a router must forward.
    #[test]
    fn in_place_frames_equal_reencoded_owned_frames(
        topics in prop::collection::vec("[a-z0-9/-]{0,40}", 1..10),
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 1..10),
        froms in prop::collection::vec(0u32..16, 1..8),
        tos in prop::collection::vec(0u32..16, 1..8),
        noise in prop::collection::vec(any::<u32>(), 1..8),
        fragments in prop::collection::vec(1usize..80, 1..6),
    ) {
        let envelopes = envelopes_from(&topics, &payloads, &froms, &tos);
        let stream = stream_with_loose_indices(&envelopes, &noise);
        let in_place = in_place_decode(&stream, &fragments);
        prop_assert!(!in_place.rejected);
        prop_assert_eq!(&in_place, &owned_decode(&stream, &fragments));
        prop_assert_eq!(&in_place, &reference_decode(&stream));
        let expected: Vec<Vec<u8>> = envelopes.iter().map(|e| encode_frame(e).unwrap()).collect();
        prop_assert_eq!(in_place.frames, expected);
    }

    /// Under body corruption and truncation the in-place path rejects
    /// exactly when `next_frame` (and the reference grammar) rejects, and
    /// agrees on every frame before the rejection.
    #[test]
    fn in_place_path_rejects_exactly_when_next_frame_rejects(
        topics in prop::collection::vec("[a-z0-9/-]{1,24}", 1..6),
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..120), 1..6),
        froms in prop::collection::vec(0u32..16, 1..4),
        tos in prop::collection::vec(0u32..16, 1..4),
        target in any::<u32>(),
        kind in 0u32..8,
        value in any::<u32>(),
        cut in 0.0f64..1.5,
        fragments in prop::collection::vec(1usize..64, 1..6),
    ) {
        let envelopes = envelopes_from(&topics, &payloads, &froms, &tos);
        let mut stream = stream_with_loose_indices(&envelopes, &[0]);
        let starts = frame_starts(&stream);
        corrupt(&mut stream, starts[target as usize % starts.len()], kind, value);
        // Sometimes also cut the stream short (a truncated read).
        if cut < 1.0 {
            stream.truncate((stream.len() as f64 * cut) as usize);
        }
        let in_place = in_place_decode(&stream, &fragments);
        prop_assert_eq!(&in_place, &owned_decode(&stream, &fragments));
        prop_assert_eq!(&in_place, &reference_decode(&stream));
    }

    /// The decoder's allocation grows only with the bytes it is fed: it
    /// stays within 4× the most bytes it has held at once, whatever the
    /// length prefixes claim (an over-cap or merely huge prefix followed
    /// by a few bytes allocates for those bytes only).
    #[test]
    fn decoder_allocation_is_bounded_by_the_bytes_it_holds(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..2000), 1..8),
        claimed in any::<u32>(),
        tail in prop::collection::vec(any::<u8>(), 0..200),
        fragments in prop::collection::vec(1usize..3000, 1..6),
    ) {
        let mut stream = Vec::new();
        for (i, payload) in payloads.iter().enumerate() {
            let e = Envelope::new(PartyId::DataHolder(i as u32), PartyId::ThirdParty, "t", payload.clone());
            stream.extend_from_slice(&encode_frame(&e).unwrap());
        }
        // A trailing frame claiming up to 4 GiB that never arrives.
        stream.extend_from_slice(&claimed.max(1 << 20).to_le_bytes());
        stream.extend_from_slice(&tail);
        let mut decoder = FrameDecoder::new();
        let mut peak = 0;
        for piece in fragment(&stream, &fragments) {
            decoder.feed(piece);
            peak = peak.max(decoder.buffered());
            prop_assert!(
                decoder.capacity() <= 4 * peak.max(2),
                "capacity {} for a peak of {} held bytes", decoder.capacity(), peak
            );
            while let Ok(Some(_)) = decoder.next_frame_ref() {}
        }
    }
}

// ---------------------------------------------------------------------
// Hop acks (`docs/WIRE_FORMAT.md` §4) among the envelope frames of a link
// stream: the link view against the reference grammar, and the envelope
// views skipping them.
// ---------------------------------------------------------------------

/// Applies one corruption of kind `kind` to the ack starting at `at`.
fn corrupt_ack(stream: &mut [u8], at: usize, kind: u32, value: u32) {
    let mut set_len = |len: u32| stream[at..at + 4].copy_from_slice(&len.to_le_bytes());
    match kind {
        // A body length other than eight: too short for an envelope, or
        // running into the next frame.
        0 => set_len([0, 1, 7, 9, 17, 18][value as usize % 6]),
        // An over-cap length prefix.
        1 => set_len((MAX_FRAME_BODY as u32 + 1).saturating_add(value)),
        // A flip in the count: still a well-formed ack.
        _ => stream[at + 4 + value as usize % ACK_BODY_LEN] ^= 1 << (value % 8),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Acks among envelope frames, under arbitrary fragmentation: the
    /// link view yields every unit exactly as encoded (decode∘encode is
    /// the identity on acks), and the envelope views yield the envelopes
    /// alone.
    #[test]
    fn acks_among_envelopes_roundtrip_through_the_link_view(
        topics in prop::collection::vec("[a-z0-9/-]{0,24}", 1..10),
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..120), 1..10),
        froms in prop::collection::vec(0u32..16, 1..8),
        tos in prop::collection::vec(0u32..16, 1..8),
        acks in prop::collection::vec(any::<u64>(), 1..6),
        every in 1usize..4,
        fragments in prop::collection::vec(1usize..40, 1..6),
    ) {
        let envelopes = envelopes_from(&topics, &payloads, &froms, &tos);
        let frames: Vec<Vec<u8>> = envelopes.iter().map(|e| encode_frame(e).unwrap()).collect();
        let units = with_acks(&frames, &acks, every);
        let stream = units.concat();
        let link = link_decode(&stream, &fragments);
        prop_assert_eq!(&link, &Outcome { frames: units, rejected: false });
        prop_assert_eq!(&link, &reference_link_decode(&stream));
        let envelopes_only = Outcome { frames, rejected: false };
        prop_assert_eq!(&in_place_decode(&stream, &fragments), &envelopes_only);
        prop_assert_eq!(&owned_decode(&stream, &fragments), &envelopes_only);
    }

    /// With one ack or envelope of such a stream corrupted, and the
    /// stream sometimes cut short, every view rejects exactly when the
    /// reference grammar does and agrees with it on every unit before.
    #[test]
    fn link_view_rejects_exactly_when_the_reference_grammar_rejects(
        topics in prop::collection::vec("[a-z0-9/-]{1,24}", 1..6),
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..120), 1..6),
        froms in prop::collection::vec(0u32..16, 1..4),
        tos in prop::collection::vec(0u32..16, 1..4),
        acks in prop::collection::vec(any::<u64>(), 1..4),
        every in 1usize..3,
        target in any::<u32>(),
        kind in 0u32..8,
        value in any::<u32>(),
        cut in 0.0f64..1.5,
        fragments in prop::collection::vec(1usize..64, 1..6),
    ) {
        let envelopes = envelopes_from(&topics, &payloads, &froms, &tos);
        let frames: Vec<Vec<u8>> = envelopes.iter().map(|e| encode_frame(e).unwrap()).collect();
        let mut stream = with_acks(&frames, &acks, every).concat();
        let starts = frame_starts(&stream);
        let at = starts[target as usize % starts.len()];
        if u32::from_le_bytes(stream[at..at + 4].try_into().unwrap()) as usize == ACK_BODY_LEN {
            corrupt_ack(&mut stream, at, kind % 3, value);
        } else {
            corrupt(&mut stream, at, kind, value);
        }
        if cut < 1.0 {
            stream.truncate((stream.len() as f64 * cut) as usize);
        }
        prop_assert_eq!(&link_decode(&stream, &fragments), &reference_link_decode(&stream));
        prop_assert_eq!(&in_place_decode(&stream, &fragments), &reference_decode(&stream));
        prop_assert_eq!(&owned_decode(&stream, &fragments), &reference_decode(&stream));
    }
}
