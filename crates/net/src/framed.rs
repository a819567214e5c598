//! Length-prefixed envelope framing over byte streams.
//!
//! The in-memory [`Network`](crate::transport::Network) moves [`Envelope`]
//! structs directly; a real deployment moves bytes over sockets. This module
//! provides the byte-stream half of the [`Transport`] abstraction:
//!
//! * [`encode_frame`] / [`FrameDecoder`] — a deterministic, length-prefixed
//!   frame format (`u32` body length, then sender, receiver, topic and
//!   payload via the [`crate::codec`] wire primitives). The decoder is
//!   incremental: bytes can be fed in arbitrary fragments (partial reads)
//!   and frames pop out exactly when complete, either as owned envelopes
//!   or as a [`Frame`] borrowed from the decoder's buffer.
//! * [`encode_ack`] — the socket tier's per-hop cumulative ack, a frame
//!   whose body is one `u64`. [`FrameDecoder::next_link_frame`] yields acks
//!   beside envelopes; the envelope-only views skip them.
//! * [`StreamTransport`] — a [`Transport`] over one `io::Read + io::Write`
//!   duplex per party, so anything socket-shaped slots in without touching
//!   protocol code.
//! * [`memory_duplex`] — an in-memory, optionally fragmenting duplex pair
//!   for tests and simulations.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::ops::Range;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::codec::{WireReader, WireWriter};
use crate::error::NetError;
use crate::message::Envelope;
use crate::party::PartyId;
use crate::transport::{Transport, WaitTransport};

/// Upper bound on a single frame body; larger length prefixes are treated
/// as stream corruption rather than honoured with a giant allocation.
pub const MAX_FRAME_BODY: usize = 1 << 30;

const PARTY_HOLDER: u8 = 0;
const PARTY_THIRD: u8 = 1;

/// Body length of a hop ack (`docs/WIRE_FORMAT.md` §4.1): one `u64`. No
/// envelope body is this short (the shortest holds two parties and two
/// length prefixes, 18 bytes), so the length alone tells an ack apart.
pub const ACK_BODY_LEN: usize = 8;

/// The 5-byte wire encoding of one party (tag byte + `u32` LE index),
/// byte-identical to [`put_party`], for callers that want a stack buffer.
pub(crate) fn party_bytes(party: PartyId) -> [u8; 5] {
    let mut bytes = [0u8; 5];
    match party {
        PartyId::DataHolder(i) => {
            bytes[0] = PARTY_HOLDER;
            bytes[1..5].copy_from_slice(&i.to_le_bytes());
        }
        PartyId::ThirdParty => {
            bytes[0] = PARTY_THIRD;
        }
    }
    bytes
}

pub(crate) fn put_party(w: &mut WireWriter, party: PartyId) {
    match party {
        PartyId::DataHolder(i) => {
            w.put_u8(PARTY_HOLDER).put_u32(i);
        }
        PartyId::ThirdParty => {
            w.put_u8(PARTY_THIRD).put_u32(0);
        }
    }
}

pub(crate) fn get_party(r: &mut WireReader<'_>) -> Result<PartyId, NetError> {
    let tag = r.get_u8()?;
    let index = r.get_u32()?;
    match tag {
        PARTY_HOLDER => Ok(PartyId::DataHolder(index)),
        PARTY_THIRD => Ok(PartyId::ThirdParty),
        other => Err(NetError::Decode(format!("unknown party tag {other}"))),
    }
}

/// Body length of a frame carrying `topic_len` topic bytes and
/// `payload_len` payload bytes: two parties plus two length prefixes.
pub(crate) fn frame_body_len(topic_len: usize, payload_len: usize) -> usize {
    18 + topic_len + payload_len
}

/// The cap check every frame builder runs before writing a byte.
pub(crate) fn check_frame_body(topic: &str, body_len: usize) -> Result<(), NetError> {
    if body_len > MAX_FRAME_BODY {
        return Err(NetError::Io(format!(
            "envelope on topic '{topic}' encodes to {body_len} bytes, over the \
             {MAX_FRAME_BODY}-byte frame cap; stream it in chunks instead"
        )));
    }
    Ok(())
}

/// Appends everything of a frame that precedes its payload bytes: the
/// length prefix, both parties, the topic and the payload's length
/// prefix. The caller appends exactly `payload_len` payload bytes next
/// and has checked the cap ([`check_frame_body`]).
pub(crate) fn put_frame_head(
    out: &mut Vec<u8>,
    from: PartyId,
    to: PartyId,
    topic: &str,
    payload_len: usize,
) {
    let body_len = frame_body_len(topic.len(), payload_len);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.extend_from_slice(&party_bytes(from));
    out.extend_from_slice(&party_bytes(to));
    out.extend_from_slice(&(topic.len() as u32).to_le_bytes());
    out.extend_from_slice(topic.as_bytes());
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
}

/// Serialises an envelope into one length-prefixed frame.
///
/// Fails if the encoded body would exceed [`MAX_FRAME_BODY`] — the
/// decoder treats such length prefixes as stream corruption, so emitting
/// one would poison the link. Envelopes that large mean a whole-matrix
/// transfer that should use chunked streaming (`chunk_rows`) instead.
pub fn encode_frame(envelope: &Envelope) -> Result<Vec<u8>, NetError> {
    let body_len = frame_body_len(envelope.topic.len(), envelope.payload.len());
    check_frame_body(&envelope.topic, body_len)?;
    let mut frame = Vec::with_capacity(4 + body_len);
    put_frame_head(
        &mut frame,
        envelope.from,
        envelope.to,
        &envelope.topic,
        envelope.payload.len(),
    );
    frame.extend_from_slice(&envelope.payload);
    Ok(frame)
}

/// Encodes a hop ack: the sender has taken `acked` frames off the link so
/// far, across every stream the link has had. Acks are link metadata:
/// never numbered, counted, sealed or retransmitted.
pub fn encode_ack(acked: u64) -> [u8; 4 + ACK_BODY_LEN] {
    let mut frame = [0u8; 4 + ACK_BODY_LEN];
    frame[..4].copy_from_slice(&(ACK_BODY_LEN as u32).to_le_bytes());
    frame[4..].copy_from_slice(&acked.to_le_bytes());
    frame
}

/// One complete frame, validated and parsed in place in a
/// [`FrameDecoder`]'s buffer.
///
/// `bytes` is the whole frame — length prefix and body — exactly as
/// [`encode_frame`] writes it for the same envelope: validation rewrote
/// the party fields canonically (a third party's index as 0), so a
/// forwarder can pass `bytes` on verbatim instead of re-encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Sending party.
    pub from: PartyId,
    /// Receiving party.
    pub to: PartyId,
    /// The frame's topic.
    pub topic: &'a str,
    /// The frame's payload.
    pub payload: &'a [u8],
    /// The whole encoded frame.
    pub bytes: &'a [u8],
}

impl Frame<'_> {
    /// Copies the frame out into an owned envelope.
    pub fn to_envelope(&self) -> Envelope {
        Envelope::new(self.from, self.to, self.topic, self.payload.to_vec())
    }
}

/// One unit of a link's byte stream, as [`FrameDecoder::next_link_frame`]
/// yields it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFrame<'a> {
    /// An envelope frame.
    Envelope(Frame<'a>),
    /// A hop ack carrying the peer's cumulative received-frame count.
    Ack(u64),
}

/// What [`FrameDecoder::next_unit`] consumed, by position, so no borrow of
/// the buffer outlives the call.
enum Unit {
    Envelope {
        /// The frame's span in the buffer, length prefix included.
        bytes: Range<usize>,
        layout: BodyLayout,
    },
    Ack(u64),
}

/// Where a validated body's fields sit, relative to the body start.
struct BodyLayout {
    from: PartyId,
    to: PartyId,
    topic: Range<usize>,
    payload: Range<usize>,
}

/// Validates one frame body: both parties, a UTF-8 topic, the payload,
/// and no trailing bytes.
fn parse_body(body: &[u8]) -> Result<BodyLayout, NetError> {
    let mut r = WireReader::new(body);
    let from = get_party(&mut r)?;
    let to = get_party(&mut r)?;
    let topic = r.get_bytes_ref()?;
    std::str::from_utf8(topic).map_err(|e| NetError::Decode(format!("invalid utf-8: {e}")))?;
    let topic_end = body.len() - r.remaining();
    let payload = r.get_bytes_ref()?;
    r.expect_end()?;
    Ok(BodyLayout {
        from,
        to,
        topic: topic_end - topic.len()..topic_end,
        payload: body.len() - payload.len()..body.len(),
    })
}

/// Incremental decoder turning a byte stream back into frames.
///
/// Feed fragments of any size with [`feed`](Self::feed); call
/// [`next_frame`](Self::next_frame) (owned envelopes),
/// [`next_frame_ref`](Self::next_frame_ref) (borrowed frames) or
/// [`next_link_frame`](Self::next_link_frame) (borrowed frames and hop
/// acks) until it returns `None` to drain every frame that has fully
/// arrived.
///
/// Buffer contract: the stream lives in one contiguous buffer with a read
/// cursor, and every frame is parsed from a slice of it. The buffer grows
/// only by the bytes fed — never by what a length prefix claims — and
/// compaction (sliding the unread tail to the front) runs only when the
/// tail is no longer than the consumed prefix, so it never moves more
/// bytes than were consumed. After every feed the buffer is at most twice
/// the bytes it holds, so its allocation stays within 4× the most bytes
/// it has held at once.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed.
    start: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends raw stream bytes to the internal buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        let held = self.buffered();
        if self.start > 0 && held <= self.start {
            self.buf.copy_within(self.start.., 0);
            self.buf.truncate(held);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered, not-yet-decoded bytes.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Bytes of buffer the decoder has allocated.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Pops the next complete envelope, or `None` if more bytes are needed.
    /// Hop acks are skipped.
    pub fn next_frame(&mut self) -> Result<Option<Envelope>, NetError> {
        Ok(self.next_frame_ref()?.map(|frame| frame.to_envelope()))
    }

    /// Pops the next complete envelope frame as a view into the decoder's
    /// buffer, or `None` if more bytes are needed. Hop acks are skipped.
    /// Accepts and rejects exactly the streams [`next_frame`](Self::next_frame)
    /// and [`next_link_frame`](Self::next_link_frame) do; a frame whose
    /// body fails validation is consumed along with the error, while an
    /// over-cap length prefix is never consumed.
    pub fn next_frame_ref(&mut self) -> Result<Option<Frame<'_>>, NetError> {
        loop {
            match self.next_unit()? {
                None => return Ok(None),
                Some(Unit::Ack(_)) => {}
                Some(Unit::Envelope { bytes, layout }) => {
                    return Ok(Some(self.frame_at(bytes, layout)))
                }
            }
        }
    }

    /// Pops the next complete unit of a link's stream — an envelope frame
    /// or a hop ack — or `None` if more bytes are needed.
    pub fn next_link_frame(&mut self) -> Result<Option<LinkFrame<'_>>, NetError> {
        Ok(match self.next_unit()? {
            None => None,
            Some(Unit::Ack(acked)) => Some(LinkFrame::Ack(acked)),
            Some(Unit::Envelope { bytes, layout }) => {
                Some(LinkFrame::Envelope(self.frame_at(bytes, layout)))
            }
        })
    }

    /// Consumes and validates the next complete frame: an 8-byte body is
    /// an ack, any other is an envelope body.
    fn next_unit(&mut self) -> Result<Option<Unit>, NetError> {
        let held = &self.buf[self.start..];
        if held.len() < 4 {
            return Ok(None);
        }
        let body_len = u32::from_le_bytes(held[..4].try_into().expect("4 bytes")) as usize;
        if body_len > MAX_FRAME_BODY {
            return Err(NetError::Decode(format!(
                "frame body of {body_len} bytes exceeds the {MAX_FRAME_BODY}-byte cap"
            )));
        }
        if held.len() < 4 + body_len {
            return Ok(None);
        }
        let at = self.start;
        let body_at = at + 4;
        let end = body_at + body_len;
        self.start = end;
        if body_len == ACK_BODY_LEN {
            let acked = u64::from_le_bytes(self.buf[body_at..end].try_into().expect("8 bytes"));
            return Ok(Some(Unit::Ack(acked)));
        }
        let layout = parse_body(&self.buf[body_at..end])?;
        // Canonical party fields: the third party's index is written as
        // 0 whatever the sender put there, as `encode_frame` writes it.
        for (party, offset) in [(layout.from, body_at), (layout.to, body_at + 5)] {
            if party == PartyId::ThirdParty {
                self.buf[offset + 1..offset + 5].fill(0);
            }
        }
        Ok(Some(Unit::Envelope {
            bytes: at..end,
            layout,
        }))
    }

    /// The envelope frame [`next_unit`](Self::next_unit) consumed at
    /// `bytes`.
    fn frame_at(&self, bytes: Range<usize>, layout: BodyLayout) -> Frame<'_> {
        let body = &self.buf[bytes.start + 4..bytes.end];
        Frame {
            from: layout.from,
            to: layout.to,
            topic: std::str::from_utf8(&body[layout.topic]).expect("validated utf-8"),
            payload: &body[layout.payload],
            bytes: &self.buf[bytes],
        }
    }
}

struct StreamLink<S> {
    stream: S,
    decoder: FrameDecoder,
}

/// A [`Transport`] over one framed byte stream per party.
///
/// Each registered party owns a duplex stream (its "socket"): sending to a
/// party writes a frame onto that party's stream, receiving for a party
/// reads whatever bytes are available and decodes complete frames. Streams
/// must be non-blocking in the `io::ErrorKind::WouldBlock` sense (or return
/// `Ok(0)` when idle) for `try_receive` to honour its never-blocks contract.
pub struct StreamTransport<S> {
    links: Mutex<HashMap<PartyId, StreamLink<S>>>,
}

impl<S> Default for StreamTransport<S> {
    fn default() -> Self {
        StreamTransport {
            links: Mutex::new(HashMap::new()),
        }
    }
}

impl<S> std::fmt::Debug for StreamTransport<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamTransport")
            .field("parties", &self.links.lock().len())
            .finish()
    }
}

impl<S: Read + Write> StreamTransport<S> {
    /// Creates a transport with no parties attached.
    pub fn new() -> Self {
        StreamTransport::default()
    }

    /// Attaches `party`'s duplex stream.
    pub fn attach(&self, party: PartyId, stream: S) -> Result<(), NetError> {
        let mut links = self.links.lock();
        if links.contains_key(&party) {
            return Err(NetError::DuplicateParty(party));
        }
        links.insert(
            party,
            StreamLink {
                stream,
                decoder: FrameDecoder::new(),
            },
        );
        Ok(())
    }
}

impl<S: Read + Write> Transport for StreamTransport<S> {
    fn send(&self, envelope: Envelope) -> Result<(), NetError> {
        let mut links = self.links.lock();
        let link = links
            .get_mut(&envelope.to)
            .ok_or(NetError::UnknownParty(envelope.to))?;
        let frame = encode_frame(&envelope)?;
        link.stream
            .write_all(&frame)
            .map_err(|e| NetError::Io(e.to_string()))
    }

    fn try_receive(&self, receiver: PartyId) -> Result<Option<Envelope>, NetError> {
        let mut links = self.links.lock();
        let link = links
            .get_mut(&receiver)
            .ok_or(NetError::UnknownParty(receiver))?;
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(envelope) = link.decoder.next_frame()? {
                return Ok(Some(envelope));
            }
            match link.stream.read(&mut chunk) {
                // EOF on a frame boundary is a clean hangup; EOF with a
                // partial frame buffered means the peer died mid-send.
                Ok(0) => {
                    return if link.decoder.buffered() == 0 {
                        Ok(None)
                    } else {
                        Err(NetError::Io(format!(
                            "peer {receiver} hung up mid-frame with {} bytes buffered",
                            link.decoder.buffered()
                        )))
                    }
                }
                Ok(n) => link.decoder.feed(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(NetError::Io(e.to_string())),
            }
        }
    }

    fn flush(&self) -> Result<(), NetError> {
        let mut links = self.links.lock();
        for link in links.values_mut() {
            link.stream
                .flush()
                .map_err(|e| NetError::Io(e.to_string()))?;
        }
        Ok(())
    }
}

/// Raw framed streams have no wakeup primitive, so blocking receives fall
/// back to the trait's short-interval poll. The socket transports in
/// [`crate::socket`] provide the condvar-backed alternative.
impl<S: Read + Write> WaitTransport for StreamTransport<S> {}

#[derive(Debug, Default)]
struct Pipe {
    bytes: VecDeque<u8>,
}

/// One half of an in-memory duplex byte stream.
///
/// Reads return `io::ErrorKind::WouldBlock` when no bytes are queued, and
/// an optional `chunk_limit` caps how many bytes a single `read` hands
/// over — deliberately fragmenting frames to exercise partial-read paths.
#[derive(Debug, Clone)]
pub struct MemoryDuplex {
    incoming: Arc<Mutex<Pipe>>,
    outgoing: Arc<Mutex<Pipe>>,
    chunk_limit: Option<usize>,
}

/// Creates a connected pair of in-memory duplex streams.
pub fn memory_duplex() -> (MemoryDuplex, MemoryDuplex) {
    let a_to_b = Arc::new(Mutex::new(Pipe::default()));
    let b_to_a = Arc::new(Mutex::new(Pipe::default()));
    (
        MemoryDuplex {
            incoming: Arc::clone(&b_to_a),
            outgoing: Arc::clone(&a_to_b),
            chunk_limit: None,
        },
        MemoryDuplex {
            incoming: a_to_b,
            outgoing: b_to_a,
            chunk_limit: None,
        },
    )
}

impl MemoryDuplex {
    /// Caps every `read` at `limit` bytes, forcing partial frame reads.
    pub fn with_chunk_limit(mut self, limit: usize) -> Self {
        self.chunk_limit = Some(limit.max(1));
        self
    }

    /// Bytes queued for this side to read.
    pub fn pending(&self) -> usize {
        self.incoming.lock().bytes.len()
    }
}

impl Read for MemoryDuplex {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut pipe = self.incoming.lock();
        if pipe.bytes.is_empty() {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let mut limit = buf.len().min(pipe.bytes.len());
        if let Some(cap) = self.chunk_limit {
            limit = limit.min(cap);
        }
        for slot in buf.iter_mut().take(limit) {
            *slot = pipe.bytes.pop_front().expect("length checked");
        }
        Ok(limit)
    }
}

impl Write for MemoryDuplex {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.outgoing.lock().bytes.extend(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope(topic: &str, payload: Vec<u8>) -> Envelope {
        Envelope::new(PartyId::DataHolder(0), PartyId::ThirdParty, topic, payload)
    }

    #[test]
    fn frame_roundtrip_through_incremental_decoder() {
        let e = envelope("numeric/age/0-1/masked", vec![1, 2, 3, 4]);
        let frame = encode_frame(&e).unwrap();
        let mut decoder = FrameDecoder::new();
        // Feed one byte at a time: no frame until the last byte lands.
        for (i, &b) in frame.iter().enumerate() {
            decoder.feed(&[b]);
            let done = decoder.next_frame().unwrap();
            if i + 1 < frame.len() {
                assert!(done.is_none(), "frame complete early at byte {i}");
            } else {
                assert_eq!(done.unwrap(), e);
            }
        }
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut decoder = FrameDecoder::new();
        decoder.feed(&u32::MAX.to_le_bytes());
        assert!(decoder.next_frame().is_err());
    }

    #[test]
    fn corrupt_party_tag_is_rejected() {
        let e = envelope("t", vec![]);
        let mut frame = encode_frame(&e).unwrap();
        frame[4] = 9; // from-party tag
        let mut decoder = FrameDecoder::new();
        decoder.feed(&frame);
        assert!(decoder.next_frame().is_err());
    }

    #[test]
    fn stream_transport_delivers_over_fragmenting_duplex() {
        let transport = StreamTransport::new();
        let (tp_side, _remote) = memory_duplex();
        // Loop the stream back on itself: what the transport writes to the
        // third party it later reads for the third party. The 3-byte chunk
        // limit forces many partial reads per frame.
        let loopback = MemoryDuplex {
            incoming: tp_side.outgoing.clone(),
            outgoing: tp_side.outgoing.clone(),
            chunk_limit: Some(3),
        };
        transport.attach(PartyId::ThirdParty, loopback).unwrap();
        let sent: Vec<Envelope> = (0..5)
            .map(|i| envelope(&format!("topic/{i}"), vec![i as u8; i]))
            .collect();
        for e in &sent {
            transport.send(e.clone()).unwrap();
        }
        transport.flush().unwrap();
        let mut received = Vec::new();
        while let Some(e) = transport.try_receive(PartyId::ThirdParty).unwrap() {
            received.push(e);
        }
        assert_eq!(received, sent);
        assert!(transport
            .try_receive(PartyId::ThirdParty)
            .unwrap()
            .is_none());
    }

    #[test]
    fn unknown_parties_and_duplicates_error() {
        let transport: StreamTransport<MemoryDuplex> = StreamTransport::new();
        assert!(transport.try_receive(PartyId::DataHolder(0)).is_err());
        assert!(transport.send(envelope("t", vec![])).is_err());
        let (a, _b) = memory_duplex();
        transport.attach(PartyId::DataHolder(0), a.clone()).unwrap();
        assert!(transport.attach(PartyId::DataHolder(0), a).is_err());
    }
}
