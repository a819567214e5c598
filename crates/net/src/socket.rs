//! Real socket bindings: TCP and Unix-domain transports, acceptors and a
//! frame router.
//!
//! [`framed`](crate::framed) defines how envelopes travel as frames over
//! any byte stream but knows nothing about establishing connections. This
//! module binds that framing to actual sockets:
//!
//! * a **handshake** ([`HELLO_MAGIC`]) in which each endpoint announces the
//!   parties it hosts, its channel-security mode (a plaintext/sealed
//!   mismatch between endpoints is rejected, never silently downgraded) and
//!   the number of frames it has received on the logical link, so peers and
//!   routers learn where to deliver and how much to retransmit after a
//!   reconnect;
//! * optional **channel sealing** ([`SocketTransport::set_security`]): with
//!   a [`ChannelKeyring`] installed, every frame is AEAD-sealed end-to-end
//!   between its party pair (routers forward the sealed bytes opaquely),
//!   the replay window retains the *sealed* frames so retransmission reuses
//!   the exact nonces, and tampered / plaintext / reordered inbound frames
//!   surface as [`NetError::AuthFailure`];
//! * [`SocketTransport`] — one framed stream per peer link, each drained by
//!   its read driver into per-party delivery slots, so
//!   [`WaitTransport::receive_any_of`] parks without spinning and wakes only
//!   for the parties it watches. Every link keeps a replay window of sent
//!   frames (implicit per-link sequence numbers), making re-dials and
//!   re-accepts **lossless**: the resume handshake retransmits exactly the
//!   suffix the other side lost;
//! * [`Backoff`] — retry policy for transient connect/send errors;
//! * [`TcpAcceptor`] / [`UdsAcceptor`] — listener-side halves that complete
//!   the handshake and attach the inbound stream to an existing transport;
//! * [`TcpRouter`] / [`UdsRouter`] — a standalone frame router: it validates
//!   each inbound frame in place and forwards its original bytes to the
//!   connection hosting its destination (preferring the originating
//!   connection when it hosts the destination itself, which is what makes
//!   single-process loopback benchmarks traverse a real socket).
//!
//! The wire format is specified normatively in `docs/WIRE_FORMAT.md` at the
//! repository root; the frame layout is the one produced by
//! [`encode_frame`].
//!
//! ## I/O driver
//!
//! Every socket runs nonblocking on the process-global event loop in
//! `crate::reactor`, which holds O(1) threads at any link count. A router's
//! listening socket and each connection it accepts are reactor sources from
//! the hello to the close; only a transport's dial and `accept_into`
//! handshake on the calling thread. A link's one send buffer is its replay
//! window, which one writer (`write_window`) writes straight from. The
//! loop needs unix descriptors: off unix, a link attach or a router spawn
//! fails loudly ("reactor backend unavailable").
//!
//! ## Per-hop acks
//!
//! Each hop acks for itself (`docs/WIRE_FORMAT.md` §3, §4.1): once
//! [`ACK_EVERY_FRAMES`] frames or [`ACK_EVERY_BYTES`] bytes have arrived
//! on a link since its last ack, its receiving end sends its `received`
//! count as a frame of its own ([`encode_ack`]) at the next frame boundary
//! of a write the link makes anyway (alone when it has nothing to send),
//! and the sender drops every replay-window frame up to it. A router acks
//! its origin once a frame is in the destination's window, which keeps it
//! until the destination acks. On a transport the read driver checks each
//! ack and publishes it in counters the link's two halves share, and the
//! writer trims at its next record, flush or resume, so the reactor thread
//! never waits on a writer lock. A resume count trims like an ack. An ack
//! past what was sent, or one that goes backwards, fails the link as a
//! decode error (a router closes the connection).

use std::collections::{BTreeSet, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use polling::Interest;

use crate::codec::{WireReader, WireWriter};
use crate::delivery::{DeliveryMode, FailureScope, Inbox};
use crate::error::NetError;
use crate::framed::{
    encode_ack, encode_frame, get_party, put_party, FrameDecoder, LinkFrame, ACK_BODY_LEN,
    MAX_FRAME_BODY,
};
use crate::message::Envelope;
use crate::metrics::{DeliveryStats, SealingReport, WaitStats};
use crate::party::PartyId;
use crate::reactor::{Reactor, Registration, Source};
use crate::secure::{ChannelKeyring, ChannelOpener, ChannelSealer, SecurityMode, SEALED_TOPIC};
use crate::transport::{Transport, WaitTransport};

/// First bytes of every connection: the handshake magic.
pub const HELLO_MAGIC: [u8; 4] = *b"PPCH";

/// Version byte following the magic; bumped on incompatible wire changes.
///
/// The handshake accepts this exact version only, so a peer that would
/// misread the wire is rejected, never silently downgraded
/// (`docs/WIRE_FORMAT.md` §10). v2 added the resume exchange (§3), v3 the
/// channel-security byte (§8), v4 coalesced sealed records (§8.2), v5
/// packed alphanumeric payloads (§6.5–§6.7), v6 the per-hop ack (§4.1) and
/// v7 the coordinator's `ctl/ready` greeting (§7.1).
pub const WIRE_VERSION: u8 = 7;

/// Bytes of sealed frames a coalescing link leaves unwritten in its replay
/// window before it writes them without waiting for the next flush (see
/// [`SocketTransport::set_coalescing`]): one turn's frames stay well inside
/// socket buffers, and one write pays for many protocol-sized frames.
pub const COALESCE_BUDGET: usize = 64 << 10;

/// Default hard cap on the frames a link's replay window holds. The window
/// holds only what the peer has not acked, which stays near one ack
/// threshold ([`ACK_EVERY_FRAMES`], [`ACK_EVERY_BYTES`]) plus the frames in
/// flight; the cap binds only when a peer stops acking (offline behind a
/// router, say). Override with [`SocketTransport::set_replay_window`].
pub const DEFAULT_REPLAY_FRAMES: usize = 1024;

/// Default hard cap on the bytes of a link's replay window (64 MiB).
/// Whichever cap is hit first evicts the oldest frames (always keeping at
/// least one), so a link whose peer stops acking never retains
/// gigabytes. A reconnect needing evicted frames fails loudly, naming the
/// cap that evicted them.
pub const DEFAULT_REPLAY_BYTES: usize = 64 << 20;

/// A receiving end acks its link once this many frames have arrived since
/// its last ack (or resume count).
pub const ACK_EVERY_FRAMES: u64 = 256;

/// A receiving end acks its link once this many frame bytes have arrived
/// since its last ack (or resume count), whichever threshold comes first.
pub const ACK_EVERY_BYTES: usize = 256 << 10;

/// Whether the frames and bytes a receiving end has taken since its last
/// ack call for an ack; if so, the count starts over.
fn ack_due(since_ack: &mut (u64, usize)) -> bool {
    let due = since_ack.0 >= ACK_EVERY_FRAMES || since_ack.1 >= ACK_EVERY_BYTES;
    if due {
        *since_ack = (0, 0);
    }
    due
}

/// Soft cap on a link's backlog — the bytes recorded in its replay window
/// but not yet written — past which a sending thread parks in
/// `poll(2)`/`wait_writable` until the socket takes more. This is the
/// sender-side backpressure: once a send returns, the link's backlog is at
/// most this many bytes.
pub const SEND_BACKLOG_LIMIT: usize = 1 << 20;

/// Router flow control: once a destination's backlog holds more than this
/// many unwritten bytes, the connections feeding it have their read
/// interest disarmed (paused) until it drains below
/// [`ROUTER_BACKLOG_RESUME`], so backpressure reaches the sending peer
/// through its own socket buffers. There is no hard cap: a destination that
/// stops reading holds its origins paused, and the frames wait in its
/// window, written straight from there once it reads again. Without the
/// pause a fast sender whose receiver shares the reactor's dispatch turn
/// (e.g. an echo through the router inside one process) would grow the
/// backlog without bound even though every peer is healthy.
pub const ROUTER_BACKLOG_PAUSE: usize = 1 << 20;

/// Backlog at which paused origin connections resume reading (hysteresis
/// below [`ROUTER_BACKLOG_PAUSE`] so the gate doesn't flap).
pub const ROUTER_BACKLOG_RESUME: usize = ROUTER_BACKLOG_PAUSE / 2;

/// The I/O driver a [`SocketTransport`] or [`SocketRouter`] runs on. There
/// is one, the reactor (see *I/O driver*); the type stays so that callers
/// naming it, and the `backend` provenance field of bench rows, keep
/// working.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportBackend {
    /// All sockets registered nonblocking with the process-global event
    /// loop in `crate::reactor`: O(1) threads at any link count.
    /// Unsupported off unix (a link attach fails loudly).
    Reactor,
}

impl TransportBackend {
    /// The driver every transport and router runs on.
    pub fn default_for_host() -> Self {
        TransportBackend::Reactor
    }

    /// The canonical spelling, for reports and bench rows.
    pub fn as_str(&self) -> &'static str {
        match self {
            TransportBackend::Reactor => "reactor",
        }
    }
}

impl std::fmt::Display for TransportBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Retry policy for transient socket errors.
///
/// Used when dialling a peer that may not be listening yet (the classic
/// distributed-startup race) and when re-dialling a link whose previous
/// stream broke mid-run. Delays double from [`initial`](Self::initial) up
/// to [`max_delay`](Self::max_delay), for at most
/// [`max_attempts`](Self::max_attempts) attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Delay before the second attempt.
    pub initial: Duration,
    /// Upper bound any single delay is clamped to.
    pub max_delay: Duration,
    /// Total connection attempts (≥ 1) before giving up.
    pub max_attempts: u32,
}

impl Default for Backoff {
    /// 2 ms doubling to 250 ms, 12 attempts (~1.5 s worst case).
    fn default() -> Self {
        Backoff {
            initial: Duration::from_millis(2),
            max_delay: Duration::from_millis(250),
            max_attempts: 12,
        }
    }
}

impl Backoff {
    /// A policy that fails immediately on the first error.
    pub fn none() -> Self {
        Backoff {
            initial: Duration::ZERO,
            max_delay: Duration::ZERO,
            max_attempts: 1,
        }
    }

    /// Runs `attempt` until it succeeds, a non-transient error occurs, or
    /// the attempt budget is exhausted.
    fn retry<T>(&self, mut attempt: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
        let mut delay = self.initial;
        let attempts = self.max_attempts.max(1);
        let mut last_err = None;
        for i in 0..attempts {
            if i > 0 {
                std::thread::sleep(delay);
                delay = (delay * 2).min(self.max_delay);
            }
            match attempt() {
                Ok(v) => return Ok(v),
                Err(e) if is_transient(&e) => last_err = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last_err.expect("at least one attempt ran"))
    }
}

/// Errors worth retrying: the peer is not (yet / any more) there, but may
/// come back.
fn is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::NotFound
            | std::io::ErrorKind::NotConnected
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::AddrNotAvailable
    )
}

/// The frames sent on one logical link that the peer has not acknowledged
/// yet, indexed by implicit per-link sequence number (frame `i` is the
/// `i`-th frame ever written onto the link; per-link FIFO makes the
/// numbering unambiguous without sequence numbers on the wire). It is also
/// the link's one send buffer: the writer writes the frames after its
/// cursor straight from here ([`write_to`](Self::write_to)).
///
/// Hop acks and resume counts drop the frames they cover. A resume count
/// also attaches the window at the first frame the peer lacks, so the
/// writer retransmits exactly the lost suffix; a window not attached yet,
/// or [detached](Self::detach) from a dead stream, writes nothing. Two hard
/// caps, frames and bytes, bound the window when the peer stops acking:
/// past them the oldest frames are evicted — never one at or after the
/// cursor — and a resume that needs one fails loudly instead of resuming
/// with a gap.
#[derive(Debug)]
struct ReplayWindow {
    frames: VecDeque<Vec<u8>>,
    /// Total frames ever recorded (the sequence number of the newest frame).
    sent: u64,
    /// The peer's latest cumulative ack or resume count.
    acked: u64,
    /// The write cursor: the first frame not wholly written on the current
    /// stream, or `None` while the window is detached.
    cursor: Option<u64>,
    /// Bytes already written of the piece at the cursor: `acking`, if
    /// begun, else the frame there.
    partial: usize,
    /// A hop ack begun at a frame boundary and not wholly written.
    acking: Option<AckFrame>,
    /// The hop ack owed to the peer, not begun: it goes out at the next
    /// frame boundary, and a newer one replaces it.
    ack: Option<AckFrame>,
    /// Bytes owed to the stream: the rest of the piece at the cursor, the
    /// owed ack and every later frame.
    backlog: usize,
    capacity: usize,
    /// Byte cap across the retained frames (at least one frame is always
    /// kept so the most recent send stays retransmittable).
    byte_budget: usize,
    bytes: usize,
    /// The cap that evicted the newest evicted frame, if any was evicted.
    evicted_by: Option<ReplayCap>,
}

/// One hop ack as it goes on the wire.
type AckFrame = [u8; 4 + ACK_BODY_LEN];

/// The two hard caps of a [`ReplayWindow`].
#[derive(Debug, Clone, Copy)]
enum ReplayCap {
    Frames,
    Bytes,
}

/// Slices handed to one vectored write.
const WRITE_SLICES: usize = 64;

impl ReplayWindow {
    /// An empty window, not attached to a stream yet.
    fn new(capacity: usize, byte_budget: usize) -> Self {
        ReplayWindow {
            frames: VecDeque::new(),
            sent: 0,
            acked: 0,
            cursor: None,
            partial: 0,
            acking: None,
            ack: None,
            backlog: 0,
            capacity: capacity.max(1),
            byte_budget: byte_budget.max(1),
            bytes: 0,
            evicted_by: None,
        }
    }

    /// Sequence number of the oldest frame held.
    fn first(&self) -> u64 {
        self.sent - self.frames.len() as u64
    }

    /// Records one sent frame (into the backlog, when attached), evicting
    /// the oldest frames beyond the frame or byte cap — but never the
    /// newest frame, and never one at or after the cursor.
    fn record(&mut self, frame: Vec<u8>) {
        self.sent += 1;
        self.bytes += frame.len();
        if self.cursor.is_some() {
            self.backlog += frame.len();
        }
        self.frames.push_back(frame);
        while self.frames.len() > 1
            && (self.frames.len() > self.capacity || self.bytes > self.byte_budget)
            && self.cursor.is_none_or(|cursor| self.first() < cursor)
        {
            self.evicted_by = Some(if self.frames.len() > self.capacity {
                ReplayCap::Frames
            } else {
                ReplayCap::Bytes
            });
            self.free_before(self.first() + 1);
        }
    }

    /// Drops every frame before `seq`.
    fn free_before(&mut self, seq: u64) {
        while self.first() < seq {
            let Some(freed) = self.frames.pop_front() else {
                break;
            };
            self.bytes -= freed.len();
        }
    }

    /// Takes the peer's cumulative hop ack: every frame up to `acked` leaves
    /// the window. The peer can hold only frames wholly written. `Err` (the
    /// ack passes what was written, or goes back from the peer's earlier
    /// one) leaves the window as it was.
    fn ack(&mut self, acked: u64) -> Result<(), String> {
        let written = self.cursor.unwrap_or(self.sent);
        if acked > written {
            return Err(format!(
                "peer acks {acked} frames, only {written} were sent"
            ));
        }
        if acked < self.acked {
            return Err(format!(
                "peer acks {acked} frames after acking {}",
                self.acked
            ));
        }
        self.free_before(acked);
        self.acked = acked;
        Ok(())
    }

    /// How many frames follow the peer's `received` count. `Err` names
    /// why the link cannot resume at that count: the count passes what
    /// was sent, falls below the peer's own earlier ack, or the frames
    /// after it were evicted by the frame or the byte cap.
    fn pending_after(&self, received: u64) -> Result<usize, String> {
        if received > self.sent {
            return Err(format!(
                "peer claims {received} received frames, only {} were sent",
                self.sent
            ));
        }
        if received < self.acked {
            return Err(format!(
                "peer claims {received} received frames, below its own earlier ack of {}",
                self.acked
            ));
        }
        let pending = self.sent - received;
        let held = self.frames.len() as u64;
        if pending > held {
            let cap = match self.evicted_by {
                Some(ReplayCap::Bytes) => format!("{}-byte cap", self.byte_budget),
                _ => format!("{}-frame cap", self.capacity),
            };
            return Err(format!(
                "{} unacknowledged frames evicted from the replay window by its {cap}",
                pending - held
            ));
        }
        Ok(pending as usize)
    }

    /// Takes the peer's resume count on a fresh stream: it acks like a hop
    /// ack and attaches the window at the count, so the backlog is exactly
    /// the suffix to retransmit, from its first byte; the count also says
    /// what an owed ack would have. `Err` as for
    /// [`pending_after`](Self::pending_after), leaving the window as it was.
    fn resume(&mut self, received: u64) -> Result<(), String> {
        self.pending_after(received)?;
        self.free_before(received);
        self.acked = received;
        self.detach();
        self.cursor = Some(received);
        self.backlog = self.bytes;
        Ok(())
    }

    /// Detaches the window from a stream that is gone: nothing is written
    /// until a resume count attaches it again.
    fn detach(&mut self) {
        (self.cursor, self.partial, self.acking, self.ack) = (None, 0, None, None);
        self.backlog = 0;
    }

    /// Owes the peer a hop ack of `received` frames, replacing one not
    /// begun. A detached window owes no stream anything.
    fn queue_ack(&mut self, received: u64) {
        if self.cursor.is_some() {
            if self.ack.is_none() {
                self.backlog += 4 + ACK_BODY_LEN;
            }
            self.ack = Some(encode_ack(received));
        }
    }

    /// Whether a recorded frame is still to be written (an owed ack alone
    /// does not count).
    fn frames_unwritten(&self) -> bool {
        self.cursor.is_some_and(|cursor| cursor < self.sent)
    }

    /// Writes the backlog to `stream` with vectored writes straight from
    /// the frames — the rest of the piece at the cursor, the owed ack, then
    /// the later frames — until it is all taken or the stream would block.
    fn write_to(&mut self, stream: &mut impl Write) -> std::io::Result<()> {
        while self.backlog > 0 {
            let mut slices = [IoSlice::new(&[]); WRITE_SLICES];
            let count = self.slices(&mut slices);
            match stream.write_vectored(&slices[..count]) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => self.advance(n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Fills `slices` with the backlog in stream order; returns how many.
    fn slices<'a>(&'a self, slices: &mut [IoSlice<'a>]) -> usize {
        let Some(cursor) = self.cursor else {
            return 0;
        };
        let mut next = (cursor - self.first()) as usize;
        let begun = match &self.acking {
            Some(ack) => Some(&ack[self.partial..]),
            None if self.partial > 0 => {
                next += 1;
                Some(&self.frames[next - 1][self.partial..])
            }
            None => None,
        };
        let owed = self.ack.as_ref().map(|ack| &ack[..]);
        let pieces = begun.into_iter().chain(owed);
        let pieces = pieces.chain(self.frames.range(next..).map(Vec::as_slice));
        let fill = |(slot, piece): (&mut IoSlice<'a>, &'a [u8])| *slot = IoSlice::new(piece);
        slices.iter_mut().zip(pieces).map(fill).count()
    }

    /// Moves the cursor past `n` written bytes of the backlog. An owed ack
    /// is begun only at a frame boundary.
    fn advance(&mut self, mut n: usize) {
        self.backlog -= n;
        let first = self.first();
        let Some(cursor) = self.cursor.as_mut() else {
            return;
        };
        while n > 0 {
            if self.partial == 0 && self.acking.is_none() {
                self.acking = self.ack.take();
            }
            let len = match &self.acking {
                Some(ack) => ack.len(),
                None => self.frames[(*cursor - first) as usize].len(),
            };
            let step = n.min(len - self.partial);
            self.partial += step;
            n -= step;
            if self.partial == len {
                self.partial = 0;
                if self.acking.take().is_none() {
                    *cursor += 1;
                }
            }
        }
    }
}

/// Socket-like duplex streams the transport can split into a reader half
/// and a writer half.
///
/// Implemented for [`std::net::TcpStream`] and
/// [`std::os::unix::net::UnixStream`]; both clones refer to the same OS
/// socket, so shutting one down ends the stream for every clone.
pub trait SocketStream: Read + Write + Send + Sized + 'static {
    /// Clones the underlying OS handle.
    fn try_clone_stream(&self) -> std::io::Result<Self>;
    /// Shuts down both directions.
    fn shutdown_stream(&self) -> std::io::Result<()>;
    /// Sets or clears the read timeout (used to bound the handshake).
    fn set_stream_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;
    /// Flips the socket (all clones share the one OS fd) between blocking
    /// and nonblocking mode. The reactor runs every registered socket
    /// nonblocking.
    fn set_stream_nonblocking(&self, nonblocking: bool) -> std::io::Result<()>;
    /// The raw OS descriptor, for registration with the readiness poller.
    /// Errors on platforms without unix-style descriptors (where the
    /// reactor, and so every socket link, is unsupported).
    fn stream_raw_fd(&self) -> std::io::Result<polling::RawFd>;
}

impl SocketStream for TcpStream {
    fn try_clone_stream(&self) -> std::io::Result<Self> {
        self.try_clone()
    }

    fn shutdown_stream(&self) -> std::io::Result<()> {
        self.shutdown(Shutdown::Both)
    }

    fn set_stream_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.set_read_timeout(timeout)
    }

    fn set_stream_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        self.set_nonblocking(nonblocking)
    }

    fn stream_raw_fd(&self) -> std::io::Result<polling::RawFd> {
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            Ok(self.as_raw_fd())
        }
        #[cfg(not(unix))]
        {
            Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "raw descriptors (and the reactor) require unix",
            ))
        }
    }
}

#[cfg(unix)]
impl SocketStream for std::os::unix::net::UnixStream {
    fn try_clone_stream(&self) -> std::io::Result<Self> {
        self.try_clone()
    }

    fn shutdown_stream(&self) -> std::io::Result<()> {
        self.shutdown(Shutdown::Both)
    }

    fn set_stream_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.set_read_timeout(timeout)
    }

    fn set_stream_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        self.set_nonblocking(nonblocking)
    }

    fn stream_raw_fd(&self) -> std::io::Result<polling::RawFd> {
        use std::os::unix::io::AsRawFd;
        Ok(self.as_raw_fd())
    }
}

/// Generates a practically unique endpoint id: carried in the hello so the
/// far side can tell two endpoints announcing identical party sets apart
/// (logical links are keyed by endpoint id + party set). A restarted
/// process draws a fresh id, so it gets a clean link instead of a bogus
/// resume of its predecessor's.
fn endpoint_nonce() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let count = COUNTER.fetch_add(1, Ordering::Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    (u64::from(std::process::id()))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(31)
        ^ nanos.wrapping_mul(0xD1B5_4A32_D192_ED03)
        ^ count.rotate_left(17)
}

/// Serialises a hello announcing `endpoint`, `parties` and the endpoint's
/// channel-security `mode` (see `docs/WIRE_FORMAT.md` §3 and §8).
fn encode_hello(endpoint: u64, parties: &BTreeSet<PartyId>, mode: SecurityMode) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(HELLO_HEADER + parties.len() * 5);
    for &b in &HELLO_MAGIC {
        w.put_u8(b);
    }
    w.put_u8(WIRE_VERSION);
    w.put_u8(mode.to_wire());
    w.put_u64(endpoint);
    w.put_u8(parties.len() as u8);
    for &party in parties {
        put_party(&mut w, party);
    }
    w.finish()
}

/// Bytes of a hello before its parties: magic, version, mode, endpoint id
/// and the party count.
const HELLO_HEADER: usize = 15;

/// How much of a peer's hello has arrived: not all of it (this many more
/// bytes complete it, or its header), or all of it (the peer's endpoint id
/// and party set).
enum HelloRead {
    Need(usize),
    Done(u64, BTreeSet<PartyId>),
}

/// The one hello parser (`docs/WIRE_FORMAT.md` §3), for an endpoint in
/// `mode`: reads the hello at the front of `bytes`, which may be
/// incomplete, and never looks past it. `Need` says how many more bytes to
/// fetch, so a caller holds at most one hello (15 + 255 × 5 bytes). `Err`
/// is a bad magic, version or mode byte, a failed security negotiation or
/// an unknown party tag.
fn parse_hello(bytes: &[u8], mode: SecurityMode) -> Result<HelloRead, NetError> {
    if bytes.len() < HELLO_HEADER {
        return Ok(HelloRead::Need(HELLO_HEADER - bytes.len()));
    }
    if bytes[..4] != HELLO_MAGIC {
        return Err(NetError::Decode(format!(
            "bad handshake magic {:02x?} (expected {HELLO_MAGIC:02x?})",
            &bytes[..4]
        )));
    }
    if bytes[4] != WIRE_VERSION {
        return Err(NetError::Decode(format!(
            "peer speaks wire version {}, this build speaks {WIRE_VERSION}",
            bytes[4]
        )));
    }
    let peer_mode = SecurityMode::from_wire(bytes[5])?;
    SecurityMode::negotiate(mode, peer_mode)?;
    let len = HELLO_HEADER + 5 * bytes[HELLO_HEADER - 1] as usize;
    if bytes.len() < len {
        return Ok(HelloRead::Need(len - bytes.len()));
    }
    let peer_endpoint = u64::from_le_bytes(bytes[6..14].try_into().expect("8 bytes"));
    let mut parties = BTreeSet::new();
    for party in bytes[HELLO_HEADER..len].chunks_exact(5) {
        parties.insert(get_party(&mut WireReader::new(party))?);
    }
    Ok(HelloRead::Done(peer_endpoint, parties))
}

/// Handshake stage 1 (`docs/WIRE_FORMAT.md` §3): writes this endpoint's
/// hello, reads and validates the peer's, negotiates channel security, and
/// returns the endpoint id and party set the peer announced. Reads exactly
/// the peer's hello, with the parser a router runs on its reactor.
///
/// Runs over any byte stream; on a socket, arm a read timeout first
/// (`handshake_deadline`) so a silent peer cannot hold the caller.
pub fn exchange_hello<S: Read + Write>(
    stream: &mut S,
    endpoint: u64,
    locals: &BTreeSet<PartyId>,
    mode: SecurityMode,
) -> Result<(u64, BTreeSet<PartyId>), NetError> {
    if locals.len() > u8::MAX as usize {
        return Err(NetError::Io(format!(
            "an endpoint may announce at most 255 parties, got {}",
            locals.len()
        )));
    }
    let io_err = |e: std::io::Error| NetError::Io(format!("handshake failed: {e}"));
    stream
        .write_all(&encode_hello(endpoint, locals, mode))
        .map_err(io_err)?;
    stream.flush().map_err(io_err)?;
    let mut hello = Vec::with_capacity(HELLO_HEADER);
    loop {
        match parse_hello(&hello, mode)? {
            HelloRead::Need(more) => {
                let at = hello.len();
                hello.resize(at + more, 0);
                stream.read_exact(&mut hello[at..]).map_err(io_err)?;
            }
            HelloRead::Done(peer_endpoint, parties) => return Ok((peer_endpoint, parties)),
        }
    }
}

/// Handshake stage 2, the resume exchange (`docs/WIRE_FORMAT.md` §3):
/// announces how many frames this endpoint has received on the logical
/// link and reads the peer's count. The stages are split so listener-side
/// endpoints can look up per-peer link state between reading the hello and
/// answering with their received count.
pub fn exchange_resume<S: Read + Write>(stream: &mut S, received: u64) -> Result<u64, NetError> {
    let io_err = |e: std::io::Error| NetError::Io(format!("resume handshake failed: {e}"));
    stream.write_all(&received.to_le_bytes()).map_err(io_err)?;
    stream.flush().map_err(io_err)?;
    let mut raw = [0u8; 8];
    stream.read_exact(&mut raw).map_err(io_err)?;
    Ok(u64::from_le_bytes(raw))
}

/// How long a handshake may take: the dialling and accepting side's read
/// timeout, and the bound after which a router closes a connection whose
/// hello and resume count are not through.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Arms the handshake's read timeout on a socket ([`HANDSHAKE_TIMEOUT`]),
/// or clears it with `false` once the resume exchange is through.
fn handshake_deadline<S: SocketStream>(stream: &S, armed: bool) -> Result<(), NetError> {
    stream
        .set_stream_read_timeout(armed.then_some(HANDSHAKE_TIMEOUT))
        .map_err(|e| NetError::Io(format!("handshake failed: {e}")))
}

/// What a peer announced in the handshake: its endpoint id, party set and
/// received-frame count.
type Peer = (u64, BTreeSet<PartyId>, u64);

/// Full handshake (both stages) for endpoints that know their received
/// count up front (diallers and re-diallers).
fn handshake<S: SocketStream>(
    stream: &mut S,
    endpoint: u64,
    locals: &BTreeSet<PartyId>,
    received: u64,
    mode: SecurityMode,
) -> Result<Peer, NetError> {
    handshake_deadline(stream, true)?;
    let (peer_endpoint, parties) = exchange_hello(stream, endpoint, locals, mode)?;
    let peer_received = exchange_resume(stream, received)?;
    handshake_deadline(stream, false)?;
    Ok((peer_endpoint, parties, peer_received))
}

/// Arms or disarms write-readiness reporting, tolerating a dead
/// registration (a deregistered fd is on its way to a redial).
fn set_write_interest(registration: &Option<Arc<Registration>>, on: bool) {
    if let Some(registration) = registration {
        let _ = registration.set_writable(on);
    }
}

/// The one writer: writes a link's backlog from its replay window
/// ([`ReplayWindow::write_to`]) to the link's nonblocking socket. What the
/// socket does not take stays in the window and arms write interest, so
/// the reactor's writable dispatch goes on with it — or, with
/// `park_above`, the calling thread parks in [`polling::wait_writable`]
/// while more than that many bytes are left (sender-side backpressure;
/// never on the reactor thread). A `deadline` bounds the park (orderly
/// shutdown, where an unreachable peer must not hang the process). On a
/// blocking stream this writes everything.
fn write_window<S: SocketStream>(
    stream: &mut S,
    window: &mut ReplayWindow,
    registration: &Option<Arc<Registration>>,
    park_above: Option<usize>,
    deadline: Option<Instant>,
) -> std::io::Result<()> {
    loop {
        window.write_to(stream)?;
        if window.backlog == 0 {
            set_write_interest(registration, false);
            return Ok(());
        }
        if park_above.is_none_or(|limit| window.backlog <= limit) {
            set_write_interest(registration, true);
            return Ok(());
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        // Backpressure: park until writable (with interest disarmed, so
        // the reactor does not spin on a lock the parked sender holds),
        // then write again.
        set_write_interest(registration, false);
        let fd = stream.stream_raw_fd()?;
        let _ = polling::wait_writable(fd, Some(Duration::from_millis(50)))?;
    }
}

/// What one link's read driver and writer share without a lock: the
/// reactor thread must never wait on the writer lock, which a sender parked
/// on backpressure holds. The read driver publishes the frames it counts,
/// the peer's checked acks, a due ack of its own and a hangup; the writer
/// publishes what it has recorded.
#[derive(Debug, Default)]
struct AckState {
    /// Frames received on this logical link across every stream it has had:
    /// what this end acks, and announces in the resume exchange.
    received: AtomicU64,
    /// Frames recorded in the link's replay window (its `sent`): no ack
    /// may pass it.
    sent: AtomicU64,
    /// The peer's latest ack or resume count: no ack may go back from it.
    peer_acked: AtomicU64,
    /// An ack of `received` is due, for the writer's next write to carry.
    ack_due: AtomicBool,
    /// The live read driver of a re-diallable link saw its stream end: the
    /// next send re-dials before it writes. A resume clears it.
    hung_up: AtomicBool,
}

/// The writer half of one link: the current OS stream plus the replay
/// window, which is both what makes reconnects lossless and the link's one
/// send buffer. Recording a frame and writing it happen under one lock, so
/// the replay order always equals the stream order.
struct LinkWriter<S> {
    stream: S,
    replay: ReplayWindow,
    /// Shared with the link's read driver.
    acks: Arc<AckState>,
    /// Bumped on every successful stream replacement; a sender whose write
    /// failed checks it to learn whether a concurrent sender already
    /// re-dialled (and therefore already retransmitted the failed frame).
    generation: u64,
    /// A write failure observed asynchronously by the reactor's writable
    /// dispatch, surfaced at the next send or flush on the link.
    write_failed: Option<std::io::Error>,
    /// Reactor registration of the current stream's fd, for arming write
    /// interest (`None` until the link's source registers).
    registration: Option<Arc<Registration>>,
}

impl<S: SocketStream> LinkWriter<S> {
    /// Records one sent frame in the replay window, first freeing what the
    /// peer has acked and queueing a due ack of this end's own, which then
    /// leaves ahead of the frame.
    fn record(&mut self, frame: Vec<u8>) {
        self.settle_acks();
        self.replay.record(frame);
        self.acks.sent.store(self.replay.sent, Ordering::SeqCst);
    }

    /// Frees the frames up to the peer's latest ack. The read driver
    /// checked it against `sent` and the peer's earlier acks, and a resume
    /// raises it only to a count the window took, so the window always
    /// takes it.
    fn trim(&mut self) {
        let _ = self.replay.ack(self.acks.peer_acked.load(Ordering::SeqCst));
    }

    /// Acts on what the read driver published: frees the frames up to the
    /// peer's ack, and queues a due ack in the window. Returns whether an
    /// ack was queued.
    fn settle_acks(&mut self) -> bool {
        self.trim();
        if !self.acks.ack_due.swap(false, Ordering::SeqCst) {
            return false;
        }
        self.replay
            .queue_ack(self.acks.received.load(Ordering::SeqCst));
        true
    }

    /// Settles acks and sends a due one now: with the link's own frames
    /// when it has some still to write (the next flush or writable
    /// dispatch writes them), alone when it has none.
    fn send_due_ack(&mut self) {
        let idle = self.replay.backlog == 0;
        if self.settle_acks() && idle {
            self.write_now();
        }
    }

    /// Writes the backlog ([`write_window`]), parking as `park_above` says.
    fn write(
        &mut self,
        park_above: Option<usize>,
        deadline: Option<Instant>,
    ) -> std::io::Result<()> {
        let (stream, registration) = (&mut self.stream, &self.registration);
        write_window(stream, &mut self.replay, registration, park_above, deadline)
    }

    /// Writes what the socket takes now, never parking (the reactor
    /// thread's write). A failure is stashed for the next send or flush to
    /// surface; the read side sees the broken stream on its own.
    fn write_now(&mut self) {
        if self.write_failed.is_none() {
            match self.write(None, None) {
                Ok(()) => return,
                Err(e) => self.write_failed = Some(e),
            }
        }
        set_write_interest(&self.registration, false);
    }

    /// Sends the frame just recorded in the replay window. With `defer` (a
    /// sealed, coalescing link) the frame waits in the window and leaves
    /// with the rest of the turn at the next flush; only a backlog that
    /// would pass [`COALESCE_BUDGET`] is written at once. Otherwise the
    /// backlog is written through, with sender-side backpressure past
    /// [`SEND_BACKLOG_LIMIT`]. A write failure the reactor's writable
    /// dispatch stashed surfaces here first.
    fn send_recorded(&mut self, defer: bool) -> std::io::Result<()> {
        if let Some(e) = self.write_failed.take() {
            return Err(e);
        }
        if defer && self.replay.backlog <= COALESCE_BUDGET {
            return Ok(());
        }
        self.write(Some(SEND_BACKLOG_LIMIT), None)
    }
}

/// A peer link: the writer half plus routing metadata. The reader half is
/// a reactor source the link keeps, so resuming the link can retire and
/// quiesce exactly its own reader.
struct Link<S> {
    /// The endpoint id the peer announced in its hello; together with the
    /// party set it identifies the logical link across reconnects.
    peer_endpoint: u64,
    /// Parties the peer announced in its hello.
    peer_parties: BTreeSet<PartyId>,
    /// Whether this link is a default route (the peer announced no parties
    /// of its own, i.e. it is a router).
    gateway: bool,
    /// Writer half behind its own lock, so a blocking write on one link
    /// never stalls routing, flushing or other links' sends.
    writer: Arc<Mutex<LinkWriter<S>>>,
    /// OS-handle clone used for shutdown, reachable without taking the
    /// writer lock (a writer parked on backpressure holds that lock).
    control: S,
    /// Address to re-dial if the stream breaks (outbound links only).
    redial: Option<RedialTarget>,
    /// Set when this link's stream is replaced by a re-dial, so the stale
    /// reader's death doesn't poison the fresh link with a fatal error.
    reader_retired: Arc<AtomicBool>,
    /// Shared with the writer and the read driver; its `received` is
    /// announced in the resume handshake so the peer retransmits exactly
    /// the lost suffix.
    acks: Arc<AckState>,
    /// The current stream's read driver (`None` once quiesced).
    reader: Option<Arc<LinkSource<S>>>,
}

/// Why a resume did not go through.
enum ResumeError {
    /// The peer's count or identity rules a lossless resume out, or the
    /// fresh stream could not be set up.
    Refused(NetError),
    /// The fresh stream died while the lost suffix was written to it.
    Retransmission(std::io::Error),
}

impl From<NetError> for ResumeError {
    fn from(error: NetError) -> Self {
        ResumeError::Refused(error)
    }
}

impl From<ResumeError> for NetError {
    fn from(error: ResumeError) -> Self {
        match error {
            ResumeError::Refused(error) => error,
            ResumeError::Retransmission(e) => NetError::Io(format!("retransmission failed: {e}")),
        }
    }
}

/// How to re-establish an outbound link.
#[derive(Debug, Clone, PartialEq, Eq)]
enum RedialTarget {
    /// TCP peer address.
    Tcp(SocketAddr),
    /// Unix-domain socket path.
    #[cfg(unix)]
    Uds(std::path::PathBuf),
}

/// A [`Transport`] over real sockets, one framed stream per peer link.
///
/// Every link's read driver decodes inbound frames into the delivery
/// seam (`crate::delivery::Inbox`): one mutex-guarded queue, failure slot
/// and waiter list per hosted party, so [`receive_any_of`] parks idle
/// workers without polling and is woken only by traffic for the parties
/// it watches. Sends route by `envelope.to`: a link whose peer
/// announced the party wins, then a gateway (router) link, then — for
/// parties this endpoint hosts itself — the local inbox.
///
/// Use the aliases [`TcpTransport`] and [`UdsTransport`]; construction goes
/// through [`TcpTransport::connect`] / [`TcpAcceptor::accept_into`] and the
/// UDS equivalents.
///
/// [`receive_any_of`]: WaitTransport::receive_any_of
pub struct SocketTransport<S: SocketStream> {
    /// This endpoint's unique id, announced in every hello.
    endpoint: u64,
    locals: BTreeSet<PartyId>,
    /// The delivery seam: per-party queues, wake tokens and failure
    /// slots, plus the decode/unseal scratch-buffer pool.
    delivery: Arc<Inbox>,
    links: Mutex<Vec<Link<S>>>,
    shutting_down: Arc<AtomicBool>,
    /// Times a `receive_any_of` caller parked on the arrivals condvar.
    wait_parks: AtomicU64,
    /// Parks that ended in a notification (vs timing out).
    wait_wakeups: AtomicU64,
    /// Policy for re-dialling broken outbound links at send time.
    reconnect: Backoff,
    /// Frames each link retains for retransmission after a reconnect.
    replay_frames: usize,
    /// Byte budget of each link's replay window.
    replay_bytes: usize,
    /// Channel sealing state; `None` runs the links in plaintext.
    security: Option<SecurityState>,
    /// When set (and secured), each link defers its sealed frames to the
    /// next flush, which writes them in one go.
    coalesce: bool,
}

/// The AEAD halves of a secured transport. The sealer runs under its own
/// lock (taken inside the per-link writer lock, so per-pair sequence
/// numbers are assigned in stream order); the opener is shared with every
/// link's read driver.
struct SecurityState {
    sealer: ChannelSealer,
    opener: Arc<ChannelOpener>,
}

impl<S: SocketStream> std::fmt::Debug for SocketTransport<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketTransport")
            .field("locals", &self.locals)
            .field("links", &self.links.lock().len())
            .finish()
    }
}

impl<S: SocketStream> SocketTransport<S> {
    /// Creates a transport hosting `locals` with no peer links yet.
    pub fn new(locals: impl IntoIterator<Item = PartyId>) -> Self {
        let locals: BTreeSet<PartyId> = locals.into_iter().collect();
        SocketTransport {
            endpoint: endpoint_nonce(),
            delivery: Arc::new(Inbox::new(&locals)),
            locals,
            links: Mutex::new(Vec::new()),
            shutting_down: Arc::new(AtomicBool::new(false)),
            wait_parks: AtomicU64::new(0),
            wait_wakeups: AtomicU64::new(0),
            reconnect: Backoff::default(),
            replay_frames: DEFAULT_REPLAY_FRAMES,
            replay_bytes: DEFAULT_REPLAY_BYTES,
            security: None,
            coalesce: false,
        }
    }

    /// The I/O driver this transport attaches links with (always the
    /// reactor).
    pub fn backend(&self) -> TransportBackend {
        TransportBackend::Reactor
    }

    /// Condvar statistics of the receive path: how often workers parked
    /// waiting for frames and how many parks ended in a wakeup (the rest
    /// timed out).
    pub fn wait_stats(&self) -> WaitStats {
        WaitStats {
            blocking_waits: self.wait_parks.load(Ordering::Relaxed),
            wakeups: self.wait_wakeups.load(Ordering::Relaxed),
        }
    }

    /// The delivery strategy inbound frames are queued with (there is
    /// one: per-party slots).
    pub fn delivery_mode(&self) -> DeliveryMode {
        DeliveryMode::Sharded
    }

    /// Delivery-path recycling and wake statistics: buffer-pool hits and
    /// misses plus batched-wake counters. Steady state is all hits — the
    /// delivery machinery allocates nothing per frame.
    pub fn delivery_stats(&self) -> DeliveryStats {
        self.delivery.stats()
    }

    /// Overrides the send-time re-dial policy (default: [`Backoff::default`]).
    pub fn set_reconnect_policy(&mut self, policy: Backoff) {
        self.reconnect = policy;
    }

    /// Enables channel sealing: every frame leaving this endpoint is
    /// AEAD-sealed end-to-end under `keyring`'s per-party-pair direction
    /// keys, and every inbound frame must unseal (plaintext frames are an
    /// [`NetError::AuthFailure`]). The handshake hello advertises
    /// `SealedPsk` and rejects plaintext peers — call this **before** any
    /// link is attached. See `docs/WIRE_FORMAT.md` §8.
    pub fn set_security(&mut self, keyring: ChannelKeyring) {
        let salt = (self.endpoint ^ (self.endpoint >> 32)) as u32;
        self.security = Some(SecurityState {
            sealer: ChannelSealer::new(keyring.clone(), salt),
            opener: Arc::new(ChannelOpener::new(keyring)),
        });
    }

    /// Enables frame coalescing on a secured transport: each send still
    /// seals its envelope into its own record and records it in the replay
    /// window at once, but the frame waits there, unwritten, and the next
    /// [`Transport::flush`] writes the whole turn's frames with one write,
    /// straight from the window. A backlog that would pass
    /// [`COALESCE_BUDGET`] is written straight away, so memory stays
    /// bounded within a turn.
    ///
    /// Deferred frames reach the wire only at a flush or when the budget
    /// fills, so callers must flush at turn boundaries (the session
    /// engines already do). Without coalescing every send writes its
    /// frame at once. No-op without [`set_security`](Self::set_security):
    /// plaintext links always write on every send.
    pub fn set_coalescing(&mut self, enabled: bool) {
        self.coalesce = enabled;
    }

    /// Always `false`. Coalescing links used to latch a per-link bypass
    /// when their traffic did not batch; they now defer every frame to the
    /// flush, with nothing to bypass. Kept so existing callers compile.
    pub fn coalescing_bypassed(&self) -> bool {
        false
    }

    /// Per-link sealing statistics — records and frames sealed/opened,
    /// plaintext vs sealed bytes — or `None` on a plaintext transport.
    pub fn sealing_report(&self) -> Option<SealingReport> {
        self.security.as_ref().map(|s| {
            let mut report = s.sealer.report();
            report.merge(&s.opener.report());
            report
        })
    }

    /// The security mode this endpoint announces in its hello.
    pub fn security_mode(&self) -> SecurityMode {
        if self.security.is_some() {
            SecurityMode::SealedPsk
        } else {
            SecurityMode::Plaintext
        }
    }

    /// Overrides the hard caps of each link's replay window (default:
    /// [`DEFAULT_REPLAY_FRAMES`] frames / [`DEFAULT_REPLAY_BYTES`] bytes —
    /// whichever cap is hit first evicts, always keeping the newest
    /// frame). Applies to links attached after the call. A reconnect whose
    /// lost suffix was evicted fails loudly instead of resuming with a
    /// gap.
    pub fn set_replay_window(&mut self, frames: usize, max_bytes: usize) {
        self.replay_frames = frames.max(1);
        self.replay_bytes = max_bytes.max(1);
    }

    /// The most frames and the most bytes any one of this transport's
    /// replay windows holds right now: frames its peers have not acked, or
    /// whose acks the link's writer has not applied yet (it does at its
    /// next record, flush or resume).
    pub fn replay_held(&self) -> (usize, usize) {
        self.links
            .lock()
            .iter()
            .map(|link| {
                let w = link.writer.lock();
                (w.replay.frames.len(), w.replay.bytes)
            })
            .fold((0, 0), |(f, b), (lf, lb)| (f.max(lf), b.max(lb)))
    }

    /// The parties this endpoint hosts.
    pub fn locals(&self) -> &BTreeSet<PartyId> {
        &self.locals
    }

    /// Number of live peer links.
    pub fn link_count(&self) -> usize {
        self.links.lock().len()
    }

    /// Attaches a fully handshaken stream as a fresh peer link and
    /// registers its read driver. `links` is the already-held link table.
    fn attach_link_locked(
        &self,
        links: &mut Vec<Link<S>>,
        stream: S,
        peer_endpoint: u64,
        peer_parties: BTreeSet<PartyId>,
        redial: Option<RedialTarget>,
    ) -> Result<(), NetError> {
        let reader = stream
            .try_clone_stream()
            .map_err(|e| NetError::Io(format!("cannot split stream: {e}")))?;
        let control = stream
            .try_clone_stream()
            .map_err(|e| NetError::Io(format!("cannot split stream: {e}")))?;
        let gateway = peer_parties.is_empty();
        let reader_retired = Arc::new(AtomicBool::new(false));
        let acks = Arc::new(AckState::default());
        let ingest = self.link_ingest(&reader_retired, &acks, redial.is_some());
        // The peer's resume count on a fresh link is 0 (the caller checked):
        // it attaches the window at the first frame.
        let mut replay = ReplayWindow::new(self.replay_frames, self.replay_bytes);
        replay.resume(0).map_err(NetError::Io)?;
        let writer = Arc::new(Mutex::new(LinkWriter {
            stream,
            replay,
            acks: Arc::clone(&acks),
            generation: 0,
            write_failed: None,
            registration: None,
        }));
        let source = register_link_source(reader, ingest, &writer)?;
        links.push(Link {
            peer_endpoint,
            peer_parties,
            gateway,
            writer,
            control,
            redial,
            reader_retired,
            acks,
            reader: Some(source),
        });
        Ok(())
    }

    /// The ingest half of a new link stream, wired into this transport's
    /// delivery seam and security state.
    fn link_ingest(
        &self,
        retired: &Arc<AtomicBool>,
        acks: &Arc<AckState>,
        recoverable: bool,
    ) -> LinkIngest {
        LinkIngest {
            decoder: FrameDecoder::new(),
            delivery: Arc::clone(&self.delivery),
            opened: Vec::new(),
            touched: Vec::new(),
            shutting_down: Arc::clone(&self.shutting_down),
            retired: Arc::clone(retired),
            acks: Arc::clone(acks),
            since_ack: (0, 0),
            settle: false,
            recoverable,
            opener: self.security.as_ref().map(|s| Arc::clone(&s.opener)),
        }
    }

    /// Retires and quiesces the current read driver of `links[index]`,
    /// returning the final received-frame count for the resume handshake.
    /// Quiescing first guarantees the announced count can no longer move.
    fn quiesce_reader(links: &mut [Link<S>], index: usize) -> u64 {
        let link = &mut links[index];
        link.reader_retired.store(true, Ordering::SeqCst);
        let _ = link.control.shutdown_stream();
        if let Some(source) = link.reader.take() {
            source.quiesce();
        }
        link.acks.received.load(Ordering::SeqCst)
    }

    /// Installs `stream` (already through stage 1 plus the resume exchange,
    /// whose `peer_received` is given) as the new stream of `links[index]`:
    /// registers a fresh reader, rewinds the window's cursor to the peer's
    /// count, writes the unacknowledged suffix from there (parking until it
    /// is all out, so the send, flush or accept that resumed the link
    /// returns only then) and swaps the stream in. The old reader must
    /// already be quiesced.
    fn resume_link_at(
        &self,
        links: &mut [Link<S>],
        index: usize,
        mut stream: S,
        (peer_endpoint, peer_parties, peer_received): Peer,
    ) -> Result<(), ResumeError> {
        if peer_endpoint != links[index].peer_endpoint {
            // The address answered with a different endpoint id: the peer
            // process restarted and lost its link state. Resuming would
            // silently drop or duplicate frames, so only a link with no
            // history may proceed (as a de-facto fresh link).
            let clean = links[index].acks.received.load(Ordering::SeqCst) == 0
                && links[index].writer.lock().replay.sent == 0;
            if !clean {
                return Err(NetError::Io(
                    "peer endpoint changed (peer restarted?); the logical link cannot be \
                     resumed losslessly"
                        .into(),
                )
                .into());
            }
        }
        links[index].peer_endpoint = peer_endpoint;
        let reader = stream
            .try_clone_stream()
            .map_err(|e| NetError::Io(format!("cannot split stream: {e}")))?;
        let control = stream
            .try_clone_stream()
            .map_err(|e| NetError::Io(format!("cannot split stream: {e}")))?;
        // Attach the new stream's read driver *before* retransmitting: the
        // peer is symmetrically retransmitting its own lost suffix, and
        // draining it while we write is what keeps a large mutual resync
        // from deadlocking on full socket buffers. (Registration also flips
        // the fd nonblocking, so the retransmission below parks in
        // `wait_writable` when the socket fills.) The old reader is
        // retired, so only the new one can flag a hangup from here on.
        let old_token = Arc::clone(&links[index].reader_retired);
        let reader_retired = Arc::new(AtomicBool::new(false));
        links[index].acks.hung_up.store(false, Ordering::SeqCst);
        let ingest = self.link_ingest(
            &reader_retired,
            &links[index].acks,
            links[index].redial.is_some(),
        );
        let source = register_link_source(reader, ingest, &links[index].writer)?;
        let retransmission = {
            // Retransmit under the writer lock so concurrent senders queue
            // behind the resync and stream order keeps matching replay
            // order.
            let mut guard = links[index].writer.lock();
            let writer = &mut *guard;
            // Apply the old stream's last ack first, so the resume count is
            // checked against it. The count then acks like a hop ack, the
            // cursor rewinds to it, and the backlog is exactly the suffix
            // to retransmit: every frame the dead stream did not deliver,
            // written or not (record-then-write). The count also superseded
            // any ack owed.
            writer.trim();
            let result = match writer.replay.resume(peer_received) {
                Err(e) => Err(ResumeError::Refused(NetError::Io(e))),
                Ok(()) => {
                    writer.acks.ack_due.store(false, Ordering::SeqCst);
                    write_window(
                        &mut stream,
                        &mut writer.replay,
                        &writer.registration,
                        Some(0),
                        None,
                    )
                    .and_then(|()| stream.flush())
                    .map_err(ResumeError::Retransmission)
                }
            };
            writer
                .acks
                .peer_acked
                .fetch_max(writer.replay.acked, Ordering::SeqCst);
            if result.is_ok() {
                writer.stream = stream;
                writer.generation += 1;
                // A stashed write failure belonged to the dead stream.
                writer.write_failed = None;
            }
            result
        };
        if let Err(e) = retransmission {
            // Abandon the fresh stream; the link keeps its (dead) old
            // stream and its replay window (less what a valid resume count
            // acked), so a later reconnect can retry. (The
            // writer keeps a registration pointing at the abandoned fd;
            // arming interest on it is a harmless no-op.)
            reader_retired.store(true, Ordering::SeqCst);
            let _ = control.shutdown_stream();
            source.quiesce();
            return Err(e);
        }
        let link = &mut links[index];
        link.gateway = peer_parties.is_empty();
        link.peer_parties = peer_parties;
        link.control = control;
        link.reader_retired = reader_retired;
        link.reader = Some(source);
        // A resumed link invalidates a fatal error *its own* dead reader
        // left — never one recorded by a different link's reader.
        self.delivery.clear_failures(&old_token);
        Ok(())
    }

    /// Handshakes a freshly dialled stream and attaches it. If a link with
    /// the same dial target already exists (an explicit reconnect after a
    /// network cut), the logical link is *resumed*: the peer learns our
    /// received count and retransmits what we lost, and we retransmit what
    /// it lost.
    fn connect_stream(
        &self,
        mut stream: S,
        target: RedialTarget,
    ) -> Result<BTreeSet<PartyId>, NetError> {
        let mut links = self.links.lock();
        let existing = links
            .iter()
            .position(|l| l.redial.as_ref() == Some(&target));
        let received = existing.map_or(0, |index| Self::quiesce_reader(&mut links, index));
        let mode = self.security_mode();
        let peer = handshake(&mut stream, self.endpoint, &self.locals, received, mode)?;
        let parties = peer.1.clone();
        self.join_link(&mut links, existing, stream, peer, Some(target))?;
        Ok(parties)
    }

    /// Handshakes an accepted connection on the calling thread and either
    /// resumes the existing logical link with the same announced endpoint
    /// id and party set (retransmitting whatever the peer lost) or attaches
    /// a fresh link. Returns the parties the peer announced.
    fn accept_stream(&self, mut stream: S) -> Result<BTreeSet<PartyId>, NetError> {
        handshake_deadline(&stream, true)?;
        let (peer_endpoint, peer_parties) = exchange_hello(
            &mut stream,
            self.endpoint,
            &self.locals,
            self.security_mode(),
        )?;
        let mut links = self.links.lock();
        let existing = links
            .iter()
            .position(|l| l.peer_endpoint == peer_endpoint && l.peer_parties == peer_parties);
        let received = existing.map_or(0, |index| Self::quiesce_reader(&mut links, index));
        let peer_received = exchange_resume(&mut stream, received)?;
        handshake_deadline(&stream, false)?;
        let peer = (peer_endpoint, peer_parties.clone(), peer_received);
        self.join_link(&mut links, existing, stream, peer, None)?;
        Ok(peer_parties)
    }

    /// Resumes `links[existing]` on a handshaken `stream`, or attaches it
    /// as a fresh link.
    fn join_link(
        &self,
        links: &mut Vec<Link<S>>,
        existing: Option<usize>,
        stream: S,
        peer: Peer,
        redial: Option<RedialTarget>,
    ) -> Result<(), NetError> {
        if let Some(index) = existing {
            return self
                .resume_link_at(links, index, stream, peer)
                .map_err(NetError::from);
        }
        let (peer_endpoint, peer_parties, peer_received) = peer;
        if peer_received != 0 {
            return Err(NetError::Io(format!(
                "peer expects to resume at frame {peer_received} on a link this endpoint \
                 holds no state for (frames are irrecoverably lost)"
            )));
        }
        self.attach_link_locked(links, stream, peer_endpoint, peer_parties, redial)
    }

    /// Index of the link that should carry traffic for `to`, if any.
    fn route(links: &[Link<S>], to: PartyId) -> Option<usize> {
        links
            .iter()
            .position(|l| l.peer_parties.contains(&to))
            .or_else(|| links.iter().position(|l| l.gateway))
    }

    /// Re-dials a broken outbound link in place, resuming the logical link:
    /// the resume handshake tells this side how many frames the peer
    /// actually received, and the lost suffix is retransmitted from the
    /// replay window before any new traffic, so nothing written into the
    /// dying socket is lost (at-least-never-dropped; duplicates are
    /// impossible because retransmission starts exactly at the peer's
    /// count).
    fn redial_link(&self, links: &mut [Link<S>], index: usize) -> Result<(), NetError>
    where
        S: Redial,
    {
        let target = links[index]
            .redial
            .clone()
            .ok_or_else(|| NetError::Io("link broke and cannot be re-dialled".into()))?;
        // Quiesce the dead stream's reader first so the received count we
        // announce is final (and the dead reader cannot poison the fresh
        // link with a fatal error).
        let mut received = Self::quiesce_reader(links, index);
        // A fresh stream can die while the lost suffix is written to it (the
        // peer, or a router on its behalf, drops it). Dial again, within
        // the reconnect budget; the peer has counted what arrived, so each
        // attempt resumes further on.
        let mut attempts = self.reconnect.max_attempts.max(1);
        loop {
            let mut stream = self
                .reconnect
                .retry(|| S::redial(&target))
                .map_err(|e| NetError::Io(format!("reconnect failed: {e}")))?;
            let mode = self.security_mode();
            let peer = handshake(&mut stream, self.endpoint, &self.locals, received, mode)?;
            match self.resume_link_at(links, index, stream, peer) {
                Err(ResumeError::Retransmission(e)) if is_transient(&e) && attempts > 1 => {
                    attempts -= 1;
                    // The abandoned stream's reader, quiesced by now, may
                    // have taken frames of the peer's own resync.
                    received = links[index].acks.received.load(Ordering::SeqCst);
                }
                result => return result.map_err(NetError::from),
            }
        }
    }

    /// Tears down the OS stream of every link while keeping the logical
    /// link state (received counters, replay windows), simulating a network
    /// cut: the next send re-dials outbound links, and a listener can
    /// re-accept inbound ones, in both cases retransmitting the lost
    /// suffix. Used by tests and fail-over drills.
    pub fn sever_links(&self) {
        let mut links = self.links.lock();
        for index in 0..links.len() {
            let _ = Self::quiesce_reader(&mut links, index);
        }
    }

    /// Tears down every link: shuts the sockets down and quiesces their
    /// read drivers. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        let mut links = self.links.lock();
        for index in 0..links.len() {
            // Best-effort write of the backlog, so an orderly shutdown does
            // not strand deferred frames (a crash still can; the peer then
            // misses them like any unsent protocol state). It is
            // deadline-bounded: an unreachable peer must not hang the
            // process on exit.
            {
                let mut w = links[index].writer.lock();
                let _ = w.write(Some(0), Some(Instant::now() + Duration::from_secs(1)));
                let _ = w.stream.flush();
            }
            let _ = Self::quiesce_reader(&mut links, index);
        }
        drop(links);
        self.delivery.wake_all();
    }
}

impl<S: SocketStream> crate::metrics::WaitStatsReporter for SocketTransport<S> {
    fn wait_stats(&self) -> Option<WaitStats> {
        Some(SocketTransport::wait_stats(self))
    }
}

impl<S: SocketStream> Drop for SocketTransport<S> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Streams that know how to re-establish themselves from a [`RedialTarget`].
trait Redial: SocketStream {
    fn redial(target: &RedialTarget) -> std::io::Result<Self>;
}

impl Redial for TcpStream {
    fn redial(target: &RedialTarget) -> std::io::Result<Self> {
        match target {
            RedialTarget::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                Ok(stream)
            }
            #[cfg(unix)]
            RedialTarget::Uds(_) => Err(std::io::Error::other("TCP link with a UDS target")),
        }
    }
}

#[cfg(unix)]
impl Redial for std::os::unix::net::UnixStream {
    fn redial(target: &RedialTarget) -> std::io::Result<Self> {
        match target {
            RedialTarget::Uds(path) => std::os::unix::net::UnixStream::connect(path),
            RedialTarget::Tcp(_) => Err(std::io::Error::other("UDS link with a TCP target")),
        }
    }
}

/// The inbound half of one link stream: frame decoding, unsealing, inbox
/// delivery, received-frame counting and failure recording. The link's
/// [`LinkSource`] pushes the raw bytes it reads through it.
struct LinkIngest {
    decoder: FrameDecoder,
    delivery: Arc<Inbox>,
    /// Reusable scratch for one record's unsealed inner envelopes.
    opened: Vec<Envelope>,
    /// Receivers touched since the last wake (one wake per read chunk).
    touched: Vec<PartyId>,
    shutting_down: Arc<AtomicBool>,
    retired: Arc<AtomicBool>,
    /// Shared with the link's writer.
    acks: Arc<AckState>,
    /// Frames and bytes taken on this stream since this end last acked
    /// (the resume count acked everything before the stream).
    since_ack: (u64, usize),
    /// Set when a chunk took a peer ack or made one of ours due: the read
    /// driver then lets the writer act on it, if no sender holds it.
    settle: bool,
    recoverable: bool,
    opener: Option<Arc<ChannelOpener>>,
}

impl LinkIngest {
    /// Records a fatal link-level failure (every hosted party sees it)
    /// and wakes waiters.
    fn fail(&self, error: NetError) {
        self.delivery.fail(FailureScope::Link, error, &self.retired);
    }

    /// Records a fatal failure scoped to the party a frame concerned.
    fn fail_party(&self, party: PartyId, error: NetError) {
        self.delivery
            .fail(FailureScope::Party(party), error, &self.retired);
    }

    /// Whether stream-level failures should be suppressed: the transport
    /// is shutting down, or this stream's driver was retired by a resume.
    fn silenced(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst) || self.retired.load(Ordering::SeqCst)
    }

    /// Takes the peer's hop ack: checks it against what the writer has
    /// recorded and the peer's earlier acks, and publishes it for the
    /// writer to trim to. `Err` is the peer lying about what it holds.
    fn take_ack(&mut self, acked: u64) -> Result<(), NetError> {
        let sent = self.acks.sent.load(Ordering::SeqCst);
        let previous = self.acks.peer_acked.load(Ordering::SeqCst);
        if acked > sent {
            return Err(NetError::Decode(format!(
                "peer acks {acked} frames, only {sent} were sent"
            )));
        }
        if acked < previous {
            return Err(NetError::Decode(format!(
                "peer acks {acked} frames after acking {previous}"
            )));
        }
        self.acks.peer_acked.fetch_max(acked, Ordering::SeqCst);
        self.settle = true;
        Ok(())
    }

    /// Feeds raw stream bytes through the decoder and delivers every
    /// complete frame. Returns `false` on a fatal frame — a decode failure
    /// (corrupt framing) or an authentication failure (tampered or
    /// plaintext frames on a secured transport) — which is *always* fatal
    /// regardless of recoverability: active interference must surface,
    /// never be retried around. The driver must stop reading the stream.
    ///
    /// Frames are unsealed (or copied out) straight from the decoder's
    /// buffer. Delivery is batched: every frame in the chunk is queued
    /// first, then each touched party is signalled once (`Inbox::wake`).
    /// The unsealed-plaintext scratch and plaintext-frame payloads come
    /// from the inbox's scratch-buffer pool.
    fn on_bytes(&mut self, bytes: &[u8]) -> bool {
        self.decoder.feed(bytes);
        loop {
            let taken = match self.decoder.next_link_frame() {
                Ok(Some(LinkFrame::Envelope(frame))) => Ok(frame),
                Ok(Some(LinkFrame::Ack(acked))) => match self.take_ack(acked) {
                    Ok(()) => continue,
                    Err(e) => Err(e),
                },
                Ok(None) => break,
                Err(e) => Err(e),
            };
            let frame = match taken {
                Ok(frame) => frame,
                Err(e) => {
                    self.fail(e);
                    self.delivery.wake(&mut self.touched);
                    return false;
                }
            };
            // Unseal (or reject) before delivery: a secured transport
            // accepts only sealed records, a plaintext one only cleartext.
            // One wire frame may carry a whole batch of inner envelopes
            // (coalesced records); they are delivered in batch order,
            // preserving per-pair FIFO.
            let to = frame.to;
            let wire_len = frame.bytes.len();
            let accepted = match &self.opener {
                Some(opener) => {
                    let mut scratch = self.delivery.pool.take();
                    let opened = opener.open_into(
                        frame.from,
                        frame.to,
                        frame.topic,
                        frame.payload,
                        &mut scratch,
                        &mut self.opened,
                    );
                    self.delivery.pool.put(scratch);
                    opened
                }
                None if frame.topic == SEALED_TOPIC => Err(NetError::AuthFailure {
                    detail: format!(
                        "sealed frame from {} on a plaintext transport \
                         (security mismatch across the federation)",
                        frame.from
                    ),
                }),
                None => {
                    let mut payload = self.delivery.pool.take();
                    payload.extend_from_slice(frame.payload);
                    self.opened
                        .push(Envelope::new(frame.from, frame.to, frame.topic, payload));
                    Ok(())
                }
            };
            if let Err(e) = accepted {
                // A rejected record concerns the party it was addressed
                // to; other parties' links are intact.
                self.fail_party(to, e);
                self.delivery.wake(&mut self.touched);
                return false;
            }
            self.delivery.push_all(&mut self.opened, &mut self.touched);
            // The resume handshake counts *wire frames* (the unit the
            // replay window retransmits), so a coalesced record still
            // counts once.
            self.acks.received.fetch_add(1, Ordering::SeqCst);
            self.since_ack.0 += 1;
            self.since_ack.1 += wire_len;
        }
        self.delivery.wake(&mut self.touched);
        if ack_due(&mut self.since_ack) {
            self.acks.ack_due.store(true, Ordering::SeqCst);
            self.settle = true;
        }
        true
    }

    /// The stream ended: EOF (`None`) or an I/O error. On a recoverable
    /// link (one with a re-dial target) the hangup is flagged, never fatal:
    /// the next send re-dials before it writes into the dead socket (whose
    /// kernel buffer would take the frame, to fail only at a later write),
    /// and the retransmission replaces even a torn frame. Elsewhere an
    /// error, or EOF mid-frame, is fatal.
    fn on_end(&self, error: Option<std::io::Error>) {
        if self.silenced() {
            return;
        }
        if self.recoverable {
            self.acks.hung_up.store(true, Ordering::SeqCst);
        } else if let Some(e) = error {
            self.fail(NetError::Io(e.to_string()));
        } else if self.decoder.buffered() > 0 {
            self.fail(NetError::Io(format!(
                "peer hung up mid-frame with {} bytes buffered",
                self.decoder.buffered()
            )));
        }
    }
}

/// Read-side state of a link: the nonblocking stream and its
/// [`LinkIngest`]. The whole driver is one mutex so it doubles as the
/// quiesce barrier (see `crate::reactor`).
struct ReadDriver<S> {
    stream: S,
    ingest: LinkIngest,
    /// Latched when the stream reached EOF or a fatal condition; later
    /// dispatches are no-ops.
    done: bool,
}

/// The I/O driver of one link: a readiness [`Source`] that drains the
/// stream through its ingest on readable events and writes the writer's
/// backlog on writable events.
struct LinkSource<S> {
    read: Mutex<ReadDriver<S>>,
    /// The link's writer, for writing its backlog on writable readiness.
    writer: Arc<Mutex<LinkWriter<S>>>,
    registration: OnceLock<Arc<Registration>>,
}

impl<S: SocketStream> LinkSource<S> {
    /// Quiesce protocol (see `crate::reactor`): with the retired flag
    /// already set, deregistering stops future dispatch, and the read-mutex
    /// barrier waits out any dispatch already in flight — after it, the
    /// received counter is final.
    fn quiesce(&self) {
        if let Some(registration) = self.registration.get() {
            registration.deregister();
        }
        drop(self.read.lock());
    }

    fn drain_readable(&self) {
        let mut guard = self.read.lock();
        let driver = &mut *guard;
        if driver.done || driver.ingest.retired.load(Ordering::SeqCst) {
            return;
        }
        let mut buf = [0u8; 16 * 1024];
        loop {
            match driver.stream.read(&mut buf) {
                Ok(0) => {
                    driver.ingest.on_end(None);
                    driver.done = true;
                    break;
                }
                Ok(n) => {
                    if !driver.ingest.on_bytes(&buf[..n]) {
                        driver.done = true;
                        break;
                    }
                    // Let the writer act on the acks this chunk published,
                    // unless a sender holds it: then that sender's next
                    // record or flush does, so the reactor thread never
                    // waits on a writer lock.
                    if std::mem::take(&mut driver.ingest.settle) {
                        if let Some(mut writer) = self.writer.try_lock() {
                            writer.send_due_ack();
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    driver.ingest.on_end(Some(e));
                    driver.done = true;
                    break;
                }
            }
        }
        // The stream is finished. Deregister entirely: under
        // level-triggered polling a half-closed fd keeps reporting HUP, so
        // leaving it registered would spin the loop. The write side of a
        // dead stream is dead too — the next send's failure re-dials.
        if let Some(registration) = self.registration.get() {
            registration.deregister();
        }
    }

    fn drain_writable(&self) {
        // try_lock: the reactor thread must never park on a sender's lock;
        // level-triggered polling re-reports writable on the next loop.
        if let Some(mut writer) = self.writer.try_lock() {
            writer.write_now();
        }
    }
}

impl<S: SocketStream> Source for LinkSource<S> {
    fn on_ready(&self, readable: bool, writable: bool) {
        // Writes first: on a HUP (reported as both) the backlog still gets
        // its chance before the read path deregisters the fd.
        if writable {
            self.drain_writable();
        }
        if readable {
            self.drain_readable();
        }
    }

    fn on_failure(&self, error: NetError) {
        // The stream is read no more; every party this endpoint hosts sees
        // the failure, unless a resume or shutdown already retired it.
        let mut driver = self.read.lock();
        driver.done = true;
        if !driver.ingest.silenced() {
            driver.ingest.fail(error);
        }
    }
}

/// Registers `stream` (flipped nonblocking — the mode is shared by every
/// clone of the fd, including the writer's) with the process-global
/// reactor as the read driver of one link, pointing the writer's
/// registration at the new fd so sends can arm write interest.
fn register_link_source<S: SocketStream>(
    stream: S,
    ingest: LinkIngest,
    writer: &Arc<Mutex<LinkWriter<S>>>,
) -> Result<Arc<LinkSource<S>>, NetError> {
    stream
        .set_stream_nonblocking(true)
        .map_err(|e| NetError::Io(format!("cannot set nonblocking: {e}")))?;
    let fd = stream
        .stream_raw_fd()
        .map_err(|e| NetError::Io(format!("reactor backend unavailable: {e}")))?;
    let source = Arc::new(LinkSource {
        read: Mutex::new(ReadDriver {
            stream,
            ingest,
            done: false,
        }),
        writer: Arc::clone(writer),
        registration: OnceLock::new(),
    });
    let reactor =
        Reactor::global().map_err(|e| NetError::Io(format!("reactor backend unavailable: {e}")))?;
    let registration = reactor
        .register(fd, Interest::READ, Arc::clone(&source) as Arc<dyn Source>)
        .map_err(|e| NetError::Io(format!("reactor registration failed: {e}")))?;
    let _ = source.registration.set(Arc::clone(&registration));
    writer.lock().registration = Some(registration);
    Ok(source)
}

impl<S: SocketStream + Redial> Transport for SocketTransport<S> {
    fn send(&self, envelope: Envelope) -> Result<(), NetError> {
        // Resolve the route under the global lock, then write under the
        // link's own lock so one slow peer never stalls the others.
        let routed = {
            let links = self.links.lock();
            Self::route(&links, envelope.to).map(|index| {
                (
                    index,
                    Arc::clone(&links[index].writer),
                    links[index].redial.is_some(),
                )
            })
        };
        let (index, writer, can_redial) = match routed {
            Some(route) => route,
            // In-process delivery to a hosted party never touches a wire:
            // no sealing. Any other party is unknown.
            None => return self.delivery.deliver_now(envelope),
        };
        if self.security.is_some()
            && envelope.topic.len() + envelope.payload.len() + 96 > MAX_FRAME_BODY
        {
            // Reject before sealing: consuming a nonce sequence number for
            // a frame that can never be encoded would leave a permanent
            // gap in the pair's stream.
            return Err(NetError::Io(format!(
                "envelope on topic '{}' is over the {MAX_FRAME_BODY}-byte frame cap once \
                 sealed; stream it in chunks instead",
                envelope.topic
            )));
        }
        // Seal (on secured transports), encode and record the frame in the
        // replay window *before* attempting the write — all under the
        // writer lock, so replay order equals stream order and per-pair
        // nonce sequence numbers are assigned in the order frames hit the
        // stream: whatever happens to the write, the frame is now part of
        // the link's history and any resume retransmits it byte-identically
        // (same sealed bytes, same nonce). A coalescing link then defers
        // the write to the next flush.
        let to = envelope.to;
        let defer = self.coalesce && self.security.is_some();
        let (generation, write_error) = {
            let mut guard = writer.lock();
            let w = &mut *guard;
            let frame = match &self.security {
                Some(security) => security
                    .sealer
                    .seal_frame(std::slice::from_ref(&envelope))?,
                None => encode_frame(&envelope)?,
            };
            w.record(frame);
            // A peer that hung up gets no write into its dead socket: the
            // re-dial below resumes the link, and its retransmission
            // carries the frame just recorded.
            let sent = if can_redial && w.acks.hung_up.load(Ordering::SeqCst) {
                Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "the peer hung up",
                ))
            } else {
                w.send_recorded(defer)
            };
            match sent {
                Ok(()) => return Ok(()),
                Err(e) => (w.generation, e),
            }
        };
        if !(is_transient(&write_error) && can_redial) {
            return Err(NetError::Io(write_error.to_string()));
        }
        // The stream died under us. Re-dial with backoff (under the global
        // lock: redials are rare and must not race each other) unless a
        // concurrent sender already replaced the stream — its resume
        // retransmitted our recorded frame along with the rest.
        let mut links = self.links.lock();
        if links[index].writer.lock().generation != generation {
            return Ok(());
        }
        self.redial_link(&mut links, index).map_err(|e| match e {
            NetError::Io(detail) => NetError::PeerUnreachable { party: to, detail },
            other => other,
        })
    }

    fn try_receive(&self, receiver: PartyId) -> Result<Option<Envelope>, NetError> {
        self.delivery.try_pop(receiver)
    }

    fn flush(&self) -> Result<(), NetError> {
        type WriterSnapshot<S> = Vec<(usize, Arc<Mutex<LinkWriter<S>>>, Arc<AckState>, bool)>;
        let writers: WriterSnapshot<S> = self
            .links
            .lock()
            .iter()
            .enumerate()
            .map(|(index, link)| {
                (
                    index,
                    Arc::clone(&link.writer),
                    Arc::clone(&link.acks),
                    link.redial.is_some(),
                )
            })
            .collect();
        for (index, writer, acks, recoverable) in writers {
            // On a coalescing link the window holds the turn's deferred
            // frames unwritten: flush is where they leave, in one write.
            let (generation, had_pending, result) = {
                let mut guard = writer.lock();
                let w = &mut *guard;
                let had_pending = w.replay.frames_unwritten() || w.write_failed.is_some();
                // A due ack leaves with the turn; a dead link does not
                // re-dial for an ack alone.
                w.settle_acks();
                // A write failure the reactor's writable dispatch stashed
                // surfaces here. Otherwise flush writes the whole backlog
                // (`Some(0)` parks in `wait_writable` until the socket
                // takes the rest).
                let result = match w.write_failed.take() {
                    Some(e) => Err(e),
                    None => w.write(Some(0), None).and_then(|()| w.stream.flush()),
                };
                (w.generation, had_pending, result)
            };
            if result.is_ok() && acks.ack_due.load(Ordering::SeqCst) {
                // The read driver flagged an ack while this flush held the
                // lock, so its `try_lock` failed. Checked after unlocking,
                // a flag raised before the unlock is never stranded until
                // the next turn.
                writer.lock().send_due_ack();
            }
            if let Err(e) = result {
                if !(recoverable && is_transient(&e)) {
                    return Err(NetError::Io(e.to_string()));
                }
                if !had_pending {
                    // A dead-but-redialable link with nothing buffered
                    // flushes again after the next send resumes it.
                    continue;
                }
                // The stream died under a drain. The drained frames are
                // in the replay window, but unlike the send path there may
                // be no follow-up send to trigger the re-dial (the peer may
                // be waiting on exactly these frames), so resume the link
                // here. A concurrent sender that already re-dialled bumped
                // the generation and retransmitted for us.
                let mut links = self.links.lock();
                if links[index].writer.lock().generation != generation {
                    continue;
                }
                self.redial_link(&mut links, index)?;
            }
        }
        Ok(())
    }
}

impl<S: SocketStream + Redial> WaitTransport for SocketTransport<S> {
    /// Parks until a frame for one of `receivers` arrives: the waiter
    /// registers a wake token with exactly the slots it polls.
    fn receive_any_of(
        &self,
        receivers: &[PartyId],
        timeout: Duration,
    ) -> Result<Option<Envelope>, NetError> {
        self.delivery
            .receive_any_of(receivers, timeout, &self.wait_parks, &self.wait_wakeups)
    }
}

/// [`SocketTransport`] over TCP.
pub type TcpTransport = SocketTransport<TcpStream>;

/// [`SocketTransport`] over Unix-domain sockets.
#[cfg(unix)]
pub type UdsTransport = SocketTransport<std::os::unix::net::UnixStream>;

impl TcpTransport {
    /// Dials `addr` with `backoff`, handshakes, and attaches the link.
    ///
    /// Returns the party set the peer announced (empty for a router, which
    /// makes the link the default route). `TCP_NODELAY` is enabled: the
    /// protocol exchanges many small request/response frames and Nagle
    /// batching would serialise every round trip.
    pub fn connect(
        &self,
        addr: impl ToSocketAddrs,
        backoff: &Backoff,
    ) -> Result<BTreeSet<PartyId>, NetError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| NetError::Io(format!("bad address: {e}")))?
            .next()
            .ok_or_else(|| NetError::Io("address resolved to nothing".into()))?;
        let stream = backoff
            .retry(|| {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                Ok(stream)
            })
            .map_err(|e| NetError::Io(format!("connect to {addr} failed: {e}")))?;
        self.connect_stream(stream, RedialTarget::Tcp(addr))
    }
}

#[cfg(unix)]
impl UdsTransport {
    /// Dials the Unix-domain socket at `path` with `backoff`, handshakes,
    /// and attaches the link. Returns the peer's announced party set.
    pub fn connect(
        &self,
        path: impl AsRef<std::path::Path>,
        backoff: &Backoff,
    ) -> Result<BTreeSet<PartyId>, NetError> {
        let path = path.as_ref().to_path_buf();
        let stream = backoff
            .retry(|| std::os::unix::net::UnixStream::connect(&path))
            .map_err(|e| NetError::Io(format!("connect to {} failed: {e}", path.display())))?;
        self.connect_stream(stream, RedialTarget::Uds(path))
    }
}

/// Listener-side half of a TCP link: accepts one connection at a time and
/// attaches it to an existing [`TcpTransport`].
#[derive(Debug)]
pub struct TcpAcceptor {
    listener: TcpListener,
}

impl TcpAcceptor {
    /// Binds `addr` (use port 0 for an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| NetError::Io(format!("bind failed: {e}")))?;
        Ok(TcpAcceptor { listener })
    }

    /// The bound address (interesting when binding port 0).
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        self.listener
            .local_addr()
            .map_err(|e| NetError::Io(e.to_string()))
    }

    /// Blocks for one inbound connection, completes the handshake on
    /// behalf of `transport`, and attaches the stream as a peer link — or,
    /// when the peer's announced party set matches an existing link,
    /// *resumes* that link (retransmitting the frames the peer lost).
    /// Returns the party set the peer announced.
    pub fn accept_into(&self, transport: &TcpTransport) -> Result<BTreeSet<PartyId>, NetError> {
        let (stream, _) = self
            .listener
            .accept()
            .map_err(|e| NetError::Io(format!("accept failed: {e}")))?;
        stream
            .set_nodelay(true)
            .map_err(|e| NetError::Io(e.to_string()))?;
        transport.accept_stream(stream)
    }
}

/// Listener-side half of a Unix-domain link; see [`TcpAcceptor`].
#[cfg(unix)]
#[derive(Debug)]
pub struct UdsAcceptor {
    listener: std::os::unix::net::UnixListener,
}

#[cfg(unix)]
impl UdsAcceptor {
    /// Binds the socket file at `path` (removing a stale one first).
    pub fn bind(path: impl AsRef<std::path::Path>) -> Result<Self, NetError> {
        let path = path.as_ref();
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)
            .map_err(|e| NetError::Io(format!("bind {} failed: {e}", path.display())))?;
        Ok(UdsAcceptor { listener })
    }

    /// Blocks for one inbound connection, handshakes on behalf of
    /// `transport`, and attaches it — resuming an existing link when the
    /// announced party set matches. Returns the peer's announced parties.
    pub fn accept_into(&self, transport: &UdsTransport) -> Result<BTreeSet<PartyId>, NetError> {
        let (stream, _) = self
            .listener
            .accept()
            .map_err(|e| NetError::Io(format!("accept failed: {e}")))?;
        transport.accept_stream(stream)
    }
}

/// The outbound half of one router logical link: its replay window (the
/// link's one send buffer) and the socket of the connection attached to
/// it, if any. Recording and writing happen under one lock, so replay
/// order equals stream order. Frames forwarded to a link with no
/// connection are recorded only (store-and-forward); the peer's resume
/// count at its next connection attaches the window, and the writer sends
/// exactly what the peer lacks. The peer's hop acks free what it holds.
struct RouterOutbound<S> {
    replay: ReplayWindow,
    /// A clone of the attached connection's socket, from the moment its
    /// hello joined the link. The window stays detached, so nothing is
    /// written here, until the peer's resume count has been applied.
    stream: Option<S>,
    /// The attached connection, retired when a newer one joins the link.
    conn: Weak<RouterConn<S>>,
    /// Its reactor registration, for arming write interest.
    registration: Option<Arc<Registration>>,
    /// Origin connections paused because their forwards left this link's
    /// backlog past [`ROUTER_BACKLOG_PAUSE`]. Held strongly, so each
    /// paused socket stays open until it is re-armed.
    paused_origins: Vec<Arc<RouterConn<S>>>,
}

impl<S: SocketStream> RouterOutbound<S> {
    /// Re-arms every origin paused on this link (level-triggered polling
    /// re-fires the bytes that queued meanwhile). Runs when the backlog
    /// drains below [`ROUTER_BACKLOG_RESUME`] and whenever the connection
    /// goes: a paused origin with no one left to resume it would be deaf
    /// forever.
    fn resume_paused_origins(&mut self) {
        for origin in self.paused_origins.drain(..) {
            origin.paused.store(false, Ordering::SeqCst);
            // A closed origin is deregistered: re-arming it is a no-op.
            if let Some(registration) = origin.registration.get() {
                let _ = registration.set_readable(true);
            }
        }
    }

    /// Writes the backlog to the attached connection without parking
    /// ([`write_window`]); a dead stream drops the connection. Returns
    /// whether a connection is still attached.
    fn write(&mut self) -> bool {
        let Some(stream) = self.stream.as_mut() else {
            return false;
        };
        if write_window(stream, &mut self.replay, &self.registration, None, None).is_err() {
            self.drop_stream();
            return false;
        }
        true
    }

    /// Shuts the attached connection's socket down and forgets it, keeping
    /// the logical link: the window detaches, and the peer's next resume
    /// count says what to retransmit.
    fn drop_stream(&mut self) {
        if let Some(stream) = self.stream.take() {
            let _ = stream.shutdown_stream();
        }
        self.conn = Weak::new();
        self.registration = None;
        self.replay.detach();
        self.resume_paused_origins();
    }
}

/// Persistent per-logical-link state the router keeps for every party set
/// that has ever connected. Entries are keyed by the announced party set
/// and survive disconnects, which is what makes reconnects through the
/// router lossless; memory is bounded by the number of distinct party sets
/// times the replay window.
struct RouterLink<S> {
    /// The endpoint id the peer announced; distinguishes two endpoints
    /// announcing identical party sets (e.g. shard transports that each
    /// host every party).
    endpoint: u64,
    parties: BTreeSet<PartyId>,
    /// Frames received from this peer across all its connections.
    received: AtomicU64,
    out: Mutex<RouterOutbound<S>>,
}

impl<S: SocketStream> RouterLink<S> {
    /// Whether a new endpoint announcing this link's party set may drop
    /// it: only when no connection is attached, live or mid-handshake.
    fn is_dead(&self) -> bool {
        self.out.lock().stream.is_none()
    }
}

/// Accepts one pending connection from a router's listening socket
/// (`WouldBlock` when none is pending); dropping it closes the socket.
type Accept<S> = Box<dyn Fn() -> std::io::Result<S> + Send>;

/// Shared router state: the listening socket, logical links, connections
/// and drop accounting.
struct RouterState<S> {
    /// The router's own endpoint id, announced in its (party-less) hello.
    endpoint: u64,
    links: Mutex<Vec<Arc<RouterLink<S>>>>,
    /// Every accepted connection, for the handshake sweep and shutdown
    /// (the reactor's dispatch table owns them).
    conns: Mutex<Vec<Weak<RouterConn<S>>>>,
    /// The listening socket, held while connections are accepted; `None`
    /// once the router shuts down.
    listener: Mutex<Option<Accept<S>>>,
    listener_registration: OnceLock<Arc<Registration>>,
    /// Set when an accept failed in a way that would fail again at once
    /// (out of descriptors, say): the listener is disarmed until a router
    /// connection closes.
    accept_paused: AtomicBool,
    unroutable: AtomicU64,
}

impl<S: SocketStream> RouterState<S> {
    /// Accepts every pending connection, first closing the handshakes that
    /// ran out of time.
    fn accept_pending(self: &Arc<Self>) {
        use std::io::ErrorKind::{ConnectionAborted, ConnectionReset, Interrupted, WouldBlock};
        let now = Instant::now();
        self.sweep(now);
        let listener = self.listener.lock();
        let Some(accept) = listener.as_ref() else {
            return;
        };
        loop {
            match accept() {
                Ok(stream) => router_accept(self, stream, now),
                Err(e) if e.kind() == WouldBlock => return,
                // One connection's failure: the next accept may succeed.
                Err(e) if matches!(e.kind(), Interrupted | ConnectionAborted | ConnectionReset) => {
                }
                Err(_) => {
                    // Accepting again now would fail again and spin the
                    // loop: stop listening until a connection closes.
                    self.accept_paused.store(true, Ordering::SeqCst);
                    if let Some(registration) = self.listener_registration.get() {
                        let _ = registration.set_readable(false);
                    }
                    return;
                }
            }
        }
    }

    /// Re-arms a listener an accept failure disarmed, under the listener
    /// lock so the socket is still open. Runs as each connection closes.
    fn resume_accepting(&self) {
        if self.accept_paused.swap(false, Ordering::SeqCst) {
            let listener = self.listener.lock();
            if let (Some(_), Some(registration)) = (&*listener, self.listener_registration.get()) {
                let _ = registration.set_readable(true);
            }
        }
    }

    /// Closes every connection whose hello and resume count were not
    /// through [`HANDSHAKE_TIMEOUT`] after it was accepted, as of `now`,
    /// and forgets those that are gone. Runs at each accept (the reactor
    /// has no timers).
    fn sweep(&self, now: Instant) {
        let expired: Vec<Arc<RouterConn<S>>> = {
            let mut conns = self.conns.lock();
            conns.retain(|conn| conn.strong_count() > 0);
            conns
                .iter()
                .filter_map(Weak::upgrade)
                .filter(|conn| now.saturating_duration_since(conn.accepted) >= HANDSHAKE_TIMEOUT)
                .collect()
        };
        for conn in expired {
            let mut io = conn.io.lock();
            if !matches!(io.phase, Phase::Frames { .. }) {
                conn.close(&mut io);
            }
        }
    }
}

/// A standalone frame router.
///
/// Every inbound connection handshakes and announces the parties it hosts;
/// the router then forwards each received frame to the connection hosting
/// `envelope.to`. A connection that itself hosts the destination gets its
/// own frames reflected back — so N single-process endpoints can share one
/// router without their identically-named parties colliding, and loopback
/// benchmarks genuinely traverse the kernel's TCP stack. Frames for parties
/// no connection hosts are counted and dropped (senders observe the loss as
/// a session stall, the same failure mode as a crashed peer).
///
/// The listening socket and every connection are nonblocking sources of
/// the process-global reactor from accept to close: a router starts no
/// thread of its own.
///
/// Use via the aliases [`TcpRouter`] / [`UdsRouter`].
pub struct SocketRouter<S: SocketStream> {
    state: Arc<RouterState<S>>,
}

impl<S: SocketStream> std::fmt::Debug for SocketRouter<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketRouter")
            .field("connections", &self.connection_count())
            .field("unroutable", &self.unroutable_frames())
            .finish()
    }
}

impl<S: SocketStream> SocketRouter<S> {
    /// Runs a router on a nonblocking listening socket with descriptor
    /// `fd`, registered with the reactor, which from then on accepts,
    /// handshakes and forwards every connection.
    fn listen(accept: Accept<S>, fd: std::io::Result<polling::RawFd>) -> Result<Self, NetError> {
        let unavailable = |e| NetError::Io(format!("reactor backend unavailable: {e}"));
        let fd = fd.and_then(|fd| Ok((fd, Reactor::global()?)));
        let (fd, reactor) = fd.map_err(unavailable)?;
        let state = Arc::new(RouterState {
            endpoint: endpoint_nonce(),
            links: Mutex::new(Vec::new()),
            conns: Mutex::new(Vec::new()),
            listener: Mutex::new(Some(accept)),
            listener_registration: OnceLock::new(),
            accept_paused: AtomicBool::new(false),
            unroutable: AtomicU64::new(0),
        });
        let source = Arc::new(RouterAccept(Arc::clone(&state)));
        let registration = reactor
            .register(fd, Interest::READ, source)
            .map_err(|e| NetError::Io(format!("reactor registration failed: {e}")))?;
        let _ = state.listener_registration.set(registration);
        Ok(SocketRouter { state })
    }

    /// Frames dropped because no party set ever announced their
    /// destination (frames for a *temporarily* disconnected peer are
    /// store-and-forwarded instead, bounded by the replay window).
    pub fn unroutable_frames(&self) -> u64 {
        self.state.unroutable.load(Ordering::Relaxed)
    }

    /// The most frames and the most bytes any one of the router's replay
    /// windows holds right now: frames its peers have not acked, including
    /// those held for an offline peer.
    pub fn replay_held(&self) -> (usize, usize) {
        self.state
            .links
            .lock()
            .iter()
            .map(|link| {
                let out = link.out.lock();
                (out.replay.frames.len(), out.replay.bytes)
            })
            .fold((0, 0), |(f, b), (lf, lb)| (f.max(lf), b.max(lb)))
    }

    /// Logical links with a connection attached right now (live, or past
    /// its hello and waiting for the peer's resume count).
    pub fn connection_count(&self) -> usize {
        self.state
            .links
            .lock()
            .iter()
            .filter(|l| !l.is_dead())
            .count()
    }

    /// Stops accepting and closes every connection. Idempotent; also runs
    /// on drop.
    pub fn shutdown(&mut self) {
        let state = &self.state;
        // Taking the socket out waits for an accept in flight; dropping it
        // closes the socket.
        if let Some(accept) = state.listener.lock().take() {
            if let Some(registration) = state.listener_registration.get() {
                registration.deregister();
            }
            drop(accept);
        }
        // Close each connection with no router lock held: a dispatch in
        // flight holds its connection's lock while it waits for the link
        // table and the links' outbound locks.
        let conns: Vec<Arc<RouterConn<S>>> = state
            .conns
            .lock()
            .drain(..)
            .filter_map(|conn| conn.upgrade())
            .collect();
        for conn in conns {
            conn.retire();
            // The barrier: waits out a dispatch in flight.
            let mut io = conn.io.lock();
            conn.close(&mut io);
        }
        let links: Vec<Arc<RouterLink<S>>> = state.links.lock().clone();
        for link in links {
            link.out.lock().drop_stream();
        }
    }
}

impl<S: SocketStream> Drop for SocketRouter<S> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The router's listening socket as a reactor source.
struct RouterAccept<S>(Arc<RouterState<S>>);

impl<S: SocketStream> Source for RouterAccept<S> {
    fn on_ready(&self, _readable: bool, _writable: bool) {
        self.0.accept_pending();
    }

    fn on_failure(&self, _error: NetError) {
        // Close the socket, so dialling peers are refused, not left waiting.
        self.0.listener.lock().take();
    }
}

/// Takes one accepted connection onto the reactor: nonblocking, greeted
/// with the router's hello, registered to read the peer's. The router
/// announces no parties (an empty hello marks the link as a gateway on the
/// client side) and is security-transparent: it forwards sealed frames
/// opaquely, holding no keys, so it accepts endpoints in any mode.
fn router_accept<S: SocketStream>(state: &Arc<RouterState<S>>, mut stream: S, now: Instant) {
    let hello = encode_hello(state.endpoint, &BTreeSet::new(), SecurityMode::Transparent);
    // A fresh socket's send buffer takes these few bytes at once; one that
    // does not is dropped like any failed handshake.
    if stream.set_stream_nonblocking(true).is_err() || stream.write_all(&hello).is_err() {
        return;
    }
    let (Ok(fd), Ok(reactor)) = (stream.stream_raw_fd(), Reactor::global()) else {
        return;
    };
    let conn = Arc::new_cyclic(|me| RouterConn {
        me: me.clone(),
        state: Arc::clone(state),
        accepted: now,
        link: OnceLock::new(),
        io: Mutex::new(ConnIo {
            stream,
            phase: Phase::Hello(Vec::new()),
        }),
        closed: AtomicBool::new(false),
        paused: AtomicBool::new(false),
        registration: OnceLock::new(),
    });
    // On the reactor thread, so no dispatch finds the connection before
    // its registration is set.
    if let Ok(registration) =
        reactor.register(fd, Interest::READ, Arc::clone(&conn) as Arc<dyn Source>)
    {
        let _ = conn.registration.set(registration);
        state.conns.lock().push(Arc::downgrade(&conn));
    }
}

/// One accepted router connection, a reactor source from its hello to its
/// close: it reads the peer's hello and joins the peer's logical link,
/// answers with the link's received count, reads the peer's count (which
/// attaches the link's window, so the writer sends what the peer lacks)
/// and from then on forwards the peer's frames.
struct RouterConn<S> {
    me: Weak<RouterConn<S>>,
    state: Arc<RouterState<S>>,
    /// When the connection was accepted, for the handshake sweep.
    accepted: Instant,
    /// The logical link the peer's hello joined.
    link: OnceLock<Arc<RouterLink<S>>>,
    /// Read-side state; one mutex, so it doubles as the quiesce barrier
    /// (see `crate::reactor`).
    io: Mutex<ConnIo<S>>,
    /// Set once the connection is retired; later dispatches are no-ops.
    closed: AtomicBool,
    /// Set while a congested destination has this connection's read
    /// interest disarmed.
    paused: AtomicBool,
    registration: OnceLock<Arc<Registration>>,
}

struct ConnIo<S> {
    stream: S,
    phase: Phase,
}

/// How far a router connection has come.
enum Phase {
    /// Reading the peer's hello; holds at most one hello's bytes.
    Hello(Vec<u8>),
    /// Hello read and link joined; reading the peer's 8-byte resume count.
    Count(Vec<u8>),
    /// Forwarding the peer's frames.
    Frames {
        decoder: FrameDecoder,
        /// Frames and bytes taken since the router last acked its peer
        /// (the resume count acked everything before the connection).
        since_ack: (u64, usize),
    },
}

impl<S: SocketStream> RouterConn<S> {
    /// Stops dispatch to the connection. That is all a newer connection of
    /// its link needs on the reactor thread, where no dispatch of this one
    /// can be in flight; elsewhere, lock `io` next to wait one out.
    fn retire(&self) {
        self.closed.store(true, Ordering::SeqCst);
        if let Some(registration) = self.registration.get() {
            registration.deregister();
        }
    }

    /// Closes the connection: retired, its socket shut down, and its link,
    /// if it is still the link's connection, left without one (the
    /// logical link stays for the peer's next connection).
    fn close(&self, io: &mut ConnIo<S>) {
        self.retire();
        let _ = io.stream.shutdown_stream();
        if let Some(link) = self.link.get() {
            let mut out = link.out.lock();
            if Weak::ptr_eq(&out.conn, &self.me) {
                out.drop_stream();
            }
        }
        self.state.resume_accepting();
    }

    fn drain_readable(&self) {
        let mut guard = self.io.lock();
        if self.closed.load(Ordering::SeqCst) || self.paused.load(Ordering::SeqCst) {
            return;
        }
        let io = &mut *guard;
        let mut buf = [0u8; 16 * 1024];
        loop {
            match io.stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    if self.take(io, &buf[..n]).is_err() {
                        break;
                    }
                    // A congested destination paused us: stop consuming.
                    // The bytes left in the kernel buffer re-fire once it
                    // drains and re-arms us (and TCP backpressure reaches
                    // our peer meanwhile).
                    if self.paused.load(Ordering::SeqCst) {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        // EOF, an error, or bytes the router refuses. Closing deregisters
        // the fd, whose HUP would otherwise spin the level-triggered loop.
        self.close(io);
    }

    /// Takes `bytes` read from the connection through its hello (parsed as
    /// `exchange_hello` parses it), its resume count and on into frames.
    /// `Err` means close: a hello the parser refuses, a count the window
    /// cannot resume at, a corrupt frame or a lying ack.
    fn take(&self, io: &mut ConnIo<S>, mut bytes: &[u8]) -> Result<(), ()> {
        loop {
            match &mut io.phase {
                Phase::Hello(hello) => {
                    match parse_hello(hello, SecurityMode::Transparent).map_err(drop)? {
                        HelloRead::Need(_) if bytes.is_empty() => return Ok(()),
                        HelloRead::Need(more) => {
                            let (head, rest) = bytes.split_at(more.min(bytes.len()));
                            hello.extend_from_slice(head);
                            bytes = rest;
                        }
                        HelloRead::Done(endpoint, parties) => {
                            self.join(&mut io.stream, endpoint, parties)?;
                            io.phase = Phase::Count(Vec::with_capacity(8));
                        }
                    }
                }
                Phase::Count(count) => {
                    let (head, rest) = bytes.split_at((8 - count.len()).min(bytes.len()));
                    count.extend_from_slice(head);
                    bytes = rest;
                    if count.len() < 8 {
                        return Ok(());
                    }
                    self.attach(u64::from_le_bytes(count[..].try_into().expect("8 bytes")))?;
                    io.phase = Phase::Frames {
                        decoder: FrameDecoder::new(),
                        since_ack: (0, 0),
                    };
                }
                Phase::Frames { decoder, since_ack } => {
                    return router_ingest(self, decoder, since_ack, bytes)
                }
            }
        }
    }

    /// The peer's hello is read: joins its logical link (found by endpoint
    /// id and party set, or created), so from here on the link is not
    /// dead, and answers with the link's received count. The link's
    /// previous connection is retired first (a fast reconnect can race its
    /// read driver), so the count is final.
    fn join(&self, stream: &mut S, endpoint: u64, parties: BTreeSet<PartyId>) -> Result<(), ()> {
        let writer = stream.try_clone_stream().map_err(drop)?;
        let link = {
            let mut links = self.state.links.lock();
            match links
                .iter()
                .find(|l| l.endpoint == endpoint && l.parties == parties)
            {
                Some(link) => Arc::clone(link),
                None => {
                    // A new endpoint announcing this party set supersedes
                    // any *dead* link with the same set (a restarted
                    // process draws a fresh endpoint id), so it cannot
                    // shadow the live one in the forwarding lookup; its
                    // undelivered frames died with the old endpoint's
                    // machines. Links with a connection attached, live or
                    // mid-handshake (shard transports sharing the party set
                    // and connecting at once, say), are never touched.
                    links.retain(|l| l.parties != parties || !l.is_dead());
                    let link = Arc::new(RouterLink {
                        endpoint,
                        parties,
                        received: AtomicU64::new(0),
                        out: Mutex::new(RouterOutbound {
                            replay: ReplayWindow::new(DEFAULT_REPLAY_FRAMES, DEFAULT_REPLAY_BYTES),
                            stream: None,
                            conn: Weak::new(),
                            registration: None,
                            paused_origins: Vec::new(),
                        }),
                    });
                    links.push(Arc::clone(&link));
                    link
                }
            }
        };
        let received = {
            let mut out = link.out.lock();
            if let Some(old) = out.conn.upgrade() {
                old.retire();
            }
            out.drop_stream();
            out.stream = Some(writer);
            out.conn = self.me.clone();
            out.registration = self.registration.get().cloned();
            link.received.load(Ordering::SeqCst)
        };
        let _ = self.link.set(link);
        stream.write_all(&received.to_le_bytes()).map_err(drop)
    }

    /// The peer's resume count is read: it attaches the link's window at
    /// the first frame the peer lacks, and the writer sends that suffix
    /// without blocking (the writable dispatch goes on with the rest). A
    /// count the window cannot resume at (an evicted suffix, an impossible
    /// count) closes the connection, and the peer sees the hangup.
    fn attach(&self, received: u64) -> Result<(), ()> {
        let link = self.link.get().ok_or(())?;
        let mut out = link.out.lock();
        if Weak::ptr_eq(&out.conn, &self.me) && out.replay.resume(received).is_ok() && out.write() {
            Ok(())
        } else {
            Err(())
        }
    }

    fn drain_writable(&self) {
        let Some(link) = self.link.get() else {
            return;
        };
        let mut out = link.out.lock();
        if Weak::ptr_eq(&out.conn, &self.me)
            && out.write()
            && out.replay.backlog < ROUTER_BACKLOG_RESUME
        {
            out.resume_paused_origins();
        }
    }
}

impl<S: SocketStream> Source for RouterConn<S> {
    fn on_ready(&self, readable: bool, writable: bool) {
        // Writes first: on a HUP (reported as both) the backlog still gets
        // its chance before the read path closes the connection.
        if writable {
            self.drain_writable();
        }
        if readable {
            self.drain_readable();
        }
    }

    fn on_failure(&self, _error: NetError) {
        // A router hosts no parties: closing the connection is how its
        // peer learns of the failure, and the peer's resume retransmits
        // whatever the router had not forwarded.
        let mut io = self.io.lock();
        self.close(&mut io);
    }
}

/// Validates and forwards every complete frame `bytes` completes on the
/// connection `origin`, counting them into its logical link's received
/// counter, and takes the hop acks among them. Each frame is checked in
/// place exactly as a receiving decoder checks it and forwarded as its
/// original bytes, so the router never re-encodes. Every frame of the
/// chunk is recorded in its destination's replay window first; an ack to
/// the origin, once one is due, is queued in the origin's window; then
/// each destination the chunk touched is written once ([`router_drain`]).
/// `Err` means a corrupt frame (an over-cap length prefix, or a
/// well-framed body that fails validation) or a lying ack (past what was
/// written to the origin, or going back): the caller must close the
/// connection, and nothing of it is forwarded (the valid frames before it
/// still are).
fn router_ingest<S: SocketStream>(
    origin: &RouterConn<S>,
    decoder: &mut FrameDecoder,
    since_ack: &mut (u64, usize),
    bytes: &[u8],
) -> Result<(), ()> {
    let link = origin.link.get().ok_or(())?;
    decoder.feed(bytes);
    let mut touched: Vec<Arc<RouterLink<S>>> = Vec::new();
    let decoded = loop {
        match decoder.next_link_frame() {
            Ok(Some(LinkFrame::Envelope(frame))) => {
                since_ack.0 += 1;
                since_ack.1 += frame.bytes.len();
                if let Some(target) = router_record(&origin.state, link, frame.to, frame.bytes) {
                    if !touched.iter().any(|t| Arc::ptr_eq(t, &target)) {
                        touched.push(target);
                    }
                }
                link.received.fetch_add(1, Ordering::SeqCst);
            }
            Ok(Some(LinkFrame::Ack(acked))) => {
                if link.out.lock().replay.ack(acked).is_err() {
                    break Err(());
                }
            }
            Ok(None) => break Ok(()),
            Err(_) => break Err(()),
        }
    };
    if decoded.is_ok() && ack_due(since_ack) {
        // Every frame taken is in its destination's window now: ack them
        // at the next frame boundary of what this chunk writes the origin.
        let received = link.received.load(Ordering::SeqCst);
        link.out.lock().replay.queue_ack(received);
        if !touched.iter().any(|t| Arc::ptr_eq(t, link)) {
            touched.push(Arc::clone(link));
        }
    }
    for target in &touched {
        router_drain(target, origin);
    }
    decoded
}

/// Records one validated frame addressed to `to` in its destination's
/// replay window: self-preference for the originating link, then any link
/// announcing the destination. The frame is copied once, into the replay
/// window, and written from there by [`router_drain`]. Returns the
/// destination when it has a connection attached to write the frame to;
/// frames for a link with none are recorded only (store-and-forward), and
/// frames for parties no link ever announced are counted and dropped.
fn router_record<S: SocketStream>(
    state: &RouterState<S>,
    origin: &Arc<RouterLink<S>>,
    to: PartyId,
    frame: &[u8],
) -> Option<Arc<RouterLink<S>>> {
    let target = if origin.parties.contains(&to) {
        Some(Arc::clone(origin))
    } else {
        // Prefer the *newest* link with a connection attached (links are
        // in creation order, and a peer that crashed without a FIN can
        // leave an older zombie whose stream still looks live — the most
        // recent connection is the one actually reachable); fall back to
        // the newest link announcing the destination at all
        // (store-and-forward for a briefly offline peer).
        let links = state.links.lock();
        let hosting = || links.iter().filter(|l| l.parties.contains(&to));
        hosting()
            .rfind(|l| !l.is_dead())
            .or_else(|| hosting().next_back())
            .cloned()
    };
    let Some(target) = target else {
        state.unroutable.fetch_add(1, Ordering::Relaxed);
        return None;
    };
    let mut out = target.out.lock();
    out.replay.record(frame.to_vec());
    let attached = out.stream.is_some();
    drop(out);
    attached.then_some(target)
}

/// Writes `target`'s backlog (the frames recorded for it since its last
/// write, and a due ack) straight from its window in one vectored write,
/// then applies flow control: a destination congested past
/// [`ROUTER_BACKLOG_PAUSE`] disarms the origin's read interest, so
/// backpressure reaches the sending peer through its socket buffers, until
/// the destination's writable dispatch drains it below
/// [`ROUTER_BACKLOG_RESUME`].
fn router_drain<S: SocketStream>(target: &RouterLink<S>, origin: &RouterConn<S>) {
    let mut out = target.out.lock();
    if out.replay.backlog == 0 || !out.write() || out.replay.backlog <= ROUTER_BACKLOG_PAUSE {
        return;
    }
    if let (Some(registration), Some(me)) = (origin.registration.get(), origin.me.upgrade()) {
        if !origin.paused.swap(true, Ordering::SeqCst) {
            let _ = registration.set_readable(false);
            out.paused_origins.push(me);
        }
    }
}

/// [`SocketRouter`] over TCP.
pub type TcpRouter = SocketRouter<TcpStream>;

impl TcpRouter {
    /// Binds `addr` and starts accepting on the reactor. Returns the router
    /// and its bound address (bind port 0 for an ephemeral port).
    pub fn spawn(addr: impl ToSocketAddrs) -> Result<(Self, SocketAddr), NetError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| NetError::Io(format!("bind failed: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| NetError::Io(e.to_string()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| NetError::Io(format!("cannot set nonblocking: {e}")))?;
        #[cfg(unix)]
        let fd = Ok(std::os::unix::io::AsRawFd::as_raw_fd(&listener));
        #[cfg(not(unix))]
        let fd = Err(std::io::ErrorKind::Unsupported.into());
        let accept = move || {
            let (stream, _) = listener.accept()?;
            let _ = stream.set_nodelay(true);
            Ok(stream)
        };
        Ok((Self::listen(Box::new(accept), fd)?, local_addr))
    }

    /// [`spawn`](Self::spawn) on the given driver (there is one); kept so
    /// callers naming it keep compiling.
    pub fn spawn_with_backend(
        addr: impl ToSocketAddrs,
        backend: TransportBackend,
    ) -> Result<(Self, SocketAddr), NetError> {
        let TransportBackend::Reactor = backend;
        Self::spawn(addr)
    }
}

/// [`SocketRouter`] over Unix-domain sockets.
#[cfg(unix)]
pub type UdsRouter = SocketRouter<std::os::unix::net::UnixStream>;

#[cfg(unix)]
impl UdsRouter {
    /// Binds the socket file at `path` (removing a stale one) and starts
    /// accepting on the reactor.
    pub fn spawn(path: impl AsRef<std::path::Path>) -> Result<Self, NetError> {
        let path = path.as_ref();
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)
            .map_err(|e| NetError::Io(format!("bind {} failed: {e}", path.display())))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| NetError::Io(format!("cannot set nonblocking: {e}")))?;
        let fd = Ok(std::os::unix::io::AsRawFd::as_raw_fd(&listener));
        Self::listen(Box::new(move || Ok(listener.accept()?.0)), fd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope(from: PartyId, to: PartyId, topic: &str, payload: Vec<u8>) -> Envelope {
        Envelope::new(from, to, topic, payload)
    }

    #[test]
    fn hello_roundtrip() {
        let parties: BTreeSet<PartyId> = [PartyId::DataHolder(0), PartyId::ThirdParty]
            .into_iter()
            .collect();
        let bytes = encode_hello(0xDEAD_BEEF_0123_4567, &parties, SecurityMode::SealedPsk);
        assert_eq!(&bytes[..4], &HELLO_MAGIC);
        assert_eq!(bytes[4], WIRE_VERSION);
        assert_eq!(bytes[5], SecurityMode::SealedPsk.to_wire());
        assert_eq!(
            u64::from_le_bytes(bytes[6..14].try_into().unwrap()),
            0xDEAD_BEEF_0123_4567
        );
        assert_eq!(bytes[14], 2);
        assert_eq!(bytes.len(), 15 + 2 * 5);
    }

    #[test]
    fn endpoint_nonces_are_distinct() {
        let a = endpoint_nonce();
        let b = endpoint_nonce();
        assert_ne!(a, b);
    }

    #[test]
    fn backoff_defaults_are_sane() {
        let b = Backoff::default();
        assert!(b.max_attempts > 1);
        assert!(b.initial <= b.max_delay);
        assert_eq!(Backoff::none().max_attempts, 1);
    }

    #[test]
    fn direct_tcp_link_delivers_both_ways() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();

        let holder = TcpTransport::new([PartyId::DataHolder(0)]);
        let tp = TcpTransport::new([PartyId::ThirdParty]);

        let dial = std::thread::spawn(move || {
            let announced = holder.connect(addr, &Backoff::default()).unwrap();
            assert_eq!(
                announced,
                [PartyId::ThirdParty].into_iter().collect::<BTreeSet<_>>()
            );
            holder
        });
        let announced = acceptor.accept_into(&tp).unwrap();
        assert_eq!(
            announced,
            [PartyId::DataHolder(0)]
                .into_iter()
                .collect::<BTreeSet<_>>()
        );
        let holder = dial.join().unwrap();

        holder
            .send(envelope(
                PartyId::DataHolder(0),
                PartyId::ThirdParty,
                "local/age/0",
                vec![1, 2, 3],
            ))
            .unwrap();
        holder.flush().unwrap();
        let got = tp
            .receive_any_of(&[PartyId::ThirdParty], Duration::from_secs(5))
            .unwrap()
            .expect("frame crosses the socket");
        assert_eq!(got.topic, "local/age/0");
        assert_eq!(got.payload, vec![1, 2, 3]);

        tp.send(envelope(
            PartyId::ThirdParty,
            PartyId::DataHolder(0),
            "published-result",
            vec![9],
        ))
        .unwrap();
        let back = holder
            .receive_any_of(&[PartyId::DataHolder(0)], Duration::from_secs(5))
            .unwrap()
            .unwrap();
        assert_eq!(back.topic, "published-result");

        holder.shutdown();
        tp.shutdown();
    }

    #[test]
    fn connect_backoff_survives_a_late_listener() {
        // Reserve a port, then release it so nothing is listening.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);

        let dial = std::thread::spawn(move || {
            let holder = TcpTransport::new([PartyId::DataHolder(0)]);
            let backoff = Backoff {
                initial: Duration::from_millis(5),
                max_delay: Duration::from_millis(50),
                max_attempts: 60,
            };
            holder.connect(addr, &backoff).map(|_| holder)
        });
        // Let the dialler fail a few times before the listener appears.
        std::thread::sleep(Duration::from_millis(60));
        let acceptor = TcpAcceptor::bind(addr).unwrap();
        let tp = TcpTransport::new([PartyId::ThirdParty]);
        acceptor.accept_into(&tp).unwrap();
        let holder = dial.join().unwrap().expect("backoff outlasts the gap");
        assert_eq!(holder.link_count(), 1);
    }

    #[test]
    fn connect_without_listener_exhausts_backoff() {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let holder = TcpTransport::new([PartyId::DataHolder(0)]);
        let policy = Backoff {
            initial: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            max_attempts: 3,
        };
        assert!(matches!(
            holder.connect(addr, &policy),
            Err(NetError::Io(_))
        ));
    }

    #[test]
    fn router_routes_between_connections_and_reflects_self_traffic() {
        let (mut router, addr) = TcpRouter::spawn("127.0.0.1:0").unwrap();

        let holders = TcpTransport::new([PartyId::DataHolder(0), PartyId::DataHolder(1)]);
        let tp = TcpTransport::new([PartyId::ThirdParty]);
        assert!(holders
            .connect(addr, &Backoff::default())
            .unwrap()
            .is_empty());
        assert!(tp.connect(addr, &Backoff::default()).unwrap().is_empty());

        // Cross-connection route: DH0 → TP lands on the TP connection.
        holders
            .send(envelope(
                PartyId::DataHolder(0),
                PartyId::ThirdParty,
                "categorical/blood",
                vec![42],
            ))
            .unwrap();
        let got = tp
            .receive_any_of(&[PartyId::ThirdParty], Duration::from_secs(5))
            .unwrap()
            .unwrap();
        assert_eq!(got.payload, vec![42]);

        // Self-reflection: DH0 → DH1 goes out over TCP and comes back to
        // the same connection (both parties live on `holders`).
        holders
            .send(envelope(
                PartyId::DataHolder(0),
                PartyId::DataHolder(1),
                "numeric/age/0-1/masked",
                vec![7; 8],
            ))
            .unwrap();
        let got = holders
            .receive_any_of(&[PartyId::DataHolder(1)], Duration::from_secs(5))
            .unwrap()
            .unwrap();
        assert_eq!(got.from, PartyId::DataHolder(0));
        assert_eq!(got.payload, vec![7; 8]);

        // Unroutable destinations are counted, not delivered.
        holders
            .send(envelope(
                PartyId::DataHolder(0),
                PartyId::DataHolder(9),
                "nowhere",
                vec![],
            ))
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while router.unroutable_frames() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(router.unroutable_frames(), 1);
        assert_eq!(router.connection_count(), 2);

        holders.shutdown();
        tp.shutdown();
        router.shutdown();
    }

    #[cfg(unix)]
    #[test]
    fn uds_router_delivers_over_the_socket_file() {
        let dir = std::env::temp_dir().join(format!("ppc-uds-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("router.sock");
        let mut router = UdsRouter::spawn(&path).unwrap();

        let all = UdsTransport::new([PartyId::DataHolder(0), PartyId::ThirdParty]);
        all.connect(&path, &Backoff::default()).unwrap();
        all.send(envelope(
            PartyId::DataHolder(0),
            PartyId::ThirdParty,
            "local/age/0",
            vec![5; 16],
        ))
        .unwrap();
        let got = all
            .receive_any_of(&[PartyId::ThirdParty], Duration::from_secs(5))
            .unwrap()
            .unwrap();
        assert_eq!(got.payload, vec![5; 16]);

        all.shutdown();
        router.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    /// Dials `addr` as a raw client announcing `party`: a valid hello and
    /// resume exchange, after which the caller owns the frame stream.
    fn rogue_client(addr: SocketAddr, party: PartyId) -> TcpStream {
        let mut rogue = TcpStream::connect(addr).unwrap();
        let hello: BTreeSet<PartyId> = [party].into_iter().collect();
        rogue
            .write_all(&encode_hello(99, &hello, SecurityMode::Plaintext))
            .unwrap();
        let mut reply = [0u8; 15];
        rogue.read_exact(&mut reply).unwrap();
        assert_eq!(&reply[..4], &HELLO_MAGIC);
        rogue.write_all(&0u64.to_le_bytes()).unwrap();
        let mut resume = [0u8; 8];
        rogue.read_exact(&mut resume).unwrap();
        assert_eq!(u64::from_le_bytes(resume), 0);
        rogue
    }

    /// Writes `bytes` on a rogue connection and waits for the router to
    /// close it.
    fn expect_router_hangup(mut rogue: TcpStream, bytes: &[u8], case: &str) {
        rogue.write_all(bytes).unwrap();
        rogue.flush().unwrap();
        rogue
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 64];
        match rogue.read(&mut buf) {
            Ok(0) => {}
            Err(e)
                if e.kind() != std::io::ErrorKind::WouldBlock
                    && e.kind() != std::io::ErrorKind::TimedOut => {}
            other => panic!("{case}: router kept the corrupt connection open ({other:?})"),
        }
    }

    #[test]
    fn router_drops_corrupt_connections_and_keeps_serving_others() {
        let (mut router, addr) = TcpRouter::spawn("127.0.0.1:0").unwrap();
        // The destination every corrupt frame below is addressed to.
        let tp = TcpTransport::new([PartyId::ThirdParty]);
        tp.connect(addr, &Backoff::default()).unwrap();

        // An over-cap length prefix: the router must close the connection,
        // not spin on a growing buffer.
        expect_router_hangup(
            rogue_client(addr, PartyId::DataHolder(9)),
            &u32::MAX.to_le_bytes(),
            "over-cap prefix",
        );

        // Well-framed frames whose bodies are corrupt: the router checks
        // each frame as a receiver would before forwarding its bytes, so
        // it drops the origin and the destination never sees them.
        let valid = encode_frame(&envelope(
            PartyId::DataHolder(9),
            PartyId::ThirdParty,
            "t",
            vec![1, 2, 3],
        ))
        .unwrap();
        let mut unknown_tag = valid.clone();
        unknown_tag[4] = 9; // from-party tag
        let mut bad_utf8 = valid.clone();
        bad_utf8[4 + 10 + 4] = 0xFF; // the topic's one byte
        let mut trailing = valid.clone();
        let body_len = u32::from_le_bytes(trailing[..4].try_into().unwrap()) + 1;
        trailing[..4].copy_from_slice(&body_len.to_le_bytes());
        trailing.push(0);
        for (case, frame) in [
            ("unknown party tag", &unknown_tag),
            ("invalid utf-8 topic", &bad_utf8),
            ("trailing bytes", &trailing),
        ] {
            expect_router_hangup(rogue_client(addr, PartyId::DataHolder(9)), frame, case);
        }
        assert!(
            tp.receive_any_of(&[PartyId::ThirdParty], Duration::from_millis(200))
                .unwrap()
                .is_none(),
            "a corrupt frame reached its destination"
        );

        // The rogue connections are pruned; the healthy transport is the
        // only live link.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while router.connection_count() != 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(router.connection_count(), 1, "corrupt connections pruned");

        // Well-behaved transports still get full service afterwards.
        let dh = TcpTransport::new([PartyId::DataHolder(0)]);
        dh.connect(addr, &Backoff::default()).unwrap();
        dh.send(envelope(
            PartyId::DataHolder(0),
            PartyId::ThirdParty,
            "after-corruption",
            vec![1],
        ))
        .unwrap();
        let got = tp
            .receive_any_of(&[PartyId::ThirdParty], Duration::from_secs(5))
            .unwrap()
            .unwrap();
        assert_eq!(got.topic, "after-corruption");

        dh.shutdown();
        tp.shutdown();
        router.shutdown();
    }

    #[test]
    fn local_parties_without_links_deliver_in_process() {
        let t = TcpTransport::new([PartyId::DataHolder(0), PartyId::DataHolder(1)]);
        t.send(envelope(
            PartyId::DataHolder(0),
            PartyId::DataHolder(1),
            "t",
            vec![1],
        ))
        .unwrap();
        assert_eq!(
            t.try_receive(PartyId::DataHolder(1))
                .unwrap()
                .unwrap()
                .payload,
            vec![1]
        );
        assert!(t.try_receive(PartyId::DataHolder(1)).unwrap().is_none());
        assert!(t.try_receive(PartyId::ThirdParty).is_err());
        assert!(matches!(
            t.send(envelope(
                PartyId::DataHolder(0),
                PartyId::ThirdParty,
                "t",
                vec![]
            )),
            Err(NetError::UnknownParty(PartyId::ThirdParty))
        ));
    }

    /// The window's frames after the peer's `received` count, copied out.
    fn suffix(w: &ReplayWindow, received: u64) -> Result<Vec<Vec<u8>>, String> {
        let pending = w.pending_after(received)?;
        Ok(w.frames
            .range(w.frames.len() - pending..)
            .cloned()
            .collect())
    }

    /// Writes at most `room` bytes of the backlog, as a socket with that
    /// much space left would take them, and returns them.
    fn write_some(w: &mut ReplayWindow, room: usize) -> Vec<u8> {
        let mut space = vec![0u8; room];
        let mut socket = &mut space[..];
        // A full slice takes nothing more: `WriteZero`, cursor intact.
        let _ = w.write_to(&mut socket);
        let taken = room - socket.len();
        space.truncate(taken);
        space
    }

    /// Writes the whole backlog, as a socket that takes everything would.
    fn write_all(w: &mut ReplayWindow) -> Vec<u8> {
        let mut wire = Vec::new();
        w.write_to(&mut wire).unwrap();
        assert_eq!(w.backlog, 0);
        wire
    }

    #[test]
    fn replay_window_yields_exactly_the_unacked_suffix() {
        let mut w = ReplayWindow::new(3, usize::MAX);
        for i in 0..5u8 {
            w.record(vec![i]);
        }
        assert_eq!(w.sent, 5);
        // Peer has 3 of 5: frames 4 and 5 are pending.
        assert_eq!(suffix(&w, 3).unwrap(), vec![vec![3u8], vec![4u8]]);
        // Fully acknowledged: nothing to resend.
        assert!(suffix(&w, 5).unwrap().is_empty());
        // Peer has 1 of 5 but the window kept only the last 3: loss.
        assert!(suffix(&w, 1).is_err());
        // A peer claiming more than was ever sent is a protocol violation.
        assert!(suffix(&w, 9).is_err());

        // The byte budget evicts too — but always keeps the newest frame,
        // even one over budget.
        let mut w = ReplayWindow::new(1024, 10);
        w.record(vec![0; 6]);
        w.record(vec![1; 6]);
        assert_eq!(w.frames.len(), 1, "6+6 bytes exceed the 10-byte budget");
        assert_eq!(suffix(&w, 1).unwrap(), vec![vec![1u8; 6]]);
        assert!(suffix(&w, 0).is_err(), "the evicted first frame is gone");
        w.record(vec![2; 99]);
        assert_eq!(w.frames.len(), 1, "an over-budget frame is still kept");
        assert_eq!(w.bytes, 99);

        // Frames at or after the write cursor are never evicted, whatever
        // the bounds; once they are written, the next record evicts back
        // down to the bounds.
        let mut w = ReplayWindow::new(2, 10);
        w.resume(0).unwrap();
        for i in 0..4u8 {
            w.record(vec![i; 6]);
        }
        assert_eq!(w.frames.len(), 4, "four unwritten frames are all kept");
        assert_eq!(suffix(&w, 0).unwrap().len(), 4);
        write_all(&mut w);
        w.record(vec![4; 4]);
        assert_eq!(w.frames.len(), 2, "back within the bounds");
        assert_eq!(suffix(&w, 3).unwrap(), vec![vec![3u8; 6], vec![4u8; 4]]);
        assert!(suffix(&w, 2).is_err(), "written frames evict again");
    }

    #[test]
    fn acks_free_exactly_the_frames_they_cover_and_lying_acks_change_nothing() {
        let mut w = ReplayWindow::new(1024, usize::MAX);
        w.resume(0).unwrap();
        for i in 0..10u8 {
            w.record(vec![i; 3]);
        }
        write_all(&mut w);
        w.ack(4).unwrap();
        assert_eq!((w.frames.len(), w.bytes), (6, 18));
        assert_eq!(suffix(&w, 4).unwrap()[0], vec![4u8; 3]);
        w.ack(4).expect("a repeated ack is no news, not a lie");

        // Past what was sent, or going back: each is refused with the
        // window untouched (no underflow anywhere).
        for acked in [11, u64::MAX, 3, 0] {
            assert!(w.ack(acked).is_err(), "ack {acked}");
            assert_eq!((w.frames.len(), w.bytes, w.acked), (6, 18, 4));
        }
        // Past what was written: a frame recorded, or written in part,
        // cannot have reached the peer.
        w.record(vec![10; 3]);
        assert!(w.ack(11).is_err(), "an unwritten frame");
        write_some(&mut w, 2);
        assert!(w.ack(11).is_err(), "a part-written frame");
        assert_eq!((w.frames.len(), w.acked), (7, 4));
        w.ack(9).unwrap();
        assert_eq!(suffix(&w, 9).unwrap(), vec![vec![9u8; 3], vec![10u8; 3]]);

        // A resume count is an ack too: it may not go below the last one,
        // and it frees what it covers.
        let below = w.resume(8).unwrap_err();
        assert!(below.contains("below its own earlier ack of 9"), "{below}");
        w.resume(11).unwrap();
        assert_eq!((w.frames.len(), w.bytes, w.acked), (0, 0, 11));

        // An ack behind a cap's eviction frees nothing more, and a later
        // resume still reports the gap.
        let mut w = ReplayWindow::new(2, usize::MAX);
        for i in 0..5u8 {
            w.record(vec![i]);
        }
        w.ack(1).unwrap();
        assert_eq!(w.frames.len(), 2);
        assert!(w.resume(1).is_err());
    }

    #[test]
    fn a_resume_that_cannot_proceed_names_its_cause() {
        let mut frames_capped = ReplayWindow::new(2, usize::MAX);
        let mut bytes_capped = ReplayWindow::new(1024, 10);
        for i in 0..4u8 {
            frames_capped.record(vec![i]);
            bytes_capped.record(vec![i; 6]);
        }
        let frame_cap = frames_capped.resume(0).unwrap_err();
        assert!(frame_cap.contains("by its 2-frame cap"), "{frame_cap}");
        let byte_cap = bytes_capped.resume(0).unwrap_err();
        assert!(byte_cap.contains("by its 10-byte cap"), "{byte_cap}");
        bytes_capped.ack(3).unwrap();
        let below = bytes_capped.resume(2).unwrap_err();
        assert!(below.contains("below its own earlier ack"), "{below}");
        let past = bytes_capped.resume(5).unwrap_err();
        assert!(past.contains("only 4 were sent"), "{past}");
        // A refused resume leaves the window as it was.
        assert_eq!((bytes_capped.frames.len(), bytes_capped.acked), (1, 3));
    }

    /// Decodes a written byte stream into its frames' topics and the acks
    /// between them; every byte must belong to a whole frame or ack.
    fn decode_wire(wire: &[u8]) -> (Vec<String>, Vec<u64>) {
        let mut decoder = FrameDecoder::new();
        decoder.feed(wire);
        let (mut topics, mut acks) = (Vec::new(), Vec::new());
        while let Some(unit) = decoder.next_link_frame().unwrap() {
            match unit {
                LinkFrame::Envelope(frame) => topics.push(frame.topic.to_string()),
                LinkFrame::Ack(acked) => acks.push(acked),
            }
        }
        assert_eq!(decoder.buffered(), 0, "a torn frame or ack");
        (topics, acks)
    }

    /// The one writer through a socket that takes a few bytes at a time:
    /// frames leave whole and in order straight from the window, an ack is
    /// begun only between two frames and a newer one replaces an ack not
    /// begun, and a resume rewinds to the first frame the peer lacks and
    /// drops the ack owed.
    #[test]
    fn the_window_writes_frames_whole_and_acks_only_between_them() {
        let frame = |i: u8| {
            encode_frame(&envelope(
                PartyId::DataHolder(0),
                PartyId::ThirdParty,
                &format!("f{i}"),
                vec![i; 20 + i as usize],
            ))
            .unwrap()
        };
        let mut w = ReplayWindow::new(1024, usize::MAX);
        w.record(frame(0));
        w.queue_ack(1);
        assert_eq!(w.backlog, 0, "a detached window owes no stream anything");
        assert!(write_all(&mut w).is_empty());

        w.resume(0).unwrap();
        for i in 1..6 {
            w.record(frame(i));
        }
        let total: usize = w.frames.iter().map(Vec::len).sum();
        assert_eq!(w.backlog, total);
        let mut wire = Vec::new();
        let mut step = 0;
        while w.backlog > 0 {
            wire.extend(write_some(&mut w, 7));
            step += 1;
            if step % 3 == 0 && w.frames_unwritten() {
                w.queue_ack(step);
            }
        }
        let (topics, acks) = decode_wire(&wire);
        assert_eq!(topics, (0..6).map(|i| format!("f{i}")).collect::<Vec<_>>());
        assert!(!acks.is_empty());
        assert!(acks.windows(2).all(|a| a[0] < a[1]), "{acks:?}");
        assert_eq!(wire.len(), total + acks.len() * (4 + ACK_BODY_LEN));

        // A resume on a fresh stream: the part-written frame starts over
        // from its first byte, and the ack owed is gone.
        w.record(frame(6));
        w.record(frame(7));
        write_some(&mut w, 5);
        w.queue_ack(99);
        w.resume(6).unwrap();
        assert_eq!(w.backlog, frame(6).len() + frame(7).len());
        let (topics, acks) = decode_wire(&write_all(&mut w));
        assert_eq!(topics, ["f6", "f7"]);
        assert!(acks.is_empty());
    }

    /// The reconnect-durability satellite: kill the OS stream of a live
    /// loopback link mid-session, re-accept it, and assert that every
    /// frame written into the dying socket arrives exactly once, in order.
    #[test]
    fn severed_direct_link_resumes_losslessly() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        let holder = TcpTransport::new([PartyId::DataHolder(0)]);
        let tp = TcpTransport::new([PartyId::ThirdParty]);

        let dial = std::thread::spawn(move || {
            holder.connect(addr, &Backoff::default()).unwrap();
            holder
        });
        acceptor.accept_into(&tp).unwrap();
        let holder = dial.join().unwrap();

        let send = |topic: &str| {
            holder
                .send(envelope(
                    PartyId::DataHolder(0),
                    PartyId::ThirdParty,
                    topic,
                    vec![7; 32],
                ))
                .unwrap();
        };
        send("a");
        let got = tp
            .receive_any_of(&[PartyId::ThirdParty], Duration::from_secs(5))
            .unwrap()
            .unwrap();
        assert_eq!(got.topic, "a");

        // Network cut: the third party loses its socket but keeps the
        // logical link state, and re-accepts in the background.
        tp.sever_links();
        let reaccept = {
            let acceptor = acceptor;
            let tp_ref = &tp;
            std::thread::scope(|scope| {
                let handle = scope.spawn(move || acceptor.accept_into(tp_ref).unwrap());
                // Frames written into the dying socket: early writes may
                // still "succeed" into the doomed buffer; a later one hits
                // the reset and triggers the re-dial + retransmission.
                send("b");
                send("c");
                send("d");
                let mut seen = Vec::new();
                for i in 0..200 {
                    send(&format!("pad/{i}"));
                    if let Some(e) = tp
                        .receive_any_of(&[PartyId::ThirdParty], Duration::from_millis(50))
                        .unwrap()
                    {
                        seen.push(e.topic);
                    }
                    if seen.contains(&"d".to_string()) {
                        break;
                    }
                }
                // Drain whatever padding is still queued.
                while let Some(e) = tp.try_receive(PartyId::ThirdParty).unwrap() {
                    seen.push(e.topic);
                }
                handle.join().unwrap();
                seen
            })
        };
        let core: Vec<&String> = reaccept
            .iter()
            .filter(|t| ["b", "c", "d"].contains(&t.as_str()))
            .collect();
        assert_eq!(
            core,
            vec!["b", "c", "d"],
            "frames written into the dying socket must arrive exactly once, in order \
             (got {reaccept:?})"
        );
        holder.shutdown();
        tp.shutdown();
    }

    /// When the peer never comes back, exhausting the reconnect backoff
    /// surfaces as a `PeerUnreachable` naming the destination party — the
    /// distinguishable outcome the engines report upward.
    #[test]
    fn reconnect_exhaustion_reports_peer_unreachable() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        let mut holder = TcpTransport::new([PartyId::DataHolder(0)]);
        holder.set_reconnect_policy(Backoff {
            initial: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            max_attempts: 2,
        });
        let tp = TcpTransport::new([PartyId::ThirdParty]);
        let dial = std::thread::spawn(move || {
            holder.connect(addr, &Backoff::default()).unwrap();
            holder
        });
        acceptor.accept_into(&tp).unwrap();
        let holder = dial.join().unwrap();
        // The peer dies for good: transport and listener both gone.
        tp.shutdown();
        drop(tp);
        drop(acceptor);
        let mut last = Ok(());
        for i in 0..200 {
            last = holder.send(envelope(
                PartyId::DataHolder(0),
                PartyId::ThirdParty,
                &format!("doomed/{i}"),
                vec![0; 16],
            ));
            if last.is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        match last {
            Err(NetError::PeerUnreachable { party, .. }) => {
                assert_eq!(party, PartyId::ThirdParty);
            }
            other => panic!("expected PeerUnreachable, got {other:?}"),
        }
        holder.shutdown();
    }

    /// Router store-and-forward: frames addressed to a briefly
    /// disconnected peer are retained in the router's replay window and
    /// delivered exactly once when the peer reconnects.
    #[test]
    fn router_stores_and_forwards_across_reconnects() {
        let (mut router, addr) = TcpRouter::spawn("127.0.0.1:0").unwrap();
        let a = TcpTransport::new([PartyId::DataHolder(0)]);
        let b = TcpTransport::new([PartyId::DataHolder(1)]);
        a.connect(addr, &Backoff::default()).unwrap();
        b.connect(addr, &Backoff::default()).unwrap();

        let send = |topic: &str| {
            a.send(envelope(
                PartyId::DataHolder(0),
                PartyId::DataHolder(1),
                topic,
                vec![1, 2, 3],
            ))
            .unwrap();
        };
        send("one");
        assert_eq!(
            b.receive_any_of(&[PartyId::DataHolder(1)], Duration::from_secs(5))
                .unwrap()
                .unwrap()
                .topic,
            "one"
        );

        // B drops off the network; A keeps sending.
        b.sever_links();
        // Give the router a moment to notice the hangup (its source deregisters).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while router.connection_count() > 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        send("two");
        send("three");
        // B re-dials the router: the resume handshake announces one
        // received frame, and the router retransmits exactly two and three.
        b.connect(addr, &Backoff::default()).unwrap();
        let mut got = Vec::new();
        while let Some(e) = b
            .receive_any_of(&[PartyId::DataHolder(1)], Duration::from_secs(5))
            .unwrap()
        {
            got.push(e.topic);
            if got.len() == 2 {
                break;
            }
        }
        assert_eq!(got, vec!["two", "three"]);
        assert!(b.try_receive(PartyId::DataHolder(1)).unwrap().is_none());
        assert_eq!(router.unroutable_frames(), 0);

        a.shutdown();
        b.shutdown();
        router.shutdown();
    }

    /// A *restarted* process (fresh endpoint id, same party set) must
    /// supersede its predecessor's dead logical link at the router — the
    /// stale link may not shadow the live one and black-hole traffic.
    #[test]
    fn router_serves_a_restarted_peer_instead_of_its_dead_predecessor() {
        let (mut router, addr) = TcpRouter::spawn("127.0.0.1:0").unwrap();
        let a = TcpTransport::new([PartyId::DataHolder(0)]);
        a.connect(addr, &Backoff::default()).unwrap();

        let first_b = TcpTransport::new([PartyId::DataHolder(1)]);
        first_b.connect(addr, &Backoff::default()).unwrap();
        a.send(envelope(
            PartyId::DataHolder(0),
            PartyId::DataHolder(1),
            "before-restart",
            vec![1],
        ))
        .unwrap();
        assert!(first_b
            .receive_any_of(&[PartyId::DataHolder(1)], Duration::from_secs(5))
            .unwrap()
            .is_some());
        // The DH1 process dies for good...
        first_b.shutdown();
        drop(first_b);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while router.connection_count() > 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        // ...and is relaunched: a new transport, hence a new endpoint id.
        let second_b = TcpTransport::new([PartyId::DataHolder(1)]);
        second_b.connect(addr, &Backoff::default()).unwrap();
        a.send(envelope(
            PartyId::DataHolder(0),
            PartyId::DataHolder(1),
            "after-restart",
            vec![2],
        ))
        .unwrap();
        let got = second_b
            .receive_any_of(&[PartyId::DataHolder(1)], Duration::from_secs(5))
            .unwrap()
            .expect("the restarted peer must receive traffic");
        assert_eq!(got.topic, "after-restart");

        a.shutdown();
        second_b.shutdown();
        router.shutdown();
    }

    #[test]
    fn mismatched_magic_is_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let rogue = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.write_all(b"HTTP/1.1 200 OK\r\n\r\n").unwrap();
            // Drain whatever the client sent, then drop.
            let mut sink = [0u8; 64];
            let _ = stream.read(&mut sink);
        });
        let t = TcpTransport::new([PartyId::DataHolder(0)]);
        let err = t.connect(addr, &Backoff::none()).unwrap_err();
        assert!(matches!(err, NetError::Decode(_)), "{err}");
        rogue.join().unwrap();
    }
}
