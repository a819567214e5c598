//! Real socket bindings: TCP and Unix-domain transports, acceptors and a
//! frame router.
//!
//! [`StreamTransport`](crate::framed::StreamTransport) frames envelopes over
//! any byte stream but knows nothing about establishing connections. This
//! module binds that framing to actual sockets and upgrades it to a
//! condvar-waking, multi-link transport:
//!
//! * a **handshake** ([`HELLO_MAGIC`]) in which each endpoint announces the
//!   set of parties it hosts, its channel-security mode (negotiated
//!   explicitly — a plaintext/sealed mismatch between endpoints is
//!   rejected, never silently downgraded) and the number of frames it has
//!   received on the logical link, so peers and routers learn where to
//!   deliver and how much to retransmit after a reconnect;
//! * optional **channel sealing** ([`SocketTransport::set_security`]): with
//!   a [`ChannelKeyring`] installed, every
//!   frame is AEAD-sealed end-to-end between the party pair it travels
//!   between (routers forward the sealed bytes opaquely), the replay
//!   window retains the *sealed* frames so reconnect retransmission reuses
//!   the exact nonces, and tampered / plaintext / reordered inbound frames
//!   surface as [`NetError::AuthFailure`];
//! * [`SocketTransport`] — one framed stream per peer link, each drained by
//!   its read driver (see *I/O driver*) into per-party delivery
//!   slots, so [`WaitTransport::receive_any_of`] parks without spinning
//!   and wakes only for the parties it watches. Every link
//!   keeps a replay window of sent frames (implicit per-link sequence
//!   numbers), making re-dials and re-accepts **lossless**: the resume
//!   handshake retransmits exactly the suffix the other side lost. The
//!   receiving end of every link and router connection acks what it has
//!   taken ([per-hop acks](#per-hop-acks)), so a window holds only the
//!   frames its peer does not have yet;
//! * [`Backoff`] — retry policy for transient connect/send errors
//!   (connection refused while the peer is still binding, broken pipes on
//!   links that can be re-dialled);
//! * [`TcpAcceptor`] / [`UdsAcceptor`] — listener-side halves that complete
//!   the handshake and attach the inbound stream to an existing transport;
//! * [`TcpRouter`] / [`UdsRouter`] — a standalone frame router: every
//!   connection announces its parties, and the router validates each
//!   inbound frame in place and forwards its original bytes to the
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
//! The transport and the routers run every socket nonblocking on the
//! process-global event loop in `crate::reactor`, which holds O(1) threads
//! at any link count. The loop needs unix descriptors: off unix, attaching a
//! link or a router connection fails loudly ("reactor backend
//! unavailable").
//!
//! ## Per-hop acks
//!
//! Each hop acks for itself (`docs/WIRE_FORMAT.md` §3, §4.1). Once
//! [`ACK_EVERY_FRAMES`] frames or [`ACK_EVERY_BYTES`] bytes have arrived
//! on a link since its last ack, its receiving end sends the `received`
//! count the resume exchange carries, as a frame of its own
//! ([`encode_ack`]), and the sender drops every replay-window frame up to
//! it. The ack rides a write the link makes anyway — the transport's turn
//! flush, the router's per-chunk write — and goes alone only when the link
//! has nothing of its own to send. A router acks its origin once a frame
//! is in the destination's window and keeps it there until the
//! destination acks, so store-and-forward is unchanged. On a transport the
//! reactor thread never waits on a writer lock (a sender parked on
//! backpressure holds it): the read driver checks each ack and publishes
//! it in counters the link's two halves share, and the writer trims at its
//! next record, flush or resume. A resume count trims like an ack. An ack
//! past what was sent, or one that goes backwards, fails the link as a
//! decode error (a router closes the connection).

use std::collections::{BTreeSet, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use polling::Interest;

use crate::codec::{WireReader, WireWriter};
use crate::delivery::{DeliveryMode, FailureScope, Inbox};
use crate::error::NetError;
use crate::framed::{
    encode_ack, encode_frame, get_party, put_party, FrameDecoder, LinkFrame, MAX_FRAME_BODY,
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
/// Version 2 added the resume exchange (§3 of `docs/WIRE_FORMAT.md`): after
/// the hellos, each side sends the number of frames it has received on this
/// logical link so the other side can retransmit the lost suffix from its
/// replay window. Version 3 added the channel-security byte to the hello
/// (§8): endpoints advertise `Plaintext` or `SealedPsk`, forwarders are
/// `Transparent`, and any endpoint-level mismatch is rejected during the
/// handshake — there is no silent downgrade. Version 4 made every sealed
/// payload a **coalesced record** (§8.2): the batch plaintext is
/// count-prefixed, so one AEAD invocation covers N inner envelopes. A v3
/// peer would misread the batch layout, so the exact-version handshake
/// check rejects it explicitly — again, never a silent downgrade. Version 5
/// packs the alphanumeric payloads (§6.5–§6.7): masked symbols and CCM
/// cells travel at ⌈log₂|A|⌉ bits, and a CCM bundle's shapes are one
/// length vector per side. A v4 peer would misread them, so it is rejected
/// the same way. Version 6 adds the per-hop ack (§4.1): a v5 peer would take
/// its 8-byte body for a corrupt envelope and drop the link.
pub const WIRE_VERSION: u8 = 6;

/// Byte budget of sealed frames a coalescing link holds in its outbox
/// before it writes them without waiting for the next explicit flush (see
/// [`SocketTransport::set_coalescing`]). Sized so one turn's frames stay
/// well inside socket buffers while the per-write syscall cost is paid
/// once for many protocol-sized frames.
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

/// Soft cap on bytes parked in a reactor link's outbox before the sending
/// thread stops queueing and drains synchronously (parking in
/// `poll(2)`/`wait_writable` until the socket accepts more). This is the
/// sender-side backpressure: once a send returns, the link's outbox holds
/// at most this many bytes.
pub const OUTBOX_SOFT_LIMIT: usize = 1 << 20;

/// Hard cap on bytes parked in a router connection's outbox. A peer that
/// stops reading past this point is treated like a dead stream: the
/// connection is dropped and the frames stay in the logical link's replay
/// window (store-and-forward), delivered when the peer reconnects. Under
/// normal reactor operation the flow-control pause at
/// [`ROUTER_OUTBOX_PAUSE`] keeps outboxes far below this; the cap is the
/// backstop for pathological frames larger than the pause budget.
pub const ROUTER_OUTBOX_LIMIT: usize = 16 << 20;

/// Router flow control: once a destination outbox holds more than this
/// many undrained bytes, the connections feeding it have their read
/// interest disarmed (paused) until the outbox drains below
/// [`ROUTER_OUTBOX_RESUME`], so backpressure reaches the sending peer
/// through its own socket buffers. Without it a fast sender whose receiver
/// shares the reactor's dispatch turn (e.g. an echo through the router
/// inside one process) can balloon the outbox to the
/// [`ROUTER_OUTBOX_LIMIT`] teardown even though every peer is healthy.
pub const ROUTER_OUTBOX_PAUSE: usize = 1 << 20;

/// Outbox level at which paused origin connections resume reading
/// (hysteresis below [`ROUTER_OUTBOX_PAUSE`] so the gate doesn't flap).
pub const ROUTER_OUTBOX_RESUME: usize = ROUTER_OUTBOX_PAUSE / 2;

/// The I/O driver a [`SocketTransport`] or [`SocketRouter`] runs on. There
/// is one, the reactor (see *I/O driver*); the type stays so that callers
/// naming it, and the `backend` provenance field of bench rows, keep
/// working.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportBackend {
    /// All sockets registered nonblocking with the process-global event
    /// loop in `crate::reactor`: O(1) threads at any link count.
    /// Unsupported off unix (attaching a link fails loudly).
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
/// yet, indexed by implicit per-link sequence number (frame `i` is simply
/// the `i`-th frame ever written onto the link; per-link FIFO makes the
/// numbering unambiguous without putting sequence numbers on the wire).
///
/// The peer's hop acks and resume counts drop the frames they cover
/// ([`ack`](Self::ack), [`resume`](Self::resume)); after a reconnect the
/// window then holds exactly the lost suffix for retransmission. Two hard
/// caps, frames and bytes, bound the window when the peer stops acking:
/// past them the oldest frames are evicted, and a resume that needs one
/// fails loudly instead of resuming with a gap.
#[derive(Debug)]
struct ReplayWindow {
    frames: VecDeque<Vec<u8>>,
    /// Total frames ever recorded (the sequence number of the newest frame).
    sent: u64,
    /// The peer's latest cumulative ack or resume count.
    acked: u64,
    capacity: usize,
    /// Byte cap across the retained frames (at least one frame is always
    /// kept so the most recent send stays retransmittable).
    byte_budget: usize,
    bytes: usize,
    /// The cap that evicted the newest evicted frame, if any was evicted.
    evicted_by: Option<ReplayCap>,
}

/// The two hard caps of a [`ReplayWindow`].
#[derive(Debug, Clone, Copy)]
enum ReplayCap {
    Frames,
    Bytes,
}

impl ReplayWindow {
    fn new(capacity: usize, byte_budget: usize) -> Self {
        ReplayWindow {
            frames: VecDeque::new(),
            sent: 0,
            acked: 0,
            capacity: capacity.max(1),
            byte_budget: byte_budget.max(1),
            bytes: 0,
            evicted_by: None,
        }
    }

    /// Records one sent frame, evicting the oldest beyond the frame or
    /// byte cap — but never the newest `keep` frames (at least the one
    /// just recorded): a router writes a read chunk's frames from here
    /// after recording them all.
    fn record(&mut self, frame: Vec<u8>, keep: usize) {
        self.sent += 1;
        self.bytes += frame.len();
        self.frames.push_back(frame);
        while self.frames.len() > keep.max(1)
            && (self.frames.len() > self.capacity || self.bytes > self.byte_budget)
        {
            self.evicted_by = Some(if self.frames.len() > self.capacity {
                ReplayCap::Frames
            } else {
                ReplayCap::Bytes
            });
            if let Some(evicted) = self.frames.pop_front() {
                self.bytes -= evicted.len();
            }
        }
    }

    /// Takes the peer's cumulative hop ack: it holds every frame up to
    /// `acked`, so they leave the window. The newest `unwritten` frames
    /// are not on the wire yet and cannot be acked. `Err` (the ack passes
    /// what was written, or goes back from the peer's earlier one) leaves
    /// the window as it was.
    fn ack(&mut self, acked: u64, unwritten: usize) -> Result<(), String> {
        let written = self.sent.saturating_sub(unwritten as u64);
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
        let first = self.sent - self.frames.len() as u64;
        for _ in first..acked {
            if let Some(freed) = self.frames.pop_front() {
                self.bytes -= freed.len();
            }
        }
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

    /// The frames after the peer's `received` count, oldest first; `Err`
    /// as for [`pending_after`](Self::pending_after).
    fn unacked(&self, received: u64) -> Result<impl Iterator<Item = &[u8]>, String> {
        let pending = self.pending_after(received)?;
        Ok(self
            .frames
            .range(self.frames.len() - pending..)
            .map(Vec::as_slice))
    }

    /// Takes the peer's resume count: it acks like a hop ack, so afterwards
    /// the window holds exactly the frames to retransmit. `Err` as for
    /// [`pending_after`](Self::pending_after), leaving the window as it
    /// was.
    fn resume(&mut self, received: u64) -> Result<(), String> {
        self.pending_after(received)?;
        self.ack(received, 0)
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
    let mut w = WireWriter::with_capacity(15 + parties.len() * 5);
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

/// Handshake stage 1 (`docs/WIRE_FORMAT.md` §3): writes this endpoint's
/// hello, reads and validates the peer's, negotiates channel security, and
/// returns the endpoint id and party set the peer announced. Reads exactly
/// the peer's hello and allocates only for the parties it has read.
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

    let mut header = [0u8; 15];
    stream.read_exact(&mut header).map_err(io_err)?;
    if header[..4] != HELLO_MAGIC {
        return Err(NetError::Decode(format!(
            "bad handshake magic {:02x?} (expected {HELLO_MAGIC:02x?})",
            &header[..4]
        )));
    }
    if header[4] != WIRE_VERSION {
        return Err(NetError::Decode(format!(
            "peer speaks wire version {}, this build speaks {WIRE_VERSION}",
            header[4]
        )));
    }
    let peer_mode = SecurityMode::from_wire(header[5])?;
    SecurityMode::negotiate(mode, peer_mode)?;
    let peer_endpoint = u64::from_le_bytes(header[6..14].try_into().expect("8 bytes"));
    let mut parties = BTreeSet::new();
    for _ in 0..header[14] {
        let mut party = [0u8; 5];
        stream.read_exact(&mut party).map_err(io_err)?;
        parties.insert(get_party(&mut WireReader::new(&party))?);
    }
    Ok((peer_endpoint, parties))
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

/// Arms the handshake's read timeout on a socket (5 s), or clears it with
/// `false` once the resume exchange is through.
fn handshake_deadline<S: SocketStream>(stream: &S, armed: bool) -> Result<(), NetError> {
    stream
        .set_stream_read_timeout(armed.then_some(Duration::from_secs(5)))
        .map_err(|e| NetError::Io(format!("handshake failed: {e}")))
}

/// Full handshake (both stages) for endpoints that know their received
/// count up front (diallers and re-diallers). Returns the peer's announced
/// endpoint id, party set and received-frame count.
fn handshake<S: SocketStream>(
    stream: &mut S,
    endpoint: u64,
    locals: &BTreeSet<PartyId>,
    received: u64,
    mode: SecurityMode,
) -> Result<(u64, BTreeSet<PartyId>, u64), NetError> {
    handshake_deadline(stream, true)?;
    let (peer_endpoint, parties) = exchange_hello(stream, endpoint, locals, mode)?;
    let peer_received = exchange_resume(stream, received)?;
    handshake_deadline(stream, false)?;
    Ok((peer_endpoint, parties, peer_received))
}

/// Bytes accepted by a send or forward but not yet written to the socket:
/// frames a coalescing link defers to its next flush, hop acks waiting for
/// a write to ride, and whatever a nonblocking write left over. Every frame
/// in here is already recorded in the replay window, and the resume count
/// supersedes any ack, so discarding the outbox on a reconnect is
/// lossless — the resume retransmission re-sends the recorded frames.
#[derive(Debug, Default)]
struct Outbox {
    buf: Vec<u8>,
    /// Bytes of `buf` already written to the socket.
    cursor: usize,
}

impl Outbox {
    fn is_empty(&self) -> bool {
        self.cursor >= self.buf.len()
    }

    fn len(&self) -> usize {
        self.buf.len() - self.cursor
    }

    fn push(&mut self, bytes: &[u8]) {
        if self.is_empty() {
            self.buf.clear();
            self.cursor = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    fn unsent(&self) -> &[u8] {
        &self.buf[self.cursor..]
    }

    fn advance(&mut self, n: usize) {
        self.cursor += n;
        if self.is_empty() {
            self.buf.clear();
            self.cursor = 0;
        }
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.cursor = 0;
    }
}

/// Arms or disarms write-readiness reporting, tolerating a dead
/// registration (a deregistered fd is on its way to a redial).
fn set_write_interest(registration: &Option<Arc<Registration>>, on: bool) {
    if let Some(registration) = registration {
        let _ = registration.set_writable(on);
    }
}

/// Pushes outbox bytes into a nonblocking socket.
///
/// Leftover bytes arm write interest so the reactor's writable dispatch
/// finishes the job. When `soft_limit` is given and the leftover exceeds
/// it, the drain instead parks in [`polling::wait_writable`] until the
/// socket accepts more (sender-side backpressure; never used on the
/// reactor thread). When `deadline` is given the park gives up once it
/// passes — used only by orderly shutdown, where an unreachable peer must
/// not hang the process.
fn drain_outbox<S: SocketStream>(
    stream: &mut S,
    outbox: &mut Outbox,
    registration: &Option<Arc<Registration>>,
    soft_limit: Option<usize>,
    deadline: Option<std::time::Instant>,
) -> std::io::Result<()> {
    while !outbox.is_empty() {
        match stream.write(outbox.unsent()) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => outbox.advance(n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let over = soft_limit.is_some_and(|limit| outbox.len() > limit);
                if !over {
                    set_write_interest(registration, true);
                    return Ok(());
                }
                if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
                    return Err(std::io::ErrorKind::TimedOut.into());
                }
                // Backpressure: park until writable (with interest
                // disarmed, so the reactor does not spin on a lock the
                // parked sender holds), then retry the write.
                set_write_interest(registration, false);
                let fd = stream.stream_raw_fd()?;
                let _ = polling::wait_writable(fd, Some(Duration::from_millis(50)))?;
            }
            Err(e) => return Err(e),
        }
    }
    set_write_interest(registration, false);
    Ok(())
}

/// Writes the outbox's unsent bytes and then `frames`, in stream order,
/// with vectored writes: every frame goes to the socket from its own
/// buffer, and only what the socket does not take is copied into the
/// outbox. The leftover then drains as in [`drain_outbox`] (write
/// interest armed, or a park past `soft_limit`). On a blocking stream
/// this writes everything. An error leaves the outbox as it was: the
/// stream is dead, and the resume or teardown that follows discards both.
fn write_frames<'a, S: SocketStream>(
    stream: &mut S,
    outbox: &mut Outbox,
    registration: &Option<Arc<Registration>>,
    soft_limit: Option<usize>,
    frames: impl Iterator<Item = &'a [u8]> + Clone,
) -> std::io::Result<()> {
    let queued = outbox.len();
    let total = queued + frames.clone().map(<[u8]>::len).sum::<usize>();
    let mut written = 0;
    {
        let mut slices = vec![IoSlice::new(outbox.unsent())];
        for frame in frames.clone() {
            slices.push(IoSlice::new(frame));
        }
        let mut rest = &mut slices[..];
        while written < total {
            match stream.write_vectored(rest) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    written += n;
                    IoSlice::advance_slices(&mut rest, n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
    }
    outbox.advance(written.min(queued));
    let mut skip = written.saturating_sub(queued);
    for frame in frames {
        if skip >= frame.len() {
            skip -= frame.len();
        } else {
            outbox.push(&frame[skip..]);
            skip = 0;
        }
    }
    drain_outbox(stream, outbox, registration, soft_limit, None)
}

/// `write_all` semantics on a stream that may be nonblocking: parks in
/// [`polling::wait_writable`] on `WouldBlock`. Used by resume
/// retransmission, which runs on a freshly handshaken stream that its
/// reactor registration has already flipped nonblocking.
fn write_all_parking<S: SocketStream>(stream: &mut S, bytes: &[u8]) -> std::io::Result<()> {
    let mut written = 0;
    while written < bytes.len() {
        match stream.write(&bytes[written..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let fd = stream.stream_raw_fd()?;
                let _ = polling::wait_writable(fd, Some(Duration::from_millis(50)))?;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// What one link's read driver and writer share without a lock: the
/// reactor thread must never wait on the writer lock, which a sender parked
/// on backpressure holds. The read driver counts frames, checks the peer's
/// acks and publishes them here, and flags when an ack of this end's own is
/// due; the writer publishes what it has recorded, trims its window to the
/// peer's ack and sends the due ack with its next write.
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
}

/// The writer half of one link: the current OS stream plus the replay
/// window that makes reconnects lossless. Recording a frame and writing it
/// happen under one lock, so the replay order always equals the stream
/// order.
struct LinkWriter<S> {
    stream: S,
    replay: ReplayWindow,
    /// Shared with the link's read driver.
    acks: Arc<AckState>,
    /// Bumped on every successful stream replacement; a sender whose write
    /// failed checks it to learn whether a concurrent sender already
    /// re-dialled (and therefore already retransmitted the failed frame).
    generation: u64,
    /// Bytes accepted by a send but not yet written: sealed frames a
    /// coalescing link defers to the next flush, a due hop ack, and
    /// whatever a nonblocking write left over. Every frame here is already
    /// in the replay window.
    outbox: Outbox,
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
        self.replay.record(frame, 1);
        self.acks.sent.store(self.replay.sent, Ordering::SeqCst);
    }

    /// Frees the frames up to the peer's latest ack. The read driver
    /// checked it against `sent` and the peer's earlier acks, and a resume
    /// raises it only to a count the window took, so the window always
    /// takes it.
    fn trim(&mut self) {
        let _ = self
            .replay
            .ack(self.acks.peer_acked.load(Ordering::SeqCst), 0);
    }

    /// Acts on what the read driver published: frees the frames up to the
    /// peer's ack, and queues a due ack behind the outbox. Returns whether
    /// an ack was queued.
    fn settle_acks(&mut self) -> bool {
        self.trim();
        if !self.acks.ack_due.swap(false, Ordering::SeqCst) {
            return false;
        }
        self.outbox
            .push(&encode_ack(self.acks.received.load(Ordering::SeqCst)));
        true
    }

    /// Settles acks and sends a due one now: behind the outbox when the
    /// link has bytes of its own waiting there (the next flush or writable
    /// dispatch writes them), alone when it has none. Never parks: what
    /// the socket does not take arms write interest.
    fn send_due_ack(&mut self) {
        let idle = self.outbox.is_empty();
        if !self.settle_acks() || !idle || self.write_failed.is_some() {
            return;
        }
        if let Err(e) = drain_outbox(
            &mut self.stream,
            &mut self.outbox,
            &self.registration,
            None,
            None,
        ) {
            set_write_interest(&self.registration, false);
            self.write_failed = Some(e);
        }
    }

    /// Sends the frame just recorded in the replay window. With `defer` (a
    /// sealed, coalescing link) the frame joins the outbox and leaves with
    /// the rest of the turn at the next flush; only an outbox that would
    /// pass [`COALESCE_BUDGET`] is written at once, together with the
    /// frame. Otherwise the frame is written through, with sender-side
    /// backpressure past [`OUTBOX_SOFT_LIMIT`]. A write failure the
    /// reactor's writable dispatch stashed surfaces here first.
    fn send_recorded(&mut self, defer: bool) -> std::io::Result<()> {
        if let Some(e) = self.write_failed.take() {
            return Err(e);
        }
        let frame = self.replay.frames.back().expect("just recorded");
        if defer && self.outbox.len() + frame.len() <= COALESCE_BUDGET {
            self.outbox.push(frame);
            return Ok(());
        }
        write_frames(
            &mut self.stream,
            &mut self.outbox,
            &self.registration,
            Some(OUTBOX_SOFT_LIMIT),
            std::iter::once(frame.as_slice()),
        )
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
    /// `SealedPsk` and rejects plaintext peers — call this **before**
    /// attaching any link. See `docs/WIRE_FORMAT.md` §8.
    pub fn set_security(&mut self, keyring: ChannelKeyring) {
        let salt = (self.endpoint ^ (self.endpoint >> 32)) as u32;
        self.security = Some(SecurityState {
            sealer: ChannelSealer::new(keyring.clone(), salt),
            opener: Arc::new(ChannelOpener::new(keyring)),
        });
    }

    /// Enables frame coalescing on a secured transport: each send still
    /// seals its envelope into its own record and records it in the replay
    /// window at once, but the frame waits in the link's outbox, and the
    /// next [`Transport::flush`] writes the whole turn's frames with one
    /// write. An outbox that would pass [`COALESCE_BUDGET`] is written
    /// straight away, so memory stays bounded within a turn.
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
        let writer = Arc::new(Mutex::new(LinkWriter {
            stream,
            replay: ReplayWindow::new(self.replay_frames, self.replay_bytes),
            acks: Arc::clone(&acks),
            generation: 0,
            outbox: Outbox::default(),
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
    /// retransmits the unacknowledged suffix, swaps the stream in and
    /// registers a fresh reader. The old reader must already be quiesced.
    fn resume_link_at(
        &self,
        links: &mut [Link<S>],
        index: usize,
        mut stream: S,
        peer_endpoint: u64,
        peer_parties: BTreeSet<PartyId>,
        peer_received: u64,
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
        // `wait_writable` when the socket fills.)
        let old_token = Arc::clone(&links[index].reader_retired);
        let reader_retired = Arc::new(AtomicBool::new(false));
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
            // checked against it. The count then acks like a hop ack, and
            // the window holds exactly the suffix to retransmit.
            writer.trim();
            let result = match writer.replay.resume(peer_received) {
                Err(e) => Err(ResumeError::Refused(NetError::Io(e))),
                Ok(()) => writer
                    .replay
                    .frames
                    .iter()
                    .try_for_each(|frame| write_all_parking(&mut stream, frame))
                    .and_then(|()| stream.flush())
                    .map_err(ResumeError::Retransmission),
            };
            writer
                .acks
                .peer_acked
                .fetch_max(writer.replay.acked, Ordering::SeqCst);
            if result.is_ok() {
                writer.stream = stream;
                writer.generation += 1;
                // Undelivered outbox frames of the dead stream are already
                // in the replay window (record-then-write), so the resume
                // retransmission above covered them, and the resume count
                // superseded any ack there; a stashed write failure
                // belonged to the dead stream too.
                writer.outbox.clear();
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
        match existing {
            Some(index) => {
                let received = Self::quiesce_reader(&mut links, index);
                let (peer_endpoint, peer_parties, peer_received) = handshake(
                    &mut stream,
                    self.endpoint,
                    &self.locals,
                    received,
                    self.security_mode(),
                )?;
                self.resume_link_at(
                    &mut links,
                    index,
                    stream,
                    peer_endpoint,
                    peer_parties.clone(),
                    peer_received,
                )
                .map_err(NetError::from)?;
                Ok(peer_parties)
            }
            None => {
                let (peer_endpoint, peer_parties, peer_received) = handshake(
                    &mut stream,
                    self.endpoint,
                    &self.locals,
                    0,
                    self.security_mode(),
                )?;
                if peer_received != 0 {
                    return Err(NetError::Io(format!(
                        "peer expects to resume at frame {peer_received} on a link this \
                         endpoint has no state for (frames are irrecoverably lost)"
                    )));
                }
                self.attach_link_locked(
                    &mut links,
                    stream,
                    peer_endpoint,
                    peer_parties.clone(),
                    Some(target),
                )?;
                Ok(peer_parties)
            }
        }
    }

    /// Completes stage 2 of the handshake for an accepted connection (whose
    /// handshake deadline the acceptor armed) and either resumes the
    /// existing logical link with the same announced endpoint id and party
    /// set (retransmitting whatever the peer lost) or attaches a fresh
    /// link.
    fn accept_stream(
        &self,
        mut stream: S,
        peer_endpoint: u64,
        peer_parties: BTreeSet<PartyId>,
    ) -> Result<(), NetError> {
        let mut links = self.links.lock();
        let existing = links
            .iter()
            .position(|l| l.peer_endpoint == peer_endpoint && l.peer_parties == peer_parties);
        match existing {
            Some(index) => {
                let received = Self::quiesce_reader(&mut links, index);
                let peer_received = exchange_resume(&mut stream, received)?;
                handshake_deadline(&stream, false)?;
                self.resume_link_at(
                    &mut links,
                    index,
                    stream,
                    peer_endpoint,
                    peer_parties,
                    peer_received,
                )
                .map_err(NetError::from)
            }
            None => {
                let peer_received = exchange_resume(&mut stream, 0)?;
                handshake_deadline(&stream, false)?;
                if peer_received != 0 {
                    return Err(NetError::Io(format!(
                        "peer expects to resume at frame {peer_received}, but this endpoint \
                         holds no state for its link (frames are irrecoverably lost)"
                    )));
                }
                self.attach_link_locked(&mut links, stream, peer_endpoint, peer_parties, None)
            }
        }
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
        // A fresh stream can die while the lost suffix is written to it: a
        // router drops a connection whose reflected frame overflows its
        // outbox. Dial again, within the reconnect budget; the peer has
        // counted what arrived, so each attempt resumes further on.
        let mut attempts = self.reconnect.max_attempts.max(1);
        loop {
            let mut stream = self
                .reconnect
                .retry(|| S::redial(&target))
                .map_err(|e| NetError::Io(format!("reconnect failed: {e}")))?;
            let (peer_endpoint, peer_parties, peer_received) = handshake(
                &mut stream,
                self.endpoint,
                &self.locals,
                received,
                self.security_mode(),
            )?;
            match self.resume_link_at(
                links,
                index,
                stream,
                peer_endpoint,
                peer_parties,
                peer_received,
            ) {
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
            // Best-effort drain of the outbox, so an orderly shutdown does
            // not strand deferred frames (a crash still can; the peer then
            // misses them like any unsent protocol state). The drain is
            // deadline-bounded: an unreachable peer must not hang the
            // process on exit.
            {
                let mut guard = links[index].writer.lock();
                let w = &mut *guard;
                let deadline = std::time::Instant::now() + Duration::from_secs(1);
                let _ = drain_outbox(
                    &mut w.stream,
                    &mut w.outbox,
                    &w.registration,
                    Some(0),
                    Some(deadline),
                );
                let _ = w.stream.flush();
            }
            let _ = Self::quiesce_reader(&mut links, index);
        }
        drop(links);
        self.delivery.wake_all();
    }
}

impl<S: SocketStream> crate::metrics::SealingReporter for SocketTransport<S> {
    fn sealing_report(&self) -> Option<SealingReport> {
        SocketTransport::sealing_report(self)
    }
}

impl<S: SocketStream> crate::metrics::WaitStatsReporter for SocketTransport<S> {
    fn wait_stats(&self) -> Option<WaitStats> {
        Some(SocketTransport::wait_stats(self))
    }
}

impl<S: SocketStream> crate::metrics::DeliveryReporter for SocketTransport<S> {
    fn delivery_stats(&self) -> Option<DeliveryStats> {
        Some(SocketTransport::delivery_stats(self))
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

    /// EOF. A partial frame in the buffer means the peer (or the network)
    /// died mid-send; on a recoverable link the retransmission after
    /// re-dial replaces the torn frame, so only unrecoverable links
    /// surface it as fatal.
    fn on_eof(&self) {
        if self.decoder.buffered() > 0 && !self.recoverable && !self.silenced() {
            self.fail(NetError::Io(format!(
                "peer hung up mid-frame with {} bytes buffered",
                self.decoder.buffered()
            )));
        }
    }

    /// Stream I/O failure. On `recoverable` links (those with a re-dial
    /// target) these are *not* recorded as fatal: the next send re-dials
    /// and retransmits, so the receive path must not kill the session
    /// first.
    fn on_error(&self, e: std::io::Error) {
        if !self.recoverable && !self.silenced() {
            self.fail(NetError::Io(e.to_string()));
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
/// stream through its ingest on readable events and drains the writer's
/// outbox on writable events.
struct LinkSource<S> {
    read: Mutex<ReadDriver<S>>,
    /// The link's writer, for outbox draining on writable readiness.
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
                    driver.ingest.on_eof();
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
                    driver.ingest.on_error(e);
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
        let Some(mut guard) = self.writer.try_lock() else {
            return;
        };
        let w = &mut *guard;
        if w.write_failed.is_some() {
            set_write_interest(&w.registration, false);
            return;
        }
        if let Err(e) = drain_outbox(&mut w.stream, &mut w.outbox, &w.registration, None, None) {
            // Stash for the next send or flush to surface; the read side
            // observes the broken stream independently and deregisters.
            set_write_interest(&w.registration, false);
            w.write_failed = Some(e);
        }
    }
}

impl<S: SocketStream> Source for LinkSource<S> {
    fn on_ready(&self, readable: bool, writable: bool) {
        // Writes first: on a HUP (reported as both) the outbox still gets
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
            match w.send_recorded(defer) {
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
            // On a coalescing link the outbox holds the turn's deferred
            // frames: flush is where they leave, in one write.
            let (generation, had_pending, result) = {
                let mut guard = writer.lock();
                let w = &mut *guard;
                let had_pending = !w.outbox.is_empty() || w.write_failed.is_some();
                // A due ack leaves with the turn; a dead link does not
                // re-dial for an ack alone.
                w.settle_acks();
                // A write failure the reactor's writable dispatch stashed
                // surfaces here. Otherwise flush fully drains the outbox
                // (`Some(0)` parks in `wait_writable` until the socket
                // accepts the rest).
                let result = match w.write_failed.take() {
                    Some(e) => Err(e),
                    None => {
                        drain_outbox(&mut w.stream, &mut w.outbox, &w.registration, Some(0), None)
                            .and_then(|()| w.stream.flush())
                    }
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
        let (mut stream, _) = self
            .listener
            .accept()
            .map_err(|e| NetError::Io(format!("accept failed: {e}")))?;
        stream
            .set_nodelay(true)
            .map_err(|e| NetError::Io(e.to_string()))?;
        handshake_deadline(&stream, true)?;
        let (peer_endpoint, peer_parties) = exchange_hello(
            &mut stream,
            transport.endpoint,
            transport.locals(),
            transport.security_mode(),
        )?;
        transport.accept_stream(stream, peer_endpoint, peer_parties.clone())?;
        Ok(peer_parties)
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
        let (mut stream, _) = self
            .listener
            .accept()
            .map_err(|e| NetError::Io(format!("accept failed: {e}")))?;
        handshake_deadline(&stream, true)?;
        let (peer_endpoint, peer_parties) = exchange_hello(
            &mut stream,
            transport.endpoint,
            transport.locals(),
            transport.security_mode(),
        )?;
        transport.accept_stream(stream, peer_endpoint, peer_parties.clone())?;
        Ok(peer_parties)
    }
}

/// The outbound half of one router logical link: the replay window plus
/// the currently live stream (if any). Recording and writing happen under
/// one lock so replay order equals stream order; when no stream is live,
/// frames are recorded only (store-and-forward) and delivered by the
/// resume retransmission when the peer reconnects. The peer's hop acks
/// free what it holds.
struct RouterOutbound<S> {
    replay: ReplayWindow,
    stream: Option<S>,
    /// Bumped per successful (re)connection; a connection's source only
    /// tears down the stream it installed.
    generation: u64,
    /// Bytes accepted by a forward but not yet written, and hop acks to
    /// the peer; bounded by [`ROUTER_OUTBOX_LIMIT`], past which the
    /// connection is treated as dead. Every frame here is already in the
    /// replay window.
    outbox: Outbox,
    /// Frames at the back of `replay` that the read chunk being forwarded
    /// recorded for the live stream and has not written yet (see
    /// [`router_ingest`]). Zero whenever the stream is replaced or dropped:
    /// the resume retransmission covers them.
    unsent: usize,
    /// Reactor registration of the live stream's fd, for arming write
    /// interest (`None` with no live stream, or before it registers).
    registration: Option<Arc<Registration>>,
    /// Origin connections whose read interest was disarmed because their
    /// forwards congested this outbox past [`ROUTER_OUTBOX_PAUSE`]; resumed
    /// when the outbox drains below [`ROUTER_OUTBOX_RESUME`] or the
    /// connection dies.
    paused_origins: Vec<PausedOrigin>,
}

/// A flow-control-paused origin connection: enough shared state to flip its
/// read interest back on once the congested destination drains.
struct PausedOrigin {
    paused: Arc<AtomicBool>,
    registration: Arc<Registration>,
}

impl<S: SocketStream> RouterOutbound<S> {
    /// Resumes every origin paused into this outbox: clears their paused
    /// flag and re-arms read interest (level-triggered polling re-fires
    /// any bytes that queued while the gate was closed). Must run whenever
    /// the outbox drains below [`ROUTER_OUTBOX_RESUME`] *and* on every path
    /// that clears the outbox or tears the connection down — a paused
    /// origin with no one left to resume it would be deaf forever.
    fn resume_paused_origins(&mut self) {
        for origin in self.paused_origins.drain(..) {
            origin.paused.store(false, Ordering::SeqCst);
            // A dead registration means the origin is being torn down anyway.
            let _ = origin.registration.set_readable(true);
        }
    }

    /// Writes the outbox and then the `unsent` frames at the back of the
    /// replay window, straight from there ([`write_frames`]). A dead stream
    /// — or a peer that stopped reading long enough to blow
    /// [`ROUTER_OUTBOX_LIMIT`] — drops the connection. Returns whether the
    /// stream is still live.
    fn write_pending(&mut self) -> bool {
        let unsent = std::mem::take(&mut self.unsent);
        let Some(stream) = self.stream.as_mut() else {
            return false;
        };
        let frames = self
            .replay
            .frames
            .range(self.replay.frames.len() - unsent..)
            .map(Vec::as_slice);
        let write = write_frames(stream, &mut self.outbox, &self.registration, None, frames);
        if write.is_err() || self.outbox.len() > ROUTER_OUTBOX_LIMIT {
            self.drop_stream();
            return false;
        }
        true
    }

    /// Shuts the live stream (if any) down and forgets it, keeping the
    /// logical link: undelivered outbox bytes and unsent frames are in the
    /// replay window, and the peer's resume retransmits them.
    fn drop_stream(&mut self) {
        if let Some(stream) = self.stream.take() {
            let _ = stream.shutdown_stream();
        }
        self.registration = None;
        self.outbox.clear();
        self.unsent = 0;
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
    /// Connections that found or created this link and whose handshake is
    /// still in flight (an [`AttachClaim`] each). Taken under the `links`
    /// lock, so a link with a claim is never superseded: its stream is not
    /// installed yet, but it is not dead.
    attaching: AtomicU64,
    /// The live connection's reactor source; a resume retires and
    /// barriers it before reading `received`. Held
    /// weakly: the source holds its link, and the reactor's dispatch table
    /// owns the source only while it is registered. So a connection that
    /// has ended frees its socket and decoder at once, and a superseded
    /// link frees its replay window; a strong reference here would make a
    /// cycle that kept both alive for the router's lifetime.
    source: Mutex<Weak<RouterConnSource<S>>>,
}

impl<S: SocketStream> RouterLink<S> {
    /// Drops the stream a connection installed as `generation` (unless a
    /// resume already replaced it), keeping the logical link — its replay
    /// window and counters are what make the peer's reconnect lossless.
    fn drop_stream_of(&self, generation: u64) {
        let mut out = self.out.lock();
        if out.generation == generation {
            out.drop_stream();
        }
    }

    /// Detaches the link's live reactor source, if it still exists.
    fn take_source(&self) -> Option<Arc<RouterConnSource<S>>> {
        std::mem::take(&mut *self.source.lock()).upgrade()
    }

    /// Whether a new endpoint announcing this link's party set may drop
    /// it: only when nothing is attached to it or attaching.
    fn is_dead(&self) -> bool {
        self.attaching.load(Ordering::SeqCst) == 0 && self.out.lock().stream.is_none()
    }
}

/// A connection's claim on the logical link it is attaching to, from the
/// moment it finds or creates the link (under the `links` lock) until its
/// stream is installed or its handshake fails.
struct AttachClaim<'a, S>(&'a RouterLink<S>);

impl<'a, S> AttachClaim<'a, S> {
    /// Claims `link`; the caller holds the `links` lock.
    fn new(link: &'a RouterLink<S>) -> Self {
        link.attaching.fetch_add(1, Ordering::SeqCst);
        AttachClaim(link)
    }
}

impl<S> Drop for AttachClaim<'_, S> {
    fn drop(&mut self) {
        self.0.attaching.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Shared router state: logical links and drop accounting.
struct RouterState<S> {
    /// The router's own endpoint id, announced in its (party-less) hello.
    endpoint: u64,
    links: Mutex<Vec<Arc<RouterLink<S>>>>,
    unroutable: AtomicU64,
    shutting_down: AtomicBool,
    replay_frames: usize,
    replay_bytes: usize,
}

impl<S: SocketStream> RouterState<S> {
    fn new() -> Self {
        RouterState {
            endpoint: endpoint_nonce(),
            links: Mutex::new(Vec::new()),
            unroutable: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            replay_frames: DEFAULT_REPLAY_FRAMES,
            replay_bytes: DEFAULT_REPLAY_BYTES,
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
/// Use via the aliases [`TcpRouter`] / [`UdsRouter`].
pub struct SocketRouter<S: SocketStream> {
    state: Arc<RouterState<S>>,
    accept_thread: Option<JoinHandle<()>>,
    reader_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    shutdown_listener: Box<dyn Fn() + Send + Sync>,
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

    /// Logical links with a live connection right now.
    pub fn connection_count(&self) -> usize {
        self.state
            .links
            .lock()
            .iter()
            .filter(|l| l.out.lock().stream.is_some())
            .count()
    }

    /// Stops accepting, closes every connection and joins all threads.
    pub fn shutdown(&mut self) {
        self.state.shutting_down.store(true, Ordering::SeqCst);
        (self.shutdown_listener)();
        for link in self.state.links.lock().iter() {
            if let Some(source) = link.take_source() {
                source.quiesce();
            }
            link.out.lock().drop_stream();
        }
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        let handles: Vec<JoinHandle<()>> = self.reader_threads.lock().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl<S: SocketStream> Drop for SocketRouter<S> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The read/write driver of one live router connection: forwards inbound
/// frames through [`router_ingest`], and drains the outbound link's outbox
/// on writable readiness.
struct RouterConnSource<S> {
    read: Mutex<RouterRead<S>>,
    link: Arc<RouterLink<S>>,
    state: Arc<RouterState<S>>,
    /// Set when a resume supersedes this connection; dispatches no-op.
    retired: AtomicBool,
    /// Set while this connection's read interest is disarmed because its
    /// forwards congested a destination outbox; cleared (and read interest
    /// re-armed) by the destination's drain. Shared so the destination can
    /// resume us without holding our locks.
    paused: Arc<AtomicBool>,
    /// The outbound generation this connection installed; teardown only
    /// touches the stream it owns.
    generation: u64,
    registration: OnceLock<Arc<Registration>>,
}

/// Read-side state of a router connection; one mutex so it doubles as the
/// quiesce barrier (see `crate::reactor`).
struct RouterRead<S> {
    stream: S,
    decoder: FrameDecoder,
    /// Frames and bytes taken on this connection since the router last
    /// acked its peer (the resume count acked everything before it).
    since_ack: (u64, usize),
    /// Latched on EOF / fatal error; later dispatches are no-ops.
    done: bool,
}

impl<S: SocketStream> RouterConnSource<S> {
    /// Retires the source and barriers out any in-flight dispatch; after
    /// this the link's `received` counter is final.
    fn quiesce(&self) {
        self.retired.store(true, Ordering::SeqCst);
        if let Some(registration) = self.registration.get() {
            registration.deregister();
        }
        drop(self.read.lock());
    }

    fn drain_readable(&self) {
        let mut guard = self.read.lock();
        if guard.done || self.retired.load(Ordering::SeqCst) || self.paused.load(Ordering::SeqCst) {
            return;
        }
        let read = &mut *guard;
        let mut buf = [0u8; 16 * 1024];
        loop {
            match read.stream.read(&mut buf) {
                Ok(0) => {
                    read.done = true;
                    break;
                }
                Ok(n) => {
                    if router_ingest(read, &buf[..n], self).is_err() {
                        read.done = true;
                        break;
                    }
                    // A forward congested a destination outbox and disarmed
                    // our read interest: stop consuming. The bytes left in
                    // the kernel buffer re-fire the moment the destination
                    // drains and re-arms us (and TCP backpressure reaches
                    // our peer meanwhile).
                    if self.paused.load(Ordering::SeqCst) {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    read.done = true;
                    break;
                }
            }
        }
        // Deregister entirely: a half-closed fd keeps reporting HUP under
        // level-triggered polling and would spin the loop.
        if let Some(registration) = self.registration.get() {
            registration.deregister();
        }
        drop(guard);
        self.link.drop_stream_of(self.generation);
    }

    fn drain_writable(&self) {
        // try_lock: the reactor thread must never park on a forwarder's
        // lock; level-triggered polling re-reports writable next loop.
        let Some(mut guard) = self.link.out.try_lock() else {
            return;
        };
        if guard.generation != self.generation {
            return;
        }
        if guard.write_pending() && guard.outbox.len() < ROUTER_OUTBOX_RESUME {
            guard.resume_paused_origins();
        }
    }
}

impl<S: SocketStream> Source for RouterConnSource<S> {
    fn on_ready(&self, readable: bool, writable: bool) {
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
        self.read.lock().done = true;
        self.link.drop_stream_of(self.generation);
    }
}

/// Validates and forwards every complete frame `bytes` completes on the
/// connection `origin`, counting them into its logical link's received
/// counter, and takes the hop acks among them. Each frame is checked in
/// place exactly as a receiving decoder checks it and forwarded as its
/// original bytes, so the router never re-encodes. Every frame of the
/// chunk is recorded in its destination's replay window first; an ack to
/// the origin, once one is due, joins the origin's outbox; then each
/// destination the chunk touched is written once ([`router_drain`]).
/// `Err` means a corrupt frame (an over-cap length prefix, or a
/// well-framed body that fails validation) or a lying ack (past what was
/// written to the origin, or going back): the caller must close the
/// connection, and nothing of it is forwarded (the valid frames before it
/// still are).
fn router_ingest<S: SocketStream>(
    read: &mut RouterRead<S>,
    bytes: &[u8],
    origin: &RouterConnSource<S>,
) -> Result<(), ()> {
    let link = &origin.link;
    read.decoder.feed(bytes);
    let mut touched: Vec<Arc<RouterLink<S>>> = Vec::new();
    let decoded = loop {
        match read.decoder.next_link_frame() {
            Ok(Some(LinkFrame::Envelope(frame))) => {
                read.since_ack.0 += 1;
                read.since_ack.1 += frame.bytes.len();
                if let Some(target) = router_record(&origin.state, link, frame.to, frame.bytes) {
                    if !touched.iter().any(|t| Arc::ptr_eq(t, &target)) {
                        touched.push(target);
                    }
                }
                link.received.fetch_add(1, Ordering::SeqCst);
            }
            Ok(Some(LinkFrame::Ack(acked))) => {
                let mut out = link.out.lock();
                let unwritten = out.unsent;
                if out.replay.ack(acked, unwritten).is_err() {
                    break Err(());
                }
            }
            Ok(None) => break Ok(()),
            Err(_) => break Err(()),
        }
    };
    if decoded.is_ok() && ack_due(&mut read.since_ack) {
        // Every frame taken is in its destination's window now: ack them,
        // riding whatever this chunk writes to the origin.
        let mut out = link.out.lock();
        if out.generation == origin.generation && out.stream.is_some() {
            out.outbox
                .push(&encode_ack(link.received.load(Ordering::SeqCst)));
            drop(out);
            if !touched.iter().any(|t| Arc::ptr_eq(t, link)) {
                touched.push(Arc::clone(link));
            }
        }
    }
    for target in &touched {
        router_drain(target, origin);
    }
    decoded
}

/// Handles one accepted router connection: hello, logical-link lookup (or
/// creation) and resume exchange with retransmission, on the calling
/// (per-connection) thread. The connection is then registered with the
/// event loop, which forwards its frames, and the call returns.
fn router_serve_connection<S: SocketStream>(mut stream: S, state: &Arc<RouterState<S>>) {
    // The router announces no parties of its own: an empty hello is what
    // marks the link as a gateway on the client side. It is security-
    // transparent: sealed frames are forwarded opaquely (the router holds
    // no keys), so it accepts endpoints in any mode.
    let hello = handshake_deadline(&stream, true).and_then(|()| {
        exchange_hello(
            &mut stream,
            state.endpoint,
            &BTreeSet::new(),
            SecurityMode::Transparent,
        )
    });
    let Ok((peer_endpoint, announced)) = hello else {
        return;
    };
    // Find or create the logical link for this endpoint + party set, and
    // claim it until its stream is installed.
    let mut links = state.links.lock();
    let link = match links
        .iter()
        .find(|l| l.endpoint == peer_endpoint && l.parties == announced)
    {
        Some(link) => Arc::clone(link),
        None => {
            // A new endpoint announcing this party set supersedes any
            // *dead* logical link with the same set (a restarted process
            // draws a fresh endpoint id by design): drop the defunct link
            // so it can never shadow the live one in the forwarding
            // lookup. Its undelivered replay is lost — the old endpoint's
            // machines died with it, so those frames are undeliverable
            // anyway. Links with a live stream, or with a handshake in
            // flight (e.g. shard transports sharing the party set,
            // connecting concurrently), are never touched.
            links.retain(|l| l.parties != announced || !l.is_dead());
            let link = Arc::new(RouterLink {
                endpoint: peer_endpoint,
                parties: announced,
                received: AtomicU64::new(0),
                out: Mutex::new(RouterOutbound {
                    replay: ReplayWindow::new(state.replay_frames, state.replay_bytes),
                    stream: None,
                    generation: 0,
                    outbox: Outbox::default(),
                    unsent: 0,
                    registration: None,
                    paused_origins: Vec::new(),
                }),
                attaching: AtomicU64::new(0),
                source: Mutex::new(Weak::new()),
            });
            links.push(Arc::clone(&link));
            link
        }
    };
    let claim = AttachClaim::new(&link);
    drop(links);
    // A fast reconnect can race the old connection's read driver: tear its
    // stream down and quiesce the driver, so the received count announced
    // below is final and retransmission cannot duplicate frames.
    link.out.lock().drop_stream();
    if let Some(old) = link.take_source() {
        old.quiesce();
    }
    let received = link.received.load(Ordering::SeqCst);
    let peer_received = match exchange_resume(&mut stream, received) {
        Ok(count) => count,
        Err(_) => return,
    };
    if handshake_deadline(&stream, false).is_err() {
        return;
    }
    // The resume count acks like a hop ack: afterwards the window holds
    // exactly the suffix the peer lost. A count the window cannot resume
    // at (an evicted suffix, or an impossible count) means the link cannot
    // resume without a gap: drop the connection, and the peer observes the
    // hangup.
    if link.out.lock().replay.resume(peer_received).is_err() {
        return;
    }
    let reader = match stream.try_clone_stream() {
        Ok(r) => r,
        Err(_) => return,
    };
    // Retransmit the suffix the peer lost, then install the new stream.
    // The writes block until the peer reads, so they run without the
    // outbound lock: the reactor may need that lock to read what the peer
    // sends meanwhile. Frames forwarded to the link while a round of
    // writes runs are retransmitted by the next round; the stream is
    // installed under the same lock as the check that nothing is left, so
    // later forwards queue behind the resync in replay order.
    let mut written = peer_received;
    let generation = loop {
        let mut out = link.out.lock();
        let suffix: Vec<Vec<u8>> = match out.replay.unacked(written) {
            Ok(frames) => frames.map(<[u8]>::to_vec).collect(),
            // Frames forwarded during the resync were evicted already.
            Err(_) => return,
        };
        if suffix.is_empty() {
            // The blocking writes are done: flip the fd (shared with the
            // reader) nonblocking before any forward can write to it, so
            // no forward on the reactor thread ever blocks on a full peer.
            if stream.set_stream_nonblocking(true).is_err() {
                return;
            }
            out.drop_stream();
            out.stream = Some(stream);
            out.generation += 1;
            break out.generation;
        }
        written = out.replay.sent;
        drop(out);
        for frame in &suffix {
            if stream.write_all(frame).is_err() {
                return;
            }
        }
    };
    // The installed stream now keeps the link alive.
    drop(claim);
    // Register the connection with the event loop and return; the
    // handshake thread's work is done. Registration runs under the
    // outbound lock so the source's write interest is armable the instant
    // a concurrent forward parks bytes in the outbox.
    let (fd, source) = match reader.stream_raw_fd() {
        Ok(fd) => (
            fd,
            Arc::new(RouterConnSource {
                read: Mutex::new(RouterRead {
                    stream: reader,
                    decoder: FrameDecoder::new(),
                    since_ack: (0, 0),
                    done: false,
                }),
                link: Arc::clone(&link),
                state: Arc::clone(state),
                retired: AtomicBool::new(false),
                paused: Arc::new(AtomicBool::new(false)),
                generation,
                registration: OnceLock::new(),
            }),
        ),
        Err(_) => return link.drop_stream_of(generation),
    };
    let mut out = link.out.lock();
    if out.generation != generation {
        // An even newer connection superseded us mid-handshake.
        return;
    }
    let registered = Reactor::global().and_then(|reactor| {
        reactor.register(fd, Interest::READ, Arc::clone(&source) as Arc<dyn Source>)
    });
    match registered {
        Ok(registration) => {
            let _ = source.registration.set(Arc::clone(&registration));
            out.registration = Some(registration);
            // A forward that raced us between the stream install above and
            // this registration hit `registration = None`: its `WouldBlock`
            // could not arm write interest, so its bytes are parked in the
            // outbox with nothing scheduled to move them. Drain now that
            // arming works — either the bytes go out here or the leftover
            // arms the fresh registration.
            if !out.outbox.is_empty() && !out.write_pending() {
                // Quiesce outside the out lock: the reactor's readable
                // dispatch takes out locks while holding the read lock the
                // barrier waits on.
                drop(out);
                source.quiesce();
                return;
            }
            drop(out);
            *link.source.lock() = Arc::downgrade(&source);
        }
        Err(_) => out.drop_stream(),
    }
}

/// Records one validated frame addressed to `to` in its destination's
/// replay window: self-preference for the originating link, then any link
/// announcing the destination. The frame is copied once, into the replay
/// window, and written from there by [`router_drain`]. Returns the
/// destination when it has a live stream to write the frame to; frames for
/// a link with no live stream are recorded only (store-and-forward), and
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
        // Prefer the *newest* link with a live connection (links are in
        // creation order, and a peer that crashed without a FIN can leave
        // an older zombie whose stream still looks live — the most recent
        // connection is the one actually reachable); fall back to the
        // newest link announcing the destination at all (store-and-forward
        // for a briefly offline peer).
        let links = state.links.lock();
        let hosting = || links.iter().filter(|l| l.parties.contains(&to));
        hosting()
            .rfind(|l| l.out.lock().stream.is_some())
            .or_else(|| hosting().next_back())
            .cloned()
    };
    let Some(target) = target else {
        state.unroutable.fetch_add(1, Ordering::Relaxed);
        return None;
    };
    let mut out = target.out.lock();
    let live = out.stream.is_some();
    if live {
        out.unsent += 1;
    }
    let keep = out.unsent;
    out.replay.record(frame.to_vec(), keep);
    drop(out);
    live.then_some(target)
}

/// Writes every frame recorded for `target` since its last drain, behind
/// its outbox (which may hold a hop ack), in one vectored write
/// ([`RouterOutbound::write_pending`]), then applies flow control.
fn router_drain<S: SocketStream>(target: &RouterLink<S>, origin: &RouterConnSource<S>) {
    let mut guard = target.out.lock();
    let out = &mut *guard;
    if (out.unsent == 0 && out.outbox.is_empty()) || !out.write_pending() {
        return;
    }
    if out.outbox.len() > ROUTER_OUTBOX_PAUSE {
        // Flow control: the destination is congested but healthy.
        // Disarm the origin connection's read interest so it stops
        // producing forwards, and backpressure reaches its peer through
        // the socket buffers. The destination's writable handler re-arms
        // the origin once the outbox drains below [`ROUTER_OUTBOX_RESUME`].
        if let Some(registration) = origin.registration.get() {
            if !origin.paused.swap(true, Ordering::SeqCst) {
                let _ = registration.set_readable(false);
                out.paused_origins.push(PausedOrigin {
                    paused: Arc::clone(&origin.paused),
                    registration: Arc::clone(registration),
                });
            }
        }
    }
}

/// [`SocketRouter`] over TCP.
pub type TcpRouter = SocketRouter<TcpStream>;

impl TcpRouter {
    /// Binds `addr` and spawns the accept loop. Returns the router and its
    /// bound address (bind port 0 for an ephemeral port).
    pub fn spawn(addr: impl ToSocketAddrs) -> Result<(Self, SocketAddr), NetError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| NetError::Io(format!("bind failed: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| NetError::Io(e.to_string()))?;
        let state: Arc<RouterState<TcpStream>> = Arc::new(RouterState::new());
        let reader_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_state = Arc::clone(&state);
        let accept_readers = Arc::clone(&reader_threads);
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_state.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                match stream {
                    Ok(stream) => {
                        let _ = stream.set_nodelay(true);
                        let conn_state = Arc::clone(&accept_state);
                        let handle = std::thread::spawn(move || {
                            router_serve_connection(stream, &conn_state);
                        });
                        let mut readers = accept_readers.lock();
                        readers.retain(|h| !h.is_finished());
                        readers.push(handle);
                    }
                    // Transient accept failures (ECONNABORTED, fd
                    // exhaustion) must not silently kill the router for
                    // all future connections; back off briefly and keep
                    // accepting.
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        });

        // Unblocking a blocking accept loop portably: dial ourselves once
        // at shutdown so `incoming()` yields and observes the flag.
        let shutdown_listener = Box::new(move || {
            let _ = TcpStream::connect(local_addr);
        });

        Ok((
            TcpRouter {
                state,
                accept_thread: Some(accept_thread),
                reader_threads,
                shutdown_listener,
            },
            local_addr,
        ))
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
    /// Binds the socket file at `path` (removing a stale one) and spawns
    /// the accept loop.
    pub fn spawn(path: impl AsRef<std::path::Path>) -> Result<Self, NetError> {
        use std::os::unix::net::{UnixListener, UnixStream};
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)
            .map_err(|e| NetError::Io(format!("bind {} failed: {e}", path.display())))?;
        let state: Arc<RouterState<UnixStream>> = Arc::new(RouterState::new());
        let reader_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_state = Arc::clone(&state);
        let accept_readers = Arc::clone(&reader_threads);
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_state.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                match stream {
                    Ok(stream) => {
                        let conn_state = Arc::clone(&accept_state);
                        let handle = std::thread::spawn(move || {
                            router_serve_connection(stream, &conn_state);
                        });
                        let mut readers = accept_readers.lock();
                        readers.retain(|h| !h.is_finished());
                        readers.push(handle);
                    }
                    // Transient accept failures must not kill the router;
                    // back off briefly and keep accepting.
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        });

        let shutdown_path = path.clone();
        let shutdown_listener = Box::new(move || {
            let _ = UnixStream::connect(&shutdown_path);
        });

        Ok(UdsRouter {
            state,
            accept_thread: Some(accept_thread),
            reader_threads,
            shutdown_listener,
        })
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
        w.unacked(received)
            .map(|frames| frames.map(<[u8]>::to_vec).collect())
    }

    #[test]
    fn replay_window_yields_exactly_the_unacked_suffix() {
        let mut w = ReplayWindow::new(3, usize::MAX);
        for i in 0..5u8 {
            w.record(vec![i], 1);
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
        w.record(vec![0; 6], 1);
        w.record(vec![1; 6], 1);
        assert_eq!(w.frames.len(), 1, "6+6 bytes exceed the 10-byte budget");
        assert_eq!(suffix(&w, 1).unwrap(), vec![vec![1u8; 6]]);
        assert!(suffix(&w, 0).is_err(), "the evicted first frame is gone");
        w.record(vec![2; 99], 1);
        assert_eq!(w.frames.len(), 1, "an over-budget frame is still kept");
        assert_eq!(w.bytes, 99);

        // Frames still to be written are never evicted, whatever the
        // bounds; the next record evicts back down to them.
        let mut w = ReplayWindow::new(2, 10);
        for i in 0..4u8 {
            w.record(vec![i; 6], i as usize + 1);
        }
        assert_eq!(w.frames.len(), 4, "four unwritten frames are all kept");
        assert_eq!(suffix(&w, 0).unwrap().len(), 4);
        w.record(vec![4; 4], 1);
        assert_eq!(w.frames.len(), 2, "back within the bounds");
        assert_eq!(suffix(&w, 3).unwrap(), vec![vec![3u8; 6], vec![4u8; 4]]);
        assert!(suffix(&w, 2).is_err(), "written frames evict again");
    }

    #[test]
    fn acks_free_exactly_the_frames_they_cover_and_lying_acks_change_nothing() {
        let mut w = ReplayWindow::new(1024, usize::MAX);
        for i in 0..10u8 {
            w.record(vec![i; 3], 1);
        }
        w.ack(4, 0).unwrap();
        assert_eq!((w.frames.len(), w.bytes), (6, 18));
        assert_eq!(suffix(&w, 4).unwrap()[0], vec![4u8; 3]);
        w.ack(4, 0).expect("a repeated ack is no news, not a lie");

        // Past what was sent, past what was written, or going back: each
        // is refused with the window untouched (no underflow anywhere).
        for (acked, unwritten) in [
            (11, 0),
            (u64::MAX, 0),
            (10, 1),
            (10, usize::MAX),
            (3, 0),
            (0, 0),
        ] {
            assert!(
                w.ack(acked, unwritten).is_err(),
                "ack {acked} / {unwritten}"
            );
            assert_eq!((w.frames.len(), w.bytes, w.acked), (6, 18, 4));
        }
        w.ack(9, 1).unwrap();
        assert_eq!(suffix(&w, 9).unwrap(), vec![vec![9u8; 3]]);

        // A resume count is an ack too: it may not go below the last one,
        // and it frees what it covers.
        let below = w.resume(8).unwrap_err();
        assert!(below.contains("below its own earlier ack of 9"), "{below}");
        w.resume(10).unwrap();
        assert_eq!((w.frames.len(), w.bytes, w.acked), (0, 0, 10));

        // An ack behind a cap's eviction frees nothing more, and a later
        // resume still reports the gap.
        let mut w = ReplayWindow::new(2, usize::MAX);
        for i in 0..5u8 {
            w.record(vec![i], 1);
        }
        w.ack(1, 0).unwrap();
        assert_eq!(w.frames.len(), 2);
        assert!(w.resume(1).is_err());
    }

    #[test]
    fn a_resume_that_cannot_proceed_names_its_cause() {
        let mut frames_capped = ReplayWindow::new(2, usize::MAX);
        let mut bytes_capped = ReplayWindow::new(1024, 10);
        for i in 0..4u8 {
            frames_capped.record(vec![i], 1);
            bytes_capped.record(vec![i; 6], 1);
        }
        let frame_cap = frames_capped.resume(0).unwrap_err();
        assert!(frame_cap.contains("by its 2-frame cap"), "{frame_cap}");
        let byte_cap = bytes_capped.resume(0).unwrap_err();
        assert!(byte_cap.contains("by its 10-byte cap"), "{byte_cap}");
        bytes_capped.ack(3, 0).unwrap();
        let below = bytes_capped.resume(2).unwrap_err();
        assert!(below.contains("below its own earlier ack"), "{below}");
        let past = bytes_capped.resume(5).unwrap_err();
        assert!(past.contains("only 4 were sent"), "{past}");
        // A refused resume leaves the window as it was.
        assert_eq!((bytes_capped.frames.len(), bytes_capped.acked), (1, 3));
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
