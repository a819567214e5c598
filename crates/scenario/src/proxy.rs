//! Byte-level TCP adversaries for the tampering and kill cells.
//!
//! A [`TamperProxy`] sits between a dialler and its upstream (a router or
//! a direct acceptor) and watches each connection's client→upstream
//! stream. It either flips exactly one byte — at a fixed absolute offset
//! ([`TamperProxy::spawn`]) or inside the first frame whose body clears a
//! size threshold ([`TamperProxy::spawn_on_first_large_frame`]) — or
//! forwards every byte untouched and runs a trigger just before the first
//! such frame goes upstream ([`TamperProxy::spawn_tripwire`]), which is
//! how a cell kills a process at a point of the run it can name.
//!
//! Where the flip lands matters, in two ways.
//!
//! *Layer*: a sealed record's `from`/`to` routing header stays in the
//! clear (forwarders route by it), and the stack absorbs a corrupted
//! header without an auth failure — the router counts the frame
//! unroutable and drops it, and the receiver accepts the sender's *next*
//! record as first contact with that incarnation. Only a flip inside the
//! sealed payload reaches the AEAD tier, which must reject it as a
//! [`ChannelAuth`
//! failure](ppc_core::protocol::party_engine::SessionFailure::ChannelAuth) —
//! never deliver.
//!
//! *Record*: the stack also absorbs losing an entire *control* record.
//! A serve party sends its readiness again when the coordinator's
//! greeting arrives (so startup order does not matter), and a router drops
//! frames for parties no link has announced yet — so corrupting a
//! dialler's first record is a race:
//! if the dialler connects before its counterparty, the record was going
//! to be dropped unroutable anyway and a fresh ready replaces it. A
//! deterministic tamper cell must corrupt a record that is necessarily
//! forwarded and necessarily needed: session *data*, which is what the
//! large-frame trigger targets (control records are tens of bytes; even
//! one matrix chunk is hundreds). The same holds for timing a kill: the
//! first data-sized frame marks the point where the run has started and
//! cannot yet have finished.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};

/// The dialler→acceptor link handshake is 28 bytes on the wire (magic,
/// version/flags, party ids, resume token), followed by 4-byte length
/// prefixes per frame.
pub const HANDSHAKE_BYTES: usize = 28;

/// Length prefix preceding every frame.
pub const FRAME_PREFIX_BYTES: usize = 4;

/// Cleartext prelude of a sealed record's frame body before the AEAD
/// ciphertext begins: `from` (5) + `to` (5) + the `"!"` topic as a
/// length-prefixed string (4 + 1) + payload length prefix (4) + `salt`
/// (4) + `seq` (8). See `docs/WIRE_FORMAT.md` §4 and §8.2.
pub const SEALED_RECORD_PRELUDE_BYTES: usize = 31;

/// A one-shot action a tripwire proxy runs on its pump thread.
type Trigger = Arc<Mutex<Option<Box<dyn FnOnce() + Send>>>>;

/// A byte-level TCP proxy. Dropping the handle leaves the proxy threads
/// running until the process exits (they are detached, like the in-tree
/// test helpers); each accepted connection is forwarded to the same
/// upstream.
#[derive(Debug, Clone, Copy)]
pub struct TamperProxy {
    addr: SocketAddr,
}

impl TamperProxy {
    /// Spawns a proxy forwarding to `upstream`. In every accepted
    /// connection, the byte at absolute offset `flip_at` of the
    /// client→upstream stream is XORed with `0x20`; all other bytes (and
    /// the entire return stream) pass untouched.
    pub fn spawn(upstream: SocketAddr, flip_at: usize) -> std::io::Result<TamperProxy> {
        Self::spawn_with_rule(upstream, Rule::FlipAt(flip_at))
    }

    /// Spawns a proxy that flips one byte `SEALED_RECORD_PRELUDE_BYTES +
    /// extra` into the body of the first frame whose body length is at
    /// least `min_body` bytes — i.e. inside the AEAD ciphertext of the
    /// first *data*-sized sealed record, skipping the small control
    /// records (readiness announces, session opens) whose loss the stack
    /// absorbs by design. `extra < 16` stays within authenticated bytes
    /// for any record (the tag alone is 16).
    pub fn spawn_on_first_large_frame(
        upstream: SocketAddr,
        min_body: usize,
        extra: usize,
    ) -> std::io::Result<TamperProxy> {
        Self::spawn_with_rule(upstream, Rule::FlipLargeFrame { min_body, extra })
    }

    /// Spawns a proxy that forwards every byte untouched and, the first
    /// time a frame whose body is at least `min_body` bytes streams
    /// through any of its connections, runs `trigger` on that
    /// connection's pump thread *before* forwarding the chunk carrying
    /// the frame's header. Everything the trigger does (killing a
    /// process, say) has happened before the frame reaches the upstream.
    pub fn spawn_tripwire(
        upstream: SocketAddr,
        min_body: usize,
        trigger: impl FnOnce() + Send + 'static,
    ) -> std::io::Result<TamperProxy> {
        let trigger: Box<dyn FnOnce() + Send> = Box::new(trigger);
        Self::spawn_with_rule(
            upstream,
            Rule::TripOnLargeFrame {
                min_body,
                trigger: Arc::new(Mutex::new(Some(trigger))),
            },
        )
    }

    fn spawn_with_rule(upstream: SocketAddr, rule: Rule) -> std::io::Result<TamperProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        std::thread::spawn(move || {
            while let Ok((client, _)) = listener.accept() {
                let _ = client.set_nodelay(true);
                let server = match TcpStream::connect(upstream) {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                let _ = server.set_nodelay(true);
                if let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) {
                    pump(client, s2, Some(Tamper::new(rule.clone())));
                    pump(server, c2, None);
                }
            }
        });
        Ok(TamperProxy { addr })
    }

    /// The address diallers should connect to instead of the upstream.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// An offset `extra` bytes into the first frame's body — i.e. past the
    /// handshake and the frame's length prefix. Small `extra` values land
    /// in the cleartext routing header (a *routing* corruption the stack
    /// may absorb); use [`Self::into_first_sealed_payload`] to hit the
    /// AEAD-protected bytes.
    pub const fn into_first_frame(extra: usize) -> usize {
        HANDSHAKE_BYTES + FRAME_PREFIX_BYTES + extra
    }

    /// An offset `extra` bytes into the first frame's AEAD ciphertext,
    /// past the cleartext `from`/`to`/topic/salt/seq prelude. Every
    /// sealed record carries a 16-byte tag, so `extra < 16` is in
    /// authenticated bytes for any record at all. Note the dialler's
    /// first record is usually a *control* record whose corruption the
    /// stack may absorb (see the module docs); for a deterministic
    /// tamper cell prefer [`Self::spawn_on_first_large_frame`].
    pub const fn into_first_sealed_payload(extra: usize) -> usize {
        Self::into_first_frame(SEALED_RECORD_PRELUDE_BYTES + extra)
    }
}

/// What a proxy does to each connection's client→upstream stream.
#[derive(Clone)]
enum Rule {
    /// Flip the byte at a fixed absolute stream offset.
    FlipAt(usize),
    /// Flip `SEALED_RECORD_PRELUDE_BYTES + extra` into the body of the
    /// first frame whose body is at least `min_body` bytes.
    FlipLargeFrame { min_body: usize, extra: usize },
    /// Run `trigger` (once across all connections) before forwarding the
    /// first frame whose body is at least `min_body` bytes.
    TripOnLargeFrame { min_body: usize, trigger: Trigger },
}

/// Incremental frame-boundary scanner over a dialler stream: skips the
/// handshake, reads each 4-byte length prefix, skips each body, and
/// reports where the body of the first frame of at least `min_body` bytes
/// begins. A hop ack is a length-prefixed 8-byte body like any other
/// frame, so it is skipped the same way.
struct FrameScanner {
    min_body: usize,
    pos: usize,
    handshake_left: usize,
    header: [u8; 4],
    header_got: usize,
    body_left: usize,
    found: bool,
}

impl FrameScanner {
    fn new(min_body: usize) -> FrameScanner {
        FrameScanner {
            min_body,
            pos: 0,
            handshake_left: HANDSHAKE_BYTES,
            header: [0; 4],
            header_got: 0,
            body_left: 0,
            found: false,
        }
    }

    /// Scans one chunk. Returns the absolute stream offset of the first
    /// large frame's body, once: in the chunk where its length prefix
    /// completes.
    fn scan(&mut self, chunk: &[u8]) -> Option<usize> {
        let mut hit = None;
        let mut i = 0;
        while i < chunk.len() && !self.found {
            if self.handshake_left > 0 {
                let skip = self.handshake_left.min(chunk.len() - i);
                self.handshake_left -= skip;
                i += skip;
            } else if self.body_left > 0 {
                let skip = self.body_left.min(chunk.len() - i);
                self.body_left -= skip;
                i += skip;
            } else {
                self.header[self.header_got] = chunk[i];
                self.header_got += 1;
                i += 1;
                if self.header_got == 4 {
                    self.header_got = 0;
                    self.body_left = u32::from_le_bytes(self.header) as usize;
                    if self.body_left >= self.min_body {
                        self.found = true;
                        hit = Some(self.pos + i);
                    }
                }
            }
        }
        self.pos += chunk.len();
        hit
    }
}

/// One connection's client→upstream state under a [`Rule`].
struct Tamper {
    rule: Rule,
    scanner: Option<FrameScanner>,
    /// Absolute offset of the byte to flip, once known.
    flip_at: Option<usize>,
    pos: usize,
}

impl Tamper {
    fn new(rule: Rule) -> Tamper {
        let (scanner, flip_at) = match &rule {
            Rule::FlipAt(at) => (None, Some(*at)),
            Rule::FlipLargeFrame { min_body, .. } | Rule::TripOnLargeFrame { min_body, .. } => {
                (Some(FrameScanner::new(*min_body)), None)
            }
        };
        Tamper {
            rule,
            scanner,
            flip_at,
            pos: 0,
        }
    }

    /// Applies the rule to one chunk in place, before it is forwarded.
    fn process(&mut self, chunk: &mut [u8]) {
        let body_at = self.scanner.as_mut().and_then(|s| s.scan(chunk));
        match (&self.rule, body_at) {
            (Rule::FlipLargeFrame { extra, .. }, Some(body_at)) => {
                self.flip_at = Some(body_at + SEALED_RECORD_PRELUDE_BYTES + extra);
            }
            (Rule::TripOnLargeFrame { trigger, .. }, Some(_)) => {
                let fire = trigger.lock().ok().and_then(|mut t| t.take());
                if let Some(fire) = fire {
                    fire();
                }
            }
            _ => {}
        }
        if let Some(at) = self.flip_at {
            if (self.pos..self.pos + chunk.len()).contains(&at) {
                chunk[at - self.pos] ^= 0x20;
            }
        }
        self.pos += chunk.len();
    }
}

fn pump(mut from: TcpStream, mut to: TcpStream, mut tamper: Option<Tamper>) {
    std::thread::spawn(move || {
        let mut buf = [0u8; 4096];
        loop {
            let n = match from.read(&mut buf) {
                Ok(0) | Err(_) => {
                    let _ = to.shutdown(std::net::Shutdown::Both);
                    return;
                }
                Ok(n) => n,
            };
            if let Some(tamper) = tamper.as_mut() {
                tamper.process(&mut buf[..n]);
            }
            if to.write_all(&buf[..n]).is_err() {
                return;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proxy_flips_exactly_one_byte_at_the_offset() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let proxy = TamperProxy::spawn(upstream_addr, 5).unwrap();

        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        let (mut server, _) = upstream.accept().unwrap();
        let sent: Vec<u8> = (0u8..32).collect();
        client.write_all(&sent).unwrap();
        let mut got = vec![0u8; sent.len()];
        server.read_exact(&mut got).unwrap();

        let mut expected = sent.clone();
        expected[5] ^= 0x20;
        assert_eq!(got, expected);

        // The return direction is untouched.
        server.write_all(&sent).unwrap();
        let mut back = vec![0u8; sent.len()];
        client.read_exact(&mut back).unwrap();
        assert_eq!(back, sent);
    }

    #[test]
    fn offsets_compose() {
        assert_eq!(TamperProxy::into_first_frame(0), 32);
        assert_eq!(TamperProxy::into_first_frame(25), 57);
        assert_eq!(TamperProxy::into_first_sealed_payload(0), 63);
        assert_eq!(TamperProxy::into_first_sealed_payload(8), 71);
    }

    #[test]
    fn large_frame_rule_skips_small_control_frames() {
        let mut stream = vec![0u8; HANDSHAKE_BYTES];
        stream.extend_from_slice(&10u32.to_le_bytes());
        stream.extend_from_slice(&[0xAA; 10]);
        stream.extend_from_slice(&100u32.to_le_bytes());
        stream.extend_from_slice(&[0xBB; 100]);

        let mut tamper = Tamper::new(Rule::FlipLargeFrame {
            min_body: 64,
            extra: 8,
        });
        let mut tampered = stream.clone();
        // Awkward chunking exercises headers split across reads.
        for chunk in tampered.chunks_mut(7) {
            tamper.process(chunk);
        }

        let large_body_start = HANDSHAKE_BYTES + 4 + 10 + 4;
        let flip_at = large_body_start + SEALED_RECORD_PRELUDE_BYTES + 8;
        let diffs: Vec<usize> = stream
            .iter()
            .zip(tampered.iter())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(diffs, vec![flip_at]);
        assert_eq!(tampered[flip_at], 0xBB ^ 0x20);
    }

    #[test]
    fn scanner_steps_over_hop_acks_ahead_of_the_first_large_frame() {
        // A dialler that has taken enough of the upstream's frames acks
        // them between its own frames: a 12-byte frame with an 8-byte body.
        let mut stream = vec![0u8; HANDSHAKE_BYTES];
        stream.extend_from_slice(&ppc_net::encode_ack(256));
        stream.extend_from_slice(&10u32.to_le_bytes());
        stream.extend_from_slice(&[0xAA; 10]);
        stream.extend_from_slice(&ppc_net::encode_ack(512));
        let large_body_start = stream.len() + FRAME_PREFIX_BYTES;
        stream.extend_from_slice(&100u32.to_le_bytes());
        stream.extend_from_slice(&[0xBB; 100]);
        for chunk_len in [1, 3, 7, stream.len()] {
            let mut scanner = FrameScanner::new(64);
            let hits: Vec<usize> = stream
                .chunks(chunk_len)
                .filter_map(|chunk| scanner.scan(chunk))
                .collect();
            assert_eq!(hits, vec![large_body_start], "{chunk_len}-byte reads");
        }
    }

    #[test]
    fn tripwire_fires_once_before_the_first_large_frame_and_forwards_untouched() {
        let mut stream = vec![0u8; HANDSHAKE_BYTES];
        stream.extend_from_slice(&10u32.to_le_bytes());
        stream.extend_from_slice(&[0xAA; 10]);
        let large_header_end = stream.len() + 4;
        stream.extend_from_slice(&100u32.to_le_bytes());
        stream.extend_from_slice(&[0xBB; 100]);
        stream.extend_from_slice(&200u32.to_le_bytes());
        stream.extend_from_slice(&[0xCC; 200]);

        let fired = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&fired);
        let trigger: Box<dyn FnOnce() + Send> = Box::new(move || log.lock().unwrap().push(()));
        let mut tamper = Tamper::new(Rule::TripOnLargeFrame {
            min_body: 64,
            trigger: Arc::new(Mutex::new(Some(trigger))),
        });
        let mut forwarded = stream.clone();
        let mut seen = 0;
        for chunk in forwarded.chunks_mut(7) {
            tamper.process(chunk);
            seen += chunk.len();
            let fired_now = !fired.lock().unwrap().is_empty();
            // Fired in exactly the chunk that completes the large
            // frame's length prefix, before that chunk is forwarded.
            assert_eq!(fired_now, seen >= large_header_end, "after {seen} bytes");
        }
        assert_eq!(fired.lock().unwrap().len(), 1);
        assert_eq!(forwarded, stream, "a tripwire never changes a byte");
    }

    #[test]
    fn tripwire_runs_its_trigger_before_forwarding_over_tcp() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let (tripped_tx, tripped_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let proxy = TamperProxy::spawn_tripwire(upstream.local_addr().unwrap(), 64, move || {
            tripped_tx.send(()).unwrap();
            let _ = release_rx.recv();
        })
        .unwrap();

        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        let (mut server, _) = upstream.accept().unwrap();
        let mut stream = vec![7u8; HANDSHAKE_BYTES];
        stream.extend_from_slice(&100u32.to_le_bytes());
        stream.extend_from_slice(&[0xBB; 100]);
        client.write_all(&stream).unwrap();

        tripped_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .unwrap();
        // The frame is held while the trigger runs.
        server
            .set_read_timeout(Some(std::time::Duration::from_millis(100)))
            .unwrap();
        let mut probe = [0u8; 1];
        assert!(server.read(&mut probe).is_err(), "forwarded before release");
        release_tx.send(()).unwrap();
        server.set_read_timeout(None).unwrap();
        let mut got = vec![0u8; stream.len()];
        server.read_exact(&mut got).unwrap();
        assert_eq!(got, stream);
    }
}
