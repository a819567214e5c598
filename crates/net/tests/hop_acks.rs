//! Per-hop acks over real loopback TCP (`docs/WIRE_FORMAT.md` §3–§4): the
//! receiving end of every link and router connection acks what it has
//! taken, and the sender frees it from its replay window.
//!
//! * thousands of frames through a router in both directions leave no
//!   transport or router window holding an ack threshold's worth once the
//!   traffic stops (without acks each would hold its last 1,024 frames);
//! * a resume after an ack retransmits exactly the unacked suffix, and the
//!   resume counts on both sides count frames, never acks;
//! * a resume the window cannot serve fails loudly and names its cause:
//!   the frame cap, the byte cap, or a count below the peer's own ack,
//!   while one whose fresh stream dies mid-retransmission dials again;
//! * a lying ack — past what was sent, or going back — fails a
//!   transport's link as a decode error and closes a router connection;
//! * a send after the peer hung up re-dials at once, instead of writing
//!   into the dead socket, and the resumed stream carries its frame.
//!
//! The far end of a direct link is a raw socket speaking the wire by hand
//! (the public handshake stages plus `encode_frame` / `encode_ack`), so
//! each test says exactly what the peer sent.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use ppc_crypto::Seed;
use ppc_net::secure::ChannelKeyring;
use ppc_net::socket::{exchange_hello, exchange_resume, ACK_EVERY_BYTES, ACK_EVERY_FRAMES};
use ppc_net::{
    encode_ack, encode_frame, Backoff, Envelope, FrameDecoder, LinkFrame, NetError, PartyId,
    SecurityMode, TcpRouter, TcpTransport, Transport, WaitTransport,
};

const DH0: PartyId = PartyId::DataHolder(0);
const DH1: PartyId = PartyId::DataHolder(1);
const TP: PartyId = PartyId::ThirdParty;

fn envelope(from: PartyId, to: PartyId, topic: &str, len: usize) -> Envelope {
    Envelope::new(from, to, topic, vec![0x5A; len])
}

fn sealed_coalescing(party: PartyId) -> TcpTransport {
    let mut t = TcpTransport::new([party]);
    t.set_security(ChannelKeyring::from_master(&Seed::from_u64(22)));
    t.set_coalescing(true);
    t
}

/// Polls `done` until it holds, failing with `what` after five seconds.
fn wait_until(mut done: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Completes the handshake on a raw socket as an endpoint hosting
/// `parties`, announcing `received`; returns the peer's received count.
fn raw_handshake(stream: &mut TcpStream, endpoint: u64, parties: &[PartyId], received: u64) -> u64 {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let parties: BTreeSet<PartyId> = parties.iter().copied().collect();
    exchange_hello(stream, endpoint, &parties, SecurityMode::Plaintext).unwrap();
    exchange_resume(stream, received).unwrap()
}

/// Reads `n` envelope frames off a raw socket and returns their topics.
fn read_topics(stream: &mut TcpStream, decoder: &mut FrameDecoder, n: usize) -> Vec<String> {
    let mut topics = Vec::new();
    let mut buf = [0u8; 4096];
    while topics.len() < n {
        match decoder.next_link_frame().unwrap() {
            Some(LinkFrame::Envelope(frame)) => topics.push(frame.topic.to_string()),
            Some(LinkFrame::Ack(_)) => {}
            None => {
                let got = stream.read(&mut buf).unwrap();
                assert!(got > 0, "the peer hung up");
                decoder.feed(&buf[..got]);
            }
        }
    }
    topics
}

fn topics(range: std::ops::RangeInclusive<usize>) -> Vec<String> {
    range.map(|i| format!("f{i}")).collect()
}

/// A holder (DH0, plaintext) dialled into a raw peer hosting the third
/// party, with `frames` frames `f1..` sent and read off the raw end.
struct DirectLink {
    listener: TcpListener,
    holder: TcpTransport,
    peer: TcpStream,
}

impl DirectLink {
    fn open(holder: TcpTransport, frames: usize) -> DirectLink {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::scope(|scope| {
            let dial = scope.spawn(|| holder.connect(addr, &Backoff::default()).unwrap());
            let (mut peer, _) = listener.accept().unwrap();
            assert_eq!(raw_handshake(&mut peer, 0xACC, &[TP], 0), 0);
            dial.join().unwrap();
            peer
        });
        let mut link = DirectLink {
            listener,
            holder,
            peer,
        };
        for i in 1..=frames {
            link.holder
                .send(envelope(DH0, TP, &format!("f{i}"), 100))
                .unwrap();
        }
        let mut decoder = FrameDecoder::new();
        assert_eq!(
            read_topics(&mut link.peer, &mut decoder, frames),
            topics(1..=frames)
        );
        link
    }

    /// Cuts the link, sends `topic` (which re-dials) and answers the
    /// re-dial's handshake announcing `received`. Returns the send's
    /// outcome and the holder's announced count.
    fn resume(&mut self, topic: &str, received: u64) -> (Result<(), NetError>, u64) {
        self.holder.sever_links();
        std::thread::scope(|scope| {
            let send = scope.spawn(|| self.holder.send(envelope(DH0, TP, topic, 100)));
            let (mut peer, _) = self.listener.accept().unwrap();
            let holder_count = raw_handshake(&mut peer, 0xACC, &[TP], received);
            self.peer = peer;
            (send.join().unwrap(), holder_count)
        })
    }
}

#[test]
fn windows_hold_less_than_one_ack_threshold_after_thousands_of_frames_both_ways() {
    const FRAMES: usize = 3000;
    let (mut router, addr) = TcpRouter::spawn("127.0.0.1:0").unwrap();
    let a = sealed_coalescing(DH0);
    let b = sealed_coalescing(DH1);
    a.connect(addr, &Backoff::default()).unwrap();
    b.connect(addr, &Backoff::default()).unwrap();

    std::thread::scope(|scope| {
        for (me, peer, t) in [(DH0, DH1, &a), (DH1, DH0, &b)] {
            scope.spawn(move || {
                for i in 0..FRAMES {
                    t.send(envelope(me, peer, &format!("bulk/{i}"), 600 + i % 1000))
                        .unwrap();
                    if i % 8 == 7 {
                        t.flush().unwrap();
                    }
                }
                t.flush().unwrap();
            });
            scope.spawn(move || {
                for i in 0..FRAMES {
                    let got = t
                        .receive_any_of(&[me], Duration::from_secs(10))
                        .unwrap()
                        .expect("every frame arrives");
                    assert_eq!(got.topic, format!("bulk/{i}"));
                }
            });
        }
    });

    // Each window now holds only what its peer took since its last ack,
    // less than one threshold. A transport's writer applies an ack it
    // could not take at once at its next record or flush, hence the
    // flushes.
    let within = |(frames, bytes): (usize, usize)| {
        frames < ACK_EVERY_FRAMES as usize && bytes < ACK_EVERY_BYTES
    };
    wait_until(
        || {
            a.flush().unwrap();
            b.flush().unwrap();
            [a.replay_held(), b.replay_held(), router.replay_held()]
                .into_iter()
                .all(within)
        },
        "every window is below one ack threshold",
    );
    a.shutdown();
    b.shutdown();
    router.shutdown();
}

#[test]
fn a_resume_after_an_ack_retransmits_exactly_the_unacked_suffix() {
    let mut link = DirectLink::open(TcpTransport::new([DH0]), 10);
    // The peer sends three envelopes of its own, then acks six frames.
    for i in 0..3 {
        let back = encode_frame(&envelope(TP, DH0, &format!("back/{i}"), 8)).unwrap();
        link.peer.write_all(&back).unwrap();
    }
    link.peer.write_all(&encode_ack(6)).unwrap();
    for i in 0..3 {
        let got = link
            .holder
            .receive_any_of(&[DH0], Duration::from_secs(5))
            .unwrap()
            .unwrap();
        assert_eq!(got.topic, format!("back/{i}"));
    }
    wait_until(
        || link.holder.replay_held().0 == 4,
        "the holder frees the six acked frames",
    );

    // The peer resumes having read eight frames: the holder counts the
    // peer's three envelopes (never its ack) and retransmits f9 and f10,
    // then the frame whose send re-dialled.
    let (sent, holder_count) = link.resume("f11", 8);
    sent.unwrap();
    assert_eq!(holder_count, 3);
    let mut decoder = FrameDecoder::new();
    assert_eq!(read_topics(&mut link.peer, &mut decoder, 3), topics(9..=11));
    // The resume count acked like an ack.
    assert_eq!(link.holder.replay_held().0, 3);
    link.holder.shutdown();
}

#[test]
fn a_resume_the_window_cannot_serve_fails_loudly_naming_its_cause() {
    // Frames of 100 payload bytes are 124 bytes on the wire.
    let capped = |frames: usize, bytes: usize| {
        let mut t = TcpTransport::new([DH0]);
        t.set_replay_window(frames, bytes);
        t
    };
    let cases: [(&str, TcpTransport, Option<u64>, u64, &str); 3] = [
        (
            "frame cap",
            capped(4, usize::MAX),
            None,
            0,
            "by its 4-frame cap",
        ),
        (
            "byte cap",
            capped(1024, 300),
            None,
            0,
            "by its 300-byte cap",
        ),
        (
            "below the ack",
            TcpTransport::new([DH0]),
            Some(6),
            5,
            "below its own earlier ack of 6",
        ),
    ];
    for (case, holder, ack, resume_at, cause) in cases {
        let mut link = DirectLink::open(holder, 10);
        if let Some(acked) = ack {
            link.peer.write_all(&encode_ack(acked)).unwrap();
            wait_until(|| link.holder.replay_held().0 == 4, "the ack is taken");
        }
        let (sent, _) = link.resume("f11", resume_at);
        match sent {
            Err(NetError::PeerUnreachable { party, detail }) => {
                assert_eq!(party, TP);
                assert!(detail.contains(cause), "{case}: {detail}");
            }
            other => panic!("{case}: expected a loud failure, got {other:?}"),
        }
        link.holder.shutdown();
    }
}

#[test]
fn a_resume_whose_stream_dies_mid_retransmission_dials_again() {
    // A retransmission far larger than a send buffer holds, so it is still
    // being written when the peer drops the fresh stream.
    const FRAME: usize = 1 << 20;
    const FRAMES: usize = 24;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let holder = TcpTransport::new([DH0]);
    let mut decoder = FrameDecoder::new();
    std::thread::scope(|scope| {
        let dial = scope.spawn(|| holder.connect(addr, &Backoff::default()).unwrap());
        let (mut peer, _) = listener.accept().unwrap();
        raw_handshake(&mut peer, 0xACC, &[TP], 0);
        dial.join().unwrap();
        let sends = scope.spawn(|| {
            for i in 1..=FRAMES {
                holder
                    .send(envelope(DH0, TP, &format!("f{i}"), FRAME))
                    .unwrap();
            }
        });
        assert_eq!(
            read_topics(&mut peer, &mut decoder, FRAMES),
            topics(1..=FRAMES)
        );
        sends.join().unwrap();
    });

    holder.sever_links();
    std::thread::scope(|scope| {
        let send = scope.spawn(|| holder.send(envelope(DH0, TP, "f25", 10)));
        // The peer asks for everything again and drops the stream at once:
        // far more than a send buffer holds is still to be written.
        let (mut dropped, _) = listener.accept().unwrap();
        raw_handshake(&mut dropped, 0xACC, &[TP], 0);
        drop(dropped);
        // The holder dials again and resumes where this count says.
        listener.set_nonblocking(true).unwrap();
        let mut again = None;
        wait_until(
            || {
                again = listener.accept().ok();
                again.is_some()
            },
            "the holder dials again",
        );
        let (mut peer, _) = again.unwrap();
        peer.set_nonblocking(false).unwrap();
        raw_handshake(&mut peer, 0xACC, &[TP], 20);
        let mut decoder = FrameDecoder::new();
        assert_eq!(read_topics(&mut peer, &mut decoder, 5), topics(21..=25));
        send.join()
            .unwrap()
            .expect("the send survives the dropped resume");
    });
    holder.shutdown();
}

#[test]
fn a_lying_ack_fails_a_transport_link_as_a_decode_error() {
    for (case, acks, expect) in [
        ("past what was sent", vec![11], "only 10 were sent"),
        (
            "far past what was sent",
            vec![u64::MAX],
            "only 10 were sent",
        ),
        ("going back", vec![6, 3], "after acking 6"),
    ] {
        let mut link = DirectLink::open(TcpTransport::new([DH0]), 10);
        for acked in acks {
            link.peer.write_all(&encode_ack(acked)).unwrap();
        }
        match link.holder.receive_any_of(&[DH0], Duration::from_secs(5)) {
            Err(NetError::Decode(detail)) => assert!(detail.contains(expect), "{case}: {detail}"),
            other => panic!("{case}: expected a decode error, got {other:?}"),
        }
        link.holder.shutdown();
    }
}

#[test]
fn a_send_after_the_peer_hung_up_redials_at_once() {
    let DirectLink {
        listener,
        holder,
        peer,
    } = DirectLink::open(TcpTransport::new([DH0]), 3);
    // The peer drops its stream. Nothing public shows the holder's reactor
    // seeing it go, which takes it microseconds: give it a quarter second.
    drop(peer);
    std::thread::sleep(Duration::from_millis(250));
    listener.set_nonblocking(true).unwrap();
    std::thread::scope(|scope| {
        // One send, then a flush: the kernel would take the frame into the
        // dead socket, so only a re-dial delivers it.
        let send = scope.spawn(|| {
            holder.send(envelope(DH0, TP, "f4", 100))?;
            holder.flush()
        });
        let mut again = None;
        wait_until(
            || {
                again = listener.accept().ok();
                again.is_some()
            },
            "the send re-dials",
        );
        let (mut peer, _) = again.unwrap();
        peer.set_nonblocking(false).unwrap();
        assert_eq!(raw_handshake(&mut peer, 0xACC, &[TP], 3), 0);
        let mut decoder = FrameDecoder::new();
        assert_eq!(read_topics(&mut peer, &mut decoder, 1), topics(4..=4));
        send.join().unwrap().unwrap();
    });
    holder.shutdown();
}

/// A raw client of the router announcing `party` under `endpoint`.
fn router_client(
    addr: SocketAddr,
    endpoint: u64,
    party: PartyId,
    received: u64,
) -> (TcpStream, u64) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let router_count = raw_handshake(&mut stream, endpoint, &[party], received);
    (stream, router_count)
}

/// Whether the router closes `stream` within five seconds.
fn router_hangs_up(stream: &mut TcpStream) -> bool {
    let mut buf = [0u8; 256];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return true,
            Ok(_) => continue,
            Err(e) => {
                return !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                )
            }
        }
    }
}

#[test]
fn a_lying_ack_closes_its_router_connection_and_acks_are_never_counted() {
    let (mut router, addr) = TcpRouter::spawn("127.0.0.1:0").unwrap();
    let tp = TcpTransport::new([TP]);
    tp.connect(addr, &Backoff::default()).unwrap();

    // An ack of a frame the router never sent.
    let (mut past, _) = router_client(addr, 1, PartyId::DataHolder(7), 0);
    past.write_all(&encode_ack(1)).unwrap();
    assert!(router_hangs_up(&mut past), "an ack past what was sent");

    // An ack going back from an earlier one, after five frames arrived.
    let (mut back, _) = router_client(addr, 2, PartyId::DataHolder(8), 0);
    for i in 1..=5 {
        tp.send(envelope(TP, PartyId::DataHolder(8), &format!("f{i}"), 10))
            .unwrap();
    }
    let mut decoder = FrameDecoder::new();
    assert_eq!(read_topics(&mut back, &mut decoder, 5), topics(1..=5));
    back.write_all(&encode_ack(5)).unwrap();
    back.write_all(&encode_ack(3)).unwrap();
    assert!(router_hangs_up(&mut back), "an ack going back");

    // A client's ack is not a frame: after an ack and four frames, the
    // router's resume count is four.
    let (mut honest, _) = router_client(addr, 3, PartyId::DataHolder(9), 0);
    honest.write_all(&encode_ack(0)).unwrap();
    for i in 1..=4 {
        let frame =
            encode_frame(&envelope(PartyId::DataHolder(9), TP, &format!("f{i}"), 10)).unwrap();
        honest.write_all(&frame).unwrap();
    }
    for i in 1..=4 {
        let got = tp
            .receive_any_of(&[TP], Duration::from_secs(5))
            .unwrap()
            .unwrap();
        assert_eq!(got.topic, format!("f{i}"));
    }
    drop(honest);
    wait_until(
        || router.connection_count() == 1,
        "the router drops the closed client",
    );
    let (_again, router_count) = router_client(addr, 3, PartyId::DataHolder(9), 0);
    assert_eq!(router_count, 4);

    tp.shutdown();
    router.shutdown();
}
