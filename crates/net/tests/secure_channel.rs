//! Adversarial channel tests: the PR-5 security tier exercised over real
//! loopback TCP links.
//!
//! * a man in the middle flipping one bit of a sealed frame → the session
//!   surfaces a distinguishable [`NetError::AuthFailure`], not a stall;
//! * an insider (holding the keys) delivering truncated or reordered
//!   sealed frames → rejected the same way;
//! * kill-and-reconnect under encryption → the replay window retransmits
//!   the sealed frames byte-identically, so nonces stay correct and
//!   delivery is exactly-once, in order;
//! * downgrade attempts (an old-wire-version peer, or a plaintext peer
//!   against a sealed endpoint) → rejected during the handshake;
//! * a frame router forwards sealed traffic opaquely, with no keys;
//! * coalescing links (each envelope sealed into its own record at send,
//!   the turn's records written together at flush): records reach the
//!   wire only at flush, one per envelope and in order, however the
//!   traffic flushes; a severed link resumes losslessly, and an
//!   eavesdropper on the wire sees none of the plaintext;
//! * multi-envelope records, which receivers still accept (wire §8.2): a
//!   bit flip anywhere in a batch is an auth failure, and truncated
//!   records are rejected.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use ppc_crypto::Seed;
use ppc_net::secure::{ChannelKeyring, ChannelSealer};
use ppc_net::socket::WIRE_VERSION;
use ppc_net::{
    encode_frame, Backoff, Envelope, FrameDecoder, NetError, PartyId, TcpAcceptor, TcpRouter,
    TcpTransport, Transport, WaitTransport, SEALED_TOPIC,
};

fn keyring() -> ChannelKeyring {
    ChannelKeyring::from_master(&Seed::from_u64(77))
}

fn secured(parties: impl IntoIterator<Item = PartyId>) -> TcpTransport {
    let mut t = TcpTransport::new(parties);
    t.set_security(keyring());
    t
}

fn coalescing(parties: impl IntoIterator<Item = PartyId>) -> TcpTransport {
    let mut t = secured(parties);
    t.set_coalescing(true);
    t
}

/// A byte-pipe proxy that records every dialler→acceptor byte — what a
/// passive wiretap on the socket sees.
fn spawn_tap_proxy(
    upstream: std::net::SocketAddr,
) -> (
    std::net::SocketAddr,
    std::sync::Arc<std::sync::Mutex<Vec<u8>>>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let captured = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let tap = captured.clone();
    std::thread::spawn(move || {
        let (client, _) = listener.accept().unwrap();
        let server = TcpStream::connect(upstream).unwrap();
        client.set_nodelay(true).unwrap();
        server.set_nodelay(true).unwrap();
        let up = {
            let (mut from, mut to) = (client.try_clone().unwrap(), server.try_clone().unwrap());
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
                    tap.lock().unwrap().extend_from_slice(&buf[..n]);
                    if to.write_all(&buf[..n]).is_err() {
                        return;
                    }
                }
            })
        };
        let _ = up;
        let (mut from, mut to) = (server, client);
        let mut buf = [0u8; 4096];
        loop {
            let n = match from.read(&mut buf) {
                Ok(0) | Err(_) => {
                    let _ = to.shutdown(std::net::Shutdown::Both);
                    return;
                }
                Ok(n) => n,
            };
            if to.write_all(&buf[..n]).is_err() {
                return;
            }
        }
    });
    (addr, captured)
}

fn contains_bytes(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

fn envelope(from: PartyId, to: PartyId, topic: &str, payload: Vec<u8>) -> Envelope {
    Envelope::new(from, to, topic, payload)
}

/// Byte-pipe proxy between a dialler and an acceptor that flips one byte
/// at `flip_at` (absolute offset in the dialler→acceptor stream). Bytes
/// before the offset — in particular the handshake — pass untouched.
fn spawn_flipping_proxy(upstream: std::net::SocketAddr, flip_at: usize) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (client, _) = listener.accept().unwrap();
        let server = TcpStream::connect(upstream).unwrap();
        client.set_nodelay(true).unwrap();
        server.set_nodelay(true).unwrap();
        let pump = |mut from: TcpStream, mut to: TcpStream, flip: Option<usize>| {
            std::thread::spawn(move || {
                let mut seen = 0usize;
                let mut buf = [0u8; 4096];
                loop {
                    let n = match from.read(&mut buf) {
                        Ok(0) | Err(_) => {
                            let _ = to.shutdown(std::net::Shutdown::Both);
                            return;
                        }
                        Ok(n) => n,
                    };
                    if let Some(at) = flip {
                        if at >= seen && at < seen + n {
                            buf[at - seen] ^= 0x20;
                        }
                    }
                    seen += n;
                    if to.write_all(&buf[..n]).is_err() {
                        return;
                    }
                }
            })
        };
        pump(
            client.try_clone().unwrap(),
            server.try_clone().unwrap(),
            Some(flip_at),
        );
        pump(server, client, None);
    });
    addr
}

#[test]
fn sealed_direct_tcp_link_delivers_both_ways() {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap();
    let holder = secured([PartyId::DataHolder(0)]);
    let tp = secured([PartyId::ThirdParty]);

    let dial = std::thread::spawn(move || {
        holder.connect(addr, &Backoff::default()).unwrap();
        holder
    });
    acceptor.accept_into(&tp).unwrap();
    let holder = dial.join().unwrap();

    holder
        .send(envelope(
            PartyId::DataHolder(0),
            PartyId::ThirdParty,
            "s0/local/age/0",
            vec![1, 2, 3, 4],
        ))
        .unwrap();
    let got = tp
        .receive_any_of(&[PartyId::ThirdParty], Duration::from_secs(5))
        .unwrap()
        .expect("sealed frame crosses and unseals");
    assert_eq!(got.topic, "s0/local/age/0");
    assert_eq!(got.payload, vec![1, 2, 3, 4]);

    tp.send(envelope(
        PartyId::ThirdParty,
        PartyId::DataHolder(0),
        "s0/published-result",
        vec![9; 32],
    ))
    .unwrap();
    let back = holder
        .receive_any_of(&[PartyId::DataHolder(0)], Duration::from_secs(5))
        .unwrap()
        .unwrap();
    assert_eq!(back.topic, "s0/published-result");
    holder.shutdown();
    tp.shutdown();
}

/// The flagship tamper test: a MITM on a real loopback TCP link flips one
/// bit of the first sealed frame (the handshake passes untouched). The
/// receiver must surface `AuthFailure` — distinguishable from both stalls
/// and peer loss.
#[test]
fn a_bit_flipped_sealed_frame_is_a_distinguishable_auth_failure() {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let tp_addr = acceptor.local_addr().unwrap();
    // Handshake in the dialler→acceptor direction: hello (15 + 1×5 bytes)
    // + resume (8 bytes) = 28 bytes; flip a byte well inside the first
    // frame's sealed body (past the 4-byte length prefix and the 10 bytes
    // of party routing).
    let proxy_addr = spawn_flipping_proxy(tp_addr, 28 + 4 + 25);

    let holder = secured([PartyId::DataHolder(0)]);
    let tp = secured([PartyId::ThirdParty]);
    let dial = std::thread::spawn(move || {
        holder.connect(proxy_addr, &Backoff::default()).unwrap();
        holder
    });
    acceptor.accept_into(&tp).unwrap();
    let holder = dial.join().unwrap();

    holder
        .send(envelope(
            PartyId::DataHolder(0),
            PartyId::ThirdParty,
            "s0/numeric/age/0-1/masked",
            vec![7; 64],
        ))
        .unwrap();
    holder.flush().unwrap();
    let err = tp
        .receive_any_of(&[PartyId::ThirdParty], Duration::from_secs(5))
        .expect_err("the tampered frame must fail authentication");
    match err {
        NetError::AuthFailure { detail } => {
            assert!(
                detail.contains("DH0") && detail.contains("TP"),
                "detail names the link: {detail}"
            );
        }
        other => panic!("expected AuthFailure, got {other:?}"),
    }
    holder.shutdown();
    tp.shutdown();
}

/// Writes a crafted wire-version-3 hello announcing `parties` with
/// security mode `mode` and completes the resume exchange, returning the
/// connected stream. Layout pinned by `docs/WIRE_FORMAT.md` §3.
fn raw_handshake(addr: std::net::SocketAddr, mode: u8, party_index: u32) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut hello = Vec::new();
    hello.extend_from_slice(b"PPCH");
    hello.push(WIRE_VERSION);
    hello.push(mode);
    hello.extend_from_slice(&0x0BAD_CAFE_u64.to_le_bytes());
    hello.push(1);
    hello.push(0); // data-holder tag
    hello.extend_from_slice(&party_index.to_le_bytes());
    stream.write_all(&hello).unwrap();
    let mut reply = [0u8; 20];
    stream.read_exact(&mut reply).unwrap();
    assert_eq!(&reply[..4], b"PPCH");
    stream.write_all(&0u64.to_le_bytes()).unwrap();
    let mut resume = [0u8; 8];
    stream.read_exact(&mut resume).unwrap();
    stream
}

/// An insider with the real keys still cannot truncate or reorder sealed
/// frames: the tag covers the whole frame and the opener enforces the
/// sequence schedule.
#[test]
fn truncated_and_reordered_sealed_frames_are_rejected_on_a_real_link() {
    let make_victim = || {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        let tp = secured([PartyId::ThirdParty]);
        (acceptor, addr, tp)
    };
    let sealed_frames = || {
        // Any salt works: the opener accepts an unseen salt on first
        // contact; what matters is the per-pair schedule afterwards.
        let sealer = ChannelSealer::new(keyring(), 0x0BAD_CAFE);
        let f0 = sealer.seal(&envelope(
            PartyId::DataHolder(0),
            PartyId::ThirdParty,
            "s0/step/a",
            vec![1; 32],
        ));
        let f1 = sealer.seal(&envelope(
            PartyId::DataHolder(0),
            PartyId::ThirdParty,
            "s0/step/b",
            vec![2; 32],
        ));
        (f0, f1)
    };

    // Truncation: drop the last 3 bytes of the sealed payload.
    {
        let (acceptor, addr, tp) = make_victim();
        let accept = std::thread::spawn(move || {
            acceptor.accept_into(&tp).unwrap();
            tp
        });
        let mut rogue = raw_handshake(addr, 1, 0);
        let (f0, _) = sealed_frames();
        let mut truncated = f0.payload.clone();
        truncated.truncate(truncated.len() - 3);
        rogue
            .write_all(
                &encode_frame(&Envelope::new(f0.from, f0.to, SEALED_TOPIC, truncated)).unwrap(),
            )
            .unwrap();
        let tp = accept.join().unwrap();
        let err = tp
            .receive_any_of(&[PartyId::ThirdParty], Duration::from_secs(5))
            .expect_err("truncated sealed frame");
        assert!(matches!(err, NetError::AuthFailure { .. }), "{err:?}");
        tp.shutdown();
    }

    // Reorder: frame 1 before frame 0.
    {
        let (acceptor, addr, tp) = make_victim();
        let accept = std::thread::spawn(move || {
            acceptor.accept_into(&tp).unwrap();
            tp
        });
        let mut rogue = raw_handshake(addr, 1, 0);
        let (f0, f1) = sealed_frames();
        rogue.write_all(&encode_frame(&f1).unwrap()).unwrap();
        rogue.write_all(&encode_frame(&f0).unwrap()).unwrap();
        let tp = accept.join().unwrap();
        // Frame 1 is the pair's first contact (accepted), frame 0 then
        // arrives with a stale sequence number.
        let first = tp
            .receive_any_of(&[PartyId::ThirdParty], Duration::from_secs(5))
            .unwrap()
            .expect("first-contact frame accepted");
        assert_eq!(first.topic, "s0/step/b");
        let err = tp
            .receive_any_of(&[PartyId::ThirdParty], Duration::from_secs(5))
            .expect_err("the out-of-order frame must be rejected");
        match err {
            NetError::AuthFailure { detail } => {
                assert!(detail.contains("out of order"), "{detail}")
            }
            other => panic!("expected AuthFailure, got {other:?}"),
        }
        tp.shutdown();
    }
}

/// Kill the OS stream of a live sealed link mid-session and re-accept it:
/// the replay window retransmits the *sealed* frames byte-identically, so
/// every frame arrives exactly once, in order, with correct nonces.
#[test]
fn severed_sealed_link_resumes_losslessly() {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap();
    let holder = secured([PartyId::DataHolder(0)]);
    let tp = secured([PartyId::ThirdParty]);

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

    // Network cut: the third party loses its socket but keeps the logical
    // link (and the opener's nonce schedule), then re-accepts.
    tp.sever_links();
    let seen = {
        let acceptor = acceptor;
        let tp_ref = &tp;
        std::thread::scope(|scope| {
            let handle = scope.spawn(move || acceptor.accept_into(tp_ref).unwrap());
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
            while let Some(e) = tp.try_receive(PartyId::ThirdParty).unwrap() {
                seen.push(e.topic);
            }
            handle.join().unwrap();
            seen
        })
    };
    let core: Vec<&String> = seen
        .iter()
        .filter(|t| ["b", "c", "d"].contains(&t.as_str()))
        .collect();
    assert_eq!(
        core,
        vec!["b", "c", "d"],
        "sealed frames written into the dying socket must arrive exactly once, in order \
         (got {seen:?})"
    );
    holder.shutdown();
    tp.shutdown();
}

/// Downgrade attempts are rejected in the handshake: an old wire-version
/// peer and a plaintext v3 peer are both refused by a sealed endpoint,
/// explicitly — never silently accommodated.
#[test]
fn downgrade_attempts_are_rejected() {
    // (a) A v2 peer (no security byte) against a secure-required endpoint.
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap();
    let tp = secured([PartyId::ThirdParty]);
    let rogue = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        // A faithful wire-version-2 hello (no security byte), announcing
        // one party: magic, version, endpoint, count, party — 19 bytes,
        // so the v3 side reads its full 15-byte header and rejects on the
        // version, not on a short read.
        let mut hello = Vec::new();
        hello.extend_from_slice(b"PPCH");
        hello.push(2); // wire version 2: pre-security
        hello.extend_from_slice(&0xFEED_u64.to_le_bytes());
        hello.push(1);
        hello.push(0); // data-holder tag
        hello.extend_from_slice(&0u32.to_le_bytes());
        let _ = stream.write_all(&hello);
        // Drain whatever the acceptor wrote, then hang up.
        let mut sink = [0u8; 64];
        let _ = stream.read(&mut sink);
    });
    let err = acceptor.accept_into(&tp).unwrap_err();
    assert!(
        err.to_string().contains("version 2"),
        "version mismatch is explicit: {err}"
    );
    rogue.join().unwrap();
    tp.shutdown();

    // (b) A plaintext v3 peer against a sealed endpoint: both sides see
    // the explicit downgrade rejection.
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap();
    let sealed_tp = secured([PartyId::ThirdParty]);
    let dial = std::thread::spawn(move || {
        let plaintext_holder = TcpTransport::new([PartyId::DataHolder(0)]);
        plaintext_holder
            .connect(addr, &Backoff::none())
            .unwrap_err()
    });
    let accept_err = acceptor.accept_into(&sealed_tp).unwrap_err();
    assert!(
        accept_err.to_string().contains("downgrade rejected"),
        "{accept_err}"
    );
    let dial_err = dial.join().unwrap();
    assert!(
        matches!(dial_err, NetError::AuthFailure { .. })
            || dial_err.to_string().contains("handshake"),
        "the dialler is refused too: {dial_err:?}"
    );
    sealed_tp.shutdown();
}

/// A frame router (which holds no keys) forwards sealed traffic opaquely:
/// two sealed endpoints interoperate through it, including the reflected
/// self-route, and a plaintext endpoint on the same router cannot talk to
/// a sealed one (the receiver rejects its cleartext frames).
#[test]
fn routers_forward_sealed_frames_opaquely() {
    let (mut router, addr) = TcpRouter::spawn("127.0.0.1:0").unwrap();
    let holders = secured([PartyId::DataHolder(0), PartyId::DataHolder(1)]);
    let tp = secured([PartyId::ThirdParty]);
    assert!(holders
        .connect(addr, &Backoff::default())
        .unwrap()
        .is_empty());
    assert!(tp.connect(addr, &Backoff::default()).unwrap().is_empty());

    // Cross-connection route, sealed end-to-end.
    holders
        .send(envelope(
            PartyId::DataHolder(0),
            PartyId::ThirdParty,
            "s0/categorical/blood",
            vec![42; 16],
        ))
        .unwrap();
    let got = tp
        .receive_any_of(&[PartyId::ThirdParty], Duration::from_secs(5))
        .unwrap()
        .unwrap();
    assert_eq!(got.topic, "s0/categorical/blood");
    assert_eq!(got.payload, vec![42; 16]);

    // Self-reflection through the kernel TCP stack, still sealed.
    holders
        .send(envelope(
            PartyId::DataHolder(0),
            PartyId::DataHolder(1),
            "s0/numeric/age/0-1/masked",
            vec![7; 24],
        ))
        .unwrap();
    let got = holders
        .receive_any_of(&[PartyId::DataHolder(1)], Duration::from_secs(5))
        .unwrap()
        .unwrap();
    assert_eq!(got.payload, vec![7; 24]);
    assert_eq!(router.unroutable_frames(), 0);

    holders.shutdown();
    tp.shutdown();
    router.shutdown();
}

/// Coalescing end to end over a real TCP link, watched by a wiretap:
/// sends make no write at all, and the flush puts every envelope on the
/// wire as its own sealed record, in send order (consecutive sequence
/// numbers), delivered in order.
#[test]
fn coalesced_sends_reach_the_wire_only_at_flush_one_record_each() {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let tp_addr = acceptor.local_addr().unwrap();
    let (proxy_addr, captured) = spawn_tap_proxy(tp_addr);
    let holder = coalescing([PartyId::DataHolder(0)]);
    let tp = coalescing([PartyId::ThirdParty]);
    let dial = std::thread::spawn(move || {
        holder.connect(proxy_addr, &Backoff::default()).unwrap();
        holder
    });
    acceptor.accept_into(&tp).unwrap();
    let holder = dial.join().unwrap();
    // The dialler's hello (15 + 5 bytes) and resume count (8 bytes) have
    // crossed the tap: the acceptor answered only after reading them.
    const HANDSHAKE: usize = 28;
    assert_eq!(captured.lock().unwrap().len(), HANDSHAKE);

    const N: usize = 12;
    for i in 0..N {
        holder
            .send(envelope(
                PartyId::DataHolder(0),
                PartyId::ThirdParty,
                &format!("s0/chunk/{i}"),
                vec![i as u8; 100],
            ))
            .unwrap();
    }
    assert!(
        tp.receive_any_of(&[PartyId::ThirdParty], Duration::from_millis(100))
            .unwrap()
            .is_none(),
        "nothing arrives before the flush"
    );
    assert_eq!(
        captured.lock().unwrap().len(),
        HANDSHAKE,
        "a coalescing send writes nothing before the flush"
    );
    holder.flush().unwrap();
    for i in 0..N {
        let got = tp
            .receive_any_of(&[PartyId::ThirdParty], Duration::from_secs(5))
            .unwrap()
            .expect("deferred envelope arrives after the flush");
        assert_eq!(got.topic, format!("s0/chunk/{i}"), "in-stream order");
        assert_eq!(got.payload, vec![i as u8; 100]);
    }

    let wire = captured.lock().unwrap()[HANDSHAKE..].to_vec();
    let mut decoder = FrameDecoder::new();
    decoder.feed(&wire);
    let mut sequences = Vec::new();
    while let Some(record) = decoder.next_frame().unwrap() {
        assert_eq!(record.topic, SEALED_TOPIC);
        sequences.push(u64::from_le_bytes(
            record.payload[4..12].try_into().unwrap(),
        ));
    }
    assert_eq!(decoder.buffered(), 0, "the tap saw whole records only");
    assert_eq!(
        sequences,
        (0..N as u64).collect::<Vec<_>>(),
        "one record per envelope, in send order"
    );
    let sealed = holder.sealing_report().expect("secured transport").total();
    assert_eq!(
        (sealed.records_sealed, sealed.frames_sealed),
        (N as u64, N as u64)
    );
    let opened = tp.sealing_report().unwrap().total();
    assert_eq!(
        (opened.records_opened, opened.frames_opened),
        (N as u64, N as u64)
    );
    holder.shutdown();
    tp.shutdown();
}

/// A batch record sealed under the real pair key (one tag over three
/// envelopes) with one bit flipped inside its *second* envelope fails
/// authentication as a whole: the receiver reports an auth failure naming
/// the pair, and no envelope of the batch (before or after the flipped
/// byte) leaks out.
#[test]
fn a_bit_flip_inside_a_coalesced_batch_is_an_auth_failure() {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap();
    let tp = secured([PartyId::ThirdParty]);
    let accept = std::thread::spawn(move || {
        acceptor.accept_into(&tp).unwrap();
        tp
    });
    let mut rogue = raw_handshake(addr, 1, 0);
    let batch: Vec<Envelope> = (0..3)
        .map(|i| {
            envelope(
                PartyId::DataHolder(0),
                PartyId::ThirdParty,
                &format!("s0/numeric/age/0-1/masked/{i}"),
                vec![7; 64],
            )
        })
        .collect();
    let mut record = ChannelSealer::new(keyring(), 0x0BAD_CAFE).seal_batch(&batch);
    // Past the clear salt and sequence number (12 bytes), the ciphertext
    // lines up with the batch plaintext: the count, then each envelope's
    // length-prefixed topic and payload.
    let first = &batch[0];
    let second_starts = 4 + (4 + first.topic.len()) + (4 + first.payload.len());
    record.payload[12 + second_starts + 10] ^= 0x20;
    rogue.write_all(&encode_frame(&record).unwrap()).unwrap();
    let tp = accept.join().unwrap();
    let err = tp
        .receive_any_of(&[PartyId::ThirdParty], Duration::from_secs(5))
        .expect_err("the tampered batch must fail authentication, dropping every envelope");
    match err {
        NetError::AuthFailure { detail } => {
            assert!(
                detail.contains("DH0") && detail.contains("TP"),
                "detail names the link: {detail}"
            );
        }
        other => panic!("expected AuthFailure, got {other:?}"),
    }
    tp.shutdown();
}

/// An insider with the real keys cannot truncate a coalesced record: the
/// single tag covers the whole batch.
#[test]
fn truncated_coalesced_records_are_rejected() {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap();
    let tp = secured([PartyId::ThirdParty]);
    let accept = std::thread::spawn(move || {
        acceptor.accept_into(&tp).unwrap();
        tp
    });
    let mut rogue = raw_handshake(addr, 1, 0);
    let sealer = ChannelSealer::new(keyring(), 0x0BAD_CAFE);
    let batch: Vec<Envelope> = (0..4)
        .map(|i| {
            envelope(
                PartyId::DataHolder(0),
                PartyId::ThirdParty,
                &format!("s0/step/{i}"),
                vec![i as u8; 48],
            )
        })
        .collect();
    let record = sealer.seal_batch(&batch);
    let mut clipped = record.payload.clone();
    clipped.truncate(clipped.len() - 5);
    rogue
        .write_all(
            &encode_frame(&Envelope::new(
                record.from,
                record.to,
                SEALED_TOPIC,
                clipped,
            ))
            .unwrap(),
        )
        .unwrap();
    let tp = accept.join().unwrap();
    let err = tp
        .receive_any_of(&[PartyId::ThirdParty], Duration::from_secs(5))
        .expect_err("truncated coalesced record");
    assert!(matches!(err, NetError::AuthFailure { .. }), "{err:?}");
    tp.shutdown();
}

/// Sever the OS stream of a coalescing link mid-conversation — including
/// with envelopes still queued for the next batch — and re-accept: the
/// replay window retransmits the sealed records byte-identically, so every
/// batched envelope arrives exactly once, in order.
#[test]
fn severed_coalesced_link_resumes_losslessly() {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap();
    let holder = coalescing([PartyId::DataHolder(0)]);
    let tp = coalescing([PartyId::ThirdParty]);
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
    holder.flush().unwrap();
    let got = tp
        .receive_any_of(&[PartyId::ThirdParty], Duration::from_secs(5))
        .unwrap()
        .unwrap();
    assert_eq!(got.topic, "a");

    // Cut the socket, then queue a batch: the first flush after the cut
    // must seal the batch into the replay window, redial and resume —
    // nothing queued at sever time may be lost.
    tp.sever_links();
    let seen = {
        let acceptor = acceptor;
        let tp_ref = &tp;
        std::thread::scope(|scope| {
            let handle = scope.spawn(move || acceptor.accept_into(tp_ref).unwrap());
            send("b");
            send("c");
            send("d");
            let mut seen = Vec::new();
            for i in 0..200 {
                send(&format!("pad/{i}"));
                holder.flush().unwrap();
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
            while let Some(e) = tp.try_receive(PartyId::ThirdParty).unwrap() {
                seen.push(e.topic);
            }
            handle.join().unwrap();
            seen
        })
    };
    let core: Vec<&String> = seen
        .iter()
        .filter(|t| ["b", "c", "d"].contains(&t.as_str()))
        .collect();
    assert_eq!(
        core,
        vec!["b", "c", "d"],
        "envelopes queued across the cut must arrive exactly once, in order (got {seen:?})"
    );
    holder.shutdown();
    tp.shutdown();
}

/// A passive wiretap on a coalescing link sees handshake framing and
/// ciphertext only: none of the batched topics or payload needles appear
/// anywhere in the captured stream.
#[test]
fn eavesdropper_sees_no_plaintext_from_coalesced_batches() {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let tp_addr = acceptor.local_addr().unwrap();
    let (proxy_addr, captured) = spawn_tap_proxy(tp_addr);

    let holder = coalescing([PartyId::DataHolder(0)]);
    let tp = coalescing([PartyId::ThirdParty]);
    let dial = std::thread::spawn(move || {
        holder.connect(proxy_addr, &Backoff::default()).unwrap();
        holder
    });
    acceptor.accept_into(&tp).unwrap();
    let holder = dial.join().unwrap();

    let needles: &[&[u8]] = &[
        b"s0/secret/masked-row",
        b"NEEDLE-PAYLOAD-7f3a9c",
        b"s0/secret/dissimilarity",
    ];
    holder
        .send(envelope(
            PartyId::DataHolder(0),
            PartyId::ThirdParty,
            "s0/secret/masked-row",
            b"NEEDLE-PAYLOAD-7f3a9c".to_vec(),
        ))
        .unwrap();
    holder
        .send(envelope(
            PartyId::DataHolder(0),
            PartyId::ThirdParty,
            "s0/secret/dissimilarity",
            b"NEEDLE-PAYLOAD-7f3a9c".repeat(3),
        ))
        .unwrap();
    holder.flush().unwrap();
    for _ in 0..2 {
        tp.receive_any_of(&[PartyId::ThirdParty], Duration::from_secs(5))
            .unwrap()
            .expect("sealed batch crosses the tap");
    }
    let captured = captured.lock().unwrap().clone();
    assert!(
        contains_bytes(&captured, b"PPCH"),
        "the tap did observe the stream (handshake magic present)"
    );
    for needle in needles {
        assert!(
            !contains_bytes(&captured, needle),
            "plaintext needle {:?} leaked into the wire capture",
            String::from_utf8_lossy(needle)
        );
    }
    holder.shutdown();
    tp.shutdown();
}

/// However a coalescing link's traffic flushes — after every send
/// (request/response) or after many sends (bulk turns) — every envelope is
/// its own sealed record, and delivery is exactly-once, in order.
#[test]
fn coalesced_records_carry_one_envelope_however_the_traffic_flushes() {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap();
    let holder = coalescing([PartyId::DataHolder(0)]);
    let tp = coalescing([PartyId::ThirdParty]);
    let dial = std::thread::spawn(move || {
        holder.connect(addr, &Backoff::default()).unwrap();
        holder
    });
    acceptor.accept_into(&tp).unwrap();
    let holder = dial.join().unwrap();
    let send = |topic: String, i: u64| {
        holder
            .send(envelope(
                PartyId::DataHolder(0),
                PartyId::ThirdParty,
                &topic,
                vec![(i % 251) as u8; 64],
            ))
            .unwrap();
    };
    let expect = |topic: String| {
        let got = tp
            .receive_any_of(&[PartyId::ThirdParty], Duration::from_secs(5))
            .unwrap()
            .expect("envelope arrives after its flush");
        assert_eq!(got.topic, topic, "in-stream order");
    };

    // Request/response: a flush after every send.
    const PINGS: u64 = 48;
    for i in 0..PINGS {
        send(format!("s0/pingpong/{i}"), i);
        holder.flush().unwrap();
        expect(format!("s0/pingpong/{i}"));
    }
    // Bulk turns: many sends per flush.
    const PER_FLUSH: u64 = 40;
    for round in 0..2 {
        for i in 0..PER_FLUSH {
            send(format!("s0/bulk/{round}/{i}"), i);
        }
        holder.flush().unwrap();
        for i in 0..PER_FLUSH {
            expect(format!("s0/bulk/{round}/{i}"));
        }
    }

    let total = PINGS + 2 * PER_FLUSH;
    let sealed = holder.sealing_report().expect("secured transport").total();
    assert_eq!(sealed.frames_sealed, total);
    assert_eq!(sealed.records_sealed, sealed.frames_sealed);
    let opened = tp.sealing_report().unwrap().total();
    assert_eq!(opened.frames_opened, total);
    assert_eq!(opened.records_opened, opened.frames_opened);
    holder.shutdown();
    tp.shutdown();
}
