//! Frame error paths of an accepted `TcpTransport` link over real loopback
//! TCP sockets: peer hangup mid-frame, a clean hangup on a frame boundary,
//! oversized frame rejection, and interleaved partial reads across two
//! links. The far end of each link is a raw socket that ran the public
//! handshake stages (`exchange_hello`, `exchange_resume`) and then writes
//! frame bytes by hand, so each test says exactly what the peer sent. The
//! frame layout these tests pin down is specified in `docs/WIRE_FORMAT.md`.

use std::collections::BTreeSet;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use ppc_net::framed::MAX_FRAME_BODY;
use ppc_net::socket::{exchange_hello, exchange_resume};
use ppc_net::{
    encode_frame, Envelope, NetError, PartyId, SecurityMode, TcpAcceptor, TcpTransport,
    WaitTransport,
};

const TP: PartyId = PartyId::ThirdParty;

/// A transport hosting the third party and its acceptor.
fn third_party() -> (TcpTransport, TcpAcceptor) {
    let transport = TcpTransport::new([TP]);
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    (transport, acceptor)
}

/// Dials `acceptor` from a raw socket hosting `party` (as endpoint
/// `endpoint`) and completes the handshake while the transport accepts
/// the link.
fn raw_peer(
    transport: &TcpTransport,
    acceptor: &TcpAcceptor,
    endpoint: u64,
    party: PartyId,
) -> TcpStream {
    let addr = acceptor.local_addr().unwrap();
    std::thread::scope(|scope| {
        let accept = scope.spawn(|| acceptor.accept_into(transport));
        let mut peer = TcpStream::connect(addr).unwrap();
        peer.set_nodelay(true).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let parties = BTreeSet::from([party]);
        exchange_hello(&mut peer, endpoint, &parties, SecurityMode::Plaintext).unwrap();
        assert_eq!(exchange_resume(&mut peer, 0).unwrap(), 0);
        assert_eq!(accept.join().unwrap().unwrap(), parties);
        peer
    })
}

/// The next envelope for the third party, waiting up to five seconds.
fn receive(transport: &TcpTransport) -> Result<Option<Envelope>, NetError> {
    transport.receive_any_of(&[TP], Duration::from_secs(5))
}

#[test]
fn peer_hangup_mid_frame_is_an_error_not_silence() {
    let (transport, acceptor) = third_party();
    let mut peer = raw_peer(&transport, &acceptor, 0xA0, PartyId::DataHolder(0));

    // A complete frame followed by a truncated one, then hang up.
    let good = Envelope::new(PartyId::DataHolder(0), TP, "s0/local/age/0", vec![1, 2, 3]);
    peer.write_all(&encode_frame(&good).unwrap()).unwrap();
    let partial = encode_frame(&Envelope::new(
        PartyId::DataHolder(0),
        TP,
        "s0/local/age/1",
        vec![9; 64],
    ))
    .unwrap();
    assert_eq!(partial.len(), 100);
    peer.write_all(&partial[..48]).unwrap();
    peer.flush().unwrap();
    drop(peer); // FIN with half a frame in flight

    // The complete frame is still delivered...
    assert_eq!(receive(&transport).unwrap(), Some(good));
    // ...then the mid-frame EOF surfaces as an I/O error, not silence.
    assert_eq!(
        receive(&transport),
        Err(NetError::Io(
            "peer hung up mid-frame with 48 bytes buffered".into()
        ))
    );
}

#[test]
fn clean_hangup_on_a_frame_boundary_is_quiet() {
    let (transport, acceptor) = third_party();
    let mut peer = raw_peer(&transport, &acceptor, 0xA0, PartyId::DataHolder(0));
    let e = Envelope::new(PartyId::DataHolder(0), TP, "s0/local/age/0", vec![1]);
    peer.write_all(&encode_frame(&e).unwrap()).unwrap();
    drop(peer);
    assert_eq!(receive(&transport).unwrap(), Some(e));
    // EOF with nothing buffered: a clean end of stream, not an error. A
    // park long enough for the hangup to be read ends in a timeout.
    assert_eq!(
        transport.receive_any_of(&[TP], Duration::from_millis(200)),
        Ok(None)
    );
}

#[test]
fn oversized_frame_is_rejected_over_the_socket() {
    let (transport, acceptor) = third_party();
    let mut peer = raw_peer(&transport, &acceptor, 0xA0, PartyId::DataHolder(0));

    // A length prefix past the cap must be treated as corruption before
    // any allocation happens.
    let huge = (MAX_FRAME_BODY as u32) + 1;
    peer.write_all(&huge.to_le_bytes()).unwrap();
    peer.flush().unwrap();

    match receive(&transport) {
        Err(NetError::Decode(message)) => assert!(
            message.starts_with(&format!("frame body of {huge} bytes exceeds")),
            "{message}"
        ),
        other => panic!("a corrupt stream gave {other:?}"),
    }
}

#[test]
fn interleaved_partial_reads_across_two_links_deliver_in_order() {
    let (transport, acceptor) = third_party();
    let holders = [PartyId::DataHolder(0), PartyId::DataHolder(1)];
    let peers: Vec<TcpStream> = holders
        .iter()
        .enumerate()
        .map(|(i, &holder)| raw_peer(&transport, &acceptor, 0xA0 + i as u64, holder))
        .collect();

    // Each link carries two sessions' chunk streams (`s0/`, `s1/`),
    // written in deliberately tiny fragments that alternate between the
    // links with pauses, so the transport sees partial frames mid-decode
    // on both at once.
    let frames: Vec<Vec<Envelope>> = holders
        .iter()
        .map(|&holder| {
            (0..6)
                .map(|i| {
                    Envelope::new(
                        holder,
                        TP,
                        format!("s{}/numeric/age/0-1/pairwise-chunk", i % 2),
                        vec![i as u8; 32 + i],
                    )
                })
                .collect()
        })
        .collect();
    let wires: Vec<Vec<u8>> = frames
        .iter()
        .map(|link| link.iter().flat_map(|e| encode_frame(e).unwrap()).collect())
        .collect();
    let writer = std::thread::spawn(move || {
        let mut peers = peers;
        let longest = wires.iter().map(Vec::len).max().unwrap();
        for at in (0..longest).step_by(7) {
            for (peer, wire) in peers.iter_mut().zip(&wires) {
                if at < wire.len() {
                    peer.write_all(&wire[at..(at + 7).min(wire.len())]).unwrap();
                    peer.flush().unwrap();
                }
            }
            std::thread::sleep(Duration::from_micros(300));
        }
        peers
    });

    let total: usize = frames.iter().map(Vec::len).sum();
    let mut received = Vec::with_capacity(total);
    while received.len() < total {
        received.push(
            receive(&transport)
                .unwrap()
                .expect("frames never completed"),
        );
    }
    let _peers = writer.join().unwrap();

    // Each link is one FIFO: its frames arrive in the order written.
    for (holder, sent) in holders.iter().zip(&frames) {
        let from: Vec<&Envelope> = received.iter().filter(|e| e.from == *holder).collect();
        assert_eq!(from, sent.iter().collect::<Vec<_>>(), "link of {holder}");
    }
}
