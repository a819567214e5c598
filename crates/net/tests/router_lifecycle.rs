//! A router's connections live on the reactor from accept to close, and
//! each link writes straight from its replay window:
//!
//! * a 32 MiB envelope, far past what a socket takes at once, reflected by
//!   a router to an in-process transport arrives exactly once, with no
//!   later send on the link to force a re-dial;
//! * a router shut down while one transport floods another through it
//!   returns within its deadline, round after round: shutdown holds no
//!   router lock while it waits out a connection's dispatch, which may be
//!   waiting for those locks on the process-global reactor thread;
//! * a connection whose hello and resume count are not through five
//!   seconds after its accept is closed at the router's next accept.

use std::collections::BTreeSet;
use std::io::Read;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use ppc_net::socket::exchange_hello;
use ppc_net::{
    Backoff, Envelope, PartyId, SecurityMode, TcpRouter, TcpTransport, Transport, WaitTransport,
};

const DH0: PartyId = PartyId::DataHolder(0);
const DH1: PartyId = PartyId::DataHolder(1);

/// The byte at `i` of the large envelope's payload.
fn pattern(i: usize) -> u8 {
    (i % 251) as u8
}

#[test]
fn a_32_mib_envelope_reflected_by_a_router_arrives_once_without_a_later_send() {
    const LEN: usize = 32 << 20;
    let (mut router, addr) = TcpRouter::spawn("127.0.0.1:0").unwrap();
    // Both parties on one transport: the router reflects DH0 → DH1 back
    // down the connection it came from.
    let both = TcpTransport::new([DH0, DH1]);
    both.connect(addr, &Backoff::default()).unwrap();
    let payload: Vec<u8> = (0..LEN).map(pattern).collect();
    both.send(Envelope::new(DH0, DH1, "bulk/32mib", payload))
        .unwrap();
    both.flush().unwrap();

    let got = both
        .receive_any_of(&[DH1], Duration::from_secs(10))
        .unwrap()
        .expect("the reflected envelope arrives without a later send");
    assert_eq!(got.topic, "bulk/32mib");
    assert_eq!(got.payload.len(), LEN);
    assert!(got
        .payload
        .iter()
        .enumerate()
        .all(|(i, &b)| b == pattern(i)));
    assert!(
        both.receive_any_of(&[DH1], Duration::from_millis(200))
            .unwrap()
            .is_none(),
        "the envelope arrives once"
    );
    both.shutdown();
    router.shutdown();
}

#[test]
fn a_router_shut_down_under_cross_link_traffic_returns_within_its_deadline() {
    const ROUNDS: usize = 100;
    for round in 0..ROUNDS {
        let (mut router, addr) = TcpRouter::spawn("127.0.0.1:0").unwrap();
        let mut a = TcpTransport::new([DH0]);
        // Once the router is gone, the flood's next send fails at once.
        a.set_reconnect_policy(Backoff::none());
        let a = Arc::new(a);
        let b = TcpTransport::new([DH1]);
        a.connect(addr, &Backoff::default()).unwrap();
        b.connect(addr, &Backoff::default()).unwrap();

        // `a` floods `b`: every frame crosses from one router connection
        // to another.
        let stop = Arc::new(AtomicBool::new(false));
        let flood = {
            let (a, stop) = (Arc::clone(&a), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let frame = Envelope::new(DH0, DH1, "flood", vec![0x5A; 2048]);
                    if a.send(frame).is_err() {
                        break;
                    }
                }
            })
        };
        b.receive_any_of(&[DH1], Duration::from_secs(5))
            .unwrap()
            .expect("the flood reaches its destination");

        // A shutdown that deadlocks stops the reactor, and every socket of
        // the process with it: run it apart and give it a deadline rather
        // than hang the test.
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            router.shutdown();
            let _ = done.send(());
        });
        assert!(
            finished.recv_timeout(Duration::from_secs(5)).is_ok(),
            "round {round}: the router's shutdown did not return under traffic"
        );
        stop.store(true, Ordering::SeqCst);
        flood.join().unwrap();
        a.shutdown();
        b.shutdown();
    }
}

/// Whether the router closed `stream`: a read within five seconds sees EOF
/// or an error, not a timeout.
fn closed_by_router(stream: &mut TcpStream) -> bool {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 64];
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
fn a_handshake_not_through_in_five_seconds_is_closed_at_the_next_accept() {
    let (mut router, addr) = TcpRouter::spawn("127.0.0.1:0").unwrap();
    let live = TcpTransport::new([DH0]);
    live.connect(addr, &Backoff::default()).unwrap();
    // One connection sends nothing; one sends its hello and no count. The
    // router greets each as it accepts it, and answers the hello with its
    // count once the hello has joined its link.
    let mut silent = TcpStream::connect(addr).unwrap();
    silent.read_exact(&mut [0u8; 15]).unwrap();
    let mut halfway = TcpStream::connect(addr).unwrap();
    let parties: BTreeSet<PartyId> = [PartyId::DataHolder(5)].into_iter().collect();
    exchange_hello(&mut halfway, 7, &parties, SecurityMode::Plaintext).unwrap();
    halfway.read_exact(&mut [0u8; 8]).unwrap();
    assert_eq!(router.connection_count(), 2, "the hello joined its link");

    std::thread::sleep(Duration::from_millis(5200));
    let late = TcpTransport::new([DH1]);
    late.connect(addr, &Backoff::default()).unwrap();
    assert!(closed_by_router(&mut silent), "a silent connection");
    assert!(closed_by_router(&mut halfway), "a hello without its count");
    assert_eq!(router.connection_count(), 2, "the two live links stay");

    live.send(Envelope::new(DH0, DH1, "after-sweep", vec![1]))
        .unwrap();
    let got = late
        .receive_any_of(&[DH1], Duration::from_secs(5))
        .unwrap()
        .expect("the live links get full service");
    assert_eq!(got.topic, "after-sweep");
    live.shutdown();
    late.shutdown();
    router.shutdown();
}
