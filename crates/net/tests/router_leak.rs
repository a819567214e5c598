//! A long-lived reactor router must not keep anything of a connection that
//! has gone. Each round here is one short-lived deployment: two fresh
//! transports (fresh endpoint ids, the same two parties) connect through
//! the router, DH0 sends DH1 a few frames, and both shut down. After 200
//! rounds the process must hold about as many open file descriptors as
//! after the first: a router that kept each departed connection's read
//! half would hold one more per connection.
//!
//! The test is alone in its binary, so the descriptor count it reads from
//! `/proc/self/fd` is its own.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use ppc_net::{Backoff, Envelope, PartyId, TcpRouter, TcpTransport, Transport, WaitTransport};

const ROUNDS: usize = 200;

/// Descriptors the count may settle above its starting point: transient
/// sockets of the last round still closing, nothing per connection.
const SLACK: usize = 8;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// One short deployment through the router at `addr`.
fn round(addr: std::net::SocketAddr, round: usize) {
    let (dh0, dh1) = (PartyId::DataHolder(0), PartyId::DataHolder(1));
    let a = TcpTransport::new([dh0]);
    let b = TcpTransport::new([dh1]);
    a.connect(addr, &Backoff::default()).unwrap();
    b.connect(addr, &Backoff::default()).unwrap();
    for frame in 0..4 {
        let payload = vec![frame as u8; 4096];
        a.send(Envelope::new(
            dh0,
            dh1,
            format!("r{round}/f{frame}"),
            payload,
        ))
        .unwrap();
    }
    for _ in 0..4 {
        b.receive_any_of(&[dh1], Duration::from_secs(10))
            .unwrap()
            .expect("frame forwarded within the deadline");
    }
    a.shutdown();
    b.shutdown();
}

#[test]
fn reactor_router_releases_departed_connections() {
    let (mut router, addr) = TcpRouter::spawn("127.0.0.1:0").unwrap();
    // The first round starts the reactor and anything else created once.
    round(addr, 0);
    let start = open_fds();
    for i in 1..=ROUNDS {
        round(addr, i);
    }
    // The router notices each hangup on its reactor thread; poll rather
    // than sleep a guessed time.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut now = open_fds();
    while now > start + SLACK && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        now = open_fds();
    }
    assert!(
        now <= start + SLACK,
        "{ROUNDS} rounds of two connections left {now} open descriptors, {start} after the first"
    );
    router.shutdown();
}
