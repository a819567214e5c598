//! Link-scaling stress test: ≥64 logical links through one router process.
//!
//! The socket tier runs every link and router connection on one reactor
//! thread per process, from a router's accept to its close, so the thread
//! count must not grow with the link count or with the handshakes in
//! flight. This test runs a 64-party ring through one in-process
//! [`TcpRouter`] next to 64 raw connections that never send a byte,
//! asserts that the router added no thread beyond the reactor's — counted
//! at once, not after transient threads had time to exit — and asserts
//! every party receives exactly its predecessor's envelope.
//!
//! Linux-only: thread counts come from `/proc/self/status`, and Linux is
//! the reactor's first-class platform (epoll).

#![cfg(target_os = "linux")]

use std::io::Read;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ppc_net::{Backoff, Envelope, PartyId, TcpRouter, TcpTransport, Transport, WaitTransport};

/// Number of single-party transports (= router connections = logical links).
const LINKS: usize = 64;

/// Current thread count of this process, from `/proc/self/status`.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("Threads: line in /proc/self/status")
        .trim()
        .parse()
        .expect("Threads: value parses")
}

/// Samples the thread count until it stops changing (three stable samples
/// 20 ms apart) or `budget` elapses, returning the last sample: the
/// baseline before any socket exists.
fn settled_thread_count(budget: Duration) -> usize {
    let deadline = Instant::now() + budget;
    let mut last = thread_count();
    let mut stable = 0;
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        let now = thread_count();
        if now == last {
            stable += 1;
            if stable >= 3 {
                break;
            }
        } else {
            stable = 0;
            last = now;
        }
    }
    last
}

/// Runs the 64-party ring through one router, with 64 silent connections
/// beside it: every party sends one envelope to its ring successor and
/// receives exactly one from its predecessor. Returns the thread-count
/// delta over the pre-run baseline, taken once every link is attached and
/// every silent connection accepted, and the delivered `(from, to,
/// payload)` rows in ring order.
fn run_ring() -> (usize, Vec<(PartyId, PartyId, Vec<u8>)>) {
    let baseline = settled_thread_count(Duration::from_secs(5));

    let (mut router, addr) = TcpRouter::spawn("127.0.0.1:0").unwrap();

    let transports: Vec<TcpTransport> = (0..LINKS)
        .map(|i| {
            let t = TcpTransport::new([PartyId::DataHolder(i as u32)]);
            t.connect(addr, &Backoff::default()).unwrap();
            t
        })
        .collect();
    // Connections that never send a byte: each is a handshake in flight
    // at the router. The router greets each one as it accepts it.
    let mut silent: Vec<TcpStream> = (0..LINKS)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    for stream in &mut silent {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.read_exact(&mut [0u8; 15]).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while router.connection_count() < LINKS && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(router.connection_count(), LINKS);

    // At once: a thread per silent handshake would still be alive now.
    let delta = thread_count().saturating_sub(baseline);

    for (i, t) in transports.iter().enumerate() {
        let to = PartyId::DataHolder(((i + 1) % LINKS) as u32);
        t.send(Envelope::new(
            PartyId::DataHolder(i as u32),
            to,
            "stress/ring",
            vec![i as u8; 32],
        ))
        .unwrap();
        t.flush().unwrap();
    }

    let mut delivered = Vec::with_capacity(LINKS);
    for (i, t) in transports.iter().enumerate() {
        let me = PartyId::DataHolder(i as u32);
        let got = t
            .receive_any_of(&[me], Duration::from_secs(20))
            .unwrap()
            .unwrap_or_else(|| panic!("party {me} starved"));
        delivered.push((got.from, got.to, got.payload));
    }

    for t in &transports {
        t.shutdown();
    }
    drop(transports);
    drop(silent);
    router.shutdown();

    (delta, delivered)
}

#[test]
fn sixty_four_links_run_on_a_constant_number_of_threads() {
    let (delta, rows) = run_ring();

    // The reactor's loop thread, started by the first socket, and nothing
    // else: no accept thread and no thread per connection or handshake.
    assert!(
        delta <= 1,
        "{LINKS} links and {LINKS} handshakes in flight added {delta} threads; \
         only the reactor's may run"
    );

    // Every party got exactly its predecessor's envelope.
    assert_eq!(rows.len(), LINKS);
    for (i, (from, to, payload)) in rows.iter().enumerate() {
        let pred = (i + LINKS - 1) % LINKS;
        assert_eq!(*from, PartyId::DataHolder(pred as u32));
        assert_eq!(*to, PartyId::DataHolder(i as u32));
        assert_eq!(*payload, vec![pred as u8; 32]);
    }
}
