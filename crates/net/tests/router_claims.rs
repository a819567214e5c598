//! A router must not supersede a logical link whose handshake is still in
//! flight. A new endpoint announcing a party set drops every *dead* link
//! with that set (a restarted process draws a fresh endpoint id), but a
//! link whose connection has announced itself and not yet had its stream
//! installed is not dead. Two transports that host the same parties, as
//! the shard transports of a `ShardedEngine` do, must both end up
//! attached however their handshakes interleave.
//!
//! Each round connects two such transports to a fresh router at the same
//! time and waits, within a deadline, for the router to count both
//! connections.

use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use ppc_net::{Backoff, PartyId, TcpRouter, TcpTransport};

const ROUNDS: usize = 60;

/// Connects two transports hosting `parties` to the router at `addr`
/// concurrently.
fn connect_pair(addr: SocketAddr, parties: &[PartyId]) -> Vec<TcpTransport> {
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let transport = TcpTransport::new(parties.iter().copied());
                    start.wait();
                    transport.connect(addr, &Backoff::default()).unwrap();
                    transport
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn concurrent_handshakes_sharing_a_party_set_both_attach() {
    let parties = [
        PartyId::DataHolder(0),
        PartyId::DataHolder(1),
        PartyId::ThirdParty,
    ];
    for round in 0..ROUNDS {
        let (mut router, addr) = TcpRouter::spawn("127.0.0.1:0").unwrap();
        let transports = connect_pair(addr, &parties);
        // The router installs each stream after the client's handshake
        // returns, so poll for the count rather than read it once.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut count = router.connection_count();
        while count != 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
            count = router.connection_count();
        }
        assert_eq!(
            count, 2,
            "round {round}: a concurrent handshake lost its link"
        );
        for transport in &transports {
            transport.shutdown();
        }
        router.shutdown();
    }
}
