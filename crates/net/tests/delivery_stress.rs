//! Delivery-path stress suite: the specification of the per-party
//! delivery slots.
//!
//! * many concurrent deliverers × many parties, asserting per-sender
//!   FIFO, exactly-once delivery and no lost wakeups;
//! * targeted wakes: traffic for a party nobody waits on signals no one;
//! * the per-party failure-routing regression: a poisoned link must
//!   surface on the party it concerns, *only* there, and persist until
//!   observed.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppc_crypto::Seed;
use ppc_net::secure::ChannelKeyring;
use ppc_net::{
    Backoff, Envelope, NetError, PartyId, TcpAcceptor, TcpTransport, Transport, WaitTransport,
};

const PARTIES: u32 = 8;
const DELIVERERS: u32 = 8;
const PER_SENDER_PER_PARTY: u64 = 250;

fn dh(i: u32) -> PartyId {
    PartyId::DataHolder(i)
}

/// `DELIVERERS` sender threads fan envelopes out to `PARTIES` local
/// receivers through the public send path while one receiver thread per
/// party blocks in `receive_any_of`. Every delivered envelope carries
/// `(sender, seq)`; the receivers assert:
///
/// * **per-sender FIFO** — for each `(sender, receiver)` pair, sequence
///   numbers arrive strictly ascending;
/// * **exactly-once** — each receiver sees exactly
///   `DELIVERERS × PER_SENDER_PER_PARTY` envelopes, no dupes, no gaps;
/// * **no lost wakeups** — every park ends in a signal, except each
///   receiver's final probe for surplus envelopes, and no receive times
///   out before its receiver's count is complete.
#[test]
fn delivery_storm() {
    let transport = Arc::new(TcpTransport::new((0..PARTIES).map(dh)));

    std::thread::scope(|scope| {
        for sender in 0..DELIVERERS {
            let transport = Arc::clone(&transport);
            scope.spawn(move || {
                for seq in 0..PER_SENDER_PER_PARTY {
                    for receiver in 0..PARTIES {
                        let payload = seq.to_le_bytes().to_vec();
                        transport
                            .send(Envelope::new(
                                dh(100 + sender),
                                dh(receiver),
                                "storm",
                                payload,
                            ))
                            .unwrap();
                    }
                    if seq % 64 == 0 {
                        std::thread::yield_now();
                    }
                }
            });
        }
        for receiver in 0..PARTIES {
            let transport = Arc::clone(&transport);
            scope.spawn(move || {
                let expected = u64::from(DELIVERERS) * PER_SENDER_PER_PARTY;
                let mut next_seq: HashMap<PartyId, u64> = HashMap::new();
                let mut seen = 0u64;
                while seen < expected {
                    let envelope = transport
                        .receive_any_of(&[dh(receiver)], Duration::from_secs(30))
                        .unwrap()
                        .unwrap_or_else(|| {
                            panic!(
                                "receiver {receiver} timed out after {seen}/{expected} \
                                 envelopes — lost wakeup or lost delivery"
                            )
                        });
                    assert_eq!(envelope.to, dh(receiver), "misrouted envelope");
                    let seq = u64::from_le_bytes(envelope.payload.as_slice().try_into().unwrap());
                    let slot = next_seq.entry(envelope.from).or_insert(0);
                    assert_eq!(
                        seq, *slot,
                        "per-sender FIFO violated: receiver {receiver} got seq {seq} from \
                         {} while expecting {}",
                        envelope.from, *slot
                    );
                    *slot += 1;
                    seen += 1;
                }
                // Exactly-once: nothing extra arrives afterwards.
                assert!(
                    transport
                        .receive_any_of(&[dh(receiver)], Duration::from_millis(50))
                        .unwrap()
                        .is_none(),
                    "receiver {receiver} saw more than the expected {expected} envelopes"
                );
                for (sender, count) in next_seq {
                    assert_eq!(
                        count, PER_SENDER_PER_PARTY,
                        "receiver {receiver} finished with an incomplete stream from {sender}"
                    );
                }
            });
        }
    });
    // A receive that outlives a lost wakeup still finds its envelope on
    // the rescan after its deadline, so count timed-out parks instead:
    // only each receiver's final exactly-once probe may time out.
    let waits = transport.wait_stats();
    assert!(
        waits.blocking_waits - waits.wakeups <= u64::from(PARTIES),
        "lost wakeups: {} parks timed out",
        waits.blocking_waits - waits.wakeups
    );
}

/// Targeted wakes: a waiter parked on DH0 and DH1 is signalled by
/// traffic for DH1 and never by traffic for DH2, which it does not watch.
#[test]
fn wakes_target_only_the_parties_a_waiter_watches() {
    let transport = TcpTransport::new([dh(0), dh(1), dh(2)]);
    let to = |party: PartyId, seq: u64| {
        Envelope::new(dh(100), party, "wake", seq.to_le_bytes().to_vec())
    };
    std::thread::scope(|scope| {
        let waiter = scope.spawn(|| {
            transport
                .receive_any_of(&[dh(0), dh(1)], Duration::from_secs(30))
                .unwrap()
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        while transport.wait_stats().blocking_waits < 1 {
            assert!(Instant::now() < deadline, "the waiter never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
        for seq in 0..100 {
            transport.send(to(dh(2), seq)).unwrap();
        }
        assert_eq!(
            transport.delivery_stats().wake_signals,
            0,
            "traffic for an unwatched party must signal no one"
        );
        transport.send(to(dh(1), 7)).unwrap();
        let got = waiter
            .join()
            .unwrap()
            .expect("the DH1 envelope wakes the waiter");
        assert_eq!((got.to, got.payload), (dh(1), 7u64.to_le_bytes().to_vec()));
    });
    assert_eq!(transport.delivery_stats().wake_signals, 1);
    for seq in 0..100u64 {
        let envelope = transport.try_receive(dh(2)).unwrap().expect("DH2 traffic");
        assert_eq!(envelope.payload, seq.to_le_bytes().to_vec(), "FIFO order");
    }
    assert!(transport.try_receive(dh(2)).unwrap().is_none());
}

/// The failure-routing regression: one poisoned link between two
/// co-hosted parties.
///
/// A sealed acceptor hosts DH0 and DH1 under keyring A. A dialer with
/// keyring B sends to DH0 — the unseal fails, which is an
/// [`NetError::AuthFailure`] concerning DH0's link only. DH0 must observe
/// the failure on every poll (sticky until a resume clears it) while DH1
/// times out cleanly.
#[test]
fn poisoned_link_routes_to_the_party_it_concerns() {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap();

    let mut host = TcpTransport::new([dh(0), dh(1)]);
    host.set_security(ChannelKeyring::from_master(&Seed::from_u64(77)));

    let mut dialer = TcpTransport::new([dh(2)]);
    dialer.set_security(ChannelKeyring::from_master(&Seed::from_u64(78)));

    let accepted = std::thread::scope(|scope| {
        let handle = scope.spawn(|| dialer.connect(addr, &Backoff::default()));
        acceptor.accept_into(&host).unwrap();
        handle.join().unwrap()
    });
    accepted.unwrap();

    dialer
        .send(Envelope::new(dh(2), dh(0), "probe", vec![1, 2, 3]))
        .unwrap();
    dialer.flush().unwrap();

    // DH0's receive must surface the auth failure (woken, not timed out).
    let dh0_first = host.receive_any_of(&[dh(0)], Duration::from_secs(10));
    let failure_is_auth = matches!(&dh0_first, Err(NetError::AuthFailure { .. }));
    // Sticky: a second and third poll see the same failure.
    let persists = host
        .receive_any_of(&[dh(0)], Duration::from_millis(50))
        .is_err()
        && host.try_receive(dh(0)).is_err();
    assert!(failure_is_auth, "expected AuthFailure, got {dh0_first:?}");
    assert!(persists, "failure must persist until a resume clears it");
    // DH1 is scoped out.
    let dh1 = host.receive_any_of(&[dh(1)], Duration::from_millis(200));
    assert!(
        matches!(&dh1, Ok(None)),
        "DH0's link failure must not leak to DH1, got {dh1:?}"
    );
}
