//! Transport abstraction and the in-memory network implementation.
//!
//! [`Transport`] is the seam every higher layer programs against: the
//! protocol engines of `ppc-core` drive any [`WaitTransport`], and
//! metrics/eavesdropping attach to the trait (via [`Instrumented`]) rather
//! than to a concrete struct. The implementations:
//!
//! * [`Network`] — the in-memory mailbox network;
//! * [`SimulatedWan`](crate::sim::SimulatedWan) — wraps any transport with a
//!   virtual-clock latency/bandwidth/loss model for cost experiments;
//! * [`SocketTransport`](crate::socket::SocketTransport) — length-prefixed
//!   frames over real TCP and Unix-domain sockets;
//! * [`Instrumented`] — wraps any transport with per-link byte accounting,
//!   channel-security settings and an eavesdropper: the one place traffic
//!   is counted and captured.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::eavesdrop::Eavesdropper;
use crate::error::NetError;
use crate::message::{ChannelSecurity, Envelope};
use crate::metrics::CommReport;
use crate::party::PartyId;

/// A message transport between protocol parties.
///
/// Implementations must preserve per-link FIFO order: two envelopes sent
/// from the same party to the same party arrive in send order. The chunked
/// protocol streams rely on this (chunk `i + 1` may only be decoded after
/// chunk `i`).
pub trait Transport {
    /// Enqueues an envelope for delivery.
    fn send(&self, envelope: Envelope) -> Result<(), NetError>;

    /// Removes and returns the next envelope queued for `receiver`, if one
    /// is available right now. Never blocks.
    fn try_receive(&self, receiver: PartyId) -> Result<Option<Envelope>, NetError>;

    /// Pushes any buffered writes towards the peer (a no-op for in-memory
    /// transports).
    fn flush(&self) -> Result<(), NetError>;
}

impl<T: Transport + ?Sized> Transport for &T {
    fn send(&self, envelope: Envelope) -> Result<(), NetError> {
        (**self).send(envelope)
    }

    fn try_receive(&self, receiver: PartyId) -> Result<Option<Envelope>, NetError> {
        (**self).try_receive(receiver)
    }

    fn flush(&self) -> Result<(), NetError> {
        (**self).flush()
    }
}

/// A [`Transport`] whose receivers can park until traffic arrives.
///
/// The sharded engine drives each shard's sessions from a worker thread;
/// when a whole scheduling round makes no progress the worker blocks here
/// instead of spinning. [`Network`] and the socket transports park on a
/// condvar; wrappers forward to the transport they wrap.
pub trait WaitTransport: Transport {
    /// Blocks until an envelope is queued for any of `receivers`, popping
    /// and returning the first one found (scanning `receivers` in order),
    /// or returns `None` once `timeout` elapses.
    fn receive_any_of(
        &self,
        receivers: &[PartyId],
        timeout: Duration,
    ) -> Result<Option<Envelope>, NetError>;
}

impl<T: WaitTransport + ?Sized> WaitTransport for &T {
    fn receive_any_of(
        &self,
        receivers: &[PartyId],
        timeout: Duration,
    ) -> Result<Option<Envelope>, NetError> {
        (**self).receive_any_of(receivers, timeout)
    }
}

// `Arc<T>` forwards both transport traits. This is the chaos hook the
// scenario matrix relies on: an engine can own `Arc<TcpTransport>` (or a
// wrapped `Arc<SimulatedWan<TcpTransport>>`) while a chaos thread holds a
// second clone of the same `Arc` and severs links / inspects stats mid-run.
impl<T: Transport + ?Sized> Transport for Arc<T> {
    fn send(&self, envelope: Envelope) -> Result<(), NetError> {
        (**self).send(envelope)
    }

    fn try_receive(&self, receiver: PartyId) -> Result<Option<Envelope>, NetError> {
        (**self).try_receive(receiver)
    }

    fn flush(&self) -> Result<(), NetError> {
        (**self).flush()
    }
}

impl<T: WaitTransport + ?Sized> WaitTransport for Arc<T> {
    fn receive_any_of(
        &self,
        receivers: &[PartyId],
        timeout: Duration,
    ) -> Result<Option<Envelope>, NetError> {
        (**self).receive_any_of(receivers, timeout)
    }
}

/// Handle to the in-memory mailbox network: one FIFO inbox per registered
/// party. Cheap to clone; all clones share state. Wrap it in
/// [`Instrumented`] to count its traffic or eavesdrop on it.
#[derive(Debug, Clone, Default)]
pub struct Network {
    queues: Arc<Mutex<HashMap<PartyId, VecDeque<Envelope>>>>,
    /// Signalled on every delivery so blocked receivers wake without
    /// polling.
    arrivals: Arc<Condvar>,
    /// Times a [`WaitTransport::receive_any_of`] caller parked on the
    /// arrivals condvar.
    wait_parks: Arc<std::sync::atomic::AtomicU64>,
    /// Parks that ended in a notification (vs timing out).
    wait_wakeups: Arc<std::sync::atomic::AtomicU64>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Creates a network with `holders` data-holder parties and the third
    /// party already registered.
    pub fn with_parties(holders: u32) -> Self {
        let net = Network::new();
        for i in 0..holders {
            net.register(PartyId::DataHolder(i)).expect("fresh network");
        }
        net.register(PartyId::ThirdParty).expect("fresh network");
        net
    }

    /// Registers a party, creating its inbox.
    pub fn register(&self, party: PartyId) -> Result<(), NetError> {
        let mut queues = self.queues.lock();
        if queues.contains_key(&party) {
            return Err(NetError::DuplicateParty(party));
        }
        queues.insert(party, VecDeque::new());
        Ok(())
    }

    /// Lists registered parties in stable order.
    pub fn parties(&self) -> Vec<PartyId> {
        let queues = self.queues.lock();
        let mut parties: Vec<PartyId> = queues.keys().copied().collect();
        parties.sort();
        parties
    }

    /// Queues an envelope in its receiver's inbox and wakes every parked
    /// receiver. Both parties must be registered.
    pub fn send(&self, envelope: Envelope) -> Result<(), NetError> {
        let mut queues = self.queues.lock();
        if !queues.contains_key(&envelope.from) {
            return Err(NetError::UnknownParty(envelope.from));
        }
        if !queues.contains_key(&envelope.to) {
            return Err(NetError::UnknownParty(envelope.to));
        }
        queues
            .get_mut(&envelope.to)
            .expect("checked above")
            .push_back(envelope);
        drop(queues);
        // Wake every party blocked in a condvar receive; each re-checks its
        // own queue under the lock.
        self.arrivals.notify_all();
        Ok(())
    }
}

impl crate::metrics::WaitStatsReporter for Network {
    fn wait_stats(&self) -> Option<crate::metrics::WaitStats> {
        use std::sync::atomic::Ordering;
        Some(crate::metrics::WaitStats {
            blocking_waits: self.wait_parks.load(Ordering::Relaxed),
            wakeups: self.wait_wakeups.load(Ordering::Relaxed),
        })
    }
}

impl Transport for Network {
    fn send(&self, envelope: Envelope) -> Result<(), NetError> {
        Network::send(self, envelope)
    }

    fn try_receive(&self, receiver: PartyId) -> Result<Option<Envelope>, NetError> {
        let mut queues = self.queues.lock();
        match queues.get_mut(&receiver) {
            Some(queue) => Ok(queue.pop_front()),
            None => Err(NetError::UnknownParty(receiver)),
        }
    }

    fn flush(&self) -> Result<(), NetError> {
        Ok(())
    }
}

impl WaitTransport for Network {
    /// Parks on the network's arrival condvar — no polling.
    fn receive_any_of(
        &self,
        receivers: &[PartyId],
        timeout: Duration,
    ) -> Result<Option<Envelope>, NetError> {
        let deadline = Instant::now() + timeout;
        let mut queues = self.queues.lock();
        loop {
            for &receiver in receivers {
                let queue = queues
                    .get_mut(&receiver)
                    .ok_or(NetError::UnknownParty(receiver))?;
                if let Some(envelope) = queue.pop_front() {
                    return Ok(Some(envelope));
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            self.wait_parks
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let (guard, result) = self.arrivals.wait_timeout(queues, deadline - now);
            if !result.timed_out() {
                self.wait_wakeups
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            queues = guard;
        }
    }
}

#[derive(Debug, Default)]
struct InstrumentState {
    report: CommReport,
    eavesdropper: Eavesdropper,
    security: HashMap<(PartyId, PartyId), ChannelSecurity>,
    /// When present, envelopes on [`ChannelSecurity::Secured`] links are
    /// captured as their sealed wire image (ciphertext), modelling what a
    /// listener on an AEAD-protected socket actually observes.
    sealer: Option<crate::secure::ChannelSealer>,
}

/// Metrics and eavesdropping as a layer over *any* [`Transport`].
///
/// Every transport gets byte counting, per-link security settings and
/// plaintext capture by wrapping it in `Instrumented` — the hooks live on
/// the trait seam, not inside any one struct. Only envelopes the inner
/// transport accepts are counted and captured.
#[derive(Debug, Clone, Default)]
pub struct Instrumented<T> {
    inner: T,
    state: Arc<Mutex<InstrumentState>>,
}

impl<T: Transport> Instrumented<T> {
    /// Wraps `inner`, counting and (on plaintext links) capturing every
    /// envelope that passes through.
    pub fn new(inner: T) -> Self {
        Instrumented {
            inner,
            state: Arc::default(),
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Sets the security of the undirected channel between `a` and `b`.
    ///
    /// Channels default to [`ChannelSecurity::Secured`]; the privacy
    /// experiments flip individual links to plaintext to reproduce the
    /// paper's eavesdropping discussion. `Plaintext` links expose the full
    /// cleartext envelope to the eavesdropper, `Secured` links expose
    /// ciphertext only (the sealed wire image, when sealing keys are
    /// installed via [`set_sealing_keys`](Self::set_sealing_keys)) or
    /// nothing (sizes are still counted in the [`report`](Self::report)).
    /// Over the in-memory network the flag is a modelling switch; on the
    /// socket tier the same contract is enforced cryptographically
    /// ([`SocketTransport::set_security`](crate::socket::SocketTransport::set_security)
    /// seals every frame).
    pub fn set_channel_security(&self, a: PartyId, b: PartyId, security: ChannelSecurity) {
        let mut state = self.state.lock();
        state.security.insert((a, b), security);
        state.security.insert((b, a), security);
    }

    /// Installs the federation keyring so the eavesdropper observes the
    /// *sealed wire image* of traffic on `Secured` links — exactly what a
    /// listener on an AEAD-protected socket sees. Combine with
    /// [`Eavesdropper::find_plaintext_leak`](crate::eavesdrop::Eavesdropper::find_plaintext_leak)
    /// to assert that no protocol plaintext escapes a secured channel.
    pub fn set_sealing_keys(&self, keyring: crate::secure::ChannelKeyring) {
        use std::sync::atomic::{AtomicU32, Ordering};
        // Each observer is its own "sender incarnation" for nonce purposes.
        static OBSERVER_SALT: AtomicU32 = AtomicU32::new(0xEA00_0000);
        let salt = OBSERVER_SALT.fetch_add(1, Ordering::Relaxed);
        self.state.lock().sealer = Some(crate::secure::ChannelSealer::new(keyring, salt));
    }

    /// Snapshot of the communication counters.
    pub fn report(&self) -> CommReport {
        self.state.lock().report.clone()
    }

    /// Resets the communication counters.
    pub fn reset_report(&self) {
        self.state.lock().report = CommReport::default();
    }

    /// Envelopes captured on plaintext channels so far.
    pub fn eavesdropped(&self) -> Vec<Envelope> {
        self.state.lock().eavesdropper.captured().to_vec()
    }

    /// The explicit plaintext-leak check over everything captured so far
    /// (see [`Eavesdropper::find_plaintext_leak`]): returns a description
    /// of the first capture that exposes cleartext or contains one of the
    /// `needles`, or `None` when the eavesdropper saw ciphertext only.
    pub fn find_plaintext_leak(&self, needles: &[&[u8]]) -> Option<String> {
        self.state.lock().eavesdropper.find_plaintext_leak(needles)
    }
}

impl<T: crate::metrics::WaitStatsReporter> crate::metrics::WaitStatsReporter for Instrumented<T> {
    fn wait_stats(&self) -> Option<crate::metrics::WaitStats> {
        self.inner.wait_stats()
    }
}

impl<T: Transport> Transport for Instrumented<T> {
    fn send(&self, envelope: Envelope) -> Result<(), NetError> {
        let link = (envelope.from, envelope.to);
        let size = envelope.wire_size() as u64;
        let capture = {
            let state = self.state.lock();
            match state.security.get(&link).copied().unwrap_or_default() {
                ChannelSecurity::Plaintext => Some(envelope.clone()),
                ChannelSecurity::Secured => state.sealer.as_ref().map(|s| s.seal(&envelope)),
            }
        };
        // Count and capture only what the inner transport accepted.
        self.inner.send(envelope)?;
        let mut state = self.state.lock();
        state.report.links.entry(link).or_default().record(size);
        if let Some(capture) = capture {
            state.eavesdropper.capture(capture);
        }
        Ok(())
    }

    fn try_receive(&self, receiver: PartyId) -> Result<Option<Envelope>, NetError> {
        self.inner.try_receive(receiver)
    }

    fn flush(&self) -> Result<(), NetError> {
        self.inner.flush()
    }
}

impl<T: WaitTransport> WaitTransport for Instrumented<T> {
    fn receive_any_of(
        &self,
        receivers: &[PartyId],
        timeout: Duration,
    ) -> Result<Option<Envelope>, NetError> {
        self.inner.receive_any_of(receivers, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An envelope from `DH0` to `to` under `topic`.
    fn from_dh0(to: PartyId, topic: &str, payload: Vec<u8>) -> Envelope {
        Envelope::new(PartyId::DataHolder(0), to, topic, payload)
    }

    #[test]
    fn registration_and_duplicate_detection() {
        let net = Network::new();
        net.register(PartyId::DataHolder(0)).unwrap();
        assert_eq!(
            net.register(PartyId::DataHolder(0)),
            Err(NetError::DuplicateParty(PartyId::DataHolder(0)))
        );
        assert_eq!(net.parties(), vec![PartyId::DataHolder(0)]);
    }

    #[test]
    fn with_parties_registers_holders_and_tp() {
        let net = Network::with_parties(3);
        assert_eq!(
            net.parties(),
            vec![
                PartyId::DataHolder(0),
                PartyId::DataHolder(1),
                PartyId::DataHolder(2),
                PartyId::ThirdParty
            ]
        );
    }

    #[test]
    fn sending_to_unknown_party_fails() {
        let net = Network::with_parties(1);
        assert_eq!(
            net.send(from_dh0(PartyId::DataHolder(5), "x", vec![])),
            Err(NetError::UnknownParty(PartyId::DataHolder(5)))
        );
    }

    #[test]
    fn report_accumulates_and_resets() {
        let net = Instrumented::new(Network::with_parties(2));
        net.send(from_dh0(PartyId::ThirdParty, "local-matrix", vec![0; 64]))
            .unwrap();
        net.send(from_dh0(PartyId::DataHolder(1), "masked", vec![0; 32]))
            .unwrap();
        let report = net.report();
        assert_eq!(report.total_messages(), 2);
        // Each envelope counts its payload, its topic and 18 bytes of
        // parties and length prefixes.
        assert_eq!(
            report.bytes_sent_by(PartyId::DataHolder(0)),
            (18 + 12 + 64) + (18 + 6 + 32)
        );
        assert_eq!(report.bytes_sent_by(PartyId::DataHolder(1)), 0);
        net.reset_report();
        assert_eq!(net.report().total_messages(), 0);
        // Queues are preserved across a report reset: exactly one envelope
        // stays queued for the third party.
        assert_eq!(
            net.try_receive(PartyId::ThirdParty).unwrap().unwrap().topic,
            "local-matrix"
        );
        assert_eq!(net.try_receive(PartyId::ThirdParty).unwrap(), None);
    }

    /// Links default to secured: only an envelope sent after its link
    /// was flipped to plaintext (in either direction) is captured.
    #[test]
    fn eavesdropper_only_sees_plaintext_links() {
        let net = Instrumented::new(Network::with_parties(2));
        net.send(from_dh0(PartyId::DataHolder(1), "secret", vec![9; 8]))
            .unwrap();
        assert!(net.eavesdropped().is_empty());
        net.set_channel_security(
            PartyId::DataHolder(1),
            PartyId::DataHolder(0),
            ChannelSecurity::Plaintext,
        );
        net.send(from_dh0(PartyId::DataHolder(1), "secret", vec![9; 8]))
            .unwrap();
        let captured = net.eavesdropped();
        assert_eq!(captured.len(), 1);
        assert_eq!(captured[0].topic, "secret");
        assert_eq!(captured[0].payload, vec![9; 8]);
    }

    /// A send the inner transport refuses is neither counted nor
    /// captured.
    #[test]
    fn instrumented_counts_only_accepted_sends() {
        let net = Instrumented::new(Network::with_parties(1));
        net.set_channel_security(
            PartyId::DataHolder(0),
            PartyId::DataHolder(5),
            ChannelSecurity::Plaintext,
        );
        assert_eq!(
            net.send(from_dh0(PartyId::DataHolder(5), "x", vec![1])),
            Err(NetError::UnknownParty(PartyId::DataHolder(5)))
        );
        assert_eq!(net.report().total_messages(), 0);
        assert!(net.eavesdropped().is_empty());
    }

    /// A receiver parked in `receive_any_of` wakes on the arrivals
    /// condvar when an envelope is delivered, and the wait stats count
    /// the park and its wakeup.
    #[test]
    fn receive_any_of_wakes_on_arrival_without_polling() {
        use crate::metrics::WaitStatsReporter;

        let net = Network::with_parties(2);
        let receiver = net.clone();
        let waiter = std::thread::spawn(move || {
            receiver
                .receive_any_of(
                    &[PartyId::ThirdParty, PartyId::DataHolder(1)],
                    Duration::from_secs(5),
                )
                .unwrap()
        });
        // Deliver only once the waiter is parked on the condvar.
        while net.wait_stats().unwrap().blocking_waits == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        net.send(from_dh0(PartyId::DataHolder(1), "late", vec![7]))
            .unwrap();
        let envelope = waiter
            .join()
            .unwrap()
            .expect("the delivery wakes the waiter");
        assert_eq!(envelope.payload, vec![7]);
        let stats = net.wait_stats().unwrap();
        assert!(stats.wakeups >= 1, "{stats:?}");
        assert!(stats.wakeups <= stats.blocking_waits, "{stats:?}");
    }

    /// With nothing queued, `receive_any_of` parks until its timeout and
    /// returns `None`; its last park is counted as a timeout, not a
    /// wakeup. An unregistered receiver is an error, not a wait.
    #[test]
    fn receive_any_of_times_out_cleanly() {
        use crate::metrics::WaitStatsReporter;

        let net = Network::with_parties(2);
        let started = Instant::now();
        let received = net
            .receive_any_of(&[PartyId::DataHolder(1)], Duration::from_millis(10))
            .unwrap();
        assert!(received.is_none());
        assert!(started.elapsed() >= Duration::from_millis(10));
        let stats = net.wait_stats().unwrap();
        assert!(stats.blocking_waits >= 1, "{stats:?}");
        assert!(stats.wakeups < stats.blocking_waits, "{stats:?}");
        assert_eq!(
            net.receive_any_of(&[PartyId::DataHolder(9)], Duration::from_millis(10)),
            Err(NetError::UnknownParty(PartyId::DataHolder(9)))
        );
    }

    #[test]
    fn transport_trait_surface_matches_mailbox_behaviour() {
        let net = Network::with_parties(2);
        let transport: &dyn Transport = &net;
        assert!(transport
            .try_receive(PartyId::DataHolder(1))
            .unwrap()
            .is_none());
        transport
            .send(Envelope::new(
                PartyId::DataHolder(0),
                PartyId::DataHolder(1),
                "t",
                vec![1, 2],
            ))
            .unwrap();
        let received = transport.try_receive(PartyId::DataHolder(1)).unwrap();
        assert_eq!(received.unwrap().payload, vec![1, 2]);
        assert!(transport.try_receive(PartyId::DataHolder(9)).is_err());
        assert!(transport.flush().is_ok());
    }

    #[test]
    fn instrumented_counts_and_eavesdrops_over_any_transport() {
        let net = Network::with_parties(2);
        let instrumented = Instrumented::new(net.clone());
        instrumented
            .send(Envelope::new(
                PartyId::DataHolder(0),
                PartyId::ThirdParty,
                "secured",
                vec![0; 16],
            ))
            .unwrap();
        assert!(instrumented.eavesdropped().is_empty());
        instrumented.set_channel_security(
            PartyId::DataHolder(0),
            PartyId::ThirdParty,
            ChannelSecurity::Plaintext,
        );
        instrumented
            .send(Envelope::new(
                PartyId::DataHolder(0),
                PartyId::ThirdParty,
                "open",
                vec![0; 8],
            ))
            .unwrap();
        let report = instrumented.report();
        assert_eq!(report.total_messages(), 2);
        assert_eq!(
            report.bytes_on_link(PartyId::DataHolder(0), PartyId::ThirdParty),
            (18 + 7 + 16) + (18 + 4 + 8)
        );
        let captured = instrumented.eavesdropped();
        assert_eq!(captured.len(), 1);
        assert_eq!(captured[0].topic, "open");
        instrumented.reset_report();
        assert_eq!(instrumented.report().total_messages(), 0);
        // Both messages went through to the wrapped network, in order.
        assert_eq!(
            net.try_receive(PartyId::ThirdParty).unwrap().unwrap().topic,
            "secured"
        );
        assert_eq!(
            instrumented
                .try_receive(PartyId::ThirdParty)
                .unwrap()
                .unwrap()
                .topic,
            "open"
        );
    }

    /// The satellite contract: with sealing keys installed, an
    /// eavesdropper on a `Secured` link observes the ciphertext wire
    /// image only — the plaintext-leak helper finds nothing — while a
    /// `Plaintext` link leaks the full envelope.
    #[test]
    fn instrumented_secured_links_expose_ciphertext_only() {
        use crate::secure::{ChannelKeyring, SEALED_TOPIC};
        use ppc_crypto::Seed;

        let net = Network::with_parties(2);
        let instrumented = Instrumented::new(net);
        instrumented.set_sealing_keys(ChannelKeyring::from_master(&Seed::from_u64(7)));
        let needles: &[&[u8]] = &[b"numeric/age", b"secret-payload"];

        // Default (Secured) link: the capture is the sealed wire image.
        instrumented
            .send(Envelope::new(
                PartyId::DataHolder(0),
                PartyId::ThirdParty,
                "numeric/age/0-1/masked",
                b"secret-payload".to_vec(),
            ))
            .unwrap();
        let captured = instrumented.eavesdropped();
        assert_eq!(captured.len(), 1);
        assert_eq!(captured[0].topic, SEALED_TOPIC);
        assert_eq!(instrumented.find_plaintext_leak(needles), None);

        // Flip the link to plaintext: now the leak is found and named.
        instrumented.set_channel_security(
            PartyId::DataHolder(0),
            PartyId::ThirdParty,
            ChannelSecurity::Plaintext,
        );
        instrumented
            .send(Envelope::new(
                PartyId::DataHolder(0),
                PartyId::ThirdParty,
                "numeric/age/0-1/masked",
                b"secret-payload".to_vec(),
            ))
            .unwrap();
        let leak = instrumented
            .find_plaintext_leak(needles)
            .expect("a plaintext link leaks");
        assert!(leak.contains("cleartext"), "{leak}");
    }

    #[test]
    fn receive_any_pops_in_fifo_order() {
        let net = Network::with_parties(2);
        net.send(from_dh0(PartyId::ThirdParty, "first", vec![]))
            .unwrap();
        net.send(from_dh0(PartyId::ThirdParty, "second", vec![]))
            .unwrap();
        let pop = || net.try_receive(PartyId::ThirdParty).unwrap();
        assert_eq!(pop().unwrap().topic, "first");
        assert_eq!(pop().unwrap().topic, "second");
        assert_eq!(pop(), None);
    }
}
