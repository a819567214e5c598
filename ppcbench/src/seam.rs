//! The benchmark's view of the transport seam: a decorator over any
//! [`WaitTransport`] that counts what crosses it and, on traced windows,
//! times each call. It is the only place the benchmark observes the wire
//! of the in-process workloads, so the per-layer numbers are measured from
//! outside the program, at the public trait every engine drives.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ppc_core::protocol::topic::{AlphaKind, Step, Topic};
use ppc_net::{Envelope, NetError, PartyId, Transport, WaitTransport};

/// The per-layer metric each topic kind's bytes are reported under,
/// indexed by kind.
pub const WIRE_METRICS: [&str; 7] = [
    "wire.bytes_per_session.local",
    "wire.bytes_per_session.numeric",
    "wire.bytes_per_session.categorical",
    "wire.bytes_per_session.alpha_masked",
    "wire.bytes_per_session.ccm",
    "wire.bytes_per_session.result",
    "wire.bytes_per_session.ctl",
];

/// The [`WIRE_METRICS`] index of a topic's kind, or `None` outside the
/// topic grammar.
fn kind_of(topic: &str) -> Option<usize> {
    Some(match Topic::parse(topic).ok()? {
        Topic::Control { .. } => 6,
        Topic::Session { step, .. } => match step {
            Step::Local { .. } => 0,
            Step::Numeric { .. } => 1,
            Step::Categorical { .. } => 2,
            Step::Alphanumeric {
                kind: AlphaKind::Masked,
                ..
            } => 3,
            Step::Alphanumeric { .. } => 4,
            Step::ClusteringChoice | Step::PublishedResult => 5,
        },
    })
}

/// Counters one measurement window's jobs feed. Statistics only: every
/// update is `Relaxed` and publishes no other data.
#[derive(Debug, Default)]
pub struct Probe {
    traced: bool,
    envelopes: AtomicU64,
    bytes: AtomicU64,
    kind_bytes: [AtomicU64; WIRE_METRICS.len()],
    send_ns: AtomicU64,
    flush_ns: AtomicU64,
    try_receive_ns: AtomicU64,
    park_ns: AtomicU64,
    parks: AtomicU64,
    capture: Mutex<Option<Vec<Envelope>>>,
}

/// A snapshot of a [`Probe`].
#[derive(Debug, Clone, Default)]
pub struct SeamCounts {
    /// Envelopes sent.
    pub envelopes: u64,
    /// Σ `Envelope::wire_size()` of those envelopes.
    pub bytes: u64,
    /// The same bytes split by topic kind (traced windows only).
    pub kind_bytes: [u64; WIRE_METRICS.len()],
    /// Wall time inside `send`, `flush`, `try_receive` and parked in
    /// `receive_any_of` (traced windows only).
    pub send: Duration,
    /// See [`send`](Self::send).
    pub flush: Duration,
    /// See [`send`](Self::send).
    pub try_receive: Duration,
    /// See [`send`](Self::send).
    pub park: Duration,
    /// Calls to `receive_any_of`.
    pub parks: u64,
}

impl Probe {
    /// A probe that only counts envelopes and bytes (no clocks).
    pub fn counting() -> Self {
        Probe::default()
    }

    /// A probe that also times every call and splits bytes by topic kind.
    pub fn traced() -> Self {
        Probe {
            traced: true,
            ..Probe::default()
        }
    }

    /// Starts keeping a copy of every envelope sent, for the replays.
    pub fn start_capture(&self) {
        *self.capture.lock().expect("capture lock poisoned") = Some(Vec::new());
    }

    /// Stops capturing and returns the envelopes sent since
    /// [`start_capture`](Self::start_capture), in send order.
    pub fn take_capture(&self) -> Vec<Envelope> {
        self.capture
            .lock()
            .expect("capture lock poisoned")
            .take()
            .unwrap_or_default()
    }

    /// The counters so far.
    pub fn counts(&self) -> SeamCounts {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let nanos = |a: &AtomicU64| Duration::from_nanos(load(a));
        SeamCounts {
            envelopes: load(&self.envelopes),
            bytes: load(&self.bytes),
            kind_bytes: std::array::from_fn(|i| load(&self.kind_bytes[i])),
            send: nanos(&self.send_ns),
            flush: nanos(&self.flush_ns),
            try_receive: nanos(&self.try_receive_ns),
            park: nanos(&self.park_ns),
            parks: load(&self.parks),
        }
    }

    fn timed<R>(&self, slot: &AtomicU64, call: impl FnOnce() -> R) -> R {
        if !self.traced {
            return call();
        }
        let started = Instant::now();
        let result = call();
        slot.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }
}

/// A transport decorated with a [`Probe`]. Engines own their transports,
/// so each job wraps a borrowed transport in a fresh `Seam`.
#[derive(Debug)]
pub struct Seam<'a, T> {
    inner: &'a T,
    probe: &'a Probe,
}

impl<'a, T> Seam<'a, T> {
    /// Decorates `inner`, feeding `probe`.
    pub fn new(inner: &'a T, probe: &'a Probe) -> Self {
        Seam { inner, probe }
    }
}

impl<T: Transport> Transport for Seam<'_, T> {
    fn send(&self, envelope: Envelope) -> Result<(), NetError> {
        let probe = self.probe;
        let size = envelope.wire_size() as u64;
        probe.envelopes.fetch_add(1, Ordering::Relaxed);
        probe.bytes.fetch_add(size, Ordering::Relaxed);
        if probe.traced {
            if let Some(kind) = kind_of(&envelope.topic) {
                probe.kind_bytes[kind].fetch_add(size, Ordering::Relaxed);
            }
            if let Some(captured) = probe
                .capture
                .lock()
                .expect("capture lock poisoned")
                .as_mut()
            {
                captured.push(envelope.clone());
            }
        }
        probe.timed(&probe.send_ns, || self.inner.send(envelope))
    }

    fn try_receive(&self, receiver: PartyId) -> Result<Option<Envelope>, NetError> {
        self.probe.timed(&self.probe.try_receive_ns, || {
            self.inner.try_receive(receiver)
        })
    }

    fn flush(&self) -> Result<(), NetError> {
        self.probe
            .timed(&self.probe.flush_ns, || self.inner.flush())
    }
}

impl<T: WaitTransport> WaitTransport for Seam<'_, T> {
    fn receive_any_of(
        &self,
        receivers: &[PartyId],
        timeout: Duration,
    ) -> Result<Option<Envelope>, NetError> {
        self.probe.parks.fetch_add(1, Ordering::Relaxed);
        self.probe.timed(&self.probe.park_ns, || {
            self.inner.receive_any_of(receivers, timeout)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topic_kinds_follow_the_grammar() {
        assert_eq!(kind_of("s3/local/age/1"), Some(0));
        assert_eq!(kind_of("numeric/age/0-1/pairwise-chunk"), Some(1));
        assert_eq!(kind_of("s0/categorical/blood"), Some(2));
        assert_eq!(kind_of("s1/alphanumeric/dna/0-2/masked"), Some(3));
        assert_eq!(kind_of("s1/alphanumeric/dna/0-2/ccms-chunk"), Some(4));
        assert_eq!(kind_of("s1/published-result"), Some(5));
        assert_eq!(kind_of("ctl/announce"), Some(6));
        assert_eq!(kind_of("not a topic"), None);
    }
}
