//! The socket tier's frame delivery path: how decoded envelopes travel
//! from a link's read driver to the `receive_*` callers.
//!
//! Each hosted party owns one slot: a mutex guarding its envelope queue,
//! its sticky failure and the wake tokens of the threads waiting on it.
//! A `receive_any_of` caller is signalled only by traffic (or failures)
//! for parties it watches, a failure reaches only the parties it
//! concerns, and a read driver queues a whole decoded chunk before
//! signalling each touched party once. Envelopes addressed to parties
//! this endpoint does not host are dropped: nothing could ever receive
//! them.
//!
//! Queueing is local, not protocol: every envelope is delivered exactly
//! once and in per-sender order, the wire is untouched, and results are
//! identical to the in-process oracle (see ARCHITECTURE.md, invariant 15).
//!
//! The module also owns the `BufferPool` that recycles the delivery
//! path's scratch allocations (frame bodies, unsealed plaintext), so the
//! steady-state path performs no per-frame heap allocation of its own.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::error::NetError;
use crate::message::Envelope;
use crate::metrics::DeliveryStats;
use crate::party::PartyId;

/// The delivery strategy a socket transport queues inbound frames with.
/// There is one: per-party slots (the inbox is sharded by party).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeliveryMode {
    /// Per-party queues, wake tokens and failure slots.
    #[default]
    Sharded,
}

impl DeliveryMode {
    /// Stable label used in bench provenance.
    pub const fn as_str(&self) -> &'static str {
        match self {
            DeliveryMode::Sharded => "sharded",
        }
    }
}

/// Byte buffers larger than this are dropped instead of pooled, so one
/// giant chunked-matrix frame cannot pin its footprint forever.
const MAX_POOLED_CAPACITY: usize = 1 << 20;

/// Upper bound on buffers retained by one pool.
const MAX_POOLED_BUFFERS: usize = 128;

/// A recycling pool of `Vec<u8>` scratch buffers for the delivery path
/// (unsealed plaintext while splitting a coalesced record, payloads of
/// plaintext frames copied out of the decoder).
///
/// Deliberately forgiving: `take` on an empty pool allocates (counted as
/// a miss), `put` of an over-large buffer drops it. Buffers are cleared,
/// not zeroed, on reuse — the pool never leaves the process.
#[derive(Debug, Default)]
pub(crate) struct BufferPool(Mutex<PoolState>);

#[derive(Debug, Default)]
struct PoolState {
    buffers: Vec<Vec<u8>>,
    hits: u64,
    misses: u64,
}

impl BufferPool {
    /// Takes a cleared buffer from the pool, or allocates an empty one
    /// (a pool miss) when none is available.
    pub(crate) fn take(&self) -> Vec<u8> {
        let mut pool = self.0.lock();
        match pool.buffers.pop() {
            Some(mut buf) => {
                pool.hits += 1;
                buf.clear();
                buf
            }
            None => {
                pool.misses += 1;
                Vec::new()
            }
        }
    }

    /// Returns a buffer to the pool. Buffers with no capacity teach the
    /// pool nothing and over-large or surplus buffers would pin memory,
    /// so those are dropped instead.
    pub(crate) fn put(&self, buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > MAX_POOLED_CAPACITY {
            return;
        }
        let mut pool = self.0.lock();
        if pool.buffers.len() < MAX_POOLED_BUFFERS {
            pool.buffers.push(buf);
        }
    }

    /// `(hits, misses)` of [`take`](Self::take) over the pool's lifetime.
    /// The steady-state delivery path should converge on hits only.
    pub(crate) fn stats(&self) -> (u64, u64) {
        let pool = self.0.lock();
        (pool.hits, pool.misses)
    }
}

/// A fatal error recorded by one link's read driver, tagged with that
/// driver's retirement token so a re-dial can clear exactly its own
/// link's error and never erase another link's.
#[derive(Debug)]
struct LinkFailure {
    token: Arc<AtomicBool>,
    error: NetError,
}

/// Which parties a recorded failure concerns.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FailureScope {
    /// A frame-scoped failure (e.g. an unseal [`NetError::AuthFailure`])
    /// addressed to one party: only that party's receives should see it.
    Party(PartyId),
    /// A link-level failure (stream corruption, fatal I/O): every party
    /// this endpoint hosts could be starved by the dead link, so all of
    /// them see it.
    Link,
}

/// One waiting thread's parking spot. A waiter registers its token with
/// every slot it watches; producers set `signaled` and notify.
#[derive(Default)]
struct WakeToken {
    signaled: Mutex<bool>,
    cv: Condvar,
}

impl WakeToken {
    fn reset(&self) {
        *self.signaled.lock() = false;
    }

    /// Sets the flag and notifies; a token already signalled needs no
    /// second notify, since its waiter checks the flag before parking.
    fn signal(&self) {
        let mut signaled = self.signaled.lock();
        if !*signaled {
            *signaled = true;
            drop(signaled);
            self.cv.notify_one();
        }
    }

    /// Parks until signalled or `deadline`; true when signalled.
    fn wait_until(&self, deadline: Instant) -> bool {
        let mut signaled = self.signaled.lock();
        loop {
            if *signaled {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self.cv.wait_timeout(signaled, deadline - now);
            signaled = guard;
        }
    }
}

thread_local! {
    /// Each thread re-uses one wake token across its `receive_any_of`
    /// calls (a thread waits in at most one receive at a time), so the
    /// wait path allocates nothing after the first call.
    static WAKE_TOKEN: Arc<WakeToken> = Arc::new(WakeToken::default());
}

/// One party's delivery slot, all behind the slot's one lock.
#[derive(Default)]
struct PartySlot {
    queue: VecDeque<Envelope>,
    /// First fatal failure concerning this party. Sticky: surfaced by
    /// clone (never consumed), so every poller of this party observes it
    /// until a resumed link clears it by token.
    failed: Option<LinkFailure>,
    /// Tokens of the threads currently waiting on this party.
    waiters: Vec<Arc<WakeToken>>,
}

impl PartySlot {
    /// Signals every registered waiter (they rescan and re-park if the
    /// traffic was not for them — spurious signals are harmless, lost
    /// ones are not). Returns the number of tokens signalled.
    fn signal_waiters(&self) -> u64 {
        for token in &self.waiters {
            token.signal();
        }
        self.waiters.len() as u64
    }
}

/// The delivery seam both read drivers and both receive paths go
/// through: one [`PartySlot`] per hosted party (the map is fixed at
/// construction, so finding a slot takes no lock), the wake counters and
/// the scratch [`BufferPool`].
///
/// # Wake protocol
///
/// A producer pushes into a slot and signals that slot's registered
/// waiters, each under the slot's lock. A waiter registers its token on
/// every slot it watches, under each slot's lock, *before* its last
/// rescan, then parks on the token. A push the rescan missed therefore
/// took the slot's lock after the registration did, so its signal finds
/// the token. A signal that lands before the park makes the park return
/// at once, since the token keeps its flag until the waiter resets it.
/// Stale signals from an earlier wait cost one spurious rescan.
pub(crate) struct Inbox {
    slots: HashMap<PartyId, Mutex<PartySlot>>,
    /// Scratch buffers for the decode/unseal hot path.
    pub(crate) pool: BufferPool,
    /// `wake` calls that had at least one touched party (one per
    /// delivered read chunk — the batching the protocol exists for).
    batched_wakes: AtomicU64,
    /// Individual wake tokens signalled.
    wake_signals: AtomicU64,
}

impl Inbox {
    pub(crate) fn new(locals: &BTreeSet<PartyId>) -> Self {
        Inbox {
            slots: locals
                .iter()
                .map(|&p| (p, Mutex::new(PartySlot::default())))
                .collect(),
            pool: BufferPool::default(),
            batched_wakes: AtomicU64::new(0),
            wake_signals: AtomicU64::new(0),
        }
    }

    fn slot(&self, party: PartyId) -> Result<&Mutex<PartySlot>, NetError> {
        self.slots.get(&party).ok_or(NetError::UnknownParty(party))
    }

    fn count_signals(&self, signalled: u64) {
        if signalled > 0 {
            self.wake_signals.fetch_add(signalled, Ordering::Relaxed);
        }
    }

    /// Queues a decoded batch **without waking anyone**, recording each
    /// envelope's receiver in `touched` for the later [`wake`](Self::wake).
    /// Envelopes for parties this endpoint does not host are dropped.
    /// Drains `envelopes` in place so the caller's vec is reusable.
    pub(crate) fn push_all(&self, envelopes: &mut Vec<Envelope>, touched: &mut Vec<PartyId>) {
        for envelope in envelopes.drain(..) {
            if let Some(slot) = self.slots.get(&envelope.to) {
                touched.push(envelope.to);
                slot.lock().queue.push_back(envelope);
            }
        }
    }

    /// Signals the waiters of every party in `touched` once (the batched
    /// wake: one read chunk, one signal per touched party), then clears
    /// `touched`.
    pub(crate) fn wake(&self, touched: &mut Vec<PartyId>) {
        if touched.is_empty() {
            return;
        }
        touched.sort_unstable();
        touched.dedup();
        self.batched_wakes.fetch_add(1, Ordering::Relaxed);
        let signalled = touched
            .iter()
            .filter_map(|party| self.slots.get(party))
            .map(|slot| slot.lock().signal_waiters())
            .sum();
        self.count_signals(signalled);
        touched.clear();
    }

    /// Queues one envelope for a hosted party and wakes its receiver
    /// immediately (the local-send path, which has no batch boundary to
    /// defer to).
    pub(crate) fn deliver_now(&self, envelope: Envelope) -> Result<(), NetError> {
        let mut slot = self.slot(envelope.to)?.lock();
        slot.queue.push_back(envelope);
        let signalled = slot.signal_waiters();
        drop(slot);
        self.count_signals(signalled);
        Ok(())
    }

    /// Non-blocking pop for `receiver`: queued envelopes first, then any
    /// sticky failure concerning the receiver (cloned, never consumed —
    /// it persists until a resumed link clears it), then `None`.
    pub(crate) fn try_pop(&self, receiver: PartyId) -> Result<Option<Envelope>, NetError> {
        self.scan(&[receiver])
    }

    /// One sweep over `receivers`: the first queued envelope in receiver
    /// order, else the first recorded failure, else `None`. Queued
    /// traffic always drains before a failure surfaces.
    fn scan(&self, receivers: &[PartyId]) -> Result<Option<Envelope>, NetError> {
        let mut failure = None;
        for &receiver in receivers {
            let mut slot = self.slot(receiver)?.lock();
            if let Some(envelope) = slot.queue.pop_front() {
                return Ok(Some(envelope));
            }
            if failure.is_none() {
                failure = slot.failed.as_ref().map(|f| f.error.clone());
            }
        }
        failure.map_or(Ok(None), Err)
    }

    /// Blocks until an envelope for any of `receivers` arrives, a
    /// failure concerning one of them surfaces, or `timeout` elapses.
    /// `parks`/`wakeups` are the transport's wait counters.
    pub(crate) fn receive_any_of(
        &self,
        receivers: &[PartyId],
        timeout: Duration,
        parks: &AtomicU64,
        wakeups: &AtomicU64,
    ) -> Result<Option<Envelope>, NetError> {
        let deadline = Instant::now() + timeout;
        if let Some(&unknown) = receivers.iter().find(|r| !self.slots.contains_key(r)) {
            return Err(NetError::UnknownParty(unknown));
        }
        // Fast path: under steady flow something is almost always
        // queued, so most calls return here without touching the token.
        let first = self.scan(receivers);
        if !matches!(first, Ok(None)) || Instant::now() >= deadline {
            return first;
        }
        WAKE_TOKEN.with(|token| {
            token.reset();
            for &receiver in receivers {
                self.slots[&receiver].lock().waiters.push(Arc::clone(token));
            }
            let outcome = loop {
                // Registered before this rescan (see the wake protocol).
                let scanned = self.scan(receivers);
                if !matches!(scanned, Ok(None)) || Instant::now() >= deadline {
                    break scanned;
                }
                parks.fetch_add(1, Ordering::Relaxed);
                if token.wait_until(deadline) {
                    wakeups.fetch_add(1, Ordering::Relaxed);
                    token.reset();
                }
            };
            for &receiver in receivers {
                let mut slot = self.slots[&receiver].lock();
                if let Some(pos) = slot.waiters.iter().position(|t| Arc::ptr_eq(t, token)) {
                    slot.waiters.swap_remove(pos);
                }
            }
            outcome
        })
    }

    /// Records a fatal failure and wakes affected waiters. Per party the
    /// first failure wins. A failure scoped to a party this endpoint does
    /// not host concerns no receiver and is dropped.
    pub(crate) fn fail(&self, scope: FailureScope, error: NetError, token: &Arc<AtomicBool>) {
        let record = |slot: &Mutex<PartySlot>| {
            let mut slot = slot.lock();
            if slot.failed.is_none() {
                slot.failed = Some(LinkFailure {
                    token: Arc::clone(token),
                    error: error.clone(),
                });
            }
            slot.signal_waiters()
        };
        let signalled = match scope {
            FailureScope::Party(party) => self.slots.get(&party).map_or(0, record),
            FailureScope::Link => self.slots.values().map(record).sum(),
        };
        self.count_signals(signalled);
    }

    /// Clears every failure recorded by the read driver identified by
    /// `token` (a resumed link invalidates exactly its own dead reader's
    /// errors, never another link's).
    pub(crate) fn clear_failures(&self, token: &Arc<AtomicBool>) {
        for slot in self.slots.values() {
            let mut slot = slot.lock();
            if slot
                .failed
                .as_ref()
                .is_some_and(|f| Arc::ptr_eq(&f.token, token))
            {
                slot.failed = None;
            }
        }
    }

    /// Wakes every waiter unconditionally (shutdown: let blocked
    /// receivers observe `shutting_down` / drained queues).
    pub(crate) fn wake_all(&self) {
        for slot in self.slots.values() {
            slot.lock().signal_waiters();
        }
    }

    /// Buffer-pool and wake counters over this inbox's lifetime.
    pub(crate) fn stats(&self) -> DeliveryStats {
        let (pool_hits, pool_misses) = self.pool.stats();
        DeliveryStats {
            pool_hits,
            pool_misses,
            batched_wakes: self.batched_wakes.load(Ordering::Relaxed),
            wake_signals: self.wake_signals.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dh(i: u32) -> PartyId {
        PartyId::DataHolder(i)
    }

    fn locals(n: u32) -> BTreeSet<PartyId> {
        (0..n).map(dh).collect()
    }

    fn envelope(to: PartyId, tag: u8) -> Envelope {
        Envelope::new(dh(99), to, "t", vec![tag])
    }

    #[test]
    fn buffer_pool_recycles_and_counts() {
        let pool = BufferPool::default();
        let miss = pool.take();
        assert_eq!(pool.stats(), (0, 1));
        let mut buf = miss;
        buf.extend_from_slice(b"hello");
        pool.put(buf);
        let hit = pool.take();
        assert!(hit.is_empty(), "pooled buffers come back cleared");
        assert!(hit.capacity() >= 5, "capacity survives the round trip");
        assert_eq!(pool.stats(), (1, 1));
        // Zero-capacity and oversized buffers are not worth retaining.
        pool.put(Vec::new());
        pool.put(Vec::with_capacity(MAX_POOLED_CAPACITY + 1));
        assert_eq!(pool.take().capacity(), 0);
    }

    #[test]
    fn push_wake_pop_round_trip() {
        let inbox = Inbox::new(&locals(2));
        let mut batch = vec![envelope(dh(0), 1), envelope(dh(1), 2), envelope(dh(0), 3)];
        let mut touched = Vec::new();
        inbox.push_all(&mut batch, &mut touched);
        assert!(batch.is_empty());
        inbox.wake(&mut touched);
        assert!(touched.is_empty());
        assert_eq!(inbox.try_pop(dh(0)).unwrap().unwrap().payload, vec![1]);
        assert_eq!(inbox.try_pop(dh(1)).unwrap().unwrap().payload, vec![2]);
        assert_eq!(inbox.try_pop(dh(0)).unwrap().unwrap().payload, vec![3]);
        assert!(inbox.try_pop(dh(0)).unwrap().is_none());
        assert!(matches!(
            inbox.try_pop(dh(5)),
            Err(NetError::UnknownParty(_))
        ));
    }

    #[test]
    fn envelopes_for_unhosted_parties_touch_no_party() {
        let inbox = Inbox::new(&locals(2));
        let mut batch = vec![envelope(dh(7), 1)];
        let mut touched = Vec::new();
        inbox.push_all(&mut batch, &mut touched);
        assert!(batch.is_empty(), "the batch is drained either way");
        assert!(touched.is_empty(), "a stray envelope touches no party");
        inbox.wake(&mut touched);
        assert_eq!(inbox.stats().batched_wakes, 0);
        assert!(inbox.try_pop(dh(0)).unwrap().is_none());
        assert!(inbox.try_pop(dh(1)).unwrap().is_none());
    }

    #[test]
    fn receive_any_of_wakes_on_delivery() {
        let inbox = Inbox::new(&locals(1));
        let parks = AtomicU64::new(0);
        let wakeups = AtomicU64::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(30));
                inbox.deliver_now(envelope(dh(0), 7)).unwrap();
            });
            let got = inbox
                .receive_any_of(&[dh(0)], Duration::from_secs(10), &parks, &wakeups)
                .unwrap()
                .expect("delivered envelope");
            assert_eq!(got.payload, vec![7]);
        });
    }

    #[test]
    fn failures_are_scoped_and_sticky() {
        let inbox = Inbox::new(&locals(2));
        let token = Arc::new(AtomicBool::new(false));
        inbox.fail(
            FailureScope::Party(dh(0)),
            NetError::AuthFailure {
                detail: "poisoned".into(),
            },
            &token,
        );
        // Sticky for the concerned party…
        assert!(inbox.try_pop(dh(0)).is_err());
        assert!(inbox.try_pop(dh(0)).is_err());
        // …and invisible to the other party.
        assert!(inbox.try_pop(dh(1)).unwrap().is_none());
        let parks = AtomicU64::new(0);
        let wakeups = AtomicU64::new(0);
        assert!(inbox
            .receive_any_of(&[dh(1)], Duration::from_millis(20), &parks, &wakeups)
            .unwrap()
            .is_none());
        // Queued traffic still drains before the failure surfaces.
        inbox.deliver_now(envelope(dh(0), 9)).unwrap();
        assert_eq!(inbox.try_pop(dh(0)).unwrap().unwrap().payload, vec![9]);
        assert!(inbox.try_pop(dh(0)).is_err());
        // A resume with the right token clears it; a wrong token doesn't.
        inbox.clear_failures(&Arc::new(AtomicBool::new(false)));
        assert!(inbox.try_pop(dh(0)).is_err());
        inbox.clear_failures(&token);
        assert!(inbox.try_pop(dh(0)).unwrap().is_none());
    }

    #[test]
    fn link_scope_fans_out_to_all_locals() {
        let inbox = Inbox::new(&locals(3));
        let token = Arc::new(AtomicBool::new(false));
        inbox.fail(
            FailureScope::Link,
            NetError::Io("stream died".into()),
            &token,
        );
        for i in 0..3 {
            assert!(inbox.try_pop(dh(i)).is_err(), "party {i} must see it");
        }
    }
}
