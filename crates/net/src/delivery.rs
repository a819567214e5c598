//! The socket tier's frame delivery path: how decoded envelopes travel
//! from a link's read driver to the `receive_*` callers.
//!
//! Two interchangeable strategies live behind one seam, mirroring the
//! I/O-backend seam in the reactor module:
//!
//! * **Sharded** (default) — one lock-free MPSC queue per hosted party
//!   (the vendored [`lockfree::MpscQueue`]), per-party wake tokens so a
//!   `receive_any_of` caller is signalled only by traffic for parties it
//!   actually watches, per-party sticky failure slots, and a batched wake
//!   protocol (a read driver queues a whole decoded chunk, then signals
//!   each touched party once).
//! * **Mutex oracle** — the original process-global
//!   mutex-plus-one-condvar inbox, kept verbatim behind the same API as
//!   the correctness oracle and benchmark baseline.
//!
//! The strategy is a queueing decision, not a protocol one: both modes
//! consume the same decoded envelopes in the same per-sender order and
//! are wire- and result-identical (see ARCHITECTURE.md, invariant 15).
//! Selection: [`DeliveryMode::from_env`] (the `PPC_DELIVERY` variable)
//! or the explicit `SocketTransport::new_with_delivery` constructor.
//!
//! The module also owns the [`BufferPool`] that recycles the delivery
//! path's scratch allocations (frame bodies, unsealed plaintext), so the
//! steady-state path performs no per-frame heap allocation of its own.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lockfree::MpscQueue;
use parking_lot::{Condvar, Mutex};

use crate::error::NetError;
use crate::message::Envelope;
use crate::metrics::DeliveryStats;
use crate::party::PartyId;

/// Which delivery strategy a socket transport queues inbound frames with.
///
/// Both modes are wire- and result-identical; see the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeliveryMode {
    /// Per-party lock-free queues, wake tokens and failure slots.
    #[default]
    Sharded,
    /// The process-global mutex inbox + one condvar, kept as the oracle.
    MutexOracle,
}

impl DeliveryMode {
    /// Reads the `PPC_DELIVERY` environment variable (`sharded` |
    /// `mutex`); unset or unrecognised values mean sharded
    /// ([`DeliveryMode::Sharded`]).
    pub fn from_env() -> Self {
        match std::env::var("PPC_DELIVERY") {
            Ok(v) if v.eq_ignore_ascii_case("mutex") => DeliveryMode::MutexOracle,
            _ => DeliveryMode::Sharded,
        }
    }

    /// Stable label used in stats lines and bench provenance.
    pub fn as_str(&self) -> &'static str {
        match self {
            DeliveryMode::Sharded => "sharded",
            DeliveryMode::MutexOracle => "mutex",
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
/// Lock-free on both sides (it is itself backed by the vendored MPSC
/// queue) and deliberately forgiving: `take` on an empty pool allocates
/// (counted as a miss), `put` of an over-large buffer drops it. Buffers
/// are cleared, not zeroed, on reuse — the pool never leaves the process.
pub struct BufferPool {
    buffers: MpscQueue<Vec<u8>>,
    retained: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (hits, misses) = self.stats();
        f.debug_struct("BufferPool")
            .field("hits", &hits)
            .field("misses", &misses)
            .finish()
    }
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        BufferPool {
            buffers: MpscQueue::with_capacity(MAX_POOLED_BUFFERS),
            retained: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Takes a cleared buffer from the pool, or allocates an empty one
    /// (a pool miss) when none is available.
    pub fn take(&self) -> Vec<u8> {
        match self.buffers.pop() {
            Some(mut buf) => {
                self.retained.fetch_sub(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf.clear();
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        }
    }

    /// Returns a buffer to the pool. Buffers with no capacity teach the
    /// pool nothing and over-large or surplus buffers would pin memory,
    /// so those are dropped instead.
    pub fn put(&self, buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > MAX_POOLED_CAPACITY {
            return;
        }
        if self.retained.fetch_add(1, Ordering::Relaxed) >= MAX_POOLED_BUFFERS {
            self.retained.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        self.buffers.push(buf);
    }

    /// `(hits, misses)` of [`take`](Self::take) over the pool's lifetime.
    /// The steady-state delivery path should converge on hits only.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// A fatal error recorded by one link's read driver, tagged with that
/// driver's retirement token so a re-dial can clear exactly its own
/// link's error and never erase another link's.
#[derive(Debug)]
pub(crate) struct LinkFailure {
    pub(crate) token: Arc<AtomicBool>,
    pub(crate) error: NetError,
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

/// The original process-global mailbox: every queue and the single
/// failure slot behind one mutex, waiters on one condvar.
#[derive(Debug, Default)]
pub(crate) struct MutexInbox {
    queues: HashMap<PartyId, VecDeque<Envelope>>,
    /// First fatal link error; surfaced once the receiver's queue drains
    /// so already-delivered envelopes are not lost. One slot for the
    /// whole transport — the known pre-sharding limitation this inbox is
    /// kept to oracle against.
    failed: Option<LinkFailure>,
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

    fn signal(&self) {
        let mut signaled = self.signaled.lock();
        *signaled = true;
        drop(signaled);
        self.cv.notify_one();
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

/// One party's delivery shard: its envelope queue, its sticky failure
/// slot and the tokens of threads currently waiting on it.
#[derive(Default)]
struct PartySlot {
    queue: MpscQueue<Envelope>,
    /// First fatal failure concerning this party. Sticky: surfaced by
    /// clone (never consumed), so every poller of this party observes it
    /// until a resumed link clears it by token.
    failed: Mutex<Option<LinkFailure>>,
    waiters: Mutex<Vec<Arc<WakeToken>>>,
    /// `waiters.len()`, readable without the lock — the producer-side
    /// fast path checks it after a `SeqCst` fence and skips the lock
    /// entirely when nobody waits (see the wake-protocol notes below).
    waiter_count: AtomicUsize,
}

impl PartySlot {
    fn register(&self, token: &Arc<WakeToken>) {
        let mut waiters = self.waiters.lock();
        waiters.push(Arc::clone(token));
        self.waiter_count.store(waiters.len(), Ordering::SeqCst);
    }

    fn deregister(&self, token: &Arc<WakeToken>) {
        let mut waiters = self.waiters.lock();
        if let Some(pos) = waiters.iter().position(|t| Arc::ptr_eq(t, token)) {
            waiters.swap_remove(pos);
        }
        self.waiter_count.store(waiters.len(), Ordering::SeqCst);
    }

    /// Signals every registered waiter (they rescan and re-park if the
    /// traffic was not for them — spurious signals are harmless, lost
    /// ones are not). Returns the number of tokens signalled.
    fn signal_waiters(&self) -> u64 {
        if self.waiter_count.load(Ordering::SeqCst) == 0 {
            return 0;
        }
        let waiters = self.waiters.lock();
        for token in waiters.iter() {
            token.signal();
        }
        waiters.len() as u64
    }
}

/// Wake-protocol counters shared by both modes.
#[derive(Debug, Default)]
pub(crate) struct DeliveryCounters {
    /// `wake` calls that had at least one touched party (one per
    /// delivered read chunk — the batching the protocol exists for).
    batched_wakes: AtomicU64,
    /// Individual wake tokens signalled (sharded) or condvar broadcasts
    /// (mutex oracle).
    wake_signals: AtomicU64,
}

/// The sharded inbox: one [`PartySlot`] per hosted party, looked up
/// without any lock (the map is immutable after construction), plus a
/// cold side-map for stray receivers a frame might address.
pub(crate) struct ShardedInbox {
    slots: HashMap<PartyId, Arc<PartySlot>>,
    /// Slots for parties outside `locals` (mis-addressed frames park
    /// here, matching the mutex inbox's accept-anything queues). Cold
    /// path only.
    extra: Mutex<HashMap<PartyId, Arc<PartySlot>>>,
}

impl ShardedInbox {
    fn new(locals: &BTreeSet<PartyId>) -> Self {
        ShardedInbox {
            slots: locals
                .iter()
                .map(|&p| (p, Arc::new(PartySlot::default())))
                .collect(),
            extra: Mutex::new(HashMap::new()),
        }
    }

    fn slot(&self, party: PartyId) -> Arc<PartySlot> {
        if let Some(slot) = self.slots.get(&party) {
            return Arc::clone(slot);
        }
        let mut extra = self.extra.lock();
        Arc::clone(extra.entry(party).or_default())
    }

    /// Borrows the slot of a party declared at construction without
    /// touching its refcount. Returns `None` for stray parties (those
    /// live behind the `extra` lock and need [`Self::slot`]).
    fn known_slot(&self, party: PartyId) -> Option<&PartySlot> {
        self.slots.get(&party).map(Arc::as_ref)
    }

    fn all_slots(&self) -> Vec<Arc<PartySlot>> {
        let extra = self.extra.lock();
        self.slots.values().chain(extra.values()).cloned().collect()
    }
}

/// The delivery seam both read drivers and both receive paths go
/// through. Clones share the same underlying inbox (readers hold one per
/// link).
///
/// # Wake protocol (sharded mode)
///
/// The no-lost-wakeup argument is the classic Dekker store/load fence
/// pairing, per party slot:
///
/// * **Waiter:** register token (stores `waiter_count`, `SeqCst`) →
///   `SeqCst` fence → rescan queues/failures → park on the token.
/// * **Producer:** push envelopes → `SeqCst` fence → load `waiter_count`
///   (`SeqCst`) → if non-zero, signal every registered token.
///
/// If the producer's count load misses the waiter's registration, the
/// load precedes the store in the `SeqCst` total order, so the
/// producer's pre-load fence precedes the waiter's post-store fence —
/// making the push visible to the waiter's rescan. Conversely a seen
/// registration gets a signal, which either prevents the park (the token
/// check runs under the token lock) or ends it. Stale signals from an
/// earlier wait only cost one spurious rescan.
#[derive(Clone)]
pub(crate) enum Inbox {
    /// The pre-sharding global inbox, retained as the oracle.
    Mutex {
        inbox: Arc<Mutex<MutexInbox>>,
        arrivals: Arc<Condvar>,
        counters: Arc<DeliveryCounters>,
    },
    /// Per-party queues, wake tokens and failure slots.
    Sharded {
        inbox: Arc<ShardedInbox>,
        counters: Arc<DeliveryCounters>,
    },
}

impl std::fmt::Debug for Inbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mode().as_str())
    }
}

impl Inbox {
    pub(crate) fn new(mode: DeliveryMode, locals: &BTreeSet<PartyId>) -> Self {
        match mode {
            DeliveryMode::MutexOracle => {
                let mut inbox = MutexInbox::default();
                for &party in locals {
                    inbox.queues.insert(party, VecDeque::new());
                }
                Inbox::Mutex {
                    inbox: Arc::new(Mutex::new(inbox)),
                    arrivals: Arc::new(Condvar::new()),
                    counters: Arc::new(DeliveryCounters::default()),
                }
            }
            DeliveryMode::Sharded => Inbox::Sharded {
                inbox: Arc::new(ShardedInbox::new(locals)),
                counters: Arc::new(DeliveryCounters::default()),
            },
        }
    }

    pub(crate) fn mode(&self) -> DeliveryMode {
        match self {
            Inbox::Mutex { .. } => DeliveryMode::MutexOracle,
            Inbox::Sharded { .. } => DeliveryMode::Sharded,
        }
    }

    /// Queues a decoded batch **without waking anyone**, recording each
    /// envelope's receiver in `touched` for the later [`wake`](Self::wake).
    /// Drains `envelopes` in place so the caller's vec is reusable.
    pub(crate) fn push_all(&self, envelopes: &mut Vec<Envelope>, touched: &mut Vec<PartyId>) {
        match self {
            Inbox::Mutex { inbox, .. } => {
                let mut guard = inbox.lock();
                for envelope in envelopes.drain(..) {
                    touched.push(envelope.to);
                    guard
                        .queues
                        .entry(envelope.to)
                        .or_default()
                        .push_back(envelope);
                }
            }
            Inbox::Sharded { inbox, .. } => {
                for envelope in envelopes.drain(..) {
                    touched.push(envelope.to);
                    inbox.slot(envelope.to).queue.push(envelope);
                }
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
        match self {
            Inbox::Mutex {
                arrivals, counters, ..
            } => {
                counters.batched_wakes.fetch_add(1, Ordering::Relaxed);
                counters.wake_signals.fetch_add(1, Ordering::Relaxed);
                arrivals.notify_all();
            }
            Inbox::Sharded { inbox, counters } => {
                touched.sort_unstable();
                touched.dedup();
                counters.batched_wakes.fetch_add(1, Ordering::Relaxed);
                fence(Ordering::SeqCst);
                let mut signalled = 0;
                for &party in touched.iter() {
                    signalled += inbox.slot(party).signal_waiters();
                }
                if signalled > 0 {
                    counters
                        .wake_signals
                        .fetch_add(signalled, Ordering::Relaxed);
                }
            }
        }
        touched.clear();
    }

    /// Queues one envelope and wakes its receiver immediately (the
    /// local-send path, which has no batch boundary to defer to).
    pub(crate) fn deliver_now(&self, envelope: Envelope) {
        match self {
            Inbox::Mutex {
                inbox,
                arrivals,
                counters,
            } => {
                let mut guard = inbox.lock();
                guard
                    .queues
                    .entry(envelope.to)
                    .or_default()
                    .push_back(envelope);
                drop(guard);
                counters.wake_signals.fetch_add(1, Ordering::Relaxed);
                arrivals.notify_all();
            }
            Inbox::Sharded { inbox, counters } => {
                let slot = inbox.slot(envelope.to);
                slot.queue.push(envelope);
                fence(Ordering::SeqCst);
                let signalled = slot.signal_waiters();
                if signalled > 0 {
                    counters
                        .wake_signals
                        .fetch_add(signalled, Ordering::Relaxed);
                }
            }
        }
    }

    /// Non-blocking pop for `receiver`: queued envelopes first, then any
    /// sticky failure concerning the receiver (cloned, never consumed —
    /// it persists until a resumed link clears it), then `None`.
    pub(crate) fn try_pop(&self, receiver: PartyId) -> Result<Option<Envelope>, NetError> {
        match self {
            Inbox::Mutex { inbox, .. } => {
                let mut guard = inbox.lock();
                if let Some(envelope) = guard
                    .queues
                    .get_mut(&receiver)
                    .and_then(VecDeque::pop_front)
                {
                    return Ok(Some(envelope));
                }
                match &guard.failed {
                    Some(failure) => Err(failure.error.clone()),
                    None => Ok(None),
                }
            }
            Inbox::Sharded { inbox, .. } => {
                // Borrow a declared party's slot instead of cloning the
                // Arc: this is the polling hot path.
                let pinned;
                let slot = match inbox.known_slot(receiver) {
                    Some(slot) => slot,
                    None => {
                        pinned = inbox.slot(receiver);
                        pinned.as_ref()
                    }
                };
                if let Some(envelope) = slot.queue.pop() {
                    return Ok(Some(envelope));
                }
                let failed = slot.failed.lock().as_ref().map(|f| f.error.clone());
                match failed {
                    Some(error) => Err(error),
                    None => Ok(None),
                }
            }
        }
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
        match self {
            Inbox::Mutex {
                inbox, arrivals, ..
            } => {
                let mut guard = inbox.lock();
                loop {
                    for &receiver in receivers {
                        if let Some(envelope) = guard
                            .queues
                            .get_mut(&receiver)
                            .and_then(VecDeque::pop_front)
                        {
                            return Ok(Some(envelope));
                        }
                    }
                    if let Some(failure) = &guard.failed {
                        return Err(failure.error.clone());
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        return Ok(None);
                    }
                    parks.fetch_add(1, Ordering::Relaxed);
                    let (next, result) = arrivals.wait_timeout(guard, deadline - now);
                    if !result.timed_out() {
                        wakeups.fetch_add(1, Ordering::Relaxed);
                    }
                    guard = next;
                }
            }
            Inbox::Sharded { inbox, .. } => {
                // Fast path: one allocation-free sweep over borrowed
                // slots. Under steady flow something is almost always
                // queued, so most calls return here without cloning a
                // single Arc or touching the wake token. Queued traffic
                // draining before a failure surfaces is preserved — the
                // slow path below re-checks failures before parking.
                for &receiver in receivers {
                    if let Some(envelope) =
                        inbox.known_slot(receiver).and_then(|slot| slot.queue.pop())
                    {
                        return Ok(Some(envelope));
                    }
                }
                let slots: Vec<Arc<PartySlot>> = receivers.iter().map(|&r| inbox.slot(r)).collect();
                WAKE_TOKEN.with(|token| {
                    token.reset();
                    let mut registered = false;
                    let outcome = loop {
                        let mut popped = None;
                        for slot in &slots {
                            if let Some(envelope) = slot.queue.pop() {
                                popped = Some(envelope);
                                break;
                            }
                        }
                        if let Some(envelope) = popped {
                            break Ok(Some(envelope));
                        }
                        if let Some(error) = slots
                            .iter()
                            .find_map(|s| s.failed.lock().as_ref().map(|f| f.error.clone()))
                        {
                            break Err(error);
                        }
                        if Instant::now() >= deadline {
                            break Ok(None);
                        }
                        if !registered {
                            for slot in &slots {
                                slot.register(token);
                            }
                            registered = true;
                            // Registration must precede the decisive
                            // rescan (see the wake-protocol notes).
                            fence(Ordering::SeqCst);
                            continue;
                        }
                        parks.fetch_add(1, Ordering::Relaxed);
                        if token.wait_until(deadline) {
                            wakeups.fetch_add(1, Ordering::Relaxed);
                            token.reset();
                        }
                    };
                    if registered {
                        for slot in &slots {
                            slot.deregister(token);
                        }
                    }
                    outcome
                })
            }
        }
    }

    /// Records a fatal failure and wakes affected waiters. Per party the
    /// first failure wins; in the mutex oracle the single global slot
    /// keeps its pre-sharding first-failure-wins semantics regardless of
    /// `scope`.
    pub(crate) fn fail(&self, scope: FailureScope, error: NetError, token: &Arc<AtomicBool>) {
        match self {
            Inbox::Mutex {
                inbox,
                arrivals,
                counters,
            } => {
                let mut guard = inbox.lock();
                if guard.failed.is_none() {
                    guard.failed = Some(LinkFailure {
                        token: Arc::clone(token),
                        error,
                    });
                }
                drop(guard);
                counters.wake_signals.fetch_add(1, Ordering::Relaxed);
                arrivals.notify_all();
            }
            Inbox::Sharded { inbox, counters } => {
                let slots = match scope {
                    FailureScope::Party(party) => vec![inbox.slot(party)],
                    FailureScope::Link => inbox.slots.values().map(Arc::clone).collect::<Vec<_>>(),
                };
                for slot in &slots {
                    let mut failed = slot.failed.lock();
                    if failed.is_none() {
                        *failed = Some(LinkFailure {
                            token: Arc::clone(token),
                            error: error.clone(),
                        });
                    }
                    drop(failed);
                    fence(Ordering::SeqCst);
                    let signalled = slot.signal_waiters();
                    if signalled > 0 {
                        counters
                            .wake_signals
                            .fetch_add(signalled, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    /// Clears every failure recorded by the read driver identified by
    /// `token` (a resumed link invalidates exactly its own dead reader's
    /// errors, never another link's).
    pub(crate) fn clear_failures(&self, token: &Arc<AtomicBool>) {
        match self {
            Inbox::Mutex { inbox, .. } => {
                let mut guard = inbox.lock();
                if let Some(failure) = &guard.failed {
                    if Arc::ptr_eq(&failure.token, token) {
                        guard.failed = None;
                    }
                }
            }
            Inbox::Sharded { inbox, .. } => {
                for slot in inbox.all_slots() {
                    let mut failed = slot.failed.lock();
                    if let Some(failure) = &*failed {
                        if Arc::ptr_eq(&failure.token, token) {
                            *failed = None;
                        }
                    }
                }
            }
        }
    }

    /// Wakes every waiter unconditionally (shutdown: let blocked
    /// receivers observe `shutting_down` / drained queues).
    pub(crate) fn wake_all(&self) {
        match self {
            Inbox::Mutex { arrivals, .. } => arrivals.notify_all(),
            Inbox::Sharded { inbox, .. } => {
                fence(Ordering::SeqCst);
                for slot in inbox.all_slots() {
                    slot.signal_waiters();
                }
            }
        }
    }

    /// Folds this inbox's queue-node and wake counters into `stats`
    /// (buffer-pool counters are the transport's, filled by the caller).
    pub(crate) fn fill_stats(&self, stats: &mut DeliveryStats) {
        stats.sharded = self.mode() == DeliveryMode::Sharded;
        match self {
            Inbox::Mutex { counters, .. } => {
                stats.batched_wakes = counters.batched_wakes.load(Ordering::Relaxed);
                stats.wake_signals = counters.wake_signals.load(Ordering::Relaxed);
            }
            Inbox::Sharded { inbox, counters } => {
                stats.batched_wakes = counters.batched_wakes.load(Ordering::Relaxed);
                stats.wake_signals = counters.wake_signals.load(Ordering::Relaxed);
                for slot in inbox.all_slots() {
                    let (hits, misses) = slot.queue.pool_stats();
                    stats.node_hits += hits;
                    stats.node_misses += misses;
                }
            }
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
    fn mode_parsing_defaults_to_sharded() {
        assert_eq!(DeliveryMode::default(), DeliveryMode::Sharded);
        assert_eq!(DeliveryMode::Sharded.as_str(), "sharded");
        assert_eq!(DeliveryMode::MutexOracle.as_str(), "mutex");
    }

    #[test]
    fn buffer_pool_recycles_and_counts() {
        let pool = BufferPool::new();
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
    fn push_wake_pop_round_trip_both_modes() {
        for mode in [DeliveryMode::Sharded, DeliveryMode::MutexOracle] {
            let inbox = Inbox::new(mode, &locals(2));
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
        }
    }

    #[test]
    fn receive_any_of_wakes_on_delivery() {
        for mode in [DeliveryMode::Sharded, DeliveryMode::MutexOracle] {
            let inbox = Inbox::new(mode, &locals(1));
            let parks = AtomicU64::new(0);
            let wakeups = AtomicU64::new(0);
            std::thread::scope(|scope| {
                let inbox2 = inbox.clone();
                scope.spawn(move || {
                    std::thread::sleep(Duration::from_millis(30));
                    inbox2.deliver_now(envelope(dh(0), 7));
                });
                let got = inbox
                    .receive_any_of(&[dh(0)], Duration::from_secs(10), &parks, &wakeups)
                    .unwrap()
                    .expect("delivered envelope");
                assert_eq!(got.payload, vec![7]);
            });
        }
    }

    #[test]
    fn sharded_failures_are_scoped_and_sticky() {
        let inbox = Inbox::new(DeliveryMode::Sharded, &locals(2));
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
        inbox.deliver_now(envelope(dh(0), 9));
        assert_eq!(inbox.try_pop(dh(0)).unwrap().unwrap().payload, vec![9]);
        assert!(inbox.try_pop(dh(0)).is_err());
        // A resume with the right token clears it; a wrong token doesn't.
        inbox.clear_failures(&Arc::new(AtomicBool::new(false)));
        assert!(inbox.try_pop(dh(0)).is_err());
        inbox.clear_failures(&token);
        assert!(inbox.try_pop(dh(0)).unwrap().is_none());
    }

    #[test]
    fn link_scope_fans_out_to_all_locals_in_sharded_mode() {
        let inbox = Inbox::new(DeliveryMode::Sharded, &locals(3));
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

    #[test]
    fn mutex_oracle_keeps_single_slot_semantics() {
        let inbox = Inbox::new(DeliveryMode::MutexOracle, &locals(2));
        let token = Arc::new(AtomicBool::new(false));
        inbox.fail(
            FailureScope::Party(dh(0)),
            NetError::AuthFailure {
                detail: "poisoned".into(),
            },
            &token,
        );
        // The global slot leaks the failure to the unrelated party — the
        // documented oracle behaviour the sharded mode fixes.
        assert!(inbox.try_pop(dh(1)).is_err());
    }
}
