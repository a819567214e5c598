//! Process-global readiness reactor: the socket tier's one I/O driver.
//!
//! One detached event-loop thread per process owns a [`polling::Poller`]
//! and dispatches readiness events to registered [`Source`]s. This is what
//! keeps the socket transport at O(1) threads regardless of link count:
//! every socket a process holds — transport links and router connections
//! alike — shares the single loop.
//!
//! Sources are dispatched level-triggered. A handler must either drain its
//! fd to `WouldBlock` or disarm the interest it no longer wants, otherwise
//! the loop will spin re-reporting the same readiness.
//!
//! ## Quiesce protocol
//!
//! A source runs its entire read handler under one internal mutex and
//! re-checks its retirement flag at entry. To quiesce, a caller sets the
//! flag, calls [`Registration::deregister`] (which removes the fd from the
//! poller and the source from the dispatch table), then locks and releases
//! the source's handler mutex once. Any in-flight dispatch either observed
//! the flag and did nothing, or completes before the barrier lock is
//! granted — after the barrier, counters published by the handler are
//! final.
//!
//! ## Failure containment
//!
//! A handler that panics is caught at its dispatch: the reactor drops that
//! source from dispatch and the poller and tells it to fail the link it
//! drives ([`Source::on_failure`]), while every other source keeps being
//! served. A poller that fails stops all dispatch, so every registered
//! source fails the same way and later registrations are refused.

use std::collections::HashMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use polling::{Event, Interest, Poller, RawFd};

use crate::error::NetError;

/// A readiness handler owned by the reactor.
///
/// `on_ready` runs on the reactor thread; it must never block on work that
/// itself waits for the reactor (it may take short-held locks such as a
/// link's writer mutex).
pub(crate) trait Source: Send + Sync {
    /// Called when the registered fd reports readiness.
    fn on_ready(&self, readable: bool, writable: bool);

    /// Called once the reactor has dropped this source for good — its
    /// handler panicked, or the poller failed — so the link it drives
    /// fails where its parties see it instead of going silent.
    fn on_failure(&self, error: NetError);
}

/// Handle to one fd registered with the reactor.
///
/// Holds the current interest set so writable interest can be armed and
/// disarmed cheaply; dropping the handle does *not* deregister — call
/// [`Registration::deregister`] explicitly (sources stay alive through the
/// reactor's dispatch table until then).
pub(crate) struct Registration {
    reactor: &'static Reactor,
    fd: RawFd,
    key: usize,
    interest: Mutex<Interest>,
}

impl Registration {
    /// Arms or disarms write-readiness reporting for this fd.
    ///
    /// Errors are returned (not latched); callers treat a failed arm as
    /// best-effort because a deregistered fd is on its way to redial.
    pub(crate) fn set_writable(&self, writable: bool) -> io::Result<()> {
        let mut interest = self.interest.lock();
        if interest.writable == writable {
            return Ok(());
        }
        let next = Interest {
            readable: interest.readable,
            writable,
        };
        self.reactor.poller.modify(self.fd, self.key, next)?;
        *interest = next;
        // Wake the loop so a currently-parked wait() re-arms with the new set.
        let _ = self.reactor.poller.notify();
        Ok(())
    }

    /// Arms or disarms read-readiness reporting for this fd.
    ///
    /// Disarming is the router's flow control: an origin connection whose
    /// forwards congested a destination outbox stops being read until the
    /// destination drains, which propagates backpressure to the sending
    /// peer through its own socket buffers. Level-triggered polling re-fires
    /// pending readability the moment interest re-arms, so no data is lost.
    pub(crate) fn set_readable(&self, readable: bool) -> io::Result<()> {
        let mut interest = self.interest.lock();
        if interest.readable == readable {
            return Ok(());
        }
        let next = Interest {
            readable,
            writable: interest.writable,
        };
        self.reactor.poller.modify(self.fd, self.key, next)?;
        *interest = next;
        let _ = self.reactor.poller.notify();
        Ok(())
    }

    /// Removes the fd from the poller and the source from dispatch.
    ///
    /// Idempotent; safe to call with the fd already shut down (delete
    /// errors are ignored). This is step two of the quiesce protocol —
    /// the caller still owns the handler-mutex barrier.
    pub(crate) fn deregister(&self) {
        self.reactor.deregister(self.fd, self.key);
    }
}

/// A registered fd and the source it dispatches to.
type Entry = (RawFd, Arc<dyn Source>);

/// The process-global reactor: poller + dispatch table + its loop thread.
pub(crate) struct Reactor {
    poller: Poller,
    sources: Mutex<HashMap<usize, Entry>>,
    next_key: AtomicUsize,
    /// Set, under the `sources` lock, once the poller has failed: nothing
    /// is dispatched any more, so registration is refused.
    failed: OnceLock<String>,
}

impl Reactor {
    /// Returns the process-global reactor, spawning its loop thread on
    /// first use. Fails on platforms where the polling shim is
    /// unsupported (non-unix) or if the poller cannot be created.
    pub(crate) fn global() -> io::Result<&'static Reactor> {
        static GLOBAL: OnceLock<Result<&'static Reactor, String>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| {
                let poller = Poller::new().map_err(|e| e.to_string())?;
                let reactor: &'static Reactor = Box::leak(Box::new(Reactor {
                    poller,
                    sources: Mutex::new(HashMap::new()),
                    next_key: AtomicUsize::new(0),
                    failed: OnceLock::new(),
                }));
                std::thread::Builder::new()
                    .name("ppc-reactor".into())
                    .spawn(move || reactor.run())
                    .map_err(|e| e.to_string())?;
                Ok(reactor)
            })
            .clone()
            .map_err(|msg| io::Error::new(io::ErrorKind::Unsupported, msg))
    }

    /// Registers `fd` with the poller and `source` for dispatch, returning
    /// the interest-management handle. The source is inserted into the
    /// dispatch table *before* the fd is armed so an immediately-ready
    /// event always finds its handler.
    pub(crate) fn register(
        &'static self,
        fd: RawFd,
        interest: Interest,
        source: Arc<dyn Source>,
    ) -> io::Result<Arc<Registration>> {
        let key = self.next_key.fetch_add(1, Ordering::Relaxed);
        {
            let mut sources = self.sources.lock();
            if let Some(error) = self.failed.get() {
                return Err(io::Error::other(format!("reactor poller failed: {error}")));
            }
            sources.insert(key, (fd, source));
        }
        if let Err(err) = self.poller.add(fd, key, interest) {
            self.sources.lock().remove(&key);
            return Err(err);
        }
        let _ = self.poller.notify();
        Ok(Arc::new(Registration {
            reactor: self,
            fd,
            key,
            interest: Mutex::new(interest),
        }))
    }

    fn deregister(&self, fd: RawFd, key: usize) {
        // Keys are allocated once and never reused, so a stale queued event
        // for this key simply finds no source after removal.
        let _ = self.poller.delete(fd);
        self.sources.lock().remove(&key);
        let _ = self.poller.notify();
    }

    fn run(&'static self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            events.clear();
            if let Err(error) = self.poller.wait(&mut events, None) {
                self.fail_all(&error);
                return;
            }
            for event in &events {
                // Clone the Arc out so dispatch runs without the table lock
                // (handlers may register/deregister other sources).
                let source = self.sources.lock().get(&event.key).cloned();
                let Some((fd, source)) = source else {
                    continue;
                };
                let dispatch = catch_unwind(AssertUnwindSafe(|| {
                    source.on_ready(event.readable, event.writable)
                }));
                if let Err(panic) = dispatch {
                    self.deregister(fd, event.key);
                    fail_source(
                        &source,
                        NetError::Io(format!(
                            "reactor handler panicked: {}",
                            panic_text(panic.as_ref())
                        )),
                    );
                }
            }
        }
    }

    /// The poller failed, so no source will ever be dispatched again:
    /// refuses further registrations and fails every registered source.
    fn fail_all(&self, error: &io::Error) {
        let sources = {
            let mut sources = self.sources.lock();
            let _ = self.failed.set(error.to_string());
            std::mem::take(&mut *sources)
        };
        for (fd, source) in sources.into_values() {
            let _ = self.poller.delete(fd);
            fail_source(
                &source,
                NetError::Io(format!("reactor poller failed: {error}")),
            );
        }
    }
}

/// Runs a dropped source's failure hook, containing a panic there too.
fn fail_source(source: &Arc<dyn Source>, error: NetError) {
    let _ = catch_unwind(AssertUnwindSafe(|| source.on_failure(error)));
}

/// The message of a caught panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-text panic payload")
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::time::Duration;

    /// Drains its socket and reports each dispatch (`"ready"`) and failure;
    /// a `faulty` probe then panics.
    struct Probe {
        stream: UnixStream,
        faulty: bool,
        events: Sender<String>,
    }

    impl Source for Probe {
        fn on_ready(&self, _readable: bool, _writable: bool) {
            while matches!((&self.stream).read(&mut [0u8; 64]), Ok(n) if n > 0) {}
            let _ = self.events.send("ready".into());
            assert!(!self.faulty, "a handler bug");
        }

        fn on_failure(&self, error: NetError) {
            let _ = self.events.send(error.to_string());
        }
    }

    /// Registers a probe; returns its events and the socket that wakes it.
    fn probe(faulty: bool) -> (Receiver<String>, UnixStream, Arc<Registration>) {
        let (stream, peer) = UnixStream::pair().unwrap();
        stream.set_nonblocking(true).unwrap();
        let fd = stream.as_raw_fd();
        let (events, received) = channel();
        let source = Arc::new(Probe {
            stream,
            faulty,
            events,
        });
        let registration = Reactor::global()
            .unwrap()
            .register(fd, Interest::READ, source)
            .unwrap();
        (received, peer, registration)
    }

    #[test]
    fn a_panicking_handler_is_retired_and_the_others_keep_being_dispatched() {
        let next = |events: &Receiver<String>| events.recv_timeout(Duration::from_secs(5)).unwrap();
        let (healthy, mut healthy_peer, registration) = probe(false);
        let (faulty, mut faulty_peer, _) = probe(true);

        faulty_peer.write_all(b"x").unwrap();
        assert_eq!(next(&faulty), "ready");
        let failure = next(&faulty);
        assert!(failure.contains("panicked: a handler bug"), "{failure}");

        // The reactor thread lives on: the healthy source is served, and
        // the retired one is never dispatched again (once the reactor drops
        // it, its socket is closed too).
        for _ in 0..3 {
            let _ = faulty_peer.write_all(b"z");
            healthy_peer.write_all(b"y").unwrap();
            assert_eq!(next(&healthy), "ready");
        }
        assert!(faulty.try_recv().is_err());
        registration.deregister();
    }
}
