//! Host-level measurements that no repository crate provides: the
//! reference every time metric is calibrated against, and process CPU
//! time.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// `calib_ms` a host is scaled to: every time metric is multiplied by
/// `CALIB_NOMINAL_MS / calib_ms` and every rate divided by it, so a run on
/// a host that is slower for a few minutes (a noisy neighbour, a busier
/// hypervisor) reads like a run at nominal speed.
pub const CALIB_NOMINAL_MS: f64 = 0.5;

const PING_BYTES: usize = 1024;
const PING_TRIPS: usize = 20;
const WARM_TRIPS: usize = 5;
/// 4 MiB of `u64` words, more than a core's private caches hold.
const SCRUB_WORDS: usize = 4 << 20 >> 3;

/// The calibration reference: round trips of a 1 KiB message over loopback
/// TCP between two benchmark threads pinned to different cores. It pays
/// what every workload pays per message — syscalls, a wakeup on another
/// core, the loopback stack — and nothing of the repository, so no change
/// to the repository can move it. Sampled before every job, it tracks host
/// slow-downs on shared 2-vCPU virtual machines several times better than
/// a compute kernel does (see README.md).
///
/// Both ends are pinned so the scheduler cannot sometimes put them on one
/// core (a cheap context switch) and sometimes on two (a cross-core
/// wakeup) depending on where the last job's threads ran.
pub struct Reference {
    trigger: Option<Sender<()>>,
    samples: Receiver<f64>,
    threads: Vec<JoinHandle<()>>,
}

impl Reference {
    /// Starts the echo and pinger threads.
    pub fn start() -> Result<Reference, String> {
        let io = |what: &str, e: std::io::Error| format!("calibration reference {what}: {e}");
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| io("bind", e))?;
        let addr = listener.local_addr().map_err(|e| io("address", e))?;
        let echo = std::thread::spawn(move || {
            pin_to_core(1);
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            let _ = stream.set_nodelay(true);
            let mut buf = [0u8; PING_BYTES];
            while stream.read_exact(&mut buf).is_ok() && stream.write_all(&buf).is_ok() {}
        });
        let mut stream = TcpStream::connect(addr).map_err(|e| io("connect", e))?;
        stream.set_nodelay(true).map_err(|e| io("nodelay", e))?;
        let (trigger, requests) = channel::<()>();
        let (report, samples) = channel::<f64>();
        let pinger = std::thread::spawn(move || {
            pin_to_core(0);
            let mut scrub = vec![0u64; SCRUB_WORDS];
            while requests.recv().is_ok() {
                // An untimed pass over the buffer first, so every sample
                // starts from the same cache state whatever the last job
                // left on this core.
                let mut x = 0x9E37_79B9_7F4A_7C15u64;
                for word in scrub.iter_mut() {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    *word ^= x;
                }
                black_box(&mut scrub);
                // Untimed trips wake both cores, so the sample does not
                // depend on how long the last job left them idle.
                let mut buf = [7u8; PING_BYTES];
                let mut started = Instant::now();
                for trip in 0..WARM_TRIPS + PING_TRIPS {
                    if trip == WARM_TRIPS {
                        started = Instant::now();
                    }
                    if stream
                        .write_all(&buf)
                        .and_then(|()| stream.read_exact(&mut buf))
                        .is_err()
                    {
                        return;
                    }
                }
                if report.send(started.elapsed().as_secs_f64() * 1e3).is_err() {
                    return;
                }
            }
            let _ = stream.shutdown(Shutdown::Both);
        });
        Ok(Reference {
            trigger: Some(trigger),
            samples,
            threads: vec![pinger, echo],
        })
    }

    /// Milliseconds for [`PING_TRIPS`] round trips.
    pub fn sample(&mut self) -> f64 {
        self.trigger
            .as_ref()
            .and_then(|t| t.send(()).ok())
            .and_then(|()| self.samples.recv().ok())
            .expect("the reference threads live as long as the reference")
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        // Closing the trigger ends the pinger, which closes the stream and
        // so ends the echo thread.
        self.trigger = None;
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

extern "C" {
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread to core `core % cores()`; best effort.
fn pin_to_core(core: usize) {
    let core = core % cores();
    let mut mask = [0u64; 16];
    mask[core / 64] |= 1 << (core % 64);
    // SAFETY: `mask` is a live 1024-bit CPU set and `size` is its exact
    // byte length, so the kernel reads only inside it; pid 0 is the
    // calling thread.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// `struct rusage` on 64-bit Linux: two `timeval`s (user and system CPU
/// time), then fourteen `long`s this module does not read.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

/// CPU seconds (user + system) of one `getrusage` target.
fn cpu_of(who: i32) -> f64 {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value with the exact layout of
    // the kernel's `struct rusage` on 64-bit Linux (checked by the cfg on
    // this crate's entry point), and `who` is one of the two documented
    // targets, so the call writes only inside `usage`.
    let status = unsafe { getrusage(who, &mut usage) };
    assert_eq!(status, 0, "getrusage({who}) failed");
    let seconds = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
    seconds(usage.utime) + seconds(usage.stime)
}

/// CPU seconds of this process plus every child it has reaped — the party
/// processes of the federation workload.
pub fn cpu_seconds() -> f64 {
    cpu_of(RUSAGE_SELF) + cpu_of(RUSAGE_CHILDREN)
}

/// CPU seconds of reaped children only.
pub fn child_cpu_seconds() -> f64 {
    cpu_of(RUSAGE_CHILDREN)
}

/// Host parallelism, recorded with every result.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
