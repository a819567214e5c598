//! One run of one workload: set-up, warm-up, measurement windows, and the
//! metrics they yield.
//!
//! An untraced run measures [`ROUNDS`] windows of `seconds / ROUNDS` each.
//! The calibration reference is sampled before every job, and each
//! window's time metrics are scaled by the median of its samples; rates
//! and CPU time are reported as medians over windows, latencies as
//! percentiles of every window's calibrated jobs pooled. A traced run
//! measures one untraced and one traced window of `seconds / 2` each, then
//! replays one captured job through the layers the program does not time
//! itself.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ppc_core::protocol::engine::EngineOutcome;
use ppc_net::{ChannelKeyring, DeliveryStats, SealingStats, WaitStats, WaitStatsReporter};

use crate::federation::PartyTotals;
use crate::host::{self, Reference, CALIB_NOMINAL_MS};
use crate::json::{number, quote};
use crate::replay::{replay_wire, WireReplay};
use crate::seam::{Probe, SeamCounts, WIRE_METRICS};
use crate::workload::{
    prepare, replay_clustering, run_job, Deployment, Job, Oracle, Prepared, Rig, SetupTimes,
    Workdir, Workload,
};

/// Measurement windows of an untraced run.
pub const ROUNDS: usize = 5;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 25;
/// Passes of each replay; per-layer replay times are their median.
const REPLAYS: usize = 5;
/// Failure messages kept for the report.
const MAX_FAILURES: usize = 5;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// The workload.
    pub workload: Workload,
    /// Base seed; the scenario seed is this plus the workload's offset.
    pub seed: u64,
    /// Measured seconds (set-up and warm-up come on top).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// A finished run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every job matched the oracle and every replay agreed.
    pub correct: bool,
    /// Sessions submitted.
    pub attempted: usize,
    /// Sessions that errored, stalled or differ from the oracle.
    pub failed: usize,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Provenance fields, as JSON members.
    pub provenance: Vec<(&'static str, String)>,
    /// The first failure messages.
    pub failures: Vec<String>,
}

/// The `p`-th percentile (0–100) of `values`, interpolating linearly
/// between order statistics.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Everything one measurement window saw.
#[derive(Debug, Default)]
struct Window {
    /// Median reference sample of the window.
    calib_ms: f64,
    latencies: Vec<f64>,
    sessions: usize,
    failed: usize,
    /// Per-job counters summed (its `seconds` and `cpu` are Σ job wall
    /// time and Σ job CPU time).
    totals: Job,
    party: PartyTotals,
    seam: SeamCounts,
}

impl Window {
    /// Multiplier from measured time to calibrated time.
    fn scale(&self) -> f64 {
        CALIB_NOMINAL_MS / self.calib_ms
    }

    fn completed(&self) -> usize {
        self.sessions - self.failed
    }

    /// Calibrated job latencies, in milliseconds.
    fn latencies_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.latencies.iter().map(|s| s * 1e3 * self.scale())
    }

    /// Completed sessions per second of job time, uncalibrated. Job time
    /// excludes the benchmark's own work between jobs (reference samples,
    /// result checks).
    fn raw_rate(&self) -> f64 {
        self.completed() as f64 / self.totals.seconds
    }
}

/// The state jobs run against.
struct Bench {
    prepared: Prepared,
    oracle: Oracle,
    reference: Reference,
    federation_reference: Option<u64>,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
}

impl Bench {
    fn job(&mut self, probe: &Probe) -> (Job, Vec<EngineOutcome>) {
        let (job, outcomes) = run_job(
            &self.prepared,
            &self.oracle,
            probe,
            &mut self.federation_reference,
        );
        self.attempted += job.sessions;
        self.failed += job.failed;
        if let Some(failure) = &job.failure {
            if self.failures.len() < MAX_FAILURES {
                self.failures.push(failure.clone());
            }
        }
        (job, outcomes)
    }

    /// Closed loop: the next job starts when the previous one returns,
    /// until `seconds` have passed (the last job is never cut short). The
    /// reference is sampled before every job, so it sees the host at the
    /// same moments the jobs do.
    fn window(&mut self, probe: &Probe, seconds: f64) -> Window {
        let mut window = Window::default();
        let mut samples = Vec::new();
        let started = Instant::now();
        while window.latencies.is_empty() || started.elapsed().as_secs_f64() < seconds {
            samples.push(self.reference.sample());
            let (job, _) = self.job(probe);
            window.latencies.push(job.seconds);
            window.sessions += job.sessions;
            window.failed += job.failed;
            window.totals.seconds += job.seconds;
            window.totals.cpu += job.cpu;
            window.totals.compute.absorb(&job.compute);
            window.totals.rounds += job.rounds;
            window.totals.blocking_waits += job.blocking_waits;
            window.totals.messages += job.messages;
            if let Some(party) = &job.party {
                window.party.absorb(party);
            }
        }
        window.seam = probe.counts();
        window.calib_ms = median(&samples);
        window
    }
}

/// Socket-tier counters of the rig, for deltas across a window.
#[derive(Debug, Clone, Copy, Default)]
struct TierCounters {
    wait: WaitStats,
    delivery: DeliveryStats,
    sealing: SealingStats,
}

impl TierCounters {
    fn of(prepared: &Prepared) -> TierCounters {
        match &prepared.rig {
            Rig::Memory(network) => TierCounters {
                wait: network.wait_stats().unwrap_or_default(),
                ..TierCounters::default()
            },
            Rig::Tcp { transport, .. } => TierCounters {
                wait: transport.wait_stats(),
                delivery: transport.delivery_stats(),
                sealing: transport
                    .sealing_report()
                    .map(|r| r.total())
                    .unwrap_or_default(),
            },
            Rig::Processes(_) => TierCounters::default(),
        }
    }
}

/// `(backend, delivery)` the run measured, read from the rig.
fn path_labels(prepared: &Prepared) -> (String, String) {
    match &prepared.rig {
        Rig::Memory(_) => ("in-memory".into(), "in-memory".into()),
        Rig::Tcp { transport, .. } => (
            transport.backend().to_string(),
            transport.delivery_mode().as_str().into(),
        ),
        Rig::Processes(_) => (
            ppc_net::TransportBackend::default_for_host().to_string(),
            "per-process".into(),
        ),
    }
}

/// Runs `spec` and computes its metrics.
pub fn run(spec: &RunSpec) -> Result<Report, String> {
    let workload = spec.workload;
    let scenario = workload.spec(spec.seed).generate()?;
    let oracle = Oracle::of(&scenario)?;
    let workdir = Workdir::create(workload.name)?;
    let mut reference = Reference::start()?;

    // Set-up, several times, each calibrated by a reference sample taken
    // right before it; the last deployment is the one measured.
    let mut setups: Vec<SetupTimes> = Vec::with_capacity(SETUP_REPS);
    let mut setup_samples = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        setup_samples.push(reference.sample());
        let fresh = prepare(&workload, &scenario, workdir.path())?;
        setups.push(fresh.times);
        prepared = Some(fresh);
    }
    let prepared = prepared.expect("SETUP_REPS > 0");
    let (backend, delivery) = path_labels(&prepared);
    let mut bench = Bench {
        prepared,
        oracle,
        reference,
        federation_reference: None,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };

    // Warm-up: let lazy set-up finish and caches fill before timing.
    let warmup = (spec.seconds / 5.0).min(1.0);
    bench.window(&Probe::counting(), warmup);

    let mut report = Report::default();
    let setup_median = |phase: fn(&SetupTimes) -> f64| {
        let scaled: Vec<f64> = setups
            .iter()
            .zip(&setup_samples)
            .map(|(times, calib_ms)| phase(times) * CALIB_NOMINAL_MS / calib_ms)
            .collect();
        median(&scaled)
    };
    let windows = if spec.trace {
        let keyring = ChannelKeyring::from_master(&scenario.master);
        let windows = measure_traced(&mut bench, spec, &keyring, &mut report);
        for (name, phase) in [
            (
                "setup.trusted_setup_s",
                (|t| t.trusted) as fn(&SetupTimes) -> f64,
            ),
            ("setup.router_spawn_s", |t| t.router),
            ("setup.connect_s", |t| t.connect),
        ] {
            report.metrics.insert(name, setup_median(phase));
        }
        windows
    } else {
        let windows: Vec<Window> = (0..ROUNDS)
            .map(|_| bench.window(&Probe::counting(), spec.seconds / ROUNDS as f64))
            .collect();
        end_to_end(&windows, &mut report);
        report
            .metrics
            .insert("setup_s", setup_median(SetupTimes::total));
        windows
    };

    // Sealed links latch a coalescing bypass when their traffic averages
    // under 1.5 envelopes per record; which side of that a run lands on is
    // part of what it measured.
    let bypassed = match &bench.prepared.rig {
        Rig::Tcp { transport, .. } => transport.coalescing_bypassed().to_string(),
        _ => "null".into(),
    };
    report.attempted = bench.attempted;
    report.failed = bench.failed;
    report.failures.append(&mut bench.failures);
    report.correct = report.failed == 0
        && report.failures.is_empty()
        && report.metrics.values().all(|v| v.is_finite());
    let list = |values: Vec<String>| format!("[{}]", values.join(", "));
    let raw_latencies: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.latencies.iter().map(|s| s * 1e3))
        .collect();
    let raw_rates: Vec<f64> = windows.iter().map(Window::raw_rate).collect();
    report.provenance = vec![
        ("workload", quote(workload.name)),
        ("seed", spec.seed.to_string()),
        ("scenario_seed", workload.spec(spec.seed).seed.to_string()),
        ("cores", host::cores().to_string()),
        ("backend", quote(&backend)),
        ("delivery", quote(&delivery)),
        ("coalescing_bypassed", bypassed),
        ("trace", spec.trace.to_string()),
        ("windows", windows.len().to_string()),
        ("window_s", number(spec.seconds / windows.len() as f64)),
        ("warmup_s", number(warmup)),
        ("setup_reps", SETUP_REPS.to_string()),
        ("setup_calib_ms", number(median(&setup_samples))),
        (
            "calib_ms",
            list(windows.iter().map(|w| number(w.calib_ms)).collect()),
        ),
        (
            "jobs",
            list(
                windows
                    .iter()
                    .map(|w| w.latencies.len().to_string())
                    .collect(),
            ),
        ),
        ("raw_sessions_per_s", number(median(&raw_rates))),
        ("raw_job_p50_ms", number(median(&raw_latencies))),
        (
            "raw_setup_s",
            number(median(
                &setups.iter().map(SetupTimes::total).collect::<Vec<_>>(),
            )),
        ),
    ];
    Ok(report)
}

/// The end-to-end metrics of an untraced run (all but `setup_s`).
fn end_to_end(windows: &[Window], report: &mut Report) {
    let latencies: Vec<f64> = windows.iter().flat_map(Window::latencies_ms).collect();
    let rates: Vec<f64> = windows.iter().map(|w| w.raw_rate() / w.scale()).collect();
    let cpu: Vec<f64> = windows
        .iter()
        .map(|w| w.totals.cpu * 1e3 * w.scale() / w.sessions.max(1) as f64)
        .collect();
    let sessions: usize = windows.iter().map(|w| w.sessions).sum();
    // In-process workloads count bytes at the transport seam; the
    // federation's only view of its wire is what the parties report sealing.
    let bytes: u64 = windows
        .iter()
        .map(|w| w.seam.bytes + w.party.plaintext_bytes)
        .sum();
    let metrics = &mut report.metrics;
    metrics.insert("sessions_per_s", median(&rates));
    metrics.insert("job_p50_ms", percentile(&latencies, 50.0));
    metrics.insert("job_p90_ms", percentile(&latencies, 90.0));
    metrics.insert("cpu_ms_per_session", median(&cpu));
    metrics.insert(
        "wire_bytes_per_session",
        bytes as f64 / sessions.max(1) as f64,
    );
    let peak_heap = windows
        .iter()
        .map(|w| w.party.peak_heap_bytes)
        .fold(crate::heap::peak_bytes(), u64::max);
    metrics.insert("peak_heap_mb", peak_heap as f64 / (1u64 << 20) as f64);
}

/// An untraced and a traced window, then the replays; fills the per-layer
/// metrics and returns both windows.
fn measure_traced(
    bench: &mut Bench,
    spec: &RunSpec,
    keyring: &ChannelKeyring,
    report: &mut Report,
) -> Vec<Window> {
    let half = spec.seconds / 2.0;
    let untraced = bench.window(&Probe::counting(), half);
    let before = TierCounters::of(&bench.prepared);
    let traced = bench.window(&Probe::traced(), half);
    let after = TierCounters::of(&bench.prepared);

    // One more job with its envelopes and outcomes kept, for the replays.
    let probe = Probe::traced();
    probe.start_capture();
    let (capture_job, outcomes) = bench.job(&probe);
    let envelopes = probe.take_capture();
    let capture_sessions = capture_job.sessions.max(1) as f64;
    let mut cluster = Vec::with_capacity(REPLAYS);
    let mut wire = Vec::with_capacity(REPLAYS);
    for _ in 0..REPLAYS {
        if !outcomes.is_empty() {
            match replay_clustering(&outcomes, &bench.prepared.specs) {
                Ok(spent) => cluster.push(spent),
                Err(e) => report.failures.push(e),
            }
        }
        if spec.workload.deployment == Deployment::Tcp {
            match replay_wire(&envelopes, keyring) {
                Ok(timing) => wire.push(timing),
                Err(e) => report.failures.push(e),
            }
        }
    }
    let replay_ms = |samples: Vec<Duration>| {
        median(
            &samples
                .iter()
                .map(|d| d.as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        ) * traced.scale()
            / capture_sessions
    };
    let wire_ms = |part: fn(&WireReplay) -> Duration| replay_ms(wire.iter().map(part).collect());
    let cluster_ms = replay_ms(cluster);
    let (encode_ms, decode_ms) = (wire_ms(|w| w.encode), wire_ms(|w| w.decode));
    let (seal_ms, open_ms) = (wire_ms(|w| w.seal), wire_ms(|w| w.open));

    let scale = traced.scale();
    let sessions = traced.completed().max(1) as f64;
    let jobs = traced.latencies.len() as f64;
    let per_session = |count: u64| count as f64 / sessions;
    let ms_per_session = |d: Duration| d.as_secs_f64() * 1e3 * scale / sessions;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let seam = &traced.seam;
    let compute = &traced.totals.compute;
    let machines = [
        compute.derive_nanos,
        compute.fold_unmask_nanos,
        compute.merge_nanos,
    ]
    .map(|n| ms_per_session(Duration::from_nanos(n)));
    let transport = [seam.send, seam.flush, seam.try_receive, seam.park].map(ms_per_session);
    let job_ms = traced.totals.seconds * 1e3 * scale / sessions;
    let unattributed = if outcomes.is_empty() {
        0.0
    } else {
        job_ms - transport.iter().sum::<f64>() - machines.iter().sum::<f64>() - cluster_ms
    };
    let (wait, delivery, sealing) = (
        WaitStats {
            blocking_waits: after.wait.blocking_waits - before.wait.blocking_waits,
            wakeups: after.wait.wakeups - before.wait.wakeups,
        },
        DeliveryStats {
            pool_hits: after.delivery.pool_hits - before.delivery.pool_hits,
            pool_misses: after.delivery.pool_misses - before.delivery.pool_misses,
            batched_wakes: after.delivery.batched_wakes - before.delivery.batched_wakes,
            wake_signals: after.delivery.wake_signals - before.delivery.wake_signals,
            ..DeliveryStats::default()
        },
        SealingStats {
            records_sealed: after.sealing.records_sealed - before.sealing.records_sealed,
            frames_sealed: after.sealing.frames_sealed - before.sealing.frames_sealed,
            sealed_bytes: after.sealing.sealed_bytes - before.sealing.sealed_bytes,
            ..SealingStats::default()
        },
    );
    let party = &traced.party;
    let per_job_ms = |seconds: f64| seconds * 1e3 * scale / jobs.max(1.0);
    let p50 = |w: &Window| percentile(&w.latencies_ms().collect::<Vec<_>>(), 50.0);
    let residual = if spec.workload.deployment == Deployment::Tcp {
        transport[0] + transport[1] - seal_ms - encode_ms
    } else {
        0.0
    };

    let metrics = &mut report.metrics;
    let mut put = |name: &'static str, value: f64| {
        metrics.insert(name, value);
    };
    put("machines.derive_ms_per_session", machines[0]);
    put("machines.fold_unmask_ms_per_session", machines[1]);
    put("machines.merge_ms_per_session", machines[2]);
    put("cluster.fit_ms_per_session", cluster_ms);
    put(
        "engine.rounds_per_session",
        per_session(traced.totals.rounds),
    );
    put(
        "engine.blocking_waits_per_session",
        per_session(traced.totals.blocking_waits),
    );
    put(
        "engine.messages_per_session",
        per_session(traced.totals.messages),
    );
    put("engine.unattributed_ms_per_session", unattributed);
    put("transport.send_ms_per_session", transport[0]);
    put("transport.flush_ms_per_session", transport[1]);
    put("transport.try_receive_ms_per_session", transport[2]);
    put("transport.park_ms_per_session", transport[3]);
    put("transport.parks_per_session", per_session(seam.parks));
    put(
        "transport.envelopes_per_session",
        per_session(seam.envelopes),
    );
    put(
        "transport.mean_envelope_bytes",
        ratio(seam.bytes, seam.envelopes),
    );
    for (name, bytes) in WIRE_METRICS.into_iter().zip(seam.kind_bytes) {
        put(name, per_session(bytes));
    }
    put("framed.encode_ms_per_session", encode_ms);
    put("framed.decode_ms_per_session", decode_ms);
    put("secure.seal_ms_per_session", seal_ms);
    put("secure.open_ms_per_session", open_ms);
    put(
        "secure.records_per_session",
        per_session(sealing.records_sealed),
    );
    put(
        "secure.frames_per_record",
        ratio(sealing.frames_sealed, sealing.records_sealed),
    );
    put(
        "secure.sealed_bytes_per_session",
        per_session(sealing.sealed_bytes),
    );
    put(
        "socket.blocking_waits_per_session",
        per_session(wait.blocking_waits),
    );
    put("socket.wakeups_per_session", per_session(wait.wakeups));
    put(
        "delivery.wake_signals_per_session",
        per_session(delivery.wake_signals),
    );
    put(
        "delivery.batched_wakes_per_session",
        per_session(delivery.batched_wakes),
    );
    put(
        "delivery.pool_hit_rate",
        ratio(
            delivery.pool_hits,
            delivery.pool_hits + delivery.pool_misses,
        ),
    );
    put("socket.send_residual_ms_per_session", residual);
    put("party.spawn_ms_per_job", per_job_ms(party.spawn));
    put(
        "party.coordinator_ms_per_job",
        per_job_ms(party.coordinator),
    );
    put("party.reap_ms_per_job", per_job_ms(party.reap));
    put(
        "party.child_cpu_ms_per_session",
        party.child_cpu * 1e3 * scale / sessions,
    );
    put("party.rounds_per_session", per_session(party.rounds));
    put(
        "party.blocking_waits_per_session",
        per_session(party.blocking_waits),
    );
    put(
        "party.frames_per_record",
        ratio(party.frames_sealed, party.records_sealed),
    );
    put(
        "party.sealed_bytes_per_session",
        per_session(party.sealed_bytes),
    );
    put(
        "party.wake_signals_per_session",
        per_session(party.wake_signals),
    );
    put("calib_ms", traced.calib_ms);
    put(
        "trace.overhead_pct",
        (p50(&traced) / p50(&untraced) - 1.0) * 100.0,
    );

    if unattributed < 0.0 {
        eprintln!(
            "warning: engine.unattributed_ms_per_session is negative ({unattributed:.3}): \
             the timed layers account for more than the jobs' wall time"
        );
    }
    vec![untraced, traced]
}
