//! Generates `BENCH_pr10.json`: the scenario factory as the bench
//! surface, measured on both socket I/O backends.
//!
//! Every row is derived from a seeded [`ScenarioSpec`] and records its
//! seed, so any number can be reproduced bit-for-bit by regenerating the
//! same scenario; every row also records the host's `cores`, the
//! `transport_backend` it ran on (`in-memory` for rows that never touch a
//! socket, otherwise `blocking` — one reader thread per link — or
//! `reactor` — all sockets on one process-global event loop) and the
//! `delivery` path (`sharded`: per-party slots). The axes:
//!
//! * **sites × objects × skew** — three oracle rows run the in-process
//!   session engine over generated workloads (uniform 4-site, zipf
//!   8-site, one-dominant-site 5-site), each with the factory's
//!   per-session manifest diversity (linkage, weights, chunk windows,
//!   numeric modes);
//! * **channel security × backend** — the same scenario through a
//!   loopback-TCP frame router, plaintext vs sealed (ChaCha20-Poly1305
//!   end-to-end) on each socket backend, byte-identity to the oracle
//!   asserted on every rep;
//! * **loss/latency** — the scenario under the [`SimulatedWan`] cost
//!   model (clean WAN and lossy DSL), virtual wire costs recorded next to
//!   the wall time;
//! * **deployment × backend** — a multi-process federation: real
//!   `ppc-party` OS processes fed the *generated* CSVs, `--schema` string
//!   and `--manifest` file, plaintext vs sealed on each `--transport`,
//!   every flavor's result stream fingerprint-equal;
//! * **link scaling** — a 64-link ring through one router process per
//!   backend: the workload the reactor exists for (O(1) threads where
//!   blocking pays a thread per link);
//! * **delivery contention** — 64 co-hosted parties on one transport, 4
//!   deliverer threads racing 4 receiver threads through the local
//!   delivery path, the stream checksum asserted identical on every rep
//!   and the wake signals counted;
//! * **parallel merge (PR-7 re-run)** — `MergeAccumulator`'s sequential
//!   vs multi-threaded normalised fold over a large condensed matrix,
//!   bit-identity asserted.
//!
//! Every timed row records **min/median/max** of its repetitions: the
//! single-core CI boxes this runs on are noisy (±20% between identical
//! runs is common), and a lone median overclaims.
//!
//! ```text
//! cargo build --release -p ppc-party
//! cargo run --release -p ppc-party --bin secure_report -- \
//!     [--reps N] [--scale quick|full] [--out BENCH_pr10.json]
//! ```

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppc_cluster::{CondensedDistanceMatrix, MergeAccumulator};
use ppc_core::protocol::engine::SessionSpec;
use ppc_core::protocol::sharded::ShardedEngine;
use ppc_net::{
    Backoff, ChannelKeyring, DeliveryMode, Envelope, Network, PartyId, SimulatedWan, TcpRouter,
    TcpTransport, Transport, TransportBackend, WaitTransport, WanProfile,
};
use ppc_scenario::chaos::fingerprint_process_stdout;
use ppc_scenario::digest::fingerprint_outcomes;
use ppc_scenario::factory::{Scenario, ScenarioSpec, SchemaShape, SiteSkew};

/// The `delivery` provenance label of every socket row.
const DELIVERY: &str = DeliveryMode::Sharded.as_str();

/// Bench scale: `quick` keeps a full run in CI minutes on one core,
/// `full` multiplies the object counts for real hardware.
#[derive(Clone, Copy, PartialEq)]
enum Scale {
    Quick,
    Full,
}

impl Scale {
    fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// Object count for a scenario: `quick` baseline or the `full`
    /// multiple.
    fn objects(self, quick: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Full => quick * 4,
        }
    }
}

struct Args {
    reps: usize,
    scale: Scale,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        reps: 5,
        scale: Scale::Quick,
        out: "BENCH_pr10.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("flag {name} needs a value"))
        };
        match flag.as_str() {
            "--reps" => {
                args.reps = value("--reps")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if args.reps == 0 {
                    return Err("--reps must be at least 1".into());
                }
            }
            "--scale" => {
                args.scale = match value("--scale")?.as_str() {
                    "quick" => Scale::Quick,
                    "full" => Scale::Full,
                    other => return Err(format!("--scale must be quick or full, got '{other}'")),
                }
            }
            "--out" => args.out = value("--out")?,
            other => {
                return Err(format!(
                    "unknown flag '{other}' (expected --reps N, --scale quick|full, --out PATH)"
                ))
            }
        }
    }
    Ok(args)
}

/// The scenario axis: three distinct shapes of the generated federation.
fn oracle_specs(scale: Scale) -> Vec<(&'static str, ScenarioSpec)> {
    vec![
        (
            "uniform_4site",
            ScenarioSpec {
                seed: 0xBE4C_0801,
                sites: 4,
                objects: scale.objects(240),
                clusters: 3,
                skew: SiteSkew::Uniform,
                shape: SchemaShape::default(),
                sessions: 3,
                chunk_base: Some(8),
            },
        ),
        (
            "zipf_8site",
            ScenarioSpec {
                seed: 0xBE4C_0802,
                sites: 8,
                objects: scale.objects(480),
                clusters: 4,
                skew: SiteSkew::Zipf { exponent: 1.0 },
                shape: SchemaShape::default(),
                sessions: 2,
                chunk_base: Some(16),
            },
        ),
        (
            "dominant_5site",
            ScenarioSpec {
                seed: 0xBE4C_0803,
                sites: 5,
                objects: scale.objects(360),
                clusters: 3,
                skew: SiteSkew::DominantSite { fraction: 0.6 },
                shape: SchemaShape::default(),
                sessions: 2,
                chunk_base: Some(8),
            },
        ),
    ]
}

/// The multi-process scenario: 3 sites keeps the federation at four
/// `ppc-party` processes plus the router.
fn process_spec(scale: Scale) -> ScenarioSpec {
    ScenarioSpec {
        seed: 0xBE4C_0804,
        sites: 3,
        objects: scale.objects(120),
        clusters: 2,
        skew: SiteSkew::Zipf { exponent: 0.9 },
        shape: SchemaShape::default(),
        sessions: 2,
        chunk_base: Some(8),
    }
}

/// min / median / max of a sample set (seconds).
#[derive(Clone, Copy)]
struct Spread {
    min: f64,
    median: f64,
    max: f64,
}

impl Spread {
    fn of(mut samples: Vec<f64>) -> Spread {
        samples.sort_by(f64::total_cmp);
        Spread {
            min: samples[0],
            median: samples[samples.len() / 2],
            max: samples[samples.len() - 1],
        }
    }

    fn measure(reps: usize, mut run: impl FnMut()) -> Spread {
        Spread::of(
            (0..reps)
                .map(|_| {
                    let started = Instant::now();
                    run();
                    started.elapsed().as_secs_f64()
                })
                .collect(),
        )
    }

    /// `"min_seconds": …, "median_seconds": …, "max_seconds": …` fields.
    fn seconds_fields(&self) -> String {
        format!(
            "\"min_seconds\": {:.6}, \"median_seconds\": {:.6}, \"max_seconds\": {:.6}",
            self.min, self.median, self.max
        )
    }

    /// Throughput fields for `work / seconds` (max time → min rate).
    fn rate_fields(&self, work: f64, unit: &str) -> String {
        format!(
            "\"min_{unit}\": {:.2}, \"median_{unit}\": {:.2}, \"max_{unit}\": {:.2}",
            work / self.max,
            work / self.median,
            work / self.min
        )
    }
}

/// `"seed": …, "sites": …, "objects": …, "sessions": …` — the provenance
/// fields every scenario-derived row carries.
fn scenario_fields(scenario: &Scenario) -> String {
    format!(
        "\"seed\": {}, \"sites\": {}, \"objects\": {}, \"sessions\": {}",
        scenario.spec.seed, scenario.spec.sites, scenario.spec.objects, scenario.spec.sessions
    )
}

/// Host parallelism, recorded in every row so no number is read without
/// knowing the box it came from.
fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `"cores": …, "transport_backend": "…", "delivery": "…"` — the
/// provenance fields every BENCH row carries. `backend` is `in-memory`
/// for rows that never touch a socket, otherwise the socket I/O driver;
/// `delivery` is the socket delivery path ([`DELIVERY`], or `in-memory`
/// when no socket inbox is involved).
fn provenance(backend: &str, delivery: &str) -> String {
    format!(
        "\"cores\": {}, \"transport_backend\": \"{backend}\", \"delivery\": \"{delivery}\"",
        cores()
    )
}

/// Runs the scenario's sessions through a one-shard [`ShardedEngine`] on
/// `transport` and returns the outcome fingerprint.
fn sharded_fingerprint<T: WaitTransport + Sync + 'static>(
    specs: &[SessionSpec],
    transport: T,
) -> u64 {
    let mut engine = ShardedEngine::new(vec![transport]).unwrap();
    for spec in specs {
        engine.add_session(spec.clone());
    }
    engine.set_stall_budget(Duration::from_millis(100), 600);
    let run = engine.run().unwrap();
    fingerprint_outcomes(&run.outcomes)
}

fn spawn_party(binary: &std::path::Path, args: &[String], keep_stdout: bool) -> Child {
    Command::new(binary)
        .args(args)
        .stdout(if keep_stdout {
            Stdio::piped()
        } else {
            // Serving parties print their own RESULT/MATRIX lines; nobody
            // reads them here, and an undrained pipe would gag the
            // federation once the OS buffer fills.
            Stdio::null()
        })
        .stderr(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| panic!("cannot spawn {}: {e}", binary.display()))
}

fn drain(child: Child, label: &str) -> String {
    let output = child.wait_with_output().expect("child waited");
    if !output.status.success() {
        let mut text = String::new();
        let _ = (&output.stdout[..]).read_to_string(&mut text);
        panic!("{label} failed ({}): {text}", output.status);
    }
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn sibling(name: &str) -> std::path::PathBuf {
    let mut path = std::env::current_exe().expect("current exe");
    path.set_file_name(name);
    path
}

/// One federation of real `ppc-party` processes over a loopback-TCP
/// router, fed the scenario's generated CSVs, schema and manifest.
/// Returns the wall time and the coordinator's result-stream fingerprint.
fn multi_process_run(
    binary: &std::path::Path,
    scenario: &Scenario,
    csvs: &[std::path::PathBuf],
    manifest: &std::path::Path,
    sealed: bool,
    backend: TransportBackend,
) -> (f64, u64) {
    let (mut router, addr) = TcpRouter::spawn_with_backend("127.0.0.1:0", backend).unwrap();
    let connect = format!("tcp:{addr}");
    let common = |rest: &[&str]| -> Vec<String> {
        let mut args: Vec<String> = rest.iter().map(|s| s.to_string()).collect();
        args.extend([
            "--connect".into(),
            connect.clone(),
            "--seed".into(),
            scenario.spec.seed.to_string(),
            "--schema".into(),
            scenario.schema_cli().to_string(),
            "--transport".into(),
            backend.to_string(),
        ]);
        if !sealed {
            args.push("--insecure".into());
        }
        args
    };
    let started = Instant::now();
    let mut serves = Vec::new();
    for site in 1..scenario.spec.sites {
        serves.push((
            spawn_party(
                binary,
                &common(&[
                    "serve",
                    "--party",
                    &format!("DH{site}"),
                    "--coordinator",
                    "DH0",
                    "--csv",
                    &csvs[site as usize].display().to_string(),
                ]),
                false,
            ),
            format!("serve DH{site}"),
        ));
    }
    serves.push((
        spawn_party(
            binary,
            &common(&["serve", "--party", "TP", "--coordinator", "DH0"]),
            false,
        ),
        "serve TP".to_string(),
    ));
    let remote: Vec<String> = (1..scenario.spec.sites)
        .map(|i| format!("DH{i}"))
        .chain(["TP".to_string()])
        .collect();
    let coordinate = spawn_party(
        binary,
        &common(&[
            "coordinate",
            "--party",
            "DH0",
            "--remote",
            &remote.join(","),
            "--csv",
            &csvs[0].display().to_string(),
            "--clusters",
            "2",
            "--manifest",
            &manifest.display().to_string(),
        ]),
        true,
    );
    let stdout = drain(coordinate, "coordinate");
    let elapsed = started.elapsed().as_secs_f64();
    for (child, label) in serves {
        drain(child, &label);
    }
    router.shutdown();
    (elapsed, fingerprint_process_stdout(&stdout))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ERROR: {e}");
            std::process::exit(1);
        }
    };
    let reps = args.reps;
    let mut rows = Vec::new();

    // Axis 1: sites × objects × skew, in-process oracle runs.
    let mut first: Option<(Scenario, u64)> = None;
    for (name, spec) in oracle_specs(args.scale) {
        let scenario = spec.generate().unwrap();
        let sessions = scenario.spec.sessions as f64;
        let mut fingerprint = 0u64;
        let spread = Spread::measure(reps, || {
            let outcomes = scenario.oracle().unwrap();
            fingerprint = fingerprint_outcomes(&outcomes);
        });
        rows.push(format!(
            "    {{\"id\": \"scenario/oracle/{name}\", {}, {}, {}, {}, \
             \"fingerprint\": \"{fingerprint:016x}\"}}",
            provenance("in-memory", "in-memory"),
            scenario_fields(&scenario),
            spread.seconds_fields(),
            spread.rate_fields(sessions, "sessions_per_second"),
        ));
        if first.is_none() {
            first = Some((scenario, fingerprint));
        }
    }
    let (reference, oracle_fp) = first.expect("at least one oracle scenario");
    let specs = reference.session_specs().unwrap();
    let sessions = reference.spec.sessions as f64;

    // Axis 2: channel security × socket backend over a loopback-TCP frame
    // router, identity to the oracle asserted on every rep. The blocking
    // backend is the behavioral oracle for the reactor: same wire format,
    // same replay/resume machinery, different I/O driver — the
    // fingerprint assert holds every flavor to the in-process truth.
    for backend in [TransportBackend::Blocking, TransportBackend::Reactor] {
        let mut plaintext_median = 0.0;
        for sealed in [false, true] {
            let spread = Spread::measure(reps, || {
                let (mut router, addr) =
                    TcpRouter::spawn_with_backend("127.0.0.1:0", backend).unwrap();
                let mut transport = TcpTransport::new_with_backend(reference.parties(), backend);
                if sealed {
                    transport.set_security(ChannelKeyring::from_master(&reference.master));
                }
                transport.connect(addr, &Backoff::default()).unwrap();
                let fingerprint = sharded_fingerprint(&specs, transport);
                assert_eq!(fingerprint, oracle_fp, "TCP run diverged from the oracle");
                router.shutdown();
            });
            let extra = if sealed {
                format!(
                    ", \"overhead_vs_plaintext_percent\": {:.1}",
                    (spread.median / plaintext_median - 1.0) * 100.0
                )
            } else {
                plaintext_median = spread.median;
                String::new()
            };
            rows.push(format!(
                "    {{\"id\": \"scenario/sharded_tcp/{backend}/{DELIVERY}/{}\", {}, {}, {}, {}, \
                 \"bit_identical_to_oracle\": true{extra}}}",
                if sealed { "sealed" } else { "plaintext" },
                provenance(backend.as_str(), DELIVERY),
                scenario_fields(&reference),
                spread.seconds_fields(),
                spread.rate_fields(sessions, "sessions_per_second"),
            ));
        }
    }

    // Axis 3: loss/latency under the simulated-WAN cost model. Loss here
    // is virtual-cost accounting (delivery is unchanged), so the rows
    // record the wire costs a real deployment would pay next to the
    // unchanged results.
    for (profile_name, profile, wan_seed) in [
        ("wan", WanProfile::wan(), 21u64),
        ("lossy_dsl", WanProfile::lossy_dsl(), 23u64),
    ] {
        let mut stats = None;
        let spread = Spread::measure(reps, || {
            let transport = SimulatedWan::new(
                Network::with_parties(reference.spec.sites),
                profile,
                wan_seed,
            )
            .unwrap();
            let wan = transport.clone();
            let fingerprint = sharded_fingerprint(&specs, transport);
            assert_eq!(fingerprint, oracle_fp, "WAN run diverged from the oracle");
            stats = Some(wan.stats());
        });
        let stats = stats.expect("at least one rep ran");
        rows.push(format!(
            "    {{\"id\": \"scenario/wan/{profile_name}\", {}, {}, {}, \
             \"virtual_wire_seconds\": {:.3}, \"bytes_on_wire\": {}, \
             \"retransmissions\": {}, \"bit_identical_to_oracle\": true}}",
            provenance("in-memory", "in-memory"),
            scenario_fields(&reference),
            spread.seconds_fields(),
            stats.virtual_seconds,
            stats.bytes_on_wire,
            stats.retransmissions(),
        ));
    }

    // Axis 4: real OS processes fed the generated artefacts, plaintext vs
    // sealed on each socket backend (`--transport` end to end: every
    // party process and the router). All four flavors must produce
    // fingerprint-identical result streams — sealing is transparent to
    // the protocol and the backends are wire-identical.
    let binary = sibling("ppc-party");
    if binary.exists() {
        let scenario = process_spec(args.scale).generate().unwrap();
        let proc_sessions = scenario.spec.sessions as f64;
        let dir = std::env::temp_dir().join(format!("ppc-scenario-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csvs = scenario.write_csvs(&dir).unwrap();
        let manifest = dir.join("manifest.txt");
        std::fs::write(&manifest, scenario.manifest_text()).unwrap();

        let mut reference_stats: Option<(f64, u64)> = None;
        for backend in [TransportBackend::Blocking, TransportBackend::Reactor] {
            for sealed in [false, true] {
                let mut fingerprint = 0u64;
                let spread = Spread::of(
                    (0..reps)
                        .map(|_| {
                            let (elapsed, fp) = multi_process_run(
                                &binary, &scenario, &csvs, &manifest, sealed, backend,
                            );
                            fingerprint = fp;
                            elapsed
                        })
                        .collect(),
                );
                let extra = match reference_stats {
                    Some((median, plain_fp)) => {
                        assert_eq!(
                            fingerprint, plain_fp,
                            "federation flavors diverged (sealed={sealed}, backend={backend})"
                        );
                        format!(
                            ", \"overhead_vs_blocking_plaintext_percent\": {:.1}, \
                             \"fingerprint_equals_blocking_plaintext\": true",
                            (spread.median / median - 1.0) * 100.0
                        )
                    }
                    None => {
                        reference_stats = Some((spread.median, fingerprint));
                        String::new()
                    }
                };
                rows.push(format!(
                    "    {{\"id\": \"scenario/multi_process/{backend}/{}\", {}, {}, {}, {}, \
                     \"fingerprint\": \"{fingerprint:016x}\"{extra}, \
                     \"note\": \"includes process spawn + control-plane handshake\"}}",
                    if sealed { "sealed" } else { "plaintext" },
                    provenance(backend.as_str(), DELIVERY),
                    scenario_fields(&scenario),
                    spread.seconds_fields(),
                    spread.rate_fields(proc_sessions, "sessions_per_second"),
                ));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        rows.push(format!(
            "    {{\"id\": \"scenario/multi_process\", \"skipped\": \
             \"{} not built; run cargo build --release -p ppc-party first\"}}",
            binary.display()
        ));
    }

    // Axis 5 (PR-9 re-run): link scaling — a 64-link ring through one
    // in-process router per backend, the workload the reactor exists for.
    // Each rep connects 64 single-party transports, pushes PASSES full
    // ring rotations (64 envelopes each) and tears down; the blocking
    // backend pays ~2 threads per link for the same bytes.
    for backend in [TransportBackend::Blocking, TransportBackend::Reactor] {
        const LINKS: usize = 64;
        const PASSES: usize = 4;
        let spread = Spread::measure(reps, || {
            let (mut router, addr) = TcpRouter::spawn_with_backend("127.0.0.1:0", backend).unwrap();
            let transports: Vec<TcpTransport> = (0..LINKS)
                .map(|i| {
                    let t =
                        TcpTransport::new_with_backend([PartyId::DataHolder(i as u32)], backend);
                    t.connect(addr, &Backoff::default()).unwrap();
                    t
                })
                .collect();
            for pass in 0..PASSES {
                for (i, t) in transports.iter().enumerate() {
                    t.send(Envelope::new(
                        PartyId::DataHolder(i as u32),
                        PartyId::DataHolder(((i + 1) % LINKS) as u32),
                        "bench/ring",
                        vec![pass as u8; 64],
                    ))
                    .unwrap();
                    t.flush().unwrap();
                }
                for (i, t) in transports.iter().enumerate() {
                    let me = PartyId::DataHolder(i as u32);
                    t.receive_any_of(&[me], Duration::from_secs(30))
                        .unwrap()
                        .expect("ring envelope arrives");
                }
            }
            for t in &transports {
                t.shutdown();
            }
            router.shutdown();
        });
        rows.push(format!(
            "    {{\"id\": \"stress/ring_64_links/{backend}/{DELIVERY}\", {}, \"links\": {LINKS}, \
             \"passes\": {PASSES}, \"messages\": {}, {}, {}, {}}}",
            provenance(backend.as_str(), DELIVERY),
            LINKS * PASSES,
            spread.seconds_fields(),
            spread.rate_fields((LINKS * PASSES) as f64, "messages_per_second"),
            spread.rate_fields(PASSES as f64, "sessions_per_second"),
        ));
    }

    // Axis 6: delivery contention. 64 parties co-hosted on ONE
    // transport, 4 deliverer threads racing 4 receiver threads through
    // the local delivery path. Each party has its own slot, and a
    // delivery signals only the parked receiver that watches it. The
    // stream checksum is asserted identical on every rep. The
    // wake_signals field (median over reps) keeps the wake design
    // visible even when single-core wall time is noise-bound: a
    // broadcast wake would signal once per message, 25600 per rep.
    {
        const PARTIES: u32 = 64;
        const DRIVERS: u32 = 4;
        const ROUNDS: u64 = 100;
        let contention_rep = || -> (u64, u64) {
            let transport = Arc::new(TcpTransport::new_with_backend(
                (0..PARTIES).map(PartyId::DataHolder),
                TransportBackend::default_for_host(),
            ));
            let checksum = std::sync::atomic::AtomicU64::new(0);
            std::thread::scope(|scope| {
                for driver in 0..DRIVERS {
                    let transport = Arc::clone(&transport);
                    scope.spawn(move || {
                        for round in 0..ROUNDS {
                            for to in 0..PARTIES {
                                transport
                                    .send(Envelope::new(
                                        PartyId::DataHolder(100 + driver),
                                        PartyId::DataHolder(to),
                                        "bench/contention",
                                        round.to_le_bytes().to_vec(),
                                    ))
                                    .unwrap();
                            }
                        }
                    });
                }
                for group in 0..DRIVERS {
                    let transport = Arc::clone(&transport);
                    let checksum = &checksum;
                    scope.spawn(move || {
                        let mine: Vec<PartyId> = (0..PARTIES)
                            .filter(|p| p % DRIVERS == group)
                            .map(PartyId::DataHolder)
                            .collect();
                        let expected = u64::from(DRIVERS) * ROUNDS * (PARTIES / DRIVERS) as u64;
                        let mut sum = 0u64;
                        for _ in 0..expected {
                            let envelope = transport
                                .receive_any_of(&mine, Duration::from_secs(30))
                                .unwrap()
                                .expect("contention envelope arrives");
                            let round =
                                u64::from_le_bytes(envelope.payload.as_slice().try_into().unwrap());
                            let from = match envelope.from {
                                PartyId::DataHolder(i) => u64::from(i),
                                PartyId::ThirdParty => u64::MAX,
                            };
                            let to = match envelope.to {
                                PartyId::DataHolder(i) => u64::from(i),
                                PartyId::ThirdParty => u64::MAX,
                            };
                            // Order-insensitive stream digest: addition
                            // commutes, so any legal interleaving of the
                            // same exactly-once stream sums identically.
                            sum = sum.wrapping_add(
                                (from << 40) ^ (to << 20) ^ round.wrapping_mul(0x9E37),
                            );
                        }
                        checksum.fetch_add(sum, std::sync::atomic::Ordering::SeqCst);
                    });
                }
            });
            (
                checksum.load(std::sync::atomic::Ordering::SeqCst),
                transport.delivery_stats().wake_signals,
            )
        };
        let mut reference_checksum: Option<u64> = None;
        let mut wake_signals = Vec::with_capacity(reps);
        let spread = Spread::measure(reps, || {
            let (checksum, signals) = contention_rep();
            wake_signals.push(signals);
            match reference_checksum {
                Some(reference) => assert_eq!(
                    checksum, reference,
                    "delivery contention produced different streams across reps"
                ),
                None => reference_checksum = Some(checksum),
            }
        });
        let checksum = reference_checksum.expect("at least one rep ran");
        wake_signals.sort_unstable();
        let messages = u64::from(DRIVERS) * ROUNDS * u64::from(PARTIES);
        rows.push(format!(
            "    {{\"id\": \"stress/delivery_contention/{DELIVERY}\", {}, \
             \"parties\": {PARTIES}, \"deliverers\": {DRIVERS}, \
             \"receivers\": {DRIVERS}, \"messages\": {messages}, {}, {}, \
             \"wake_signals\": {}, \"stream_checksum\": \"{checksum:016x}\", \
             \"checksum_identical_across_reps\": true}}",
            provenance("in-process", DELIVERY),
            spread.seconds_fields(),
            spread.rate_fields(messages as f64, "messages_per_second"),
            wake_signals[wake_signals.len() / 2],
        ));
    }

    // Axis 7 (PR-7 re-run): the parallel normalised merge. Six condensed
    // attribute matrices folded sequentially vs with every core,
    // bit-identity of the merged matrix asserted (the parallel fold is a
    // scheduling change, not a numeric one).
    {
        let n = match args.scale {
            Scale::Quick => 1200,
            Scale::Full => 2400,
        };
        let attributes = 6usize;
        let matrices: Vec<CondensedDistanceMatrix> = (0..attributes)
            .map(|a| {
                let mut m = CondensedDistanceMatrix::zeros(n);
                let mut state = 0x1234_5678_9ABC_DEF0u64 ^ (a as u64) << 32;
                for i in 1..n {
                    for j in 0..i {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        m.set(i, j, (state >> 11) as f64 / (1u64 << 53) as f64);
                    }
                }
                m
            })
            .collect();
        let fold = |threads: usize| -> CondensedDistanceMatrix {
            let mut acc = MergeAccumulator::new(n);
            for (a, matrix) in matrices.iter().enumerate() {
                let weight = 1.0 + a as f64 / attributes as f64;
                if threads <= 1 {
                    acc.push_normalized(matrix, weight).unwrap();
                } else {
                    acc.push_normalized_parallel(matrix, weight, threads)
                        .unwrap();
                }
            }
            acc.finish()
        };
        let sequential = fold(1);
        let mut seq_median = 0.0;
        // At least two threads for the parallel row so the parallel code
        // path (and its bit-identity) is exercised even on a 1-core box.
        for threads in [1usize, cores().max(2)] {
            let spread = Spread::measure(reps, || {
                let merged = fold(threads);
                let identical = merged
                    .condensed_values()
                    .iter()
                    .zip(sequential.condensed_values())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(identical, "parallel merge must be bit-identical");
            });
            let extra = if threads == 1 {
                seq_median = spread.median;
                String::new()
            } else {
                format!(
                    ", \"speedup_vs_sequential\": {:.3}",
                    seq_median / spread.median
                )
            };
            rows.push(format!(
                "    {{\"id\": \"compute/parallel_merge/{}threads\", {}, \"objects\": {n}, \
                 \"attributes\": {attributes}, {}, \"bit_identical_to_sequential\": true{extra}}}",
                threads,
                provenance("in-memory", "in-memory"),
                spread.seconds_fields(),
            ));
        }
    }

    let cores = cores();
    let json = format!(
        "{{\n  \"pr\": 10,\n  \"title\": \"Per-party delivery slots: socket transports on two \
         I/O backends across channel-security, WAN, deployment, link-scaling, \
         delivery-contention and parallel-merge axes\",\n  \
         \"harness\": \"secure_report binary; every row derives from a seeded ScenarioSpec and \
         records the seed (same seed => byte-identical scenario) plus the cores, \
         transport_backend and delivery path it ran on; timed rows record \
         min/median/max of {reps} runs (noisy single-core boxes); TCP rows on both backends \
         assert f64-bit identity to the in-process oracle on every rep; multi-process rows spawn real ppc-party OS processes on the \
         generated CSVs + manifest with --transport end to end and assert all four \
         sealed/plaintext x blocking/reactor result streams are fingerprint-identical; the \
         64-link ring and 64-party contention rows are the delivery-scaling workloads (see \
         crates/net/tests/delivery_stress.rs for FIFO/exactly-once/no-lost-wakeup asserts); \
         the parallel_merge rows re-run the PR-7 compute-path fold with a bit-identity \
         assert\",\n  \
         \"scale\": \"{}\",\n  \"cores\": {cores},\n  \"results\": [\n{}\n  ]\n}}\n",
        args.scale.name(),
        rows.join(",\n")
    );
    std::fs::write(&args.out, &json).unwrap();
    println!("{json}");
    println!("wrote {}", args.out);
}
