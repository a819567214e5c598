//! The multi-process acceptance tests: three **separate OS processes**
//! (two data holders and the third party) connected over loopback TCP
//! through a frame router must complete ≥ 4 concurrent sessions with
//! clusters and final dissimilarity matrix **byte-identical** to the
//! in-process oracle — sessions opened purely through the
//! in-band `ctl/` control plane, secrets derived per process from the
//! shared master seed.
//!
//! Since PR 5 the federation runs **AEAD-sealed by default**: the secure
//! test additionally taps the coordinator's raw TCP socket and asserts an
//! eavesdropper sees no plaintext protocol bytes (topics, control
//! announcements); the `--insecure` variant proves the tap *does* see
//! them on plaintext sockets (so the needle check is meaningful) while
//! results still match the oracle.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Output, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ppc_cluster::Linkage;
use ppc_core::alphabet::Alphabet;
use ppc_core::csv::to_csv;
use ppc_core::matrix::{DataMatrix, HorizontalPartition};
use ppc_core::protocol::driver::ClusteringRequest;
use ppc_core::protocol::engine::{EngineOutcome, SessionSpec};
use ppc_core::protocol::party::TrustedSetup;
use ppc_core::protocol::sharded::ShardedEngine;
use ppc_core::protocol::ProtocolConfig;
use ppc_core::record::Record;
use ppc_core::schema::{AttributeDescriptor, Schema};
use ppc_core::value::AttributeValue;
use ppc_crypto::Seed;
use ppc_net::{Network, TcpRouter};
use ppc_party::{render_clusters, render_f64_bits};

const SESSIONS: usize = 4;
const CLUSTERS: usize = 2;
const CHUNK: usize = 2;
const MASTER: u64 = 77;
const SCHEMA_FLAG: &str = "age:numeric,blood:categorical,dna:alphanumeric:dna";

fn schema() -> Schema {
    Schema::new(vec![
        AttributeDescriptor::numeric("age"),
        AttributeDescriptor::categorical("blood"),
        AttributeDescriptor::alphanumeric("dna", Alphabet::dna()),
    ])
    .unwrap()
}

fn record(age: f64, blood: &str, dna: &str) -> Record {
    Record::new(vec![
        AttributeValue::numeric(age),
        AttributeValue::categorical(blood),
        AttributeValue::alphanumeric(dna),
    ])
}

fn partitions() -> Vec<HorizontalPartition> {
    let site_a = vec![
        record(30.0, "A", "acgta"),
        record(31.5, "A", "acgtt"),
        record(64.0, "B", "ttcga"),
        record(29.0, "O", "acgta"),
    ];
    let site_b = vec![
        record(65.0, "B", "ttcgg"),
        record(28.5, "A", "acgta"),
        record(62.0, "B", "ttcga"),
    ];
    vec![
        HorizontalPartition::new(0, DataMatrix::with_rows(schema(), site_a).unwrap()),
        HorizontalPartition::new(1, DataMatrix::with_rows(schema(), site_b).unwrap()),
    ]
}

/// The in-process oracle: the same four concurrent sessions multiplexed by
/// a one-shard `ShardedEngine` over the in-memory network.
fn oracle() -> Vec<EngineOutcome> {
    let setup = TrustedSetup::deterministic(partitions(), &Seed::from_u64(MASTER)).unwrap();
    let mut engine = ShardedEngine::new(vec![Network::with_parties(2)]).unwrap();
    for _ in 0..SESSIONS {
        engine.add_session(SessionSpec {
            schema: schema(),
            config: ProtocolConfig::default(),
            holders: setup.holders.clone(),
            keys: setup.third_party.clone(),
            request: ClusteringRequest {
                weights: schema().uniform_weights(),
                linkage: Linkage::Average,
                num_clusters: CLUSTERS,
            },
            chunk_rows: Some(CHUNK),
        });
    }
    engine.run().unwrap().outcomes
}

fn spawn(args: &[String]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_ppc-party"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ppc-party")
}

fn wait_with_deadline(mut child: Child, label: &str, deadline: Duration) -> Output {
    let started = Instant::now();
    loop {
        if child.try_wait().expect("try_wait").is_some() {
            return child.wait_with_output().expect("wait_with_output");
        }
        if started.elapsed() > deadline {
            let _ = child.kill();
            let output = child.wait_with_output().expect("wait_with_output");
            panic!(
                "{label} timed out after {deadline:?}\nstdout:\n{}\nstderr:\n{}",
                String::from_utf8_lossy(&output.stdout),
                String::from_utf8_lossy(&output.stderr)
            );
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn expect_success(output: &Output, label: &str) -> String {
    assert!(
        output.status.success(),
        "{label} exited with {}\nstdout:\n{}\nstderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// Finds the value of `key=` on the line matching all `selectors`.
fn field<'a>(stdout: &'a str, selectors: &[&str], key: &str) -> &'a str {
    let line = stdout
        .lines()
        .find(|line| selectors.iter().all(|s| line.contains(s)))
        .unwrap_or_else(|| panic!("no line matching {selectors:?} in:\n{stdout}"));
    line.split_whitespace()
        .find_map(|token| token.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no field {key}= on line '{line}'"))
}

/// A byte-logging TCP tap: accepts one connection, pipes it to
/// `upstream`, and records every byte of both directions — the
/// wire-level eavesdropper of the paper's §4.1.
fn spawn_tap(upstream: SocketAddr) -> (SocketAddr, Arc<Mutex<Vec<u8>>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let captured: Arc<Mutex<Vec<u8>>> = Arc::default();
    let log = Arc::clone(&captured);
    std::thread::spawn(move || {
        let (client, _) = listener.accept().unwrap();
        let server = TcpStream::connect(upstream).unwrap();
        client.set_nodelay(true).unwrap();
        server.set_nodelay(true).unwrap();
        let pump = |mut from: TcpStream, mut to: TcpStream, log: Arc<Mutex<Vec<u8>>>| {
            std::thread::spawn(move || {
                let mut buf = [0u8; 4096];
                loop {
                    let n = match from.read(&mut buf) {
                        Ok(0) | Err(_) => {
                            let _ = to.shutdown(std::net::Shutdown::Both);
                            return;
                        }
                        Ok(n) => n,
                    };
                    log.lock().unwrap().extend_from_slice(&buf[..n]);
                    if to.write_all(&buf[..n]).is_err() {
                        return;
                    }
                }
            })
        };
        pump(
            client.try_clone().unwrap(),
            server.try_clone().unwrap(),
            Arc::clone(&log),
        );
        pump(server, client, log);
    });
    (addr, captured)
}

use ppc_net::eavesdrop::contains_bytes;

/// Protocol plaintext an on-path listener must never see on sealed
/// sockets: control topics and session-step topic fragments (all ≥ 8
/// bytes, so an accidental ciphertext match is ~2⁻⁶⁴-improbable).
const PLAINTEXT_NEEDLES: &[&[u8]] = &[
    b"ctl/ready",
    b"ctl/announce",
    b"ctl/done",
    b"numeric/age",
    b"categorical/blood",
    b"alphanumeric/dna",
    b"published-result",
    b"clustering-choice",
];

/// Runs the full three-process federation (optionally `--insecure`) with
/// the coordinator's socket tapped, checks every process against the
/// oracle, and returns the tapped bytes.
fn run_federation_against_oracle(insecure: bool) -> Vec<u8> {
    let reference = oracle();

    // Partition CSVs on disk, the way real data holders keep them.
    let dir = std::env::temp_dir().join(format!(
        "ppc-party-test-{}-{}",
        std::process::id(),
        if insecure { "plain" } else { "sealed" }
    ));
    std::fs::create_dir_all(&dir).unwrap();
    for partition in &partitions() {
        std::fs::write(
            dir.join(format!("site{}.csv", partition.site())),
            to_csv(partition.matrix()),
        )
        .unwrap();
    }

    // The frame router is the only listener; the three parties dial it —
    // the coordinator through the eavesdropping tap.
    let (mut router, addr) = TcpRouter::spawn("127.0.0.1:0").unwrap();
    let (tap_addr, captured) = spawn_tap(addr);
    let mut common: Vec<String> = vec![
        "--seed".into(),
        MASTER.to_string(),
        "--schema".into(),
        SCHEMA_FLAG.into(),
    ];
    if insecure {
        common.push("--insecure".into());
    }
    let with_common = |connect_to: &str, rest: &[&str]| -> Vec<String> {
        rest.iter()
            .map(|s| s.to_string())
            .chain(["--connect".to_string(), format!("tcp:{connect_to}")])
            .chain(common.iter().cloned())
            .collect()
    };
    let router_addr = addr.to_string();
    let tapped_addr = tap_addr.to_string();

    let csv_a = dir.join("site0.csv").display().to_string();
    let csv_b = dir.join("site1.csv").display().to_string();
    let serve_dh1 = spawn(&with_common(
        &router_addr,
        &[
            "serve",
            "--party",
            "DH1",
            "--coordinator",
            "DH0",
            "--csv",
            &csv_b,
        ],
    ));
    let serve_tp = spawn(&with_common(
        &router_addr,
        &["serve", "--party", "TP", "--coordinator", "DH0"],
    ));
    let coordinate = spawn(&with_common(
        &tapped_addr,
        &[
            "coordinate",
            "--party",
            "DH0",
            "--remote",
            "DH1,TP",
            "--csv",
            &csv_a,
            "--sessions",
            &SESSIONS.to_string(),
            "--clusters",
            &CLUSTERS.to_string(),
            "--chunk-rows",
            &CHUNK.to_string(),
        ],
    ));

    let deadline = Duration::from_secs(120);
    let coordinator_out = wait_with_deadline(coordinate, "coordinate", deadline);
    let dh1_out = wait_with_deadline(serve_dh1, "serve DH1", deadline);
    let tp_out = wait_with_deadline(serve_tp, "serve TP", deadline);
    router.shutdown();

    let coordinator = expect_success(&coordinator_out, "coordinate");
    let dh1 = expect_success(&dh1_out, "serve DH1");
    let tp = expect_success(&tp_out, "serve TP");

    for (id, outcome) in reference.iter().enumerate() {
        let session = format!("session={id} ");
        let expected_clusters = render_clusters(
            &outcome
                .result
                .clusters
                .iter()
                .map(|members| {
                    members
                        .iter()
                        .map(|o| (o.site, o.local_index as u32))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>(),
        );
        let expected_matrix = render_f64_bits(outcome.final_matrix.matrix().condensed_values());
        let expected_avg = format!(
            "{:016x}",
            outcome
                .result
                .average_within_cluster_squared_distance
                .to_bits()
        );

        // The coordinating holder's own published result.
        let sel_own = ["RESULT", "party=DH0", session.trim_end()];
        assert_eq!(
            field(&coordinator, &sel_own, "clusters"),
            expected_clusters,
            "session {id}: coordinator clusters diverge from the oracle"
        );
        assert_eq!(field(&coordinator, &sel_own, "avg"), expected_avg);

        // The remote third party's exported outcome, as the coordinator
        // received it over ctl/done.
        let sel_tp = ["MATRIX", "party=TP", session.trim_end()];
        assert_eq!(
            field(&coordinator, &sel_tp, "values"),
            expected_matrix,
            "session {id}: final matrix diverges from the oracle"
        );

        // The serving holder saw the identical published clusters.
        let sel_dh1 = ["RESULT", "party=DH1", session.trim_end()];
        assert_eq!(field(&dh1, &sel_dh1, "clusters"), expected_clusters);

        // And the third-party process printed the identical matrix itself.
        assert_eq!(field(&tp, &sel_tp, "values"), expected_matrix);
        assert_eq!(
            field(&tp, &["RESULT", "party=TP", session.trim_end()], "clusters"),
            expected_clusters
        );
    }

    // All sessions completed, none failed, on every process.
    for (stdout, label) in [(&coordinator, "coordinator"), (&dh1, "DH1"), (&tp, "TP")] {
        assert_eq!(
            field(stdout, &["STATS"], "completed"),
            SESSIONS.to_string(),
            "{label} completed-session count"
        );
        assert_eq!(field(stdout, &["STATS"], "failed"), "0", "{label} failures");
    }

    let _ = std::fs::remove_dir_all(&dir);
    let captured = captured.lock().unwrap().clone();
    assert!(
        contains_bytes(&captured, b"PPCH"),
        "the tap saw the coordinator's traffic (handshake magic present)"
    );
    captured
}

/// The PR-5 acceptance test: the federation runs AEAD-sealed **by
/// default**, results stay byte-identical to the in-process oracle, and a
/// raw-socket eavesdropper on the coordinator's link observes no protocol
/// plaintext — only handshake metadata and sealed frames.
#[test]
fn three_os_processes_match_the_in_process_oracle_byte_for_byte() {
    let captured = run_federation_against_oracle(false);
    for needle in PLAINTEXT_NEEDLES {
        assert!(
            !contains_bytes(&captured, needle),
            "plaintext {:?} leaked onto the sealed socket",
            String::from_utf8_lossy(needle)
        );
    }
}

/// The explicit `--insecure` opt-out still matches the oracle — and the
/// same eavesdropper now reads control topics straight off the wire,
/// proving the needle check detects real plaintext (the secure test's
/// clean tap is meaningful, not vacuous).
#[test]
fn insecure_opt_out_matches_the_oracle_but_leaks_plaintext() {
    let captured = run_federation_against_oracle(true);
    assert!(
        contains_bytes(&captured, b"ctl/ready"),
        "a plaintext socket exposes control traffic to the tap"
    );
}
