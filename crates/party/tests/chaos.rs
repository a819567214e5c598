//! Process-level chaos harness: scenario-factory workloads driven through
//! real `ppc-party` OS processes under chaos-matrix faults, with every
//! run classified into the machine-readable outcome taxonomy
//! (`ppc_scenario::chaos::RunOutcome`) and checked against the cell's
//! expectation — a settled run can never pass as completed.
//!
//! Reuses the multi-process scaffolding style of `multi_process.rs`
//! (spawn via `CARGO_BIN_EXE_ppc-party`, deadline waits, field parsing)
//! but feeds the federation **generated** artefacts: per-site CSVs, the
//! `--schema` string and the `--manifest` file all come from one seeded
//! [`ScenarioSpec`], so the adversarial workload is the same object the
//! in-process matrix and the benches consume.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ppc_core::protocol::party_engine::SessionPlan;
use ppc_core::protocol::ProtocolConfig;
use ppc_party::{parse_manifest, parse_schema, render_clusters, render_f64_bits};
use ppc_scenario::chaos::{self, classify_process_run, Fault, RunOutcome};
use ppc_scenario::factory::{Scenario, ScenarioSpec, SchemaShape, SiteSkew};
use ppc_scenario::proxy::TamperProxy;

const SEED: u64 = 0xCAFE_0008;

/// A 3-site scenario keeps the federation at 4 processes + router.
fn process_scenario(objects: usize, sessions: usize) -> Scenario {
    ScenarioSpec {
        seed: SEED,
        sites: 3,
        objects,
        clusters: 2,
        skew: SiteSkew::Zipf { exponent: 0.9 },
        shape: SchemaShape::default(),
        sessions,
        chunk_base: Some(4),
    }
    .generate()
    .expect("process scenario")
}

/// A spawned `ppc-party` process whose stdout/stderr are drained by
/// background threads from the moment it starts. Draining eagerly matters:
/// a 60-object session prints ~30 KB `MATRIX` lines, so a coordinator left
/// on an undrained pipe blocks on `write` once the OS buffer fills and the
/// whole federation reads as "stalled" when it is merely gagged.
struct Proc {
    child: Child,
    stdout: JoinHandle<Vec<u8>>,
    stderr: JoinHandle<Vec<u8>>,
}

struct ProcOutput {
    success: bool,
    stdout: String,
    stderr: String,
}

fn drain(pipe: impl Read + Send + 'static) -> JoinHandle<Vec<u8>> {
    std::thread::spawn(move || {
        let mut pipe = pipe;
        let mut buf = Vec::new();
        let _ = pipe.read_to_end(&mut buf);
        buf
    })
}

fn spawn(args: &[String]) -> Proc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ppc-party"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ppc-party");
    let stdout = drain(child.stdout.take().expect("child stdout"));
    let stderr = drain(child.stderr.take().expect("child stderr"));
    Proc {
        child,
        stdout,
        stderr,
    }
}

fn wait_with_deadline(mut proc: Proc, label: &str, deadline: Duration) -> (ProcOutput, bool) {
    let started = Instant::now();
    let timed_out = loop {
        match proc.child.try_wait().expect("try_wait") {
            Some(_) => break false,
            None if started.elapsed() > deadline => {
                let _ = proc.child.kill();
                eprintln!("{label} timed out after {deadline:?}");
                break true;
            }
            None => std::thread::sleep(Duration::from_millis(25)),
        }
    };
    let status = proc.child.wait().expect("wait");
    let stdout = String::from_utf8_lossy(&proc.stdout.join().expect("stdout drained")).into_owned();
    let stderr = String::from_utf8_lossy(&proc.stderr.join().expect("stderr drained")).into_owned();
    (
        ProcOutput {
            success: status.success(),
            stdout,
            stderr,
        },
        timed_out,
    )
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

/// Writes the scenario's artefacts (CSVs + manifest) into a fresh temp dir.
fn stage_artifacts(scenario: &Scenario, tag: &str) -> (PathBuf, Vec<PathBuf>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("ppc-chaos-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csvs = scenario.write_csvs(&dir).unwrap();
    let manifest = dir.join("manifest.txt");
    std::fs::write(&manifest, scenario.manifest_text()).unwrap();
    (dir, csvs, manifest)
}

fn common_flags(scenario: &Scenario, connect: &str, extra: &[(&str, &str)]) -> Vec<String> {
    let mut flags = vec![
        "--connect".into(),
        format!("tcp:{connect}"),
        "--seed".into(),
        scenario.spec.seed.to_string(),
        "--schema".into(),
        scenario.schema_cli().to_string(),
    ];
    for (key, value) in extra {
        flags.push(format!("--{key}"));
        if !value.is_empty() {
            flags.push((*value).to_string());
        }
    }
    flags
}

fn serve_args(
    scenario: &Scenario,
    connect: &str,
    party: &str,
    csv: Option<&Path>,
    extra: &[(&str, &str)],
) -> Vec<String> {
    let mut args = vec![
        "serve".to_string(),
        "--party".into(),
        party.into(),
        "--coordinator".into(),
        "DH0".into(),
    ];
    if let Some(csv) = csv {
        args.push("--csv".into());
        args.push(csv.display().to_string());
    }
    args.extend(common_flags(scenario, connect, extra));
    args
}

fn coordinate_args(
    scenario: &Scenario,
    connect: &str,
    csv: &Path,
    manifest: Option<&Path>,
    extra: &[(&str, &str)],
) -> Vec<String> {
    let sites = scenario.spec.sites;
    let remote: Vec<String> = (1..sites)
        .map(|i| format!("DH{i}"))
        .chain(["TP".to_string()])
        .collect();
    let mut args = vec![
        "coordinate".to_string(),
        "--party".into(),
        "DH0".into(),
        "--remote".into(),
        remote.join(","),
        "--csv".into(),
        csv.display().to_string(),
        "--clusters".into(),
        "2".into(),
    ];
    match manifest {
        Some(path) => {
            args.push("--manifest".into());
            args.push(path.display().to_string());
        }
        None => {
            args.push("--sessions".into());
            args.push(scenario.spec.sessions.to_string());
        }
    }
    args.extend(common_flags(scenario, connect, extra));
    args
}

/// Satellite 1 (round-trip half): the factory's manifest and schema
/// strings parse through the *CLI's own parsers* back into exactly the
/// plans and schema the factory holds — weights included, bit-for-bit,
/// because both sides normalise the same raw integers through
/// `WeightVector::new`.
#[test]
fn generated_manifest_and_schema_roundtrip_through_the_cli_parsers() {
    let scenario = process_scenario(60, 4);

    let schema = parse_schema(scenario.schema_cli()).unwrap();
    assert_eq!(schema, scenario.schema, "schema_cli round-trips");

    // The base plan is irrelevant: generated manifests set every key on
    // every line. Use a deliberately mismatched base to prove it.
    let base = SessionPlan {
        config: ProtocolConfig::default(),
        request: ppc_core::protocol::driver::ClusteringRequest {
            weights: schema.uniform_weights(),
            linkage: ppc_cluster::Linkage::Centroid,
            num_clusters: 9,
        },
        chunk_rows: Some(999),
    };
    let parsed = parse_manifest(&schema, &scenario.manifest_text(), &base).unwrap();
    assert_eq!(parsed.len(), scenario.plans.len());
    for (i, (parsed, expected)) in parsed.iter().zip(&scenario.plans).enumerate() {
        assert_eq!(parsed.config, expected.config, "session {i} config");
        assert_eq!(parsed.chunk_rows, expected.chunk_rows, "session {i} window");
        assert_eq!(
            parsed.request.linkage, expected.request.linkage,
            "session {i} linkage"
        );
        assert_eq!(
            parsed.request.num_clusters, expected.request.num_clusters,
            "session {i} clusters"
        );
        assert_eq!(
            parsed.request.weights, expected.request.weights,
            "session {i} weights (must be exact, not 1-ulp-off)"
        );
    }
}

/// The completed column at process level: a scenario-generated federation
/// (CSVs, schema and manifest all from the factory) over sealed sockets
/// matches the in-process oracle byte-for-byte, and classifies
/// `Completed` with a stable fingerprint.
#[test]
fn scenario_driven_federation_matches_the_oracle() {
    let scenario = process_scenario(60, 3);
    let reference = scenario.oracle().unwrap();
    let (dir, csvs, manifest) = stage_artifacts(&scenario, "oracle");

    let (mut router, addr) = ppc_net::TcpRouter::spawn("127.0.0.1:0").unwrap();
    let addr = addr.to_string();
    let dh1 = spawn(&serve_args(&scenario, &addr, "DH1", Some(&csvs[1]), &[]));
    let dh2 = spawn(&serve_args(&scenario, &addr, "DH2", Some(&csvs[2]), &[]));
    let tp = spawn(&serve_args(&scenario, &addr, "TP", None, &[]));
    let coordinate = spawn(&coordinate_args(
        &scenario,
        &addr,
        &csvs[0],
        Some(&manifest),
        &[],
    ));

    let deadline = Duration::from_secs(120);
    let (coord_out, coord_to) = wait_with_deadline(coordinate, "coordinate", deadline);
    let (dh1_out, _) = wait_with_deadline(dh1, "serve DH1", deadline);
    let (dh2_out, _) = wait_with_deadline(dh2, "serve DH2", deadline);
    let (tp_out, _) = wait_with_deadline(tp, "serve TP", deadline);
    router.shutdown();

    let (coord_stdout, coord_stderr) = (&coord_out.stdout, &coord_out.stderr);
    let outcome = classify_process_run(coord_out.success, coord_to, coord_stdout, coord_stderr);
    assert!(
        matches!(outcome, RunOutcome::Completed { .. }),
        "classified {outcome:?}\nstdout:\n{coord_stdout}\nstderr:\n{coord_stderr}"
    );
    for (out, label) in [(&dh1_out, "DH1"), (&dh2_out, "DH2"), (&tp_out, "TP")] {
        assert!(out.success, "{label}: {} / {}", out.stdout, out.stderr);
    }

    // Byte-identity against the oracle, session by session.
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
        assert_eq!(
            field(
                coord_stdout,
                &["RESULT", "party=DH0", session.trim_end()],
                "clusters"
            ),
            expected_clusters,
            "session {id}: clusters diverge from the oracle"
        );
        assert_eq!(
            field(
                coord_stdout,
                &["MATRIX", "party=TP", session.trim_end()],
                "values"
            ),
            expected_matrix,
            "session {id}: final matrix diverges from the oracle"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Tamper cell: one flipped byte inside a sealed frame between the third
/// party and the router. The AEAD tier must reject it and the run must
/// settle `channel-auth` — classified from the structured `FAILED` lines,
/// not from exit codes alone.
#[test]
fn tampered_sealed_frame_settles_channel_auth() {
    let scenario = process_scenario(36, 1);
    let cell = chaos::ci_slice()
        .into_iter()
        .find(|c| c.fault == Fault::TamperSealed)
        .unwrap();
    let (dir, csvs, manifest) = stage_artifacts(&scenario, "tamper");

    let (mut router, addr) = ppc_net::TcpRouter::spawn("127.0.0.1:0").unwrap();
    // The third party dials through the tamper proxy; the flip lands a few
    // bytes into the *ciphertext* of its first data-sized sealed record
    // (the result/matrix traffic) — not the cleartext routing header,
    // whose corruption the router absorbs as an unroutable drop, and not
    // a control record like the readiness announce, which is dropped
    // unroutable when the third party wins the startup race against the
    // coordinator and sent again when the coordinator's greeting arrives.
    // Data records are the only deterministic target: necessarily
    // forwarded, necessarily needed.
    // Each envelope is its own record, so the threshold must sit below
    // the session's published result (386 bytes here): the next record
    // past 512 bytes is the `ctl/done` report, which arrives after the
    // coordinator's session has finished and leaves nothing to settle.
    let proxy = TamperProxy::spawn_on_first_large_frame(addr, 256, 8).unwrap();
    let addr = addr.to_string();
    let proxy_addr = proxy.addr().to_string();

    // Short stall budgets keep the settling fast once the session fails.
    let budgets: &[(&str, &str)] = &[("stall-ms", "50"), ("stall-waits", "100")];
    let dh1 = spawn(&serve_args(
        &scenario,
        &addr,
        "DH1",
        Some(&csvs[1]),
        budgets,
    ));
    let dh2 = spawn(&serve_args(
        &scenario,
        &addr,
        "DH2",
        Some(&csvs[2]),
        budgets,
    ));
    let tp = spawn(&serve_args(&scenario, &proxy_addr, "TP", None, budgets));
    let coordinate = spawn(&coordinate_args(
        &scenario,
        &addr,
        &csvs[0],
        Some(&manifest),
        budgets,
    ));

    let deadline = Duration::from_secs(60);
    let (coord_out, coord_to) = wait_with_deadline(coordinate, "coordinate", deadline);
    let (coord_stdout, coord_stderr) = (&coord_out.stdout, &coord_out.stderr);
    // The serving parties settle (or stall out on their budgets) too.
    for (child, label) in [(dh1, "DH1"), (dh2, "DH2"), (tp, "TP")] {
        let _ = wait_with_deadline(child, label, deadline);
    }
    router.shutdown();

    let outcome = classify_process_run(coord_out.success, coord_to, coord_stdout, coord_stderr);
    cell.expect.check(&outcome, None).unwrap_or_else(|e| {
        panic!(
            "cell {}: {e}\nstdout:\n{coord_stdout}\nstderr:\n{coord_stderr}",
            cell.name
        )
    });

    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill cell: the third party is killed mid-run *behind the router*, so
/// the survivors' sends keep succeeding (the router buffers) and the
/// coordinator must classify as `Stalled` — within the configurable
/// budget (`--stall-ms`/`--stall-waits`), not a CI-killing hang.
///
/// The kill is mid-run by construction, not by timing: DH1 dials through
/// a tripwire proxy that, when DH1's first data-sized frame arrives,
/// kills the third party *before* forwarding that frame. By then the
/// sessions are open, and none can finish without the third party.
#[test]
fn killing_the_third_party_behind_the_router_stalls_within_budget() {
    let scenario = process_scenario(150, 2);
    let cell = chaos::ci_slice()
        .into_iter()
        .find(|c| c.fault == Fault::KillBehindRouter)
        .unwrap();
    let (dir, csvs, manifest) = stage_artifacts(&scenario, "kill");

    let (mut router, addr) = ppc_net::TcpRouter::spawn("127.0.0.1:0").unwrap();
    let (tripped_tx, tripped_rx) = mpsc::channel();
    let (killed_tx, killed_rx) = mpsc::channel::<()>();
    // Control records are tens of bytes; DH1's first data record (its
    // local matrix) is kilobytes. 512 bytes tells them apart.
    let proxy = TamperProxy::spawn_tripwire(addr, 512, move || {
        let _ = tripped_tx.send(());
        // Hold the frame until the third party is dead.
        let _ = killed_rx.recv();
    })
    .unwrap();
    let addr = addr.to_string();
    let proxy_addr = proxy.addr().to_string();

    // 50 ms × 40 ≈ 2 s of true silence before a process settles its stall.
    let budgets: &[(&str, &str)] = &[
        ("stall-ms", "50"),
        ("stall-waits", "40"),
        ("ready-ms", "50"),
        ("ready-waits", "40"),
    ];
    let dh1 = spawn(&serve_args(
        &scenario,
        &proxy_addr,
        "DH1",
        Some(&csvs[1]),
        budgets,
    ));
    let dh2 = spawn(&serve_args(
        &scenario,
        &addr,
        "DH2",
        Some(&csvs[2]),
        budgets,
    ));
    let mut tp = spawn(&serve_args(&scenario, &addr, "TP", None, budgets));
    let coordinate = spawn(&coordinate_args(
        &scenario,
        &addr,
        &csvs[0],
        Some(&manifest),
        budgets,
    ));

    // The router keeps the third party's mailbox, so nobody observes a
    // send failure — only silence.
    let tripped = tripped_rx.recv_timeout(Duration::from_secs(60)).is_ok();
    let _ = tp.child.kill();
    let _ = wait_with_deadline(tp, "serve TP (killed)", Duration::from_secs(5));
    let _ = killed_tx.send(());

    let deadline = Duration::from_secs(60);
    let (coord_out, coord_to) = wait_with_deadline(coordinate, "coordinate", deadline);
    let (coord_stdout, coord_stderr) = (&coord_out.stdout, &coord_out.stderr);
    for (child, label) in [(dh1, "DH1"), (dh2, "DH2")] {
        let _ = wait_with_deadline(child, label, deadline);
    }
    router.shutdown();

    let outcome = classify_process_run(coord_out.success, coord_to, coord_stdout, coord_stderr);
    cell.expect.check(&outcome, None).unwrap_or_else(|e| {
        panic!(
            "cell {} (tripwire fired: {tripped}): {e}\nstdout:\n{coord_stdout}\nstderr:\n{coord_stderr}",
            cell.name
        )
    });

    let _ = std::fs::remove_dir_all(&dir);
}
