//! The deployment path: one `ppc-party` OS process per party, talking
//! through a frame router hosted by the benchmark.
//!
//! Each job is one batch deployment: a fresh router, then the parties,
//! torn down when the coordinator's manifest is done. (A router kept for
//! many batches retains ~2.5 MB per batch through its reactor connection
//! state, so a long-lived one would grow by gigabytes over one run.)
//!
//! The party processes are this executable re-run in `party` mode, which
//! calls the same `ppc_party::run` entry point as the `ppc-party` binary,
//! so the benchmark needs no second build product.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::Instant;

use ppc_core::protocol::engine::EngineOutcome;
use ppc_net::{TcpRouter, TransportBackend};
use ppc_party::render_clusters;
use ppc_scenario::chaos::fingerprint_process_stdout;
use ppc_scenario::Scenario;

use crate::host;
use crate::workload::{Job, Oracle, STALL_WAIT, STALL_WAITS};

/// Per-job totals over every party process, parsed from their `STATS`,
/// `SEALING`, `DELIVERY` and `HEAP` lines.
#[derive(Debug, Clone, Copy, Default)]
pub struct PartyTotals {
    /// Seconds to bring the router up and spawn every process.
    pub spawn: f64,
    /// Seconds from the first spawn until the coordinator was reaped.
    pub coordinator: f64,
    /// Seconds from the coordinator's exit until the last process was reaped.
    pub reap: f64,
    /// CPU seconds the reaped processes used.
    pub child_cpu: f64,
    /// Σ `STATS rounds`.
    pub rounds: u64,
    /// Σ `STATS blocking_waits`.
    pub blocking_waits: u64,
    /// Σ `SEALING records_sealed`.
    pub records_sealed: u64,
    /// Σ `SEALING frames_sealed`.
    pub frames_sealed: u64,
    /// Σ `SEALING plaintext_bytes`: every byte the parties sent.
    pub plaintext_bytes: u64,
    /// Σ `SEALING sealed_bytes`.
    pub sealed_bytes: u64,
    /// Σ `DELIVERY wake_signals`.
    pub wake_signals: u64,
    /// Largest `HEAP peak_bytes` of any party process.
    pub peak_heap_bytes: u64,
}

impl PartyTotals {
    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &PartyTotals) {
        self.spawn += other.spawn;
        self.coordinator += other.coordinator;
        self.reap += other.reap;
        self.child_cpu += other.child_cpu;
        self.rounds += other.rounds;
        self.blocking_waits += other.blocking_waits;
        self.records_sealed += other.records_sealed;
        self.frames_sealed += other.frames_sealed;
        self.plaintext_bytes += other.plaintext_bytes;
        self.sealed_bytes += other.sealed_bytes;
        self.wake_signals += other.wake_signals;
        self.peak_heap_bytes = self.peak_heap_bytes.max(other.peak_heap_bytes);
    }

    fn absorb_stdout(&mut self, stdout: &str) {
        for line in stdout.lines() {
            let sum = |slot: &mut u64, key: &str| *slot += field(line, key).unwrap_or(0);
            if line.starts_with("STATS ") {
                sum(&mut self.rounds, "rounds");
                sum(&mut self.blocking_waits, "blocking_waits");
            } else if line.starts_with("SEALING ") {
                sum(&mut self.records_sealed, "records_sealed");
                sum(&mut self.frames_sealed, "frames_sealed");
                sum(&mut self.plaintext_bytes, "plaintext_bytes");
                sum(&mut self.sealed_bytes, "sealed_bytes");
            } else if line.starts_with("DELIVERY ") {
                sum(&mut self.wake_signals, "wake_signals");
            } else if line.starts_with("HEAP ") {
                let peak = field(line, "peak_bytes").unwrap_or(0);
                self.peak_heap_bytes = self.peak_heap_bytes.max(peak);
            }
        }
    }
}

/// The integer value of `key=` in a stats line.
fn field(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace()
        .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
        .and_then(|value| value.parse().ok())
}

/// The party inputs on disk; each job spawns the router and the processes.
pub struct Federation {
    exe: PathBuf,
    seed: u64,
    schema: String,
    sites: u32,
    sessions: usize,
    csvs: Vec<PathBuf>,
    manifest: PathBuf,
}

impl Federation {
    /// Writes each site's CSV and the session manifest into `dir`.
    pub fn prepare(scenario: &Scenario, dir: &Path) -> Result<Federation, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let csvs = scenario
            .write_csvs(dir)
            .map_err(|e| format!("writing site CSVs: {e}"))?;
        let manifest = dir.join("manifest.txt");
        std::fs::write(&manifest, scenario.manifest_text())
            .map_err(|e| format!("writing manifest: {e}"))?;
        Ok(Federation {
            exe,
            seed: scenario.spec.seed,
            schema: scenario.schema_cli().to_string(),
            sites: scenario.spec.sites,
            sessions: scenario.spec.sessions,
            csvs,
            manifest,
        })
    }

    fn command(&self, role: &[String], connect: &str) -> Command {
        let mut command = Command::new(&self.exe);
        command
            .arg("party")
            .args(role)
            .args(["--connect", connect, "--schema", &self.schema])
            .args(["--seed", &self.seed.to_string()])
            .args(["--stall-ms", &STALL_WAIT.as_millis().to_string()])
            .args(["--stall-waits", &STALL_WAITS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            // Parties print a per-link sealing table on stderr for humans.
            .stderr(Stdio::null());
        command
    }

    fn roles(&self) -> Vec<Vec<String>> {
        let args = |items: &[&str]| items.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let csv = |site: u32| self.csvs[site as usize].display().to_string();
        let mut roles: Vec<Vec<String>> = (1..self.sites)
            .map(|site| {
                args(&[
                    "serve",
                    "--party",
                    &format!("DH{site}"),
                    "--coordinator",
                    "DH0",
                    "--csv",
                    &csv(site),
                ])
            })
            .collect();
        roles.push(args(&["serve", "--party", "TP", "--coordinator", "DH0"]));
        let remote: Vec<String> = (1..self.sites)
            .map(|i| format!("DH{i}"))
            .chain(["TP".to_string()])
            .collect();
        roles.push(args(&[
            "coordinate",
            "--party",
            "DH0",
            "--remote",
            &remote.join(","),
            "--csv",
            &csv(0),
            "--clusters",
            "2",
            "--manifest",
            &self.manifest.display().to_string(),
        ]));
        roles
    }

    /// One job: spawns the router and every party (coordinator last),
    /// drains every pipe, reaps every process and checks the coordinator's
    /// results against the oracle. `reference` holds the first passing
    /// job's result-stream fingerprint; later jobs must match it.
    pub fn run_job(&self, oracle: &Oracle, reference: &mut Option<u64>) -> Job {
        let mut job = Job {
            sessions: self.sessions,
            ..Job::default()
        };
        let mut totals = PartyTotals::default();
        let (cpu_before, child_cpu_before) = (host::cpu_seconds(), host::child_cpu_seconds());
        let started = Instant::now();
        let mut children = Vec::new();
        let mut spawn_error = None;
        let router =
            TcpRouter::spawn_with_backend("127.0.0.1:0", TransportBackend::default_for_host());
        match &router {
            Ok((_, addr)) => {
                let connect = format!("tcp:{addr}");
                for role in self.roles() {
                    match self.command(&role, &connect).spawn() {
                        Ok(child) => children.push(child),
                        Err(e) => {
                            spawn_error = Some(format!("spawn {}: {e}", role.join(" ")));
                            break;
                        }
                    }
                }
            }
            Err(e) => spawn_error = Some(format!("router spawn: {e}")),
        }
        totals.spawn = started.elapsed().as_secs_f64();
        // Each process is drained and reaped on its own thread, so a full
        // pipe of one never blocks another.
        let reaped: Vec<(std::io::Result<Output>, Instant)> = std::thread::scope(|scope| {
            let handles: Vec<_> = children
                .into_iter()
                .map(|child| scope.spawn(move || (child.wait_with_output(), Instant::now())))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a reaper thread panicked"))
                .collect()
        });
        let finished = reaped
            .iter()
            .map(|(_, at)| *at)
            .max()
            .unwrap_or_else(Instant::now);
        job.seconds = finished.duration_since(started).as_secs_f64();
        job.cpu = host::cpu_seconds() - cpu_before;
        totals.child_cpu = host::child_cpu_seconds() - child_cpu_before;
        drop(router);

        let mut problems: Vec<String> = spawn_error.into_iter().collect();
        let mut bad_sessions = BTreeSet::new();
        let mut coordinator_stdout = String::new();
        // `roles` spawns the coordinator last, after sites - 1 holders and TP.
        let coordinator_index = self.sites as usize;
        for (index, (output, at)) in reaped.into_iter().enumerate() {
            let output = match output {
                Ok(output) => output,
                Err(e) => {
                    problems.push(format!("reaping a party: {e}"));
                    continue;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
            if !output.status.success() {
                problems.push(format!("a party exited with {}", output.status));
            }
            for line in stdout.lines().filter(|l| l.starts_with("FAILED")) {
                problems.push(line.to_string());
                if let Some(session) = field(line, "session") {
                    bad_sessions.insert(session as usize);
                }
            }
            totals.absorb_stdout(&stdout);
            if index == coordinator_index {
                totals.coordinator = at.duration_since(started).as_secs_f64();
                totals.reap = finished.duration_since(at).as_secs_f64();
                coordinator_stdout = stdout;
            }
        }
        for (session, outcome) in oracle.outcomes.iter().enumerate() {
            if !coordinator_matches(&coordinator_stdout, session, outcome) {
                bad_sessions.insert(session);
            }
        }
        if !bad_sessions.is_empty() {
            problems.push(format!(
                "sessions {bad_sessions:?} differ from the oracle or failed"
            ));
        }
        let fingerprint = fingerprint_process_stdout(&coordinator_stdout);
        if problems.is_empty() {
            match reference {
                Some(expected) if *expected != fingerprint => {
                    problems.push("result stream differs from the first job's".into())
                }
                Some(_) => {}
                None => *reference = Some(fingerprint),
            }
        }
        if !problems.is_empty() {
            job.failed = if bad_sessions.is_empty() {
                job.sessions
            } else {
                bad_sessions.len().min(job.sessions)
            };
            job.failure = Some(problems.join("; "));
        }
        job.party = Some(totals);
        job
    }
}

/// The accuracy invariant a federation result must meet against the
/// in-process oracle: identical clusters, and every published value within
/// this distance of the oracle's. (Exact bit-identity does not hold: the
/// `ctl/` announce re-normalises the already-normalised weights, which
/// moves non-dyadic weight vectors by an ulp.)
const ORACLE_TOLERANCE: f64 = 1e-6;

/// Whether the coordinator printed exactly one `RESULT` for `session`, with
/// the oracle's clusters and quality value, and the third party's `MATRIX`
/// line with the oracle's final matrix, all within [`ORACLE_TOLERANCE`].
fn coordinator_matches(stdout: &str, session: usize, outcome: &EngineOutcome) -> bool {
    let line = |kind: &str, party: &str| {
        let prefix = format!("{kind} party={party} session={session} ");
        let mut found = stdout.lines().filter(move |l| l.starts_with(&prefix));
        match (found.next(), found.next()) {
            (Some(line), None) => Some(line),
            _ => None,
        }
    };
    let value = |line: &str, key: &str| {
        line.split_whitespace()
            .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
            .map(str::to_string)
    };
    let close = |hex: &str, expected: f64| {
        u64::from_str_radix(hex, 16)
            .is_ok_and(|bits| (f64::from_bits(bits) - expected).abs() <= ORACLE_TOLERANCE)
    };
    let clusters: Vec<Vec<(u32, u32)>> = outcome
        .result
        .clusters
        .iter()
        .map(|members| {
            members
                .iter()
                .map(|o| (o.site, o.local_index as u32))
                .collect()
        })
        .collect();
    let (Some(result), Some(matrix)) = (line("RESULT", "DH0"), line("MATRIX", "TP")) else {
        return false;
    };
    let expected = outcome.final_matrix.matrix().condensed_values();
    let values = value(matrix, "values").unwrap_or_default();
    value(result, "clusters").as_deref() == Some(render_clusters(&clusters).as_str())
        && value(result, "avg")
            .is_some_and(|avg| close(&avg, outcome.result.average_within_cluster_squared_distance))
        && value(matrix, "objects") == Some(outcome.final_matrix.len().to_string())
        && values.split(',').count() == expected.len()
        && values
            .split(',')
            .zip(expected)
            .all(|(hex, &v)| close(hex, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_lines_parse_and_sum() {
        let mut totals = PartyTotals::default();
        totals.absorb_stdout(
            "STATS rounds=10 blocking_waits=3 messages_sent=9 completed=2 failed=0\n\
             SEALING records_sealed=4 frames_sealed=8 frames_per_record=2.00 \
             plaintext_bytes=100 sealed_bytes=164 records_opened=4 frames_opened=8\n\
             DELIVERY mode=sharded pool_hits=1 wake_signals=7 pinned=false\n\
             HEAP peak_bytes=2048\n",
        );
        totals.absorb_stdout("STATS rounds=5 blocking_waits=1\nHEAP peak_bytes=1024\n");
        assert_eq!(totals.rounds, 15);
        assert_eq!(totals.blocking_waits, 4);
        assert_eq!(totals.frames_sealed, 8);
        assert_eq!(totals.plaintext_bytes, 100);
        assert_eq!(totals.wake_signals, 7);
        assert_eq!(
            totals.peak_heap_bytes, 2048,
            "the largest process, not a sum"
        );
        assert_eq!(
            field("FAILED party=DH0 session=3 reason=x", "session"),
            Some(3)
        );
        assert_eq!(field("STATS rounds_x=1", "rounds"), None);
    }
}
