//! The chaos matrix: fault cells, the machine-readable outcome taxonomy
//! and the per-cell expectations that keep "settled" from passing as
//! "completed".
//!
//! A chaos run never asserts inline — it runs, gets **classified** into a
//! [`RunOutcome`] by one of the `classify_*` functions, and the cell's
//! [`Expectation`] is checked against that classification. The expectation
//! match is strict: a run that settled with the wrong failure reason, or
//! completed with a fingerprint differing from the oracle, is a test
//! failure, not a shrug.

use ppc_core::protocol::engine::EngineOutcome;
use ppc_core::protocol::party_engine::{PartyOutcome, PartyRunReport, SessionFailure, TpOutcome};

use crate::digest::{fingerprint_outcomes, fingerprint_str, Fnv};

/// The network conditions a cell runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkProfile {
    /// In-memory or loopback, no simulated impairment.
    Ideal,
    /// `WanProfile::wan()` — 100 Mbit/s, 20 ms, lossless.
    Wan,
    /// `WanProfile::lossy_dsl()` — 10 Mbit/s, 50 ms, 1% transmission loss.
    LossyDsl,
}

impl NetworkProfile {
    /// Stable lowercase name for bench rows and test labels.
    pub fn name(self) -> &'static str {
        match self {
            NetworkProfile::Ideal => "ideal",
            NetworkProfile::Wan => "wan",
            NetworkProfile::LossyDsl => "lossy-dsl",
        }
    }
}

/// The fault a cell injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No fault — the baseline column.
    None,
    /// Mid-run `sever_links`: OS streams die, logical links re-dial and
    /// replay. The run must still complete identical to the oracle.
    SeverResume,
    /// A peer is gone for good on a *direct* link with a bounded reconnect
    /// policy: sends eventually fail and the run settles `PeerUnreachable`.
    DeadPeer,
    /// A byte of a sealed frame is flipped in flight: the AEAD tier
    /// detects it and the run settles `ChannelAuth`.
    TamperSealed,
    /// A process is killed behind a router and never restarted: the router
    /// keeps buffering, so the coordinator hits its stall budget.
    KillBehindRouter,
    /// Handshake-level security mismatch (a plaintext peer against a
    /// sealed federation): the connection is rejected before any protocol
    /// traffic — no silent downgrade.
    SecurityMismatch,
}

impl Fault {
    /// Stable lowercase name for bench rows and test labels.
    pub fn name(self) -> &'static str {
        match self {
            Fault::None => "none",
            Fault::SeverResume => "sever-resume",
            Fault::DeadPeer => "dead-peer",
            Fault::TamperSealed => "tamper-sealed",
            Fault::KillBehindRouter => "kill-behind-router",
            Fault::SecurityMismatch => "security-mismatch",
        }
    }
}

/// Why a run settled instead of completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureReason {
    /// Reconnect backoff exhausted towards a peer.
    PeerUnreachable,
    /// The channel-security tier detected active interference.
    ChannelAuth,
    /// Any other reported failure.
    Other,
}

/// The machine-readable outcome taxonomy every chaos run is classified
/// into. Exactly one variant per run; classification is mechanical (no
/// judgement calls in test bodies).
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The run finished and published results; `fingerprint` digests the
    /// published bytes (see [`crate::digest`]).
    Completed {
        /// Digest of everything published, f64-bit exact.
        fingerprint: u64,
    },
    /// The run finished *by reporting failure* — sessions settled with a
    /// classified reason rather than results.
    Settled {
        /// The dominant failure reason across settled sessions.
        reason: FailureReason,
        /// Human-readable detail for diagnostics.
        detail: String,
    },
    /// The connection was rejected at handshake time — no session ever
    /// started.
    AuthRejected {
        /// Human-readable detail for diagnostics.
        detail: String,
    },
    /// The run made no progress within its stall/readiness budget.
    Stalled {
        /// Human-readable detail for diagnostics.
        detail: String,
    },
}

impl RunOutcome {
    /// Stable lowercase name of the taxonomy bucket.
    pub fn name(&self) -> &'static str {
        match self {
            RunOutcome::Completed { .. } => "completed",
            RunOutcome::Settled { .. } => "settled",
            RunOutcome::AuthRejected { .. } => "auth-rejected",
            RunOutcome::Stalled { .. } => "stalled",
        }
    }
}

/// What a cell is *supposed* to do. Checked strictly: the wrong bucket,
/// the wrong settle reason, or a completed run whose fingerprint differs
/// from the oracle's all fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// The run completes and its fingerprint equals the oracle's.
    CompletedIdenticalToOracle,
    /// The run settles with exactly this failure reason.
    Settled(FailureReason),
    /// The handshake rejects the connection.
    AuthRejected,
    /// The run hits its stall budget.
    Stalled,
}

impl Expectation {
    /// Checks a classified outcome against this expectation.
    ///
    /// `oracle_fingerprint` must be `Some` for
    /// [`Expectation::CompletedIdenticalToOracle`] cells and is ignored by
    /// the failure cells.
    pub fn check(
        &self,
        outcome: &RunOutcome,
        oracle_fingerprint: Option<u64>,
    ) -> Result<(), String> {
        match (self, outcome) {
            (Expectation::CompletedIdenticalToOracle, RunOutcome::Completed { fingerprint }) => {
                match oracle_fingerprint {
                    Some(oracle) if oracle == *fingerprint => Ok(()),
                    Some(oracle) => Err(format!(
                        "completed, but fingerprint {fingerprint:016x} differs from the \
                         oracle's {oracle:016x}"
                    )),
                    None => Err("expected CompletedIdenticalToOracle but no oracle \
                                 fingerprint was supplied"
                        .into()),
                }
            }
            (Expectation::Settled(want), RunOutcome::Settled { reason, detail }) => {
                if want == reason {
                    Ok(())
                } else {
                    Err(format!(
                        "settled with reason {reason:?} (wanted {want:?}): {detail}"
                    ))
                }
            }
            (Expectation::AuthRejected, RunOutcome::AuthRejected { .. }) => Ok(()),
            (Expectation::Stalled, RunOutcome::Stalled { .. }) => Ok(()),
            (want, got) => Err(format!("expected {want:?}, classified as {got:?}")),
        }
    }
}

/// One cell of the chaos matrix: a network profile crossed with a fault,
/// plus the assert-able expectation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosCell {
    /// Stable cell name (used in test output and bench rows).
    pub name: &'static str,
    /// Network conditions.
    pub profile: NetworkProfile,
    /// Injected fault.
    pub fault: Fault,
    /// What the cell must classify as.
    pub expect: Expectation,
}

/// The deterministic CI slice of the matrix — every taxonomy bucket is
/// covered by at least one cell, so no bucket can silently regress.
pub fn ci_slice() -> Vec<ChaosCell> {
    vec![
        ChaosCell {
            name: "ideal/baseline",
            profile: NetworkProfile::Ideal,
            fault: Fault::None,
            expect: Expectation::CompletedIdenticalToOracle,
        },
        ChaosCell {
            name: "wan/baseline",
            profile: NetworkProfile::Wan,
            fault: Fault::None,
            expect: Expectation::CompletedIdenticalToOracle,
        },
        ChaosCell {
            name: "lossy-dsl/baseline",
            profile: NetworkProfile::LossyDsl,
            fault: Fault::None,
            expect: Expectation::CompletedIdenticalToOracle,
        },
        ChaosCell {
            name: "ideal/sever-resume",
            profile: NetworkProfile::Ideal,
            fault: Fault::SeverResume,
            expect: Expectation::CompletedIdenticalToOracle,
        },
        ChaosCell {
            name: "lossy-dsl/sever-resume",
            profile: NetworkProfile::LossyDsl,
            fault: Fault::SeverResume,
            expect: Expectation::CompletedIdenticalToOracle,
        },
        ChaosCell {
            name: "ideal/dead-peer",
            profile: NetworkProfile::Ideal,
            fault: Fault::DeadPeer,
            expect: Expectation::Settled(FailureReason::PeerUnreachable),
        },
        ChaosCell {
            name: "ideal/tamper-sealed",
            profile: NetworkProfile::Ideal,
            fault: Fault::TamperSealed,
            expect: Expectation::Settled(FailureReason::ChannelAuth),
        },
        ChaosCell {
            name: "ideal/kill-behind-router",
            profile: NetworkProfile::Ideal,
            fault: Fault::KillBehindRouter,
            expect: Expectation::Stalled,
        },
        ChaosCell {
            name: "ideal/security-mismatch",
            profile: NetworkProfile::Ideal,
            fault: Fault::SecurityMismatch,
            expect: Expectation::AuthRejected,
        },
    ]
}

/// Classifies an in-process engine run (the outcomes of
/// `ShardedEngine::run`, or [`Scenario::oracle`](crate::Scenario::oracle))
/// into the taxonomy.
pub fn classify_engine_result<E: std::fmt::Display>(
    result: Result<Vec<EngineOutcome>, E>,
) -> RunOutcome {
    match result {
        Ok(outcomes) => RunOutcome::Completed {
            fingerprint: fingerprint_outcomes(&outcomes),
        },
        Err(e) => classify_error_text(&e.to_string()),
    }
}

/// Classifies a `PartyEngine` run (`coordinate` / `serve` result) into the
/// taxonomy. A report with any failed session settles with the dominant
/// reason (`ChannelAuth` outranks `PeerUnreachable` outranks `Other`,
/// since interference is the strongest signal).
pub fn classify_party_result<E: std::fmt::Display>(
    result: Result<PartyRunReport, E>,
) -> RunOutcome {
    let report = match result {
        Ok(report) => report,
        Err(e) => return classify_error_text(&e.to_string()),
    };
    if report.stats.sessions_failed == 0 {
        return RunOutcome::Completed {
            fingerprint: fingerprint_party_report(&report),
        };
    }
    let mut dominant: Option<(FailureReason, String)> = None;
    for row in &report.outcomes {
        if let PartyOutcome::Failed(failure) = &row.outcome {
            let (reason, detail) = match failure {
                SessionFailure::ChannelAuth { detail } => {
                    (FailureReason::ChannelAuth, detail.clone())
                }
                SessionFailure::PeerUnreachable { party } => {
                    (FailureReason::PeerUnreachable, format!("peer {party}"))
                }
                SessionFailure::Error(e) => (FailureReason::Other, e.clone()),
            };
            let stronger = match &dominant {
                None => true,
                Some((current, _)) => rank(reason) > rank(*current),
            };
            if stronger {
                dominant = Some((reason, detail));
            }
        }
    }
    let (reason, detail) =
        dominant.unwrap_or((FailureReason::Other, "failed sessions without rows".into()));
    RunOutcome::Settled { reason, detail }
}

/// Classifies one `ppc-party` process run from its exit status and
/// captured stdio. `timed_out` is set by the harness when it had to kill
/// the process at its deadline.
pub fn classify_process_run(
    exit_ok: bool,
    timed_out: bool,
    stdout: &str,
    stderr: &str,
) -> RunOutcome {
    if timed_out {
        return RunOutcome::Stalled {
            detail: last_line(stdout)
                .unwrap_or("no output before deadline")
                .into(),
        };
    }
    // Settled failures are reported as structured FAILED lines.
    let mut dominant: Option<(FailureReason, String)> = None;
    for line in stdout.lines().filter(|l| l.starts_with("FAILED")) {
        let reason = if line.contains("reason=channel-auth") {
            FailureReason::ChannelAuth
        } else if line.contains("reason=peer-unreachable") {
            FailureReason::PeerUnreachable
        } else {
            FailureReason::Other
        };
        let stronger = match &dominant {
            None => true,
            Some((current, _)) => rank(reason) > rank(*current),
        };
        if stronger {
            dominant = Some((reason, line.to_string()));
        }
    }
    if let Some((reason, detail)) = dominant {
        return RunOutcome::Settled { reason, detail };
    }
    if !exit_ok {
        let text = format!("{stderr}\n{stdout}");
        if text.contains("authentication") || text.contains("handshake") {
            return RunOutcome::AuthRejected {
                detail: last_line(stderr).unwrap_or("authentication failure").into(),
            };
        }
        if text.contains("stalled") || text.contains("readiness") {
            return RunOutcome::Stalled {
                detail: last_line(stderr).unwrap_or("stalled").into(),
            };
        }
        return RunOutcome::Settled {
            reason: FailureReason::Other,
            detail: last_line(stderr).unwrap_or("process failed").into(),
        };
    }
    RunOutcome::Completed {
        fingerprint: fingerprint_process_stdout(stdout),
    }
}

/// Digest over the stable result lines (`RESULT` / `MATRIX`) of a
/// `ppc-party` process's stdout. Two deterministic runs of the same
/// scenario produce identical digests; values embed f64 bits as hex, so
/// this is bit-exact too.
pub fn fingerprint_process_stdout(stdout: &str) -> u64 {
    let lines: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("RESULT") || l.starts_with("MATRIX"))
        .collect();
    fingerprint_str(&lines.join("\n"))
}

/// Fingerprint of a completed party report: per session (ascending id),
/// the third party's exported outcome. Matches the oracle's
/// [`fingerprint_outcomes`] for the same sessions.
pub fn fingerprint_party_report(report: &PartyRunReport) -> u64 {
    let mut sessions: Vec<u64> = report.outcomes.iter().map(|o| o.session).collect();
    sessions.sort_unstable();
    sessions.dedup();
    let mut h = Fnv::default();
    for id in sessions {
        for row in report.session(id) {
            match &row.outcome {
                PartyOutcome::ThirdParty(outcome) => {
                    let tp = TpOutcome::from_engine_outcome(outcome);
                    absorb_tp(&mut h, &tp);
                    break;
                }
                PartyOutcome::Remote(Some(tp)) => {
                    absorb_tp(&mut h, tp);
                    break;
                }
                _ => {}
            }
        }
    }
    h.finish()
}

// Absorbs the same byte stream as `digest::fingerprint_outcomes` does for
// the corresponding engine outcome, so report and oracle digests agree.
fn absorb_tp(h: &mut Fnv, tp: &TpOutcome) {
    for cluster in &tp.result.clusters {
        h.update(b"[");
        for &(site, local_index) in cluster {
            h.update(&site.to_le_bytes());
            h.update(&local_index.to_le_bytes());
        }
        h.update(b"]");
    }
    h.update_f64_bits(&[tp.result.average_within_cluster_squared_distance]);
    h.update_f64_bits(&tp.condensed);
}

fn classify_error_text(text: &str) -> RunOutcome {
    if text.contains("stalled") || text.contains("readiness") {
        RunOutcome::Stalled {
            detail: text.to_string(),
        }
    } else if text.contains("authentication") || text.contains("handshake") {
        RunOutcome::AuthRejected {
            detail: text.to_string(),
        }
    } else if text.contains("unreachable") {
        RunOutcome::Settled {
            reason: FailureReason::PeerUnreachable,
            detail: text.to_string(),
        }
    } else {
        RunOutcome::Settled {
            reason: FailureReason::Other,
            detail: text.to_string(),
        }
    }
}

fn rank(reason: FailureReason) -> u8 {
    match reason {
        FailureReason::ChannelAuth => 2,
        FailureReason::PeerUnreachable => 1,
        FailureReason::Other => 0,
    }
}

fn last_line(text: &str) -> Option<&str> {
    text.lines().rev().find(|l| !l.trim().is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_slice_covers_every_taxonomy_bucket() {
        let cells = ci_slice();
        let has = |f: &dyn Fn(&Expectation) -> bool| cells.iter().any(|c| f(&c.expect));
        assert!(has(&|e| matches!(
            e,
            Expectation::CompletedIdenticalToOracle
        )));
        assert!(has(&|e| matches!(
            e,
            Expectation::Settled(FailureReason::PeerUnreachable)
        )));
        assert!(has(&|e| matches!(
            e,
            Expectation::Settled(FailureReason::ChannelAuth)
        )));
        assert!(has(&|e| matches!(e, Expectation::AuthRejected)));
        assert!(has(&|e| matches!(e, Expectation::Stalled)));
        // Cell names are unique — bench rows key on them.
        let mut names: Vec<_> = cells.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cells.len());
    }

    #[test]
    fn settled_never_passes_as_completed() {
        let settled = RunOutcome::Settled {
            reason: FailureReason::PeerUnreachable,
            detail: "gone".into(),
        };
        assert!(Expectation::CompletedIdenticalToOracle
            .check(&settled, Some(1))
            .is_err());
        // ... and a completed run with the wrong bytes fails too.
        let completed = RunOutcome::Completed { fingerprint: 2 };
        assert!(Expectation::CompletedIdenticalToOracle
            .check(&completed, Some(1))
            .is_err());
        assert!(Expectation::CompletedIdenticalToOracle
            .check(&completed, Some(2))
            .is_ok());
        // Wrong settle reason is also a failure.
        assert!(Expectation::Settled(FailureReason::ChannelAuth)
            .check(&settled, None)
            .is_err());
        assert!(Expectation::Settled(FailureReason::PeerUnreachable)
            .check(&settled, None)
            .is_ok());
    }

    #[test]
    fn error_text_classification() {
        let stalled: Result<Vec<EngineOutcome>, String> =
            Err("party engine for TP stalled (sessions [0] unfinished)".into());
        assert!(matches!(
            classify_engine_result(stalled),
            RunOutcome::Stalled { .. }
        ));
        let auth: Result<Vec<EngineOutcome>, String> =
            Err("channel authentication failure: frame MAC".into());
        assert!(matches!(
            classify_engine_result(auth),
            RunOutcome::AuthRejected { .. }
        ));
        let unreachable: Result<Vec<EngineOutcome>, String> =
            Err("peer hosting TP is unreachable: backoff exhausted".into());
        assert!(matches!(
            classify_engine_result(unreachable),
            RunOutcome::Settled {
                reason: FailureReason::PeerUnreachable,
                ..
            }
        ));
    }

    #[test]
    fn process_stdout_classification() {
        let out = RunOutcome::Stalled { detail: "x".into() };
        assert_eq!(out.name(), "stalled");
        assert!(matches!(
            classify_process_run(true, true, "RESULT a\n", ""),
            RunOutcome::Stalled { .. }
        ));
        assert!(matches!(
            classify_process_run(
                false,
                false,
                "FAILED session=0 reason=channel-auth:mac\n",
                ""
            ),
            RunOutcome::Settled {
                reason: FailureReason::ChannelAuth,
                ..
            }
        ));
        assert!(matches!(
            classify_process_run(
                false,
                false,
                "FAILED session=0 reason=peer-unreachable:TP\n",
                ""
            ),
            RunOutcome::Settled {
                reason: FailureReason::PeerUnreachable,
                ..
            }
        ));
        assert!(matches!(
            classify_process_run(false, false, "", "error: channel authentication failure"),
            RunOutcome::AuthRejected { .. }
        ));
        let a = classify_process_run(true, false, "RESULT x\nMATRIX y\nSTATS z\n", "");
        let b = classify_process_run(true, false, "RESULT x\nMATRIX y\nSTATS other\n", "");
        assert_eq!(a, b, "fingerprint ignores non-result lines");
    }
}
