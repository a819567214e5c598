//! # ppc-scenario — seeded scenario factory + chaos matrix
//!
//! Every test and bench used to exercise ~2 holders and a third party over
//! 32-object miniatures. This crate makes *realistic adversarial workloads*
//! the standard surface instead:
//!
//! * [`factory`] — a seeded, deterministic generator producing k sites
//!   (3–16) with skewed row distributions (uniform / zipf / one dominant
//!   site), mixed numeric/categorical/alphanumeric schemas, datasets up to
//!   10⁵ objects, and per-session manifest diversity (linkage, weights,
//!   chunk windows, numeric modes). Same seed ⇒ byte-identical scenario.
//! * [`chaos`] — the chaos matrix: WAN loss/latency profiles crossed with
//!   mid-run link kills ([`sever_links`](ppc_net::SocketTransport::sever_links)),
//!   dead peers and frame tampering, plus the machine-readable **outcome
//!   taxonomy** ([`chaos::RunOutcome`]) and per-cell expectations
//!   ([`chaos::Expectation`]) that make "settled" runs impossible to pass
//!   off as "completed".
//! * [`proxy`] — reusable byte-level TCP adversaries (tamper proxy) for
//!   driving the tampering cells against real sockets.
//! * [`digest`] — the order-sensitive fingerprints used for byte-identity
//!   (`f64`-bit exact) comparisons against the in-process oracle.
//!
//! The three consumers are `tests/scenario_matrix.rs` (deterministic CI
//! slice vs the in-process oracle, [`Scenario::oracle`]: a one-shard
//! [`ShardedEngine`](ppc_core::protocol::sharded::ShardedEngine)), the
//! `ppc-party` process-level chaos harness, and the bench binaries that
//! emit `BENCH_pr8.json`. See `docs/SCENARIOS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod digest;
pub mod factory;
pub mod proxy;

pub use chaos::{ChaosCell, Expectation, FailureReason, Fault, NetworkProfile, RunOutcome};
pub use factory::{Scenario, ScenarioSpec, SchemaShape, SessionProfile, SiteSkew};
pub use proxy::TamperProxy;
