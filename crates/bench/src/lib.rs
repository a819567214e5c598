//! # ppc-bench — experiment harness for `ppclust`
//!
//! Two consumers share this crate:
//!
//! * the `experiments` binary (`cargo run -p ppc-bench --bin experiments`),
//!   which prints every experiment table (the measured counterparts of the
//!   paper's worked examples, communication-cost analyses and qualitative
//!   comparisons; the README's "Reproducing the paper's experiments" lists
//!   them), and
//! * the Criterion benches under `benches/`, which time the individual
//!   protocol roles and the end-to-end pipelines.
//!
//! [`runners`] holds the shared machinery (building workloads, running
//! each as one session on a one-shard engine over an instrumented
//! in-memory network, collecting byte counts and accuracy numbers);
//! [`tables`] turns runner output into the printable tables, one function
//! per experiment.
//!
//! ## Performance
//!
//! The headline benches are `dissimilarity_construction` (the whole
//! Figure 11 pipeline, in-memory and networked) and `clustering` (the
//! Lance–Williams linkages and scaling curves). Their results are
//! snapshotted in the repository root as `BENCH_<pr>.json`
//! (before/after medians plus speedups per benchmark id).
//!
//! The build environment is offline, so `criterion` resolves to the
//! stand-in under `vendor/criterion`: it measures wall-clock medians, prints
//! one line per benchmark and honours two environment knobs:
//!
//! * `PPC_BENCH_JSON=<path>` — append one `{"id": ..., "median_ns": ...}`
//!   JSON line per benchmark to `<path>`;
//! * `PPC_BENCH_QUICK=1` — cap sampling (≤ 5 samples of ≤ 50 ms) for CI.
//!
//! To regenerate a `BENCH_*.json` snapshot:
//!
//! ```text
//! PPC_BENCH_QUICK=1 PPC_BENCH_JSON=after.json \
//!     cargo bench -p ppc-bench --bench dissimilarity_construction --bench clustering
//! # combine the per-id medians of the baseline and current runs into
//! # BENCH_<pr>.json (see the existing file for the schema)
//! ```
//!
//! Benchmarks run on whatever cores are available; the `parallel` feature
//! (forwarded to `ppc-core`) fans independent attributes and holder pairs
//! out over threads, and degrades to the sequential path on 1-core runners,
//! so recorded speedups are algorithmic lower bounds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod runners;
pub mod tables;

pub use runners::{AccuracyRow, CostRow, SessionSummary};
pub use tables::{all_experiments, ExperimentReport};
