//! The four workloads, their set-up, and one job of each.
//!
//! A **job** is what a user submits: one `ShardedEngine::run` with one
//! shard over the scenario's sessions (in-process workloads), or one
//! federation of `ppc-party` processes driven by a `coordinate` manifest.
//! Every job is checked against the in-process oracle before it counts.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ppc_core::protocol::driver::ThirdPartyDriver;
use ppc_core::protocol::engine::{EngineOutcome, SessionSpec};
use ppc_core::protocol::machines::ComputeStats;
use ppc_core::protocol::sharded::ShardedEngine;
use ppc_net::{
    Backoff, ChannelKeyring, Network, TcpRouter, TcpTransport, TransportBackend, WaitTransport,
};
use ppc_scenario::digest::fingerprint_outcome;
use ppc_scenario::{Scenario, ScenarioSpec, SchemaShape, SiteSkew};

use crate::federation::{Federation, PartyTotals};
use crate::host;
use crate::seam::{Probe, Seam};

/// Where a workload's parties run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// Every party in this process, over one in-memory `Network`.
    Memory,
    /// Every party in this process, over one sealed loopback `TcpRouter`
    /// connection opened once at set-up.
    Tcp,
    /// One `ppc-party` process per party, through a router this process
    /// brings up for each job.
    Processes,
}

/// One benchmark workload: a scenario shape and a deployment.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Added to the base seed to give the scenario seed, so the workloads
    /// of one run draw independent inputs.
    offset: u64,
    /// Where the parties run.
    pub deployment: Deployment,
    shape: ScenarioSpec,
}

const fn shape(
    sites: u32,
    objects: usize,
    skew: SiteSkew,
    schema: SchemaShape,
    sessions: usize,
    chunk_base: Option<usize>,
) -> ScenarioSpec {
    ScenarioSpec {
        seed: 0,
        sites,
        objects,
        clusters: 3,
        skew,
        shape: schema,
        sessions,
        chunk_base,
    }
}

/// The workloads, in the order `--workload all` runs them. Why each exists
/// is recorded in `BENCHMARK.json` and the README.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "inmem_mixed",
        offset: 1,
        deployment: Deployment::Memory,
        shape: shape(
            8,
            400,
            SiteSkew::Zipf { exponent: 1.0 },
            SchemaShape {
                numeric: 1,
                categorical: 1,
                alphanumeric: 1,
                sequence_len: 12,
            },
            2,
            Some(32),
        ),
    },
    Workload {
        name: "tcp_small_frames",
        offset: 0,
        deployment: Deployment::Tcp,
        shape: shape(
            4,
            240,
            SiteSkew::Uniform,
            SchemaShape {
                numeric: 2,
                categorical: 1,
                alphanumeric: 0,
                sequence_len: 0,
            },
            2,
            Some(2),
        ),
    },
    Workload {
        name: "tcp_ccm_bulk",
        offset: 2,
        deployment: Deployment::Tcp,
        shape: shape(
            4,
            200,
            SiteSkew::Uniform,
            SchemaShape {
                numeric: 1,
                categorical: 0,
                alphanumeric: 1,
                sequence_len: 12,
            },
            2,
            None,
        ),
    },
    Workload {
        name: "federation_procs",
        offset: 3,
        deployment: Deployment::Processes,
        shape: shape(
            3,
            120,
            SiteSkew::Zipf { exponent: 0.9 },
            SchemaShape {
                numeric: 1,
                categorical: 1,
                alphanumeric: 1,
                sequence_len: 10,
            },
            2,
            Some(8),
        ),
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The scenario this workload runs for base seed `seed`.
    pub fn spec(&self, seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            seed: seed.wrapping_add(self.offset),
            ..self.shape
        }
    }
}

/// Stall budget of every engine: a job that sees no traffic for this long
/// fails as stalled instead of hanging the run.
pub const STALL_WAIT: Duration = Duration::from_millis(100);
/// See [`STALL_WAIT`].
pub const STALL_WAITS: u32 = 100;

/// Set-up phases, in seconds (0 where a deployment has no such phase).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Scenario::session_specs`, the trusted setup of every session; for
    /// the process federation, whose parties run their own trusted setup
    /// in each job, writing every party's inputs to disk.
    pub trusted: f64,
    /// `TcpRouter::spawn_with_backend`.
    pub router: f64,
    /// `TcpTransport::connect`, including the sealed handshake.
    pub connect: f64,
}

impl SetupTimes {
    /// Time from generated inputs to "the first job can start".
    pub fn total(&self) -> f64 {
        self.trusted + self.router + self.connect
    }
}

/// The long-lived part of a deployment that jobs run on. A run holds one,
/// so the size of the TCP variant does not matter.
#[allow(clippy::large_enum_variant)]
pub enum Rig {
    /// The in-memory network.
    Memory(Network),
    /// The persistent sealed connection and the router it goes through;
    /// the transport is declared first so it closes before the router.
    Tcp {
        /// Hosts every party of the scenario.
        transport: TcpTransport,
        /// Kept alive to reflect frames back to the transport.
        _router: TcpRouter,
    },
    /// Party inputs on disk.
    Processes(Federation),
}

/// A set-up deployment: the rig, the sessions a job submits and how long
/// it took to get there.
pub struct Prepared {
    /// The deployment.
    pub rig: Rig,
    /// Session specs (empty for the process federation, whose parties run
    /// their own trusted setup).
    pub specs: Vec<SessionSpec>,
    /// Set-up phase times.
    pub times: SetupTimes,
}

/// Sets a deployment up from generated inputs. `workdir` holds the party
/// inputs of the process federation.
pub fn prepare(
    workload: &Workload,
    scenario: &Scenario,
    workdir: &Path,
) -> Result<Prepared, String> {
    let mut times = SetupTimes::default();
    let clock = Instant::now();
    if workload.deployment == Deployment::Processes {
        let federation = Federation::prepare(scenario, workdir)?;
        times.trusted = clock.elapsed().as_secs_f64();
        return Ok(Prepared {
            rig: Rig::Processes(federation),
            specs: Vec::new(),
            times,
        });
    }
    let specs = scenario.session_specs()?;
    times.trusted = clock.elapsed().as_secs_f64();
    if workload.deployment == Deployment::Memory {
        let rig = Rig::Memory(Network::with_parties(scenario.spec.sites));
        return Ok(Prepared { rig, specs, times });
    }
    let clock = Instant::now();
    let (router, addr) =
        TcpRouter::spawn_with_backend("127.0.0.1:0", TransportBackend::default_for_host())
            .map_err(|e| format!("router spawn: {e}"))?;
    times.router = clock.elapsed().as_secs_f64();
    let clock = Instant::now();
    // The deployment defaults `ppc-party` runs with: host backend, sealed
    // channels keyed from the master seed, coalescing on.
    let mut transport = TcpTransport::new(scenario.parties());
    transport.set_security(ChannelKeyring::from_master(&scenario.master));
    transport.set_coalescing(true);
    transport
        .connect(addr, &Backoff::default())
        .map_err(|e| format!("connect: {e}"))?;
    times.connect = clock.elapsed().as_secs_f64();
    let rig = Rig::Tcp {
        transport,
        _router: router,
    };
    Ok(Prepared { rig, specs, times })
}

/// Outcome of one job.
#[derive(Debug, Clone, Default)]
pub struct Job {
    /// Wall time from submission to return.
    pub seconds: f64,
    /// CPU seconds the job used over the same interval: this process's
    /// threads plus every party process it reaped.
    pub cpu: f64,
    /// Sessions the job submitted.
    pub sessions: usize,
    /// Sessions that errored, stalled or differ from the oracle.
    pub failed: usize,
    /// Why the job failed, when it did.
    pub failure: Option<String>,
    /// Compute phases summed over the job's sessions (in-process only).
    pub compute: ComputeStats,
    /// Engine scheduling rounds, parks and messages (in-process only).
    pub rounds: u64,
    /// See [`rounds`](Self::rounds).
    pub blocking_waits: u64,
    /// See [`rounds`](Self::rounds).
    pub messages: u64,
    /// Per-process statistics of the federation.
    pub party: Option<PartyTotals>,
}

/// What every job is checked against.
pub struct Oracle {
    /// Per-session fingerprints of the in-process oracle run.
    pub fingerprints: Vec<u64>,
    /// The oracle's outcomes, in session order.
    pub outcomes: Vec<EngineOutcome>,
}

impl Oracle {
    /// Runs the single-threaded in-process oracle.
    pub fn of(scenario: &Scenario) -> Result<Oracle, String> {
        let outcomes = scenario.oracle()?;
        Ok(Oracle {
            fingerprints: outcomes.iter().map(fingerprint_outcome).collect(),
            outcomes,
        })
    }
}

/// Runs one job on `prepared`, feeding `probe`. In-process outcomes are
/// returned for the replays; the federation returns none.
pub fn run_job(
    prepared: &Prepared,
    oracle: &Oracle,
    probe: &Probe,
    federation_reference: &mut Option<u64>,
) -> (Job, Vec<EngineOutcome>) {
    match &prepared.rig {
        Rig::Memory(network) => engine_job(Seam::new(network, probe), &prepared.specs, oracle),
        Rig::Tcp { transport, .. } => {
            engine_job(Seam::new(transport, probe), &prepared.specs, oracle)
        }
        Rig::Processes(federation) => {
            (federation.run_job(oracle, federation_reference), Vec::new())
        }
    }
}

fn engine_job<T: WaitTransport + Sync>(
    transport: T,
    specs: &[SessionSpec],
    oracle: &Oracle,
) -> (Job, Vec<EngineOutcome>) {
    let mut job = Job {
        sessions: specs.len(),
        ..Job::default()
    };
    let cpu_before = host::cpu_seconds();
    let started = Instant::now();
    let run = ShardedEngine::new(vec![transport]).and_then(|mut engine| {
        for spec in specs {
            engine.add_session(spec.clone());
        }
        engine.set_stall_budget(STALL_WAIT, STALL_WAITS);
        engine.run()
    });
    job.seconds = started.elapsed().as_secs_f64();
    job.cpu = host::cpu_seconds() - cpu_before;
    match run {
        Ok(run) => {
            for shard in &run.shards {
                job.rounds += shard.rounds;
                job.blocking_waits += shard.blocking_waits;
                job.messages += shard.messages_sent;
            }
            for (outcome, expected) in run.outcomes.iter().zip(&oracle.fingerprints) {
                job.compute.absorb(&outcome.stats.compute);
                if fingerprint_outcome(outcome) != *expected {
                    job.failed += 1;
                }
            }
            if run.outcomes.len() != oracle.fingerprints.len() {
                job.failed = job.sessions;
            }
            if job.failed > 0 {
                job.failure = Some(format!("{} session(s) differ from the oracle", job.failed));
            }
            (job, run.outcomes)
        }
        Err(e) => {
            // The engine's stall detector reports "stalled"; anything else
            // is an error. Either way every session of the job is lost.
            job.failed = job.sessions;
            job.failure = Some(e.to_string());
            (job, Vec::new())
        }
    }
}

/// Re-runs the third party's clustering stage on each outcome's final
/// matrix, asserting it publishes exactly what the job published. Returns
/// the time spent clustering, or the first disagreement.
pub fn replay_clustering(
    outcomes: &[EngineOutcome],
    specs: &[SessionSpec],
) -> Result<Duration, String> {
    let mut spent = Duration::ZERO;
    for (outcome, spec) in outcomes.iter().zip(specs) {
        let matrix = outcome.final_matrix.clone();
        let started = Instant::now();
        let (result, _) = ThirdPartyDriver::cluster_matrix(matrix, &spec.request)
            .map_err(|e| format!("clustering replay: {e}"))?;
        spent += started.elapsed();
        if result != outcome.result {
            return Err(format!(
                "clustering replay ({:?} linkage) published a different result",
                spec.request.linkage
            ));
        }
    }
    Ok(spent)
}

/// Creates (and on drop removes) a scratch directory inside the current
/// directory, which the benchmark owns for the run.
pub struct Workdir(PathBuf);

impl Workdir {
    /// `.ppcbench/<workload>-<pid>` under the current directory.
    pub fn create(workload: &str) -> Result<Workdir, String> {
        let path = PathBuf::from(".ppcbench").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Workdir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either; fails harmlessly while
        // another run still uses it.
        let _ = std::fs::remove_dir(".ppcbench");
    }
}
