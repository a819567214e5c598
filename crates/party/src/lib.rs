//! `ppc-party` — the per-party deployment binary.
//!
//! Each OS process plays exactly the parties it is configured for (one
//! data holder, or the third party) and speaks to the rest of the
//! federation over TCP or Unix-domain sockets, with sessions opened
//! in-band through the `ctl/` control plane — see
//! `ppc_core::protocol::party_engine` and `docs/WIRE_FORMAT.md` §7.
//!
//! Three modes:
//!
//! ```text
//! ppc-party route      --listen tcp:127.0.0.1:7000
//! ppc-party serve      --connect tcp:127.0.0.1:7000 --party TP  --coordinator DH0 \
//!                      --seed 77 --schema age:numeric,blood:categorical
//! ppc-party serve      --connect tcp:127.0.0.1:7000 --party DH1 --coordinator DH0 \
//!                      --seed 77 --schema age:numeric,blood:categorical --csv site_b.csv
//! ppc-party coordinate --connect tcp:127.0.0.1:7000 --party DH0 --remote DH1,TP \
//!                      --seed 77 --schema age:numeric,blood:categorical --csv site_a.csv \
//!                      --sessions 4 --clusters 3 [--linkage average] [--chunk-rows 4] \
//!                      [--numeric-mode batch|per-pair]
//! ```
//!
//! All processes must share `--seed` (the trusted-setup master seed each
//! party derives *its own* secrets from — secrets never cross the wire)
//! and `--schema`. Data holders load their partition from `--csv`
//! (`ppc_core::csv` dialect; header row matching the schema). Results are
//! printed as stable machine-parseable lines (`RESULT …`, `MATRIX …`,
//! `DONE …`, `FAILED …`), which the multi-process integration test
//! compares byte-for-byte against the in-process oracle.
//!
//! **Channel security** is on by default: every socket frame is sealed
//! end-to-end with ChaCha20-Poly1305 under keys derived from the master
//! seed (or a dedicated `--psk N`), the handshake rejects plaintext peers
//! (no silent downgrade), and tampering surfaces as
//! `FAILED … reason=channel-auth:…` outcomes. `--insecure` opts the
//! process out, with a loud warning. The frame router needs no keys — it
//! forwards sealed frames opaquely.
//!
//! Instead of `--sessions N` identical sessions, `coordinate` accepts
//! `--manifest FILE` with per-session overrides (linkage, weights,
//! clusters, chunk window, numeric mode — see [`parse_manifest`]),
//! making the CLI a batch front-end.

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt::Write as _;
use std::time::Duration;

use ppc_cluster::Linkage;
use ppc_core::csv::parse_csv;
use ppc_core::matrix::HorizontalPartition;
use ppc_core::protocol::driver::ClusteringRequest;
use ppc_core::protocol::messages::parse_linkage;
use ppc_core::protocol::party_engine::{
    PartyEngine, PartyOutcome, PartyRunReport, PartySeat, SessionFailure, SessionPlan, TpOutcome,
};
use ppc_core::protocol::{NumericMode, ProtocolConfig};
use ppc_core::schema::{AttributeDescriptor, Schema, WeightVector};
use ppc_core::Alphabet;
use ppc_crypto::Seed;
use ppc_net::socket::SocketStream;
use ppc_net::{
    Backoff, ChannelKeyring, NetError, PartyId, SocketTransport, TcpRouter, TcpTransport,
    WaitTransport,
};
#[cfg(unix)]
use ppc_net::{UdsRouter, UdsTransport};

/// A parsed `--flag value` map.
pub type Flags = BTreeMap<String, String>;

/// Flags that take no value (presence flags).
const BOOLEAN_FLAGS: &[&str] = &["insecure", "secure", "coalesce", "no-coalesce"];

/// Flags that take a value: every key some mode reads.
const VALUE_FLAGS: &[&str] = &[
    "chunk-rows",
    "clusters",
    "connect",
    "coordinator",
    "csv",
    "linkage",
    "listen",
    "manifest",
    "numeric-mode",
    "party",
    "psk",
    "ready-ms",
    "ready-waits",
    "remote",
    "schema",
    "seed",
    "sessions",
    "stall-ms",
    "stall-waits",
];

/// Parses `--key value` pairs (and bare boolean flags like `--insecure`).
/// Keys no mode reads are rejected, so a typo cannot be silently ignored.
pub fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{key}'"))?;
        let value = if BOOLEAN_FLAGS.contains(&key) {
            "true".to_string()
        } else if VALUE_FLAGS.contains(&key) {
            it.next()
                .ok_or_else(|| format!("--{key} needs a value"))?
                .clone()
        } else {
            return Err(format!("unknown flag --{key}"));
        };
        if flags.insert(key.to_string(), value).is_some() {
            return Err(format!("--{key} given twice"));
        }
    }
    Ok(flags)
}

fn require<'a>(flags: &'a Flags, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{key}"))
}

/// `DH<n>` or `TP`.
pub fn parse_party(text: &str) -> Result<PartyId, String> {
    if text == "TP" {
        return Ok(PartyId::ThirdParty);
    }
    text.strip_prefix("DH")
        .and_then(|n| n.parse().ok())
        .map(PartyId::DataHolder)
        .ok_or_else(|| format!("'{text}' is not a party (expected DH<n> or TP)"))
}

/// `tcp:host:port` or `uds:/path/to.sock`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address.
    Tcp(String),
    /// A Unix-domain socket path.
    Uds(String),
}

/// Parses an endpoint specifier.
pub fn parse_endpoint(text: &str) -> Result<Endpoint, String> {
    if let Some(addr) = text.strip_prefix("tcp:") {
        return Ok(Endpoint::Tcp(addr.to_string()));
    }
    if let Some(path) = text.strip_prefix("uds:") {
        return Ok(Endpoint::Uds(path.to_string()));
    }
    Err(format!(
        "'{text}' is not an endpoint (expected tcp:host:port or uds:/path)"
    ))
}

fn parse_alphabet(name: &str) -> Result<Alphabet, String> {
    match name {
        "dna" => Ok(Alphabet::dna()),
        "abcd" => Ok(Alphabet::abcd()),
        "lowercase" => Ok(Alphabet::lowercase()),
        "alphanumeric-lower" => Ok(Alphabet::alphanumeric_lower()),
        other => Err(format!(
            "unknown alphabet '{other}' (expected dna, abcd, lowercase or alphanumeric-lower)"
        )),
    }
}

/// `name:numeric | name:categorical | name:alphanumeric:<alphabet>`,
/// comma-separated, schema order.
pub fn parse_schema(spec: &str) -> Result<Schema, String> {
    let mut attributes = Vec::new();
    for field in spec.split(',') {
        let mut parts = field.splitn(3, ':');
        let name = parts
            .next()
            .filter(|n| !n.is_empty())
            .ok_or_else(|| format!("empty attribute name in schema field '{field}'"))?;
        let kind = parts
            .next()
            .ok_or_else(|| format!("schema field '{field}' has no kind"))?;
        attributes.push(match kind {
            "numeric" => AttributeDescriptor::numeric(name),
            "categorical" => AttributeDescriptor::categorical(name),
            "alphanumeric" => {
                let alphabet = parts
                    .next()
                    .ok_or_else(|| format!("schema field '{field}' names no alphabet"))?;
                AttributeDescriptor::alphanumeric(name, parse_alphabet(alphabet)?)
            }
            other => return Err(format!("unknown attribute kind '{other}' in '{field}'")),
        });
    }
    Schema::new(attributes).map_err(|e| e.to_string())
}

/// Stable rendering of published cluster membership: `[[0:0,0:1],[1:0]]`
/// (site:index pairs). The integration test compares these strings between
/// the process output and the in-process oracle.
pub fn render_clusters(clusters: &[Vec<(u32, u32)>]) -> String {
    let members: usize = clusters.iter().map(Vec::len).sum();
    // Brackets and commas, plus a few digits per member.
    let mut out = String::with_capacity(2 + 3 * clusters.len() + 8 * members);
    out.push('[');
    for (i, cluster) in clusters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, (site, index)) in cluster.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write!(out, "{site}:{index}").expect("writing to a String cannot fail");
        }
        out.push(']');
    }
    out.push(']');
    out
}

/// Exact (bit-level) rendering of a float slice: lowercase hex of the
/// IEEE-754 bits, 16 digits each, comma-separated. "Byte-identical"
/// comparisons are string comparisons of this form.
pub fn render_f64_bits(values: &[f64]) -> String {
    // Digits from a table cost about half of a `write!` of `{:016x}` per
    // value: 0.12 against 0.22 ms per 7,140-value matrix on a 2-vCPU VM.
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(17 * values.len());
    for (i, value) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let bits = value.to_bits();
        for nibble in (0..16).rev() {
            out.push(char::from(HEX[(bits >> (4 * nibble)) as usize & 0xf]));
        }
    }
    out
}

fn print_tp_outcome(session: u64, party: PartyId, tp: &TpOutcome) {
    println!(
        "RESULT party={party} session={session} clusters={} avg={:016x}",
        render_clusters(&tp.result.clusters),
        tp.result.average_within_cluster_squared_distance.to_bits()
    );
    println!(
        "MATRIX party={party} session={session} objects={} values={}",
        tp.objects,
        render_f64_bits(&tp.condensed)
    );
}

/// Prints a finished run's outcomes as stable stdout lines.
pub fn print_report(report: &PartyRunReport) {
    for row in &report.outcomes {
        let (session, party) = (row.session, row.party);
        match &row.outcome {
            PartyOutcome::Holder(published) => println!(
                "RESULT party={party} session={session} clusters={} avg={:016x}",
                render_clusters(&published.clusters),
                published.average_within_cluster_squared_distance.to_bits()
            ),
            PartyOutcome::ThirdParty(outcome) => {
                print_tp_outcome(session, party, &TpOutcome::from_engine_outcome(outcome));
            }
            PartyOutcome::Remote(Some(tp)) => print_tp_outcome(session, party, tp),
            PartyOutcome::Remote(None) => println!("DONE party={party} session={session}"),
            PartyOutcome::Failed(SessionFailure::PeerUnreachable { party: gone }) => {
                println!("FAILED party={party} session={session} reason=peer-unreachable:{gone}")
            }
            PartyOutcome::Failed(SessionFailure::ChannelAuth { detail }) => {
                println!("FAILED party={party} session={session} reason=channel-auth:{detail}")
            }
            PartyOutcome::Failed(SessionFailure::Error(e)) => {
                println!("FAILED party={party} session={session} reason={e}")
            }
        }
    }
    let stats = &report.stats;
    println!(
        "STATS rounds={} blocking_waits={} messages_sent={} peak_buffered_rows={} completed={} \
         failed={}",
        stats.rounds,
        stats.blocking_waits,
        stats.messages_sent,
        stats.peak_buffered_rows,
        stats.sessions_completed,
        stats.sessions_failed
    );
}

/// Connect-time backoff generous enough to survive the federation's
/// startup race (the router or coordinator may come up seconds later).
pub fn startup_backoff() -> Backoff {
    Backoff {
        initial: Duration::from_millis(10),
        max_delay: Duration::from_millis(500),
        max_attempts: 120,
    }
}

/// The channel-security configuration resolved from the flags.
///
/// Default is **sealed**: every socket frame is AEAD-encrypted and
/// authenticated end-to-end with keys derived from the master seed (or a
/// dedicated `--psk`). `--insecure` opts out, loudly — the paper's §4.1
/// spells out exactly what a listener learns on plaintext channels.
#[derive(Debug, Clone)]
pub enum ChannelConfig {
    /// Seal frames with this keyring (the default).
    Sealed(ChannelKeyring),
    /// Plaintext sockets; requires an explicit `--insecure`.
    Plaintext,
}

/// Resolves `--secure` / `--psk N` / `--insecure` against the master seed.
pub fn channel_config(flags: &Flags) -> Result<ChannelConfig, String> {
    let insecure = flags.contains_key("insecure");
    match (insecure, flags.get("psk")) {
        (true, Some(_)) => Err("--insecure conflicts with --psk".into()),
        (true, None) => {
            if flags.contains_key("secure") {
                return Err("--insecure conflicts with --secure".into());
            }
            eprintln!(
                "WARNING: --insecure selected: protocol traffic (masked rows, dissimilarity \
                 blocks, control announcements) travels in PLAINTEXT over this socket. Any \
                 on-path listener can mount the inference attacks of the source paper's \
                 §4.1. Never use this outside loopback experiments."
            );
            Ok(ChannelConfig::Plaintext)
        }
        (false, Some(psk)) => {
            let seed: u64 = psk
                .parse()
                .map_err(|_| "--psk must be an unsigned integer".to_string())?;
            Ok(ChannelConfig::Sealed(ChannelKeyring::from_psk(
                Seed::from_u64(seed),
            )))
        }
        (false, None) => {
            let master = master_seed(flags)?;
            Ok(ChannelConfig::Sealed(ChannelKeyring::from_master(&master)))
        }
    }
}

/// Resolves `--coalesce` / `--no-coalesce` against the channel config.
///
/// Sealed transports coalesce by default: every envelope is still sealed
/// into its own record when it is sent, but the records wait in the link's
/// outbox and the flush at the end of each engine turn writes them in one
/// syscall. `--no-coalesce` writes each record as it is sealed, e.g. to
/// measure the difference. Plaintext sockets never coalesce — frames go
/// out as written.
pub fn coalescing_enabled(flags: &Flags, security: &ChannelConfig) -> Result<bool, String> {
    let on = flags.contains_key("coalesce");
    let off = flags.contains_key("no-coalesce");
    match (on, off, security) {
        (true, true, _) => Err("--coalesce conflicts with --no-coalesce".into()),
        (true, _, ChannelConfig::Plaintext) => {
            Err("--coalesce needs sealed channels (conflicts with --insecure)".into())
        }
        (_, _, ChannelConfig::Plaintext) => Ok(false),
        (_, off, ChannelConfig::Sealed(_)) => Ok(!off),
    }
}

/// Prints the delivery-path statistics line: one stable machine-parseable
/// `DELIVERY …` line mirroring the `SEALING` line, with the buffer-pool
/// hit rate the zero-allocation claim is audited by.
pub fn print_delivery_report(stats: Option<&ppc_net::DeliveryStats>) {
    let Some(s) = stats else { return };
    println!(
        "DELIVERY pool_hits={} pool_misses={} pool_hit_rate={:.4} batched_wakes={} \
         wake_signals={}",
        s.pool_hits,
        s.pool_misses,
        s.pool_hit_rate(),
        s.batched_wakes,
        s.wake_signals,
    );
}

/// Prints the sealing-tier statistics line (`None` on plaintext runs).
/// One stable machine-parseable `SEALING …` line with federation totals,
/// then the per-link table on stderr for humans.
pub fn print_sealing_report(report: Option<&ppc_net::SealingReport>) {
    let Some(report) = report else { return };
    let t = report.total();
    println!(
        "SEALING records_sealed={} frames_sealed={} frames_per_record={:.2} plaintext_bytes={} \
         sealed_bytes={} records_opened={} frames_opened={}",
        t.records_sealed,
        t.frames_sealed,
        t.frames_per_record(),
        t.plaintext_bytes,
        t.sealed_bytes,
        t.records_opened,
        t.frames_opened
    );
    eprint!("{}", report.to_table());
}

fn master_seed(flags: &Flags) -> Result<Seed, String> {
    Ok(Seed::from_u64(require(flags, "seed")?.parse().map_err(
        |_| "--seed must be an unsigned integer".to_string(),
    )?))
}

fn seat_from_flags(flags: &Flags, party: PartyId, schema: &Schema) -> Result<PartySeat, String> {
    let master = master_seed(flags)?;
    match party {
        PartyId::ThirdParty => Ok(PartySeat::ThirdParty { master }),
        PartyId::DataHolder(site) => {
            let path = require(flags, "csv")?;
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read --csv {path}: {e}"))?;
            let matrix = parse_csv(schema, &text).map_err(|e| format!("{path}: {e}"))?;
            Ok(PartySeat::Holder {
                partition: HorizontalPartition::new(site, matrix),
                master,
            })
        }
    }
}

/// Default per-turn idle wait for multi-process runs, in milliseconds.
pub const DEFAULT_STALL_MS: u64 = 100;
/// Default number of consecutive idle waits before a run is declared
/// stalled (100 ms × 600 ≈ one minute of true silence).
pub const DEFAULT_STALL_WAITS: u32 = 600;

/// The stall/readiness budgets resolved from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallBudget {
    /// Per-turn idle wait.
    pub idle_wait: Duration,
    /// Consecutive idle waits before the engine errors out.
    pub max_idle_waits: u32,
    /// Explicit phase-1 readiness budget; `None` follows the stall budget.
    pub readiness: Option<(Duration, u32)>,
}

/// Resolves `--stall-ms` / `--stall-waits` / `--ready-ms` / `--ready-waits`.
///
/// Multi-process runs cross real schedulers and kernels, so the defaults
/// are generous; chaos harnesses shrink them to classify kills as stalls
/// quickly instead of waiting out a minute of silence. The `--ready-*`
/// pair bounds only the phase-1 readiness gather (peers may still be
/// starting up), letting tests keep a long run budget but fail fast when
/// a peer never shows up.
pub fn parse_stall_budget(flags: &Flags) -> Result<StallBudget, String> {
    let parse_u64 = |key: &str, default: u64| -> Result<u64, String> {
        match flags.get(key) {
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{key} must be an unsigned integer")),
            None => Ok(default),
        }
    };
    let idle_wait = Duration::from_millis(parse_u64("stall-ms", DEFAULT_STALL_MS)?);
    let max_idle_waits = parse_u64("stall-waits", u64::from(DEFAULT_STALL_WAITS))? as u32;
    let readiness = match (flags.get("ready-ms"), flags.get("ready-waits")) {
        (None, None) => None,
        _ => Some((
            Duration::from_millis(parse_u64("ready-ms", idle_wait.as_millis() as u64)?),
            parse_u64("ready-waits", u64::from(max_idle_waits))? as u32,
        )),
    };
    Ok(StallBudget {
        idle_wait,
        max_idle_waits,
        readiness,
    })
}

fn build_engine<T: WaitTransport>(
    transport: T,
    seat: PartySeat,
    flags: &Flags,
) -> Result<PartyEngine<T>, Box<dyn Error>> {
    let mut engine = PartyEngine::new(transport, vec![seat])?;
    let budget = parse_stall_budget(flags)?;
    engine.set_stall_budget(budget.idle_wait, budget.max_idle_waits);
    if let Some((wait, waits)) = budget.readiness {
        engine.set_readiness_budget(wait, waits);
    }
    Ok(engine)
}

/// What a party process does once its transport is connected.
enum Role {
    /// Serve sessions the coordinator announces.
    Serve { coordinator: PartyId },
    /// Open `plans` against the `remote` parties.
    Coordinate {
        schema: Schema,
        remote: Vec<PartyId>,
        plans: Vec<SessionPlan>,
    },
}

/// Dials the `--connect` endpoint with a transport hosting `party`, runs
/// `role` on a [`PartyEngine`] over it and prints the outcome lines.
fn run_party(
    flags: &Flags,
    party: PartyId,
    seat: PartySeat,
    role: Role,
) -> Result<(), Box<dyn Error>> {
    let backoff = startup_backoff();
    match parse_endpoint(require(flags, "connect")?)? {
        Endpoint::Tcp(addr) => run_over(flags, party, seat, role, |transport: &TcpTransport| {
            transport.connect(addr.as_str(), &backoff)
        }),
        #[cfg(unix)]
        Endpoint::Uds(path) => run_over(flags, party, seat, role, |transport: &UdsTransport| {
            transport.connect(&path, &backoff)
        }),
        #[cfg(not(unix))]
        Endpoint::Uds(_) => Err("uds endpoints need a unix platform".into()),
    }
}

/// [`run_party`] over one stream type: builds the transport, seals and
/// coalesces it as the flags say, and links it with `connect`.
fn run_over<S: SocketStream>(
    flags: &Flags,
    party: PartyId,
    seat: PartySeat,
    role: Role,
    connect: impl FnOnce(&SocketTransport<S>) -> Result<BTreeSet<PartyId>, NetError>,
) -> Result<(), Box<dyn Error>>
where
    SocketTransport<S>: WaitTransport,
{
    let security = channel_config(flags)?;
    let coalesce = coalescing_enabled(flags, &security)?;
    let mut transport = SocketTransport::<S>::new([party]);
    if let ChannelConfig::Sealed(keyring) = security {
        transport.set_security(keyring);
    }
    transport.set_coalescing(coalesce);
    connect(&transport)?;
    // The engine and its links are gone before the outcome lines are
    // rendered, so those strings do not stack on the engine's heap.
    let (report, sealing, delivery) = {
        let engine = build_engine(transport, seat, flags)?;
        let report = match role {
            Role::Serve { coordinator } => engine.serve(coordinator)?,
            Role::Coordinate {
                schema,
                remote,
                plans,
            } => engine.coordinate(schema, remote, plans)?,
        };
        let transport = engine.transport();
        (
            report,
            transport.sealing_report(),
            transport.delivery_stats(),
        )
    };
    print_report(&report);
    print_sealing_report(sealing.as_ref());
    print_delivery_report(Some(&delivery));
    if report.stats.sessions_failed > 0 {
        return Err(format!("{} session(s) failed", report.stats.sessions_failed).into());
    }
    Ok(())
}

fn run_serve(flags: &Flags) -> Result<(), Box<dyn Error>> {
    let party = parse_party(require(flags, "party")?)?;
    let coordinator = parse_party(require(flags, "coordinator")?)?;
    let schema = parse_schema(require(flags, "schema")?)?;
    let seat = seat_from_flags(flags, party, &schema)?;
    run_party(flags, party, seat, Role::Serve { coordinator })
}

fn parse_numeric_mode(text: &str) -> Result<NumericMode, String> {
    match text {
        "batch" => Ok(NumericMode::Batch),
        "per-pair" => Ok(NumericMode::PerPair),
        other => Err(format!("unknown numeric mode '{other}'")),
    }
}

/// Parses a session manifest: one session per non-empty, non-`#` line,
/// each a whitespace-separated list of `key=value` overrides applied on
/// top of `base` (the plan built from the command-line flags):
///
/// ```text
/// # session 0: defaults, just more clusters
/// clusters=4
/// # session 1: Ward linkage, custom weights, chunked per-pair run
/// linkage=ward weights=0.5,0.25,0.25 chunk-rows=2 numeric-mode=per-pair
/// ```
///
/// Keys: `clusters`, `linkage`, `weights` (comma-separated, one per
/// schema attribute), `chunk-rows` (`none` disables chunking),
/// `numeric-mode` (`batch` | `per-pair`).
pub fn parse_manifest(
    schema: &Schema,
    text: &str,
    base: &SessionPlan,
) -> Result<Vec<SessionPlan>, String> {
    let mut plans = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut plan = base.clone();
        for token in line.split_whitespace() {
            let (key, value) = token.split_once('=').ok_or_else(|| {
                format!("manifest line {}: '{token}' is not key=value", lineno + 1)
            })?;
            let err = |e: String| format!("manifest line {}: {key}: {e}", lineno + 1);
            match key {
                "clusters" => {
                    plan.request.num_clusters = value
                        .parse()
                        .map_err(|_| err("must be a positive integer".into()))?;
                }
                "linkage" => {
                    plan.request.linkage = parse_linkage(value).map_err(|e| err(e.to_string()))?
                }
                "weights" => {
                    let weights: Vec<f64> = value
                        .split(',')
                        .map(str::parse)
                        .collect::<Result<_, _>>()
                        .map_err(|_| err("must be comma-separated numbers".into()))?;
                    if weights.len() != schema.len() {
                        return Err(err(format!(
                            "{} weights for a {}-attribute schema",
                            weights.len(),
                            schema.len()
                        )));
                    }
                    plan.request.weights =
                        WeightVector::new(weights).map_err(|e| err(e.to_string()))?;
                }
                "chunk-rows" => {
                    plan.chunk_rows = if value == "none" {
                        None
                    } else {
                        Some(
                            value
                                .parse()
                                .map_err(|_| err("must be a positive integer or 'none'".into()))?,
                        )
                    };
                }
                "numeric-mode" => {
                    plan.config.numeric_mode = parse_numeric_mode(value).map_err(err)?
                }
                other => {
                    return Err(format!(
                        "manifest line {}: unknown key '{other}'",
                        lineno + 1
                    ))
                }
            }
        }
        plans.push(plan);
    }
    if plans.is_empty() {
        return Err("manifest declares no sessions".into());
    }
    Ok(plans)
}

fn run_coordinate(flags: &Flags) -> Result<(), Box<dyn Error>> {
    let party = parse_party(require(flags, "party")?)?;
    let schema = parse_schema(require(flags, "schema")?)?;
    let seat = seat_from_flags(flags, party, &schema)?;
    let remote: Vec<PartyId> = require(flags, "remote")?
        .split(',')
        .map(parse_party)
        .collect::<Result<_, _>>()?;
    let num_clusters: usize = require(flags, "clusters")?
        .parse()
        .map_err(|_| "--clusters must be a positive integer".to_string())?;
    let linkage: Linkage = match flags.get("linkage") {
        Some(name) => parse_linkage(name)?,
        None => Linkage::Average,
    };
    let chunk_rows: Option<usize> = match flags.get("chunk-rows") {
        Some(text) => Some(
            text.parse()
                .map_err(|_| "--chunk-rows must be a positive integer".to_string())?,
        ),
        None => None,
    };
    let numeric_mode = match flags.get("numeric-mode") {
        Some(text) => parse_numeric_mode(text)?,
        None => NumericMode::Batch,
    };
    let base = SessionPlan {
        config: ProtocolConfig {
            numeric_mode,
            ..ProtocolConfig::default()
        },
        request: ClusteringRequest {
            weights: schema.uniform_weights(),
            linkage,
            num_clusters,
        },
        chunk_rows,
    };
    let plans = match (flags.get("manifest"), flags.get("sessions")) {
        (Some(_), Some(_)) => {
            return Err(
                "--manifest conflicts with --sessions (the manifest defines the \
                        session list)"
                    .into(),
            )
        }
        (Some(path), None) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read --manifest {path}: {e}"))?;
            parse_manifest(&schema, &text, &base)?
        }
        (None, Some(text)) => {
            let sessions: usize = text
                .parse()
                .map_err(|_| "--sessions must be a positive integer".to_string())?;
            vec![base; sessions]
        }
        (None, None) => return Err("one of --sessions or --manifest is required".into()),
    };
    let role = Role::Coordinate {
        schema,
        remote,
        plans,
    };
    run_party(flags, party, seat, role)
}

fn run_route(flags: &Flags) -> Result<(), Box<dyn Error>> {
    match parse_endpoint(require(flags, "listen")?)? {
        Endpoint::Tcp(addr) => {
            let (router, bound) = TcpRouter::spawn(addr.as_str())?;
            println!("ROUTER listening=tcp:{bound}");
            park_forever(router);
        }
        #[cfg(unix)]
        Endpoint::Uds(path) => {
            let router = UdsRouter::spawn(&path)?;
            println!("ROUTER listening=uds:{path}");
            park_forever(router);
        }
        #[cfg(not(unix))]
        Endpoint::Uds(_) => Err("uds endpoints need a unix platform".into()),
    }
}

fn park_forever<R>(_router: R) -> ! {
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

const USAGE: &str = "usage: ppc-party <route|serve|coordinate> --flag value ...\n\
  route      --listen tcp:HOST:PORT | uds:PATH\n\
  serve      --connect ENDPOINT --party DH<n>|TP --coordinator DH<n> --seed N \\\n\
             --schema SPEC [--csv FILE] [--psk N | --insecure]\n\
  coordinate --connect ENDPOINT --party DH<n> --remote P1,P2,... --seed N \\\n\
             --schema SPEC --csv FILE (--sessions N | --manifest FILE) --clusters K \\\n\
             [--linkage L] [--chunk-rows W] [--numeric-mode batch|per-pair] \\\n\
             [--psk N | --insecure]\n\
serve/coordinate also accept [--stall-ms MS] [--stall-waits N] (default 100 ms x\n\
600: the engine errors out after that much true silence) and [--ready-ms MS]\n\
[--ready-waits N] to bound only the phase-1 readiness gather.\n\
channel security: sockets are AEAD-sealed by default (keys derived from --seed,\n\
or from a dedicated --psk N shared by every process); --insecure sends plaintext\n\
and warns loudly. All processes of one federation must agree.\n\
sealed links coalesce: each envelope is sealed as it is sent and a turn's records\n\
leave in one write at the flush; --no-coalesce writes every record at once.";

/// Entry point shared by the binary and tests.
pub fn run(args: &[String]) -> Result<(), Box<dyn Error>> {
    let mode = args.first().ok_or(USAGE)?;
    let flags = parse_flags(&args[1..])?;
    match mode.as_str() {
        "route" => run_route(&flags),
        "serve" => run_serve(&flags),
        "coordinate" => run_coordinate(&flags),
        other => Err(format!("unknown mode '{other}'\n{USAGE}").into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_budget_flags_have_tested_defaults_and_parse_overrides() {
        let budget = parse_stall_budget(&Flags::new()).unwrap();
        assert_eq!(budget.idle_wait, Duration::from_millis(DEFAULT_STALL_MS));
        assert_eq!(budget.max_idle_waits, DEFAULT_STALL_WAITS);
        assert_eq!(budget.readiness, None, "readiness follows the stall budget");

        let flags = parse_flags(&[
            "--stall-ms".into(),
            "10".into(),
            "--stall-waits".into(),
            "30".into(),
            "--ready-waits".into(),
            "5".into(),
        ])
        .unwrap();
        let budget = parse_stall_budget(&flags).unwrap();
        assert_eq!(budget.idle_wait, Duration::from_millis(10));
        assert_eq!(budget.max_idle_waits, 30);
        // --ready-ms unset falls back to the (overridden) stall wait.
        assert_eq!(budget.readiness, Some((Duration::from_millis(10), 5)));

        let bad = parse_flags(&["--stall-ms".into(), "soon".into()]).unwrap();
        assert!(parse_stall_budget(&bad).is_err());
    }

    #[test]
    fn flags_parse_and_reject_malformed_input() {
        let flags =
            parse_flags(&["--party".into(), "DH0".into(), "--seed".into(), "77".into()]).unwrap();
        assert_eq!(flags.get("party").unwrap(), "DH0");
        assert!(parse_flags(&["party".into()]).is_err());
        assert!(parse_flags(&["--party".into()]).is_err());
        let twice = parse_flags(&["--seed".into(), "1".into(), "--seed".into(), "2".into()]);
        assert_eq!(twice.unwrap_err(), "--seed given twice");
    }

    #[test]
    fn parties_and_endpoints_parse() {
        assert_eq!(parse_party("DH3").unwrap(), PartyId::DataHolder(3));
        assert_eq!(parse_party("TP").unwrap(), PartyId::ThirdParty);
        assert!(parse_party("DHx").is_err());
        assert!(parse_party("dh0").is_err());
        assert_eq!(
            parse_endpoint("tcp:127.0.0.1:7000").unwrap(),
            Endpoint::Tcp("127.0.0.1:7000".into())
        );
        assert_eq!(
            parse_endpoint("uds:/tmp/x.sock").unwrap(),
            Endpoint::Uds("/tmp/x.sock".into())
        );
        assert!(parse_endpoint("http:nope").is_err());
    }

    #[test]
    fn schemas_parse_with_alphabets() {
        let schema = parse_schema("age:numeric,blood:categorical,dna:alphanumeric:dna").unwrap();
        assert_eq!(schema.len(), 3);
        assert!(parse_schema("age").is_err());
        assert!(parse_schema("age:float").is_err());
        assert!(parse_schema("dna:alphanumeric").is_err());
        assert!(parse_schema("dna:alphanumeric:klingon").is_err());
    }

    #[test]
    fn boolean_and_security_flags_resolve() {
        let flags = parse_flags(&["--insecure".into(), "--party".into(), "DH0".into()]).unwrap();
        assert_eq!(flags.get("insecure").unwrap(), "true");
        assert!(matches!(
            channel_config(&flags).unwrap(),
            ChannelConfig::Plaintext
        ));

        // Default: sealed from the master seed.
        let flags = parse_flags(&["--seed".into(), "77".into()]).unwrap();
        assert!(matches!(
            channel_config(&flags).unwrap(),
            ChannelConfig::Sealed(_)
        ));
        // Dedicated PSK needs no --seed.
        let flags = parse_flags(&["--psk".into(), "99".into()]).unwrap();
        assert!(matches!(
            channel_config(&flags).unwrap(),
            ChannelConfig::Sealed(_)
        ));
        // Contradictions are rejected.
        let flags = parse_flags(&["--insecure".into(), "--psk".into(), "1".into()]).unwrap();
        assert!(channel_config(&flags).is_err());
        let flags = parse_flags(&["--insecure".into(), "--secure".into()]).unwrap();
        assert!(channel_config(&flags).is_err());
    }

    #[test]
    fn coalescing_defaults_on_for_sealed_off_for_plaintext() {
        let sealed = ChannelConfig::Sealed(ChannelKeyring::from_psk(Seed::from_u64(1)));
        let flags = parse_flags(&[]).unwrap();
        assert!(coalescing_enabled(&flags, &sealed).unwrap());
        assert!(!coalescing_enabled(&flags, &ChannelConfig::Plaintext).unwrap());

        let flags = parse_flags(&["--no-coalesce".into()]).unwrap();
        assert!(!coalescing_enabled(&flags, &sealed).unwrap());

        let flags = parse_flags(&["--coalesce".into()]).unwrap();
        assert!(coalescing_enabled(&flags, &sealed).unwrap());
        assert!(
            coalescing_enabled(&flags, &ChannelConfig::Plaintext).is_err(),
            "explicit --coalesce on a plaintext socket must be rejected"
        );

        let flags = parse_flags(&["--coalesce".into(), "--no-coalesce".into()]).unwrap();
        assert!(coalescing_enabled(&flags, &sealed).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let typo = parse_flags(&["--sesions".into(), "3".into()]);
        assert_eq!(typo.unwrap_err(), "unknown flag --sesions");
        let removed = parse_flags(&["--pin-shards".into(), "--seed".into(), "7".into()]);
        assert_eq!(removed.unwrap_err(), "unknown flag --pin-shards");
        // Every flag the modes read still parses.
        let mut args = Vec::new();
        for key in VALUE_FLAGS {
            args.push(format!("--{key}"));
            args.push("1".into());
        }
        args.extend(BOOLEAN_FLAGS.iter().map(|key| format!("--{key}")));
        let flags = parse_flags(&args).unwrap();
        assert_eq!(flags.len(), VALUE_FLAGS.len() + BOOLEAN_FLAGS.len());
    }

    #[test]
    fn manifests_parse_with_overrides_and_reject_malformed_lines() {
        let schema = parse_schema("age:numeric,blood:categorical,dna:alphanumeric:dna").unwrap();
        let base = SessionPlan {
            config: ProtocolConfig::default(),
            request: ClusteringRequest {
                weights: schema.uniform_weights(),
                linkage: Linkage::Average,
                num_clusters: 2,
            },
            chunk_rows: Some(4),
        };
        let text = "\
# comment, then a blank line

clusters=5
linkage=ward weights=0.5,0.25,0.25 chunk-rows=2 numeric-mode=per-pair
chunk-rows=none
";
        let plans = parse_manifest(&schema, text, &base).unwrap();
        assert_eq!(plans.len(), 3);
        assert_eq!(plans[0].request.num_clusters, 5);
        assert_eq!(plans[0].request.linkage, Linkage::Average);
        assert_eq!(plans[1].request.linkage, Linkage::Ward);
        assert_eq!(plans[1].request.weights.weights(), &[0.5, 0.25, 0.25]);
        assert_eq!(plans[1].chunk_rows, Some(2));
        assert_eq!(plans[2].chunk_rows, None);
        assert_eq!(plans[2].request.num_clusters, 2, "defaults carry over");

        assert!(parse_manifest(&schema, "", &base).is_err(), "no sessions");
        assert!(parse_manifest(&schema, "clusters", &base).is_err());
        assert!(parse_manifest(&schema, "clusters=x", &base).is_err());
        assert!(
            parse_manifest(&schema, "weights=1,2", &base).is_err(),
            "arity"
        );
        assert!(parse_manifest(&schema, "turbo=yes", &base).is_err());
    }

    /// `render_clusters` as first written, one `format!` string per member
    /// and per cluster plus joins: the byte-identity oracle.
    fn render_clusters_oracle(clusters: &[Vec<(u32, u32)>]) -> String {
        let body: Vec<String> = clusters
            .iter()
            .map(|members| {
                let inner: Vec<String> = members
                    .iter()
                    .map(|(site, index)| format!("{site}:{index}"))
                    .collect();
                format!("[{}]", inner.join(","))
            })
            .collect();
        format!("[{}]", body.join(","))
    }

    /// `render_f64_bits` as first written, one `format!` string per value
    /// plus a join: the byte-identity oracle.
    fn render_f64_bits_oracle(values: &[f64]) -> String {
        values
            .iter()
            .map(|v| format!("{:016x}", v.to_bits()))
            .collect::<Vec<_>>()
            .join(",")
    }

    #[test]
    fn f64_bits_render_byte_identical_to_the_format_oracle() {
        use ppc_crypto::{SplitMix64, StreamRng};

        let special = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN
            f64::from_bits(0xfff8_dead_beef_0042), // negative NaN, payload
            f64::from_bits(1),                     // smallest subnormal
            f64::from_bits(0x800f_ffff_ffff_ffff), // largest negative subnormal
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            1.0,
        ];
        assert_eq!(render_f64_bits(&[]), "");
        for value in special {
            assert_eq!(render_f64_bits(&[value]), render_f64_bits_oracle(&[value]));
        }
        assert_eq!(render_f64_bits(&special), render_f64_bits_oracle(&special));
        let mut rng = SplitMix64::from_u64(0xf64b);
        for case in 0..512 {
            let len = rng.next_below(40) as usize;
            let values: Vec<f64> = (0..len)
                .map(|_| {
                    let bits = rng.next_u64();
                    f64::from_bits(match rng.next_below(4) {
                        // ±0 and subnormals: a zero exponent.
                        0 => bits & 0x800f_ffff_ffff_ffff,
                        // ±∞ and NaN payloads: an all-ones exponent.
                        1 => bits | 0x7ff0_0000_0000_0000,
                        2 => special[(bits % special.len() as u64) as usize].to_bits(),
                        _ => bits,
                    })
                })
                .collect();
            assert_eq!(
                render_f64_bits(&values),
                render_f64_bits_oracle(&values),
                "case {case}: {values:?}"
            );
        }
    }

    #[test]
    fn clusters_render_byte_identical_to_the_format_oracle() {
        use ppc_crypto::{SplitMix64, StreamRng};

        let shapes: Vec<Vec<Vec<(u32, u32)>>> = vec![
            vec![],
            vec![vec![]],
            vec![vec![], vec![]],
            vec![vec![(u32::MAX, u32::MAX)]],
            vec![vec![(0, 0)], vec![], vec![(u32::MAX, 7), (3, u32::MAX)]],
        ];
        for clusters in &shapes {
            assert_eq!(render_clusters(clusters), render_clusters_oracle(clusters));
        }
        fn number(rng: &mut SplitMix64) -> u32 {
            match rng.next_below(3) {
                0 => u32::MAX,
                1 => rng.next_below(20) as u32,
                _ => rng.next_u32(),
            }
        }
        let mut rng = SplitMix64::from_u64(0xc105);
        for case in 0..512 {
            let clusters: Vec<Vec<(u32, u32)>> = (0..rng.next_below(8))
                .map(|_| {
                    (0..rng.next_below(6))
                        .map(|_| (number(&mut rng), number(&mut rng)))
                        .collect()
                })
                .collect();
            assert_eq!(
                render_clusters(&clusters),
                render_clusters_oracle(&clusters),
                "case {case}: {clusters:?}"
            );
        }
    }

    #[test]
    fn renderings_are_stable() {
        assert_eq!(
            render_clusters(&[vec![(0, 0), (1, 2)], vec![(0, 1)]]),
            "[[0:0,1:2],[0:1]]"
        );
        assert_eq!(render_f64_bits(&[1.0]), "3ff0000000000000");
        assert_eq!(
            render_f64_bits(&[0.5, -0.0]),
            "3fe0000000000000,8000000000000000"
        );
    }
}
