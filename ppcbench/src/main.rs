//! `ppcbench` — one calibrated closed-loop benchmark of ppclust.
//!
//! ```text
//! ppcbench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
//! ppcbench --check-repeat A.jsonl B.jsonl
//! ppcbench party <ppc-party arguments>
//! ```
//!
//! A run prints a `provenance {…}` line and, last, one JSON result line
//! holding every end-to-end metric of `BENCHMARK.json` (`--trace 0`) or
//! every per-layer metric (`--trace 1`). `--workload all` runs each
//! workload in its own process and prints one result line per workload,
//! tagged with its name; `--check-repeat` compares two such files against
//! the bounds in `BENCHMARK.json`. The `party` mode is the `ppc-party`
//! command line, used for the federation workload's processes. See
//! README.md.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("ppcbench reads process statistics through 64-bit Linux getrusage");

mod federation;
mod heap;
mod host;
mod json;
mod measure;
mod replay;
mod seam;
mod workload;

use std::process::{Command, Stdio};

use json::{number, quote, Json};
use measure::{Report, RunSpec};
use workload::{Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// The benchmark definition this binary was built with: metric names,
/// units and regression bounds live there and nowhere else.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Base seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 3_192_653_825;

/// Environment variables that select a retained oracle path instead of
/// the defaults; the benchmark measures defaults only.
const ORACLE_SWITCHES: [&str; 2] = ["PPC_TRANSPORT", "PPC_DELIVERY"];

/// One metric of `BENCHMARK.json`.
struct MetricDef {
    name: String,
    unit: String,
    /// Regression bound (end-to-end metrics only).
    bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the binary uses.
struct Definition {
    run_seconds: f64,
    end_to_end: Vec<MetricDef>,
    per_layer: Vec<MetricDef>,
}

fn definition() -> Result<Definition, String> {
    let doc = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
        doc.get(key)
            .and_then(Json::as_array)
            .ok_or(format!("BENCHMARK.json has no {key} list"))?
            .iter()
            .map(|m| {
                Ok(MetricDef {
                    name: m
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or(format!("a {key} entry has no name"))?
                        .to_string(),
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .ok_or(format!("a {key} entry has no unit"))?
                        .to_string(),
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    let listed: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no workloads list")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let built: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if listed != built {
        return Err(format!(
            "BENCHMARK.json lists workloads {listed:?}, the binary runs {built:?}"
        ));
    }
    Ok(Definition {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json has no run_seconds")?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("party") => party(&args[1..]),
        Some("--check-repeat") => check_repeat(&args[1..]),
        _ => bench(&args),
    };
    std::process::exit(code);
}

/// The `ppc-party` command line, in this executable. A last `HEAP` line
/// reports the process's peak live heap to the federation workload.
fn party(args: &[String]) -> i32 {
    let result = ppc_party::run(args);
    println!("HEAP peak_bytes={}", heap::peak_bytes());
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("ERROR: {e}");
            1
        }
    }
}

struct Flags {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_flags(args: &[String], default_seconds: f64) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: default_seconds,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => flags.workload = value.clone(),
            "--seed" => {
                flags.seed = value
                    .parse()
                    .map_err(|_| format!("--seed must be an unsigned integer, got '{value}'"))?
            }
            "--seconds" => {
                flags.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds must be positive, got '{value}'"))?
            }
            "--trace" => {
                flags.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got '{value}'")),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if flags.workload.is_empty() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload is required (one of {}, or all)",
            names.join(", ")
        ));
    }
    Ok(flags)
}

fn bench(args: &[String]) -> i32 {
    let run = || -> Result<i32, String> {
        for switch in ORACLE_SWITCHES {
            if std::env::var_os(switch).is_some() {
                return Err(format!(
                    "{switch} is set: it selects a retained oracle path, and ppcbench measures \
                     the defaults only; unset it"
                ));
            }
        }
        let definition = definition()?;
        let flags = parse_flags(args, definition.run_seconds)?;
        if flags.workload == "all" {
            return run_all(&flags);
        }
        let workload = Workload::named(&flags.workload)
            .ok_or_else(|| format!("unknown workload '{}'", flags.workload))?;
        let report = measure::run(&RunSpec {
            workload,
            seed: flags.seed,
            seconds: flags.seconds,
            trace: flags.trace,
        })?;
        let defs = if flags.trace {
            &definition.per_layer
        } else {
            &definition.end_to_end
        };
        let line = result_line(&report, defs)?;
        for failure in &report.failures {
            eprintln!("failure: {failure}");
        }
        let provenance: Vec<String> = report
            .provenance
            .iter()
            .map(|(key, value)| format!("{}: {value}", quote(key)))
            .collect();
        println!("provenance {{{}}}", provenance.join(", "));
        println!("{line}");
        Ok(if report.correct { 0 } else { 1 })
    };
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ppcbench: {e}");
            2
        }
    }
}

/// The result line: every metric `defs` names, in their order. A metric
/// computed but not listed, or listed but not computed, is an error: the
/// binary and `BENCHMARK.json` must agree.
fn result_line(report: &Report, defs: &[MetricDef]) -> Result<String, String> {
    let mut members = Vec::with_capacity(defs.len());
    for def in defs {
        let value = report
            .metrics
            .get(def.name.as_str())
            .ok_or_else(|| format!("BENCHMARK.json lists {}, which no layer measured", def.name))?;
        members.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            quote(&def.name),
            number(*value),
            quote(&def.unit)
        ));
    }
    if let Some(extra) = report
        .metrics
        .keys()
        .find(|name| !defs.iter().any(|d| d.name == **name))
    {
        return Err(format!(
            "{extra} is measured but not listed in BENCHMARK.json"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        members.join(", ")
    ))
}

/// Runs every workload in a fresh process of this executable and prints
/// each one's result line with a leading `"workload"` member.
fn run_all(flags: &Flags) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut code = 0;
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload.name])
            .args(["--seed", &flags.seed.to_string()])
            .args(["--seconds", &flags.seconds.to_string()])
            .args(["--trace", if flags.trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running {}: {e}", workload.name))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        for line in stdout.lines().filter(|l| l.starts_with("provenance ")) {
            eprintln!("{line}");
        }
        match stdout.lines().last().and_then(|l| l.strip_prefix('{')) {
            Some(rest) => println!("{{\"workload\": {}, {rest}", quote(workload.name)),
            None => eprintln!("{}: no result ({})", workload.name, output.status),
        }
        if !output.status.success() {
            code = 1;
        }
    }
    Ok(code)
}

/// `--check-repeat A B`: for every workload × end-to-end metric, both
/// values, their relative difference and whether it stays within the
/// metric's bound. Exits non-zero if any pair is over its bound or missing.
fn check_repeat(args: &[String]) -> i32 {
    let run = || -> Result<i32, String> {
        let [a, b] = args else {
            return Err("--check-repeat takes two result files".into());
        };
        let definition = definition()?;
        let (a, b) = (read_results(a)?, read_results(b)?);
        let mut code = 0;
        for workload in WORKLOADS {
            for def in &definition.end_to_end {
                let bound = def
                    .bound
                    .ok_or_else(|| format!("{} has no bound", def.name))?;
                let value = |file: &[(String, Json)]| {
                    file.iter()
                        .find(|(name, _)| name == workload.name)
                        .and_then(|(_, metrics)| metrics.get(&def.name)?.get("value")?.as_f64())
                };
                let (va, vb) = (value(&a), value(&b));
                let diff = match (va, vb) {
                    (Some(x), Some(y)) if x != 0.0 => Some((y - x) / x),
                    _ => None,
                };
                let status = match diff {
                    Some(d) if d.abs() <= bound => "ok",
                    Some(_) => "over-bound",
                    None => "missing",
                };
                if status != "ok" {
                    code = 1;
                }
                let show = |v: Option<f64>| v.map_or("null".to_string(), number);
                println!(
                    "{{\"workload\": {}, \"metric\": {}, \"a\": {}, \"b\": {}, \
                     \"rel_diff\": {}, \"bound\": {}, \"status\": {}}}",
                    quote(workload.name),
                    quote(&def.name),
                    show(va),
                    show(vb),
                    show(diff),
                    number(bound),
                    quote(status)
                );
            }
        }
        Ok(code)
    };
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ppcbench: {e}");
            2
        }
    }
}

/// `(workload, metrics)` of every tagged result line in `path`.
fn read_results(path: &str) -> Result<Vec<(String, Json)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|line| line.starts_with('{'))
        .map(|line| {
            let doc = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
            let name = doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or(format!("{path}: a result line has no workload"))?
                .to_string();
            let metrics = doc
                .get("metrics")
                .cloned()
                .ok_or(format!("{path}: {name} has no metrics"))?;
            Ok((name, metrics))
        })
        .collect()
}
