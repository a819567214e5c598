//! Smoke test: every workload runs end to end in one-second windows, is
//! correct, and emits every metric `BENCHMARK.json` names for its mode;
//! `--check-repeat` accepts a file against itself and flags a metric moved
//! past its bound; an oracle-path switch in the environment is refused.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::process::Command;

use json::Json;

const BIN: &str = env!("CARGO_BIN_EXE_ppcbench");

fn definition() -> Json {
    Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

/// Runs every workload with `--trace trace` and returns the tagged result
/// lines, after checking each is correct and complete.
fn run_all(trace: &str, metrics: &[String]) -> String {
    let output = Command::new(BIN)
        .args(["--workload", "all", "--seconds", "1", "--seed", "7"])
        .args(["--trace", trace])
        .env_remove("PPC_TRANSPORT")
        .env_remove("PPC_DELIVERY")
        .output()
        .expect("ppcbench runs");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(output.status.success(), "trace {trace} failed:\n{stdout}");
    let workloads = names(&definition(), "workloads");
    let lines: Vec<Json> = stdout
        .lines()
        .map(|l| Json::parse(l).expect("a JSON result line"))
        .collect();
    assert_eq!(lines.len(), workloads.len(), "{stdout}");
    for (line, workload) in lines.iter().zip(&workloads) {
        assert_eq!(
            line.get("workload").unwrap().as_str(),
            Some(workload.as_str())
        );
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{workload}");
        assert_eq!(
            line.get("failed").unwrap().as_f64(),
            Some(0.0),
            "{workload}"
        );
        assert!(line.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
        let got = line.get("metrics").unwrap();
        for metric in metrics {
            let value = got
                .get(metric)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            assert!(value.is_some(), "{workload} lacks {metric}");
        }
    }
    stdout
}

#[test]
fn every_workload_reports_every_metric_and_check_repeat_applies_bounds() {
    let doc = definition();
    let end_to_end = run_all("0", &names(&doc, "end_to_end"));
    run_all("1", &names(&doc, "per_layer"));

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("ppcbench-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.jsonl");
    std::fs::write(&a, &end_to_end).unwrap();
    let same = Command::new(BIN)
        .arg("--check-repeat")
        .args([&a, &a])
        .output()
        .unwrap();
    assert!(same.status.success(), "a file must agree with itself");
    let report = String::from_utf8(same.stdout).unwrap();
    assert_eq!(
        report.lines().count(),
        names(&doc, "workloads").len() * names(&doc, "end_to_end").len()
    );
    assert!(report.lines().all(|l| l.contains("\"status\": \"ok\"")));

    // Double one workload's throughput: that pair alone is over its bound.
    let moved: String = end_to_end
        .lines()
        .enumerate()
        .map(|(i, line)| {
            let line = if i == 0 {
                let doc = Json::parse(line).unwrap();
                let value = doc.get("metrics").unwrap().get("sessions_per_s").unwrap();
                let old = value.get("value").unwrap().as_f64().unwrap();
                line.replacen(&format!("{}", old), &format!("{}", old * 2.0), 1)
            } else {
                line.to_string()
            };
            line + "\n"
        })
        .collect();
    let b = dir.join("b.jsonl");
    std::fs::write(&b, moved).unwrap();
    let differ = Command::new(BIN)
        .arg("--check-repeat")
        .args([&a, &b])
        .output()
        .unwrap();
    assert!(!differ.status.success());
    let report = String::from_utf8(differ.stdout).unwrap();
    let over: Vec<&str> = report
        .lines()
        .filter(|l| l.contains("over-bound"))
        .collect();
    assert_eq!(over.len(), 1, "{report}");
    assert!(over[0].contains("sessions_per_s"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn oracle_path_switches_are_refused() {
    for switch in ["PPC_TRANSPORT", "PPC_DELIVERY"] {
        let output = Command::new(BIN)
            .args(["--workload", "inmem_mixed", "--seconds", "1"])
            .env(switch, "blocking")
            .output()
            .unwrap();
        assert!(!output.status.success(), "{switch}");
        assert!(
            output.stdout.is_empty(),
            "{switch}: no result may be printed"
        );
    }
}
