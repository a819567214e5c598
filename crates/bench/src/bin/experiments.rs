//! Prints every experiment table (the README's "Reproducing the paper's
//! experiments" section lists them), and exits non-zero if any fails.
//!
//! ```text
//! cargo run -p ppc-bench --release --bin experiments            # all experiments
//! cargo run -p ppc-bench --release --bin experiments -- E4 E7   # a selection
//! ```

use std::env;
use std::process::ExitCode;

use ppc_bench::tables;

fn main() -> ExitCode {
    let requested: Vec<String> = env::args().skip(1).map(|a| a.to_uppercase()).collect();
    let mut failures = 0usize;
    for report in tables::all_experiments() {
        match report {
            Ok(report) => {
                if !requested.is_empty() && !requested.contains(&report.id) {
                    continue;
                }
                println!("================================================================");
                println!("{} — {}", report.id, report.title);
                println!("================================================================");
                println!("{}", report.body);
            }
            Err(error) => {
                eprintln!("experiment failed: {error}");
                failures += 1;
            }
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
