//! `perfbench --workload W --seed N --seconds S --trace 0|1
//! [--server-bin PATH] [--out-dir DIR]`
//!
//! Runs one workload from the root of a checkout and prints, last, one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits 1 when an output check fails, 2 on bad usage.

use perfbench::{metrics, Config, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload study|transport|fleet_hot|fleet_cold \
                     --seed N --seconds S --trace 0|1 [--server-bin PATH] [--out-dir DIR]";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse(args: &[String]) -> Result<Config, String> {
    let required = |name: &str| flag(args, name).ok_or_else(|| format!("missing {name}"));
    let workload = required("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = required("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = required("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match required("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let server_bin = flag(args, "--server-bin")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/release/thermal-neutrons"));
    let out_dir = flag(args, "--out-dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/perfbench"));
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        server_bin,
        out_dir,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let fleet = matches!(config.workload, Workload::FleetHot | Workload::FleetCold);
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    println!(
        "{}",
        perfbench::machine::record_json(&root, config.workload.name(), fleet)
    );
    let outcome = match perfbench::run(&config) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", config.workload.name());
            return ExitCode::from(1);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (kind, values) in [("end-to-end", &outcome.e2e), ("layer", &outcome.layers)] {
        for (name, (value, unit)) in values {
            println!("# {kind:<10} {name:<40} {value:>16.6} {unit}");
        }
    }
    for failure in &outcome.check_failures {
        println!("# CHECK FAILED: {failure}");
    }
    let values = if config.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    println!(
        "{}",
        metrics::result_json(
            outcome.correct(),
            outcome.attempted,
            outcome.failed,
            config.trace,
            values
        )
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
