//! `admission_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then as its last line one JSON
//! object: `correct`, `attempted`, `failed` and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`).

use std::process::ExitCode;

use rtcac_admission_bench::{result_json, run, RunConfig, Workload};

const USAGE: &str = "usage: admission_bench --workload <wire-p1|occupied-churn|deep-release> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse::<u64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(RunConfig::for_seconds(workload, seed, seconds, trace))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("admission_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&cfg);
    for line in &outcome.report {
        println!("# {line}");
    }
    for failure in &outcome.failures {
        println!("# FAILED: {failure}");
    }
    println!("{}", result_json(&outcome, cfg.trace));
    ExitCode::SUCCESS
}
