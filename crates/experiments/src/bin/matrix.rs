//! Command-line driver for the matrix gates: every canned scenario script × the four
//! peer-sampling protocols (connectivity recovery, plus the Gini-degradation gate on
//! scripts that drive the fault plane), then the workload tier's streaming delivery
//! SLOs on its scripts.
//!
//! ```text
//! matrix [--scale tiny|quick|paper|large|huge] [--seed N] [--out DIR]
//!        [--protocols croupier,cyclon,gozar,nylon] [--scenarios a,b,...]
//! ```
//!
//! The defaults are the CI gate: `quick` scale, seed 42, reports in
//! `target/matrix-json/`. One `SCENARIO_<name>.json` is written per connectivity script
//! and one `WORKLOAD_<name>.json` per workload-tier script; `--scenarios` keeps only the
//! named scripts of both lists. The process prints a `GATE:` line for every failing gate
//! and exits non-zero if there is any.

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use croupier_experiments::matrix::{
    matrix_rounds, run_matrix, run_workload_matrix, WORKLOAD_TIER_NAMES,
};
use croupier_experiments::output::Scale;
use croupier_experiments::protocols::ProtocolKind;
use croupier_experiments::scenario::ScenarioScript;

const USAGE: &str = "usage: matrix [--scale tiny|quick|paper|large|huge] [--seed N] \
                     [--out DIR] [--protocols a,b] [--scenarios x,y]";

#[derive(Debug)]
struct Args {
    scale: Scale,
    seed: u64,
    out: PathBuf,
    protocols: Vec<ProtocolKind>,
    /// Connectivity scripts to run, in [`ScenarioScript::MATRIX_NAMES`] order.
    scenarios: Vec<&'static str>,
    /// Workload-tier scripts to run, in [`WORKLOAD_TIER_NAMES`] order.
    workload_scenarios: Vec<&'static str>,
}

/// Splits a comma-separated list, dropping blanks.
fn list(value: &str) -> impl Iterator<Item = &str> {
    value.split(',').map(str::trim).filter(|s| !s.is_empty())
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut scale = Scale::Quick;
    let mut seed = 42;
    let mut out = PathBuf::from("target/matrix-json");
    let mut protocols = ProtocolKind::ALL.to_vec();
    let mut selected: Option<Vec<String>> = None;
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--scale" => {
                let value = argv.next().ok_or("--scale requires a value")?;
                scale = Scale::parse(&value).ok_or_else(|| format!("unknown scale '{value}'"))?;
            }
            "--seed" => {
                seed = argv
                    .next()
                    .ok_or("--seed requires a value")?
                    .parse()
                    .map_err(|_| String::from("--seed must be an integer"))?;
            }
            "--out" => out = PathBuf::from(argv.next().ok_or("--out requires a value")?),
            "--protocols" => {
                let value = argv.next().ok_or("--protocols requires a value")?;
                protocols = list(&value)
                    .map(|name| {
                        ProtocolKind::parse(name)
                            .ok_or_else(|| format!("unknown protocol '{name}'"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--scenarios" => {
                let value = argv.next().ok_or("--scenarios requires a value")?;
                selected = Some(list(&value).map(String::from).collect());
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if protocols.is_empty() {
        return Err(String::from("no protocols selected"));
    }
    let keep = |name: &&str| {
        selected
            .as_ref()
            .is_none_or(|s| s.iter().any(|n| n == name))
    };
    if let Some(unknown) = selected
        .iter()
        .flatten()
        .find(|name| !ScenarioScript::MATRIX_NAMES.contains(&name.as_str()))
    {
        return Err(format!(
            "unknown scenario '{unknown}' (scenarios: {})",
            ScenarioScript::MATRIX_NAMES.join(" ")
        ));
    }
    let scenarios: Vec<_> = ScenarioScript::MATRIX_NAMES
        .into_iter()
        .filter(keep)
        .collect();
    if scenarios.is_empty() {
        return Err(String::from("no scenarios selected"));
    }
    Ok(Args {
        scale,
        seed,
        out,
        protocols,
        scenarios,
        workload_scenarios: WORKLOAD_TIER_NAMES.into_iter().filter(keep).collect(),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let rounds = matrix_rounds(args.scale);
    let scripts = |names: &[&str]| -> Vec<ScenarioScript> {
        names
            .iter()
            .map(|name| ScenarioScript::by_name(name, rounds).expect("a MATRIX_NAMES script"))
            .collect()
    };
    if let Err(err) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {err}", args.out.display());
        return ExitCode::FAILURE;
    }
    let (scale, seed) = (args.scale, args.seed);
    let scenario_reports = run_matrix(&scripts(&args.scenarios), &args.protocols, scale, seed);
    let workload_reports = run_workload_matrix(
        &scripts(&args.workload_scenarios),
        &args.protocols,
        scale,
        seed,
    );
    let reports = scenario_reports
        .iter()
        .map(|r| {
            (
                "SCENARIO",
                &r.scenario,
                r.render_table(),
                r.to_json(),
                r.gate_failures(),
            )
        })
        .chain(workload_reports.iter().map(|r| {
            (
                "WORKLOAD",
                &r.scenario,
                r.render_table(),
                r.to_json(),
                r.gate_failures(),
            )
        }));
    let mut failed = false;
    for (prefix, name, table, json, failures) in reports {
        print!("{table}");
        let path = args.out.join(format!("{prefix}_{name}.json"));
        if let Err(err) = std::fs::write(&path, json) {
            eprintln!("cannot write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        println!("  wrote {}", path.display());
        for failure in &failures {
            eprintln!("  GATE: {failure}");
        }
        failed |= !failures.is_empty();
    }
    if failed {
        eprintln!("matrix: at least one gate failed");
        ExitCode::FAILURE
    } else {
        println!("matrix: every gate passed");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_the_ci_gate() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.scale, Scale::Quick);
        assert_eq!(args.seed, 42);
        assert_eq!(args.out, PathBuf::from("target/matrix-json"));
        assert_eq!(args.protocols, ProtocolKind::ALL.to_vec());
        assert_eq!(args.scenarios, ScenarioScript::MATRIX_NAMES.to_vec());
        assert_eq!(args.workload_scenarios, WORKLOAD_TIER_NAMES.to_vec());
    }

    #[test]
    fn scenarios_filter_both_tiers() {
        let args = parse(&["--scenarios", "lossy_10,nat_flux", "--scale", "tiny"]).unwrap();
        assert_eq!(args.scale, Scale::Tiny);
        assert_eq!(args.scenarios, vec!["nat_flux", "lossy_10"]);
        assert_eq!(args.workload_scenarios, vec!["lossy_10"]);
        let clean_only = parse(&["--scenarios", "nat_flux"]).unwrap();
        assert!(clean_only.workload_scenarios.is_empty());
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(parse(&["--scenarios", "lossy_10,bogus"])
            .unwrap_err()
            .contains("unknown scenario 'bogus'"));
        assert!(parse(&["--protocols", "croupier,bogus"])
            .unwrap_err()
            .contains("unknown protocol 'bogus'"));
        assert!(parse(&["--scenarios", ","]).is_err(), "an empty list");
        assert!(parse(&["--scale", "galactic"]).is_err());
        assert!(parse(&["--wat"]).is_err());
    }
}
