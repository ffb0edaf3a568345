//! Command-line driver for the scenario matrix: scripted NAT-dynamics scenarios × the
//! four peer-sampling protocols, with per-scenario JSON reports and a recovery gate.
//!
//! ```text
//! scenario_matrix [--scale tiny|quick|paper|large|huge] [--seed N] [--out DIR]
//!                 [--protocols croupier,cyclon,gozar,nylon] [--scenarios a,b,...]
//! ```
//!
//! One `SCENARIO_<name>.json` is written per scenario into `--out` (default
//! `target/scenario-json`). The process exits non-zero when any protocol fails to
//! recover connectivity after the scripted disruption — the CI scenario-matrix gate's
//! gate.

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use croupier_experiments::matrix::{matrix_rounds, run_matrix};
use croupier_experiments::output::Scale;
use croupier_experiments::protocols::ProtocolKind;
use croupier_experiments::scenario::ScenarioScript;

const USAGE: &str = "usage: scenario_matrix [--scale tiny|quick|paper|large|huge] [--seed N] \
                     [--out DIR] [--protocols a,b] [--scenarios x,y]\n\
                     scenarios: reboot_storm mobility_wave nat_flux flash_crowd \
                     regional_outage croupier_stress symmetric_shift cgn_migration \
                     lossy_10 burst_loss dup_reorder (default: all)";

struct Args {
    scale: Scale,
    seed: u64,
    out: PathBuf,
    protocols: Vec<ProtocolKind>,
    scenario_names: Vec<String>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        scale: Scale::Tiny,
        seed: 42,
        out: PathBuf::from("target/scenario-json"),
        protocols: ProtocolKind::ALL.to_vec(),
        scenario_names: ScenarioScript::MATRIX_NAMES
            .iter()
            .map(|s| s.to_string())
            .collect(),
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--scale" => {
                let value = argv.next().ok_or("--scale requires a value")?;
                args.scale =
                    Scale::parse(&value).ok_or_else(|| format!("unknown scale '{value}'"))?;
            }
            "--seed" => {
                args.seed = argv
                    .next()
                    .ok_or("--seed requires a value")?
                    .parse()
                    .map_err(|_| String::from("--seed must be an integer"))?;
            }
            "--out" => {
                args.out = PathBuf::from(argv.next().ok_or("--out requires a value")?);
            }
            "--protocols" => {
                let value = argv.next().ok_or("--protocols requires a value")?;
                args.protocols = value
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(|name| {
                        ProtocolKind::parse(name)
                            .ok_or_else(|| format!("unknown protocol '{name}'"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
            }
            "--scenarios" => {
                let value = argv.next().ok_or("--scenarios requires a value")?;
                args.scenario_names = value
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.protocols.is_empty() {
        return Err(String::from("no protocols selected"));
    }
    if args.scenario_names.is_empty() {
        return Err(String::from("no scenarios selected"));
    }
    Ok(args)
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
    let mut scenarios = Vec::new();
    for name in &args.scenario_names {
        match ScenarioScript::by_name(name, rounds) {
            Some(script) => scenarios.push(script),
            None => {
                eprintln!("unknown scenario '{name}'\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(err) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {err}", args.out.display());
        return ExitCode::FAILURE;
    }
    let reports = run_matrix(&scenarios, &args.protocols, args.scale, args.seed);
    let mut all_ok = true;
    for report in &reports {
        print!("{}", report.render_table());
        let path = args.out.join(format!("SCENARIO_{}.json", report.scenario));
        if let Err(err) = std::fs::write(&path, report.to_json()) {
            eprintln!("cannot write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        println!("  wrote {}", path.display());
        if !report.all_recovered() {
            eprintln!(
                "  GATE: a protocol failed to recover connectivity in '{}'",
                report.scenario
            );
            all_ok = false;
        }
        if !report.croupier_gini_ok() {
            eprintln!(
                "  GATE: croupier's in-degree Gini degraded more than the baselines' in '{}'",
                report.scenario
            );
            all_ok = false;
        }
    }
    if all_ok {
        println!("scenario-matrix: every protocol recovered connectivity");
        ExitCode::SUCCESS
    } else {
        eprintln!("scenario-matrix: at least one gate failed");
        ExitCode::FAILURE
    }
}
