//! Command-line entry point: runs one workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints provenance, one line per metric, and as its last line a JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits with 1 if a correctness check
//! failed and with 2 on a usage error.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use croupier_perfbench::bench::{self, Options, Repetition, Report};
use croupier_perfbench::workloads::{Workload, SHARDED_WORKERS};

fn usage() -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Options> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return None;
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse().ok()?),
            "--seconds" => seconds = Some(value.parse::<u64>().ok().filter(|s| *s > 0)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            _ => return None,
        }
    }
    Some(Options {
        workload: workload?,
        seed: seed?,
        seconds: seconds?,
        trace: trace?,
    })
}

/// Formats a float as JSON: finite values with all their digits, anything else `null`.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn result_line(report: &Report) -> String {
    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failures.is_empty(),
        report.attempted,
        report.failed
    )
}

/// Writes the traced repetition's spans as JSON lines to `path`.
fn write_spans(path: &PathBuf, options: &Options, traced: &Repetition) -> std::io::Result<()> {
    let specs = options.workload.cells(options.seed);
    let mut out = String::new();
    for (spec, cell) in specs.iter().zip(&traced.cells) {
        let Some(trace) = &cell.trace else { continue };
        for span in trace.spans.spans() {
            let _ = writeln!(
                out,
                "{{\"cell\": \"{}\", \"layer\": \"{}\", \"name\": \"{}\", \"id\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
                spec.kind,
                span.layer,
                span.name,
                span.round,
                span.start_ns,
                span.end_ns,
                span.parent.map_or("null".to_string(), |p| p.to_string())
            );
        }
        for r in &trace.rounds {
            let _ = writeln!(
                out,
                "{{\"cell\": \"{}\", \"layer\": \"round\", \"id\": {}, \"wall_ns\": {}, \"protocol_busy_ns\": {}, \"nat_busy_ns\": {}, \"hook_ns\": {}, \"delivered\": {}, \"live\": {}}}",
                spec.kind,
                r.round,
                r.wall_ns,
                r.protocol.busy_ns(),
                r.nat.busy_ns(),
                r.hook_ns,
                r.network.delivered,
                r.live
            );
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(out.as_bytes())?;
    file.sync_all()
}

/// Host CPU time stolen from this machine's virtual CPUs so far, in seconds (the
/// `steal` column of `/proc/stat`; `None` where the kernel does not report it).
fn host_steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks / 100.0)
}

fn main() -> ExitCode {
    let Some(options) = parse_args() else {
        return usage();
    };
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let workers = if options.workload.is_sharded() {
        SHARDED_WORKERS
    } else {
        0
    };
    println!("workload: {}", options.workload.name());
    println!("seed: {}", options.seed);
    println!(
        "mode: {}",
        if options.trace { "traced" } else { "untraced" }
    );
    println!("available_parallelism: {parallelism}");
    println!("engine_workers: {workers} (0 = event engine)");
    for (label, var) in [
        ("rustc", "PERFBENCH_RUSTC"),
        ("git_commit", "PERFBENCH_COMMIT"),
    ] {
        println!(
            "{label}: {}",
            std::env::var(var).unwrap_or_else(|_| "unknown".to_string())
        );
    }

    let steal_before = host_steal_s();
    let (report, traced) = bench::run(&options);
    if let (Some(before), Some(after)) = (steal_before, host_steal_s()) {
        // Time the hypervisor ran something else on this machine's vCPUs: the main
        // source of run-to-run noise on shared virtual machines.
        println!("host_steal_s: {:.2}", after - before);
    }
    if let (Some(traced), Ok(dir)) = (&traced, std::env::var("PERFBENCH_TRACE_DIR")) {
        let path = PathBuf::from(dir).join(format!(
            "{}-seed{}.spans.jsonl",
            options.workload.name(),
            options.seed
        ));
        match write_spans(&path, &options, traced) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(err) => eprintln!("could not write spans to {}: {err}", path.display()),
        }
    }
    for note in &report.notes {
        println!("note: {note}");
    }
    for m in &report.metrics {
        println!("{:<36} {:>16} {}", m.name, json_number(m.value), m.unit);
    }
    for failure in &report.failures {
        println!("CHECK FAILED: {failure}");
    }
    println!("{}", result_line(&report));
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
