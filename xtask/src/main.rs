//! Repository automation (`cargo xtask <command>` via the `xtask` alias pattern: the
//! workspace member is a plain binary, so `cargo run -p xtask -- <command>` works without
//! any alias).
//!
//! Commands:
//!
//! * `bench-compare` — the guts of the CI `bench-regression` job: reads the
//!   `BENCH_<target>.json` reports emitted by the criterion shim for the current run and
//!   for the committed baseline, matches benchmarks by name, and fails (exit code 1) when
//!   any benchmark regressed beyond the threshold **or disappeared from the run** (a
//!   deleted benchmark silently ungates its hot path otherwise). When `--current` holds
//!   `run*/` subdirectories (one report per repeated bench invocation), the runs are
//!   merged best-of-N — each benchmark keeps its fastest observation — and the per-entry
//!   spread between the fastest and slowest run is printed so noisy rows are visible.
//!
//!   ```text
//!   cargo run -p xtask -- bench-compare \
//!       --baseline ci/bench-baseline --current target/bench-json \
//!       [--targets microbench_core,microbench_engine,microbench_metrics] \
//!       [--threshold 0.25] [--update]
//!   ```
//!
//!   `--update` rewrites the baseline files from the (merged) current run instead of
//!   comparing — commit the result when a speedup or an intentional regression moves the
//!   floor. Targets listed in `ROOT_MIRRORED_TARGETS` also refresh their repo-root
//!   `BENCH_<target>.json` mirror, keeping the documented numbers in sync.
//!
//! * `matrix` — runs the matrix gates (NAT-dynamics connectivity, fault-plane Gini
//!   degradation and streaming delivery SLOs): a thin wrapper around `cargo run
//!   --release -p croupier-experiments --bin matrix`, forwarding every argument. With no
//!   arguments it is the CI `matrix-gates` job.
//!
//!   ```text
//!   cargo run --release -p xtask -- matrix [matrix args...]
//!   ```
//!
//! * `public-api` — the API-stability gate: line-scans every workspace library crate for
//!   `pub` items (and the methods of `pub trait`s) and compares the sorted list against the committed snapshot under
//!   `ci/public-api/`. An undeclared addition, removal or signature change fails with a
//!   `+`/`-` diff; `--update` rewrites the snapshots (commit the result alongside the
//!   intentional API change).
//!
//!   ```text
//!   cargo run -p xtask -- public-api [--update]
//!   ```
//!
//! * `ci-local` — mirrors every CI job offline so contributors can reproduce CI failures
//!   before pushing: `fmt`, `clippy` (deny warnings), `doc` (deny warnings),
//!   `public-api` (snapshot diff), `test` (release build + workspace tests), `bench`
//!   (guarded benches run `BENCH_RUNS` times, merged best-of-N through
//!   `bench-compare`), `matrix` (the matrix gates, the same command the CI job runs),
//!   and `huge-smoke` (the ignored million-node `scale_smoke` test, the same command the
//!   CI job runs).
//!   All steps run even when an earlier one fails; the summary lists every verdict.
//!
//!   ```text
//!   cargo run -p xtask -- ci-local [--skip bench,matrix,huge-smoke]
//!   ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// One benchmark entry parsed from a `BENCH_<target>.json` report.
#[derive(Clone, Debug, PartialEq)]
struct Entry {
    name: String,
    mean_ns: f64,
    min_ns: f64,
    ops_per_sec: f64,
    /// Number of timed iterations. Zero marks an **informational** entry (a memory
    /// footprint or counter recorded via the shim's `record_informational`), which is
    /// printed but never judged against the regression threshold.
    samples: usize,
}

impl Entry {
    fn is_informational(&self) -> bool {
        self.samples == 0
    }
}

/// Which per-iteration time the comparison judges.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Metric {
    /// Mean time per iteration; matches the headline number the shim prints.
    Mean,
    /// Fastest iteration; much more stable than the mean on noisy shared runners, so it is
    /// the default for the CI gate.
    Min,
}

impl Metric {
    fn of(self, entry: &Entry) -> f64 {
        match self {
            Metric::Mean => entry.mean_ns,
            Metric::Min => entry.min_ns,
        }
    }
}

/// The verdict for one benchmark present in the baseline or the current run.
#[derive(Clone, Debug, PartialEq)]
enum Verdict {
    /// Current mean is within the threshold of the baseline mean.
    Ok { ratio: f64 },
    /// Current mean exceeds baseline mean by more than the threshold.
    Regressed { ratio: f64 },
    /// The benchmark disappeared from the current run.
    Missing,
    /// The benchmark exists only in the current run — informational, never a failure,
    /// but a visible reminder to refresh the committed baseline (`--update`) so the
    /// regression gate starts covering it.
    New,
    /// A non-timing measurement (`samples: 0` in either report): the current value is
    /// shown next to the baseline for the record, but it never fails the gate.
    Info { baseline: f64, current: f64 },
}

/// Extracts the string value of `"key": "..."` from a single JSON entry line.
fn field_str(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\": \"");
    let start = line.find(&marker)? + marker.len();
    let rest = &line[start..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => {
                if let Some(escaped) = chars.next() {
                    out.push(escaped);
                }
            }
            '"' => return Some(out),
            c => out.push(c),
        }
    }
    None
}

/// Extracts the numeric value of `"key": <number>` from a single JSON entry line.
fn field_num(line: &str, key: &str) -> Option<f64> {
    let marker = format!("\"{key}\": ");
    let start = line.find(&marker)? + marker.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses a `BENCH_<target>.json` report. The criterion shim writes one entry per line,
/// so a line-oriented scan is sufficient and keeps this free of a JSON dependency.
fn parse_report(text: &str) -> Vec<Entry> {
    text.lines()
        .filter_map(|line| {
            let name = field_str(line, "name")?;
            let mean_ns = field_num(line, "mean_ns")?;
            let min_ns = field_num(line, "min_ns").unwrap_or(mean_ns);
            let ops_per_sec = field_num(line, "ops_per_sec").unwrap_or(0.0);
            // Reports written before the field existed carry timed entries only.
            let samples = field_num(line, "samples").unwrap_or(1.0) as usize;
            Some(Entry {
                name,
                mean_ns,
                min_ns,
                ops_per_sec,
                samples,
            })
        })
        .collect()
}

/// Compares current entries against the baseline. `threshold` is the tolerated relative
/// slowdown of the chosen metric (0.25 = fail beyond +25 %).
fn compare(
    baseline: &[Entry],
    current: &[Entry],
    threshold: f64,
    metric: Metric,
) -> Vec<(String, Verdict)> {
    let mut verdicts: Vec<(String, Verdict)> = baseline
        .iter()
        .map(|base| {
            let base_ns = metric.of(base);
            let verdict = match current.iter().find(|c| c.name == base.name) {
                None => Verdict::Missing,
                Some(cur) if base.is_informational() || cur.is_informational() => Verdict::Info {
                    baseline: base_ns,
                    current: metric.of(cur),
                },
                Some(cur) if base_ns <= 0.0 => Verdict::Ok {
                    ratio: metric.of(cur),
                },
                Some(cur) => {
                    let ratio = metric.of(cur) / base_ns;
                    if ratio > 1.0 + threshold {
                        Verdict::Regressed { ratio }
                    } else {
                        Verdict::Ok { ratio }
                    }
                }
            };
            (base.name.clone(), verdict)
        })
        .collect();
    // Benchmarks that exist only in the current run are surfaced (not judged) so a newly
    // added hot-path variant cannot silently run ungated until the baseline is refreshed.
    for cur in current {
        if !baseline.iter().any(|base| base.name == cur.name) {
            verdicts.push((cur.name.clone(), Verdict::New));
        }
    }
    verdicts
}

fn report_path(dir: &Path, target: &str) -> PathBuf {
    dir.join(format!("BENCH_{target}.json"))
}

/// Collects every report for `target` under the `--current` directory: the file in the
/// directory itself (the single-run layout) plus any in `run*/` subdirectories (the
/// best-of-N layout `ci-local` and the CI bench job produce). At least one must exist.
fn collect_runs(dir: &Path, target: &str) -> Result<Vec<Vec<Entry>>, String> {
    let mut reports = Vec::new();
    if let Ok(text) = std::fs::read_to_string(report_path(dir, target)) {
        reports.push(parse_report(&text));
    }
    let mut run_dirs: Vec<PathBuf> = std::fs::read_dir(dir)
        .ok()
        .into_iter()
        .flat_map(|entries| entries.flatten().map(|e| e.path()))
        .filter(|p| {
            p.is_dir()
                && p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with("run"))
        })
        .collect();
    run_dirs.sort();
    for run in run_dirs {
        if let Ok(text) = std::fs::read_to_string(report_path(&run, target)) {
            reports.push(parse_report(&text));
        }
    }
    if reports.is_empty() {
        return Err(format!(
            "no BENCH_{target}.json under {} (or its run*/ subdirectories)",
            dir.display()
        ));
    }
    Ok(reports)
}

/// Best-of-N merge: timed entries matched by name keep the fastest run's mean and min
/// (and the highest throughput, with samples summed), because the fastest observation is
/// the one closest to the code's true cost on a noisy runner; informational entries keep
/// the last run's value. The second return lists each timed entry's `(fastest, slowest)`
/// min-ns across runs — the spread the comparison prints so noisy rows stay visible.
fn merge_runs(reports: &[Vec<Entry>]) -> (Vec<Entry>, Vec<(String, f64, f64)>) {
    let mut merged: Vec<Entry> = Vec::new();
    let mut spread: Vec<(String, f64, f64)> = Vec::new();
    for report in reports {
        for entry in report {
            let Some(existing) = merged.iter_mut().find(|e| e.name == entry.name) else {
                merged.push(entry.clone());
                if !entry.is_informational() {
                    spread.push((entry.name.clone(), entry.min_ns, entry.min_ns));
                }
                continue;
            };
            if entry.is_informational() || existing.is_informational() {
                *existing = entry.clone();
                continue;
            }
            existing.mean_ns = existing.mean_ns.min(entry.mean_ns);
            existing.min_ns = existing.min_ns.min(entry.min_ns);
            existing.ops_per_sec = existing.ops_per_sec.max(entry.ops_per_sec);
            existing.samples += entry.samples;
            if let Some(s) = spread.iter_mut().find(|(name, _, _)| name == &entry.name) {
                s.1 = s.1.min(entry.min_ns);
                s.2 = s.2.max(entry.min_ns);
            }
        }
    }
    (merged, spread)
}

/// Renders the per-entry best-of-N spread (slowest over fastest min-ns across runs);
/// silent for single-run layouts, where there is no spread to report.
fn render_spread(target: &str, spread: &[(String, f64, f64)], runs: usize) -> String {
    let mut out = String::new();
    if runs < 2 {
        return out;
    }
    for (name, fastest, slowest) in spread {
        if *fastest <= 0.0 {
            continue;
        }
        let _ = writeln!(
            out,
            "  spread    {target}::{name} best-of-{runs}: {fastest:.0} ns, slowest run \
             {slowest:.0} ns ({:.2}x)",
            slowest / fastest
        );
    }
    out
}

/// Renders entries back into the criterion shim's `BENCH_<target>.json` shape, so a
/// merged best-of-N baseline is indistinguishable from a single-run report.
fn render_report(target: &str, entries: &[Entry]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"target\": \"{target}\",");
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let name = e.name.replace('\\', "\\\\").replace('"', "\\\"");
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \
             \"ops_per_sec\": {:.3}, \"samples\": {}}}{comma}",
            e.mean_ns, e.min_ns, e.ops_per_sec, e.samples
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn render_table(target: &str, verdicts: &[(String, Verdict)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {target} ==");
    for (name, verdict) in verdicts {
        match verdict {
            Verdict::Ok { ratio } => {
                let _ = writeln!(out, "  ok        {name:<50} {:>7.2}x", ratio);
            }
            Verdict::Regressed { ratio } => {
                let _ = writeln!(out, "  REGRESSED {name:<50} {:>7.2}x", ratio);
            }
            Verdict::Missing => {
                let _ = writeln!(out, "  MISSING   {name}");
            }
            Verdict::New => {
                let _ = writeln!(
                    out,
                    "  new       {name:<50} (not in baseline; run --update)"
                );
            }
            Verdict::Info { baseline, current } => {
                let _ = writeln!(
                    out,
                    "  info      {name:<50} {current:>10.1} (baseline {baseline:.1}, not gated)"
                );
            }
        }
    }
    out
}

/// Renders the informational worker-scaling summary of an engine report: for each node
/// count with both a `threads_8` and a `threads_4` row, the ratio of their throughputs
/// (never gated). With fewer than eight `cores` the ratio says nothing about scaling, so
/// a single line explains why it is skipped instead.
fn render_scaling(target: &str, current: &[Entry], cores: usize) -> String {
    let mut out = String::new();
    for entry in current {
        let Some(group) = entry.name.strip_suffix("/threads_8") else {
            continue;
        };
        let four = format!("{group}/threads_4");
        let Some(four) = current.iter().find(|c| c.name == four) else {
            continue;
        };
        if four.ops_per_sec <= 0.0 || entry.ops_per_sec <= 0.0 {
            continue;
        }
        if cores < 8 {
            return format!(
                "  scaling   {target}: threads_8 vs threads_4 skipped, 8 threads exceed the \
                 {cores} available cores\n"
            );
        }
        let _ = writeln!(
            out,
            "  scaling   {target}::{group} threads_8 vs threads_4: {:.2}x ops/sec \
             (informational)",
            entry.ops_per_sec / four.ops_per_sec
        );
    }
    out
}

struct Args {
    baseline: PathBuf,
    current: PathBuf,
    targets: Vec<String>,
    threshold: f64,
    metric: Metric,
    update: bool,
}

const USAGE: &str = "usage: xtask bench-compare --baseline <dir> --current <dir> \
                     [--targets a,b] [--threshold 0.25] [--metric min|mean] [--update]\n\
                     xtask matrix [matrix args...]\n\
                     xtask public-api [--update]\n\
                     xtask ci-local [--skip fmt,clippy,doc,public-api,test,bench,matrix,huge-smoke]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut baseline = None;
    let mut current = None;
    let mut targets: Vec<String> = GUARDED_BENCH_TARGETS
        .iter()
        .map(|t| t.to_string())
        .collect();
    let mut threshold = DEFAULT_BENCH_THRESHOLD;
    let mut metric = Metric::Min;
    let mut update = false;
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--baseline" => {
                baseline = Some(PathBuf::from(
                    argv.next().ok_or("--baseline requires a value")?,
                ));
            }
            "--current" => {
                current = Some(PathBuf::from(
                    argv.next().ok_or("--current requires a value")?,
                ));
            }
            "--targets" => {
                targets = argv
                    .next()
                    .ok_or("--targets requires a value")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--threshold" => {
                threshold = argv
                    .next()
                    .ok_or("--threshold requires a value")?
                    .parse()
                    .map_err(|_| String::from("--threshold must be a number"))?;
            }
            "--metric" => {
                metric = match argv.next().as_deref() {
                    Some("min") => Metric::Min,
                    Some("mean") => Metric::Mean,
                    _ => return Err(String::from("--metric must be 'min' or 'mean'")),
                };
            }
            "--update" => update = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        baseline: baseline.ok_or("--baseline is required")?,
        current: current.ok_or("--current is required")?,
        targets,
        threshold,
        metric,
        update,
    })
}

/// What failed the bench gate, aggregated across targets. Regressions and missing
/// benchmarks are reported separately: a benchmark that vanished from the run is not a
/// slowdown, it is the regression gate silently losing coverage, and the fix (restore
/// the benchmark, or `--update` the baseline when the removal is intentional) differs.
#[derive(Clone, Debug, Default, PartialEq)]
struct GateOutcome {
    regressed: Vec<String>,
    missing: Vec<String>,
}

impl GateOutcome {
    fn is_ok(&self) -> bool {
        self.regressed.is_empty() && self.missing.is_empty()
    }
}

/// Sorts one target's verdicts into the gate outcome; `Ok` and `New` pass.
fn gate(target: &str, verdicts: &[(String, Verdict)], outcome: &mut GateOutcome) {
    for (name, verdict) in verdicts {
        let qualified = format!("{target}::{name}");
        match verdict {
            Verdict::Regressed { .. } => outcome.regressed.push(qualified),
            Verdict::Missing => outcome.missing.push(qualified),
            Verdict::Ok { .. } | Verdict::New | Verdict::Info { .. } => {}
        }
    }
}

fn bench_compare(args: &Args) -> Result<GateOutcome, String> {
    let mut outcome = GateOutcome::default();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for target in &args.targets {
        let runs = collect_runs(&args.current, target)?;
        let (current, spread) = merge_runs(&runs);
        if args.update {
            let text = render_report(target, &current);
            std::fs::create_dir_all(&args.baseline)
                .map_err(|e| format!("cannot create {}: {e}", args.baseline.display()))?;
            let dest = report_path(&args.baseline, target);
            std::fs::write(&dest, &text)
                .map_err(|e| format!("cannot write {}: {e}", dest.display()))?;
            println!("updated {}", dest.display());
            if ROOT_MIRRORED_TARGETS.contains(&target.as_str()) {
                let mirror = report_path(Path::new("."), target);
                std::fs::write(&mirror, &text)
                    .map_err(|e| format!("cannot write {}: {e}", mirror.display()))?;
                println!("updated {}", mirror.display());
            }
            continue;
        }
        let baseline_path = report_path(&args.baseline, target);
        let baseline_text = std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("cannot read {}: {e}", baseline_path.display()))?;
        let baseline = parse_report(&baseline_text);
        if baseline.is_empty() {
            return Err(format!("no entries in {}", baseline_path.display()));
        }
        let verdicts = compare(&baseline, &current, args.threshold, args.metric);
        print!("{}", render_table(target, &verdicts));
        print!("{}", render_spread(target, &spread, runs.len()));
        print!("{}", render_scaling(target, &current, cores));
        gate(target, &verdicts, &mut outcome);
    }
    Ok(outcome)
}

/// Prints the gate outcome's failure details and returns the process exit code.
fn report_gate(outcome: &GateOutcome, threshold: f64) -> ExitCode {
    if outcome.is_ok() {
        println!("bench-compare: all benchmarks within threshold");
        return ExitCode::SUCCESS;
    }
    if !outcome.regressed.is_empty() {
        eprintln!(
            "bench-compare: regression beyond {:.0}% in: {}",
            threshold * 100.0,
            outcome.regressed.join(", ")
        );
    }
    if !outcome.missing.is_empty() {
        eprintln!(
            "bench-compare: baseline benchmarks missing from the run (restore them or \
             refresh the baseline with --update): {}",
            outcome.missing.join(", ")
        );
    }
    ExitCode::FAILURE
}

/// The cargo executable to shell out to (`$CARGO` when cargo invoked us, so nested calls
/// use the same toolchain).
fn cargo_bin() -> String {
    std::env::var("CARGO").unwrap_or_else(|_| String::from("cargo"))
}

/// The bench targets guarded by the regression gate — shared by the `bench-compare`
/// defaults and the `ci-local` bench step so the two cannot drift.
const GUARDED_BENCH_TARGETS: [&str; 3] =
    ["microbench_core", "microbench_engine", "microbench_metrics"];

/// The regression threshold both CI and `ci-local` judge against.
const DEFAULT_BENCH_THRESHOLD: f64 = 0.25;

/// How many times the `ci-local` bench step (and the CI bench job) runs each bench
/// target; `bench-compare` then judges the fastest run per benchmark. Three runs strip
/// the scheduler noise a single run cannot while keeping bench time bounded.
const BENCH_RUNS: usize = 3;

/// Bench targets whose `BENCH_<target>.json` is additionally mirrored at the repository
/// root for README-linkable reference. `bench-compare --update` refreshes the mirrors
/// together with the baseline so the two cannot drift.
const ROOT_MIRRORED_TARGETS: [&str; 2] = ["microbench_engine", "microbench_metrics"];

/// Runs the `matrix` binary through cargo with `extra` appended — the single invocation
/// site behind `xtask matrix` and the `ci-local` matrix step.
fn run_matrix(extra: &[String]) -> bool {
    let mut args = vec![
        "run",
        "--release",
        "-p",
        "croupier-experiments",
        "--bin",
        "matrix",
        "--",
    ];
    args.extend(extra.iter().map(String::as_str));
    run_command(&cargo_bin(), &args, &[])
}

/// Directory holding the committed public-API snapshots, one file per library crate.
const PUBLIC_API_DIR: &str = "ci/public-api";

/// The workspace's library crates: snapshot file stem and `src/` directory. `xtask`
/// itself and the bench/experiment binaries' crates still appear because their `pub`
/// items are importable by other members; only `xtask` (a pure binary, never a
/// dependency) is excluded.
fn workspace_library_crates() -> Vec<(String, PathBuf)> {
    let mut crates = vec![(String::from("croupier-suite"), PathBuf::from("src"))];
    let mut dirs: Vec<PathBuf> = match std::fs::read_dir("crates") {
        Ok(entries) => entries.flatten().map(|e| e.path()).collect(),
        Err(_) => Vec::new(),
    };
    dirs.sort();
    for dir in dirs {
        let manifest = dir.join("Cargo.toml");
        let src = dir.join("src");
        if !manifest.exists() || !src.is_dir() {
            continue;
        }
        let name = std::fs::read_to_string(&manifest)
            .ok()
            .and_then(|text| {
                text.lines()
                    .find_map(|l| l.trim().strip_prefix("name = ").map(str::to_string))
            })
            .map(|raw| raw.trim_matches(|c| c == '"' || c == ' ').to_string())
            .unwrap_or_else(|| dir.file_name().unwrap().to_string_lossy().into_owned());
        crates.push((name, src));
    }
    crates
}

/// Every `.rs` file under `dir`, recursively, in sorted order.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Item keywords that may follow `pub` (possibly behind `const`/`unsafe`/`async`/
/// `extern "..."` qualifiers). Anything else after `pub ` is not an item declaration.
const PUB_ITEM_KEYWORDS: [&str; 11] = [
    "fn", "struct", "enum", "trait", "const", "static", "type", "mod", "union", "use", "macro",
];

/// Extracts the normalised declaration if `line` declares a crate-public item.
///
/// This is a deliberate *line scan*, not a parse: it sees exactly what a reviewer sees
/// in the diff, costs nothing to run, and `rustfmt --check` (a separate CI step) pins
/// the formatting it relies on. Restricted visibility (`pub(crate)`, `pub(super)`) is
/// not part of the external API and is skipped.
fn public_item_of(line: &str) -> Option<String> {
    let trimmed = line.trim();
    let rest = trimmed.strip_prefix("pub ")?;
    let mut words = rest.split_whitespace();
    let mut first = words.next()?;
    // Skip qualifiers — but `const NAME` (no second keyword) is itself an item.
    while matches!(first, "const" | "unsafe" | "async") || first.starts_with("extern") {
        match words.next() {
            Some(next) if PUB_ITEM_KEYWORDS.contains(&next) => first = next,
            _ => break,
        }
    }
    if !PUB_ITEM_KEYWORDS.contains(&first) {
        return None;
    }
    // Normalise to the first line of the declaration, without the body opener.
    let mut decl = trimmed.trim_end();
    if let Some(stripped) = decl.strip_suffix('{') {
        decl = stripped.trim_end();
    }
    Some(decl.to_string())
}

/// The public items of one source file: every [`public_item_of`] line, plus the `fn`
/// declarations directly inside a `pub trait … {` body. Trait methods carry no `pub` of
/// their own but are API all the same; each is recorded as `trait Name: fn …` so it
/// stays attributable once the snapshot is sorted.
fn public_items(text: &str) -> Vec<String> {
    let mut items = Vec::new();
    // Name and indentation of the `pub trait` whose body is being scanned, if any.
    let mut open_trait: Option<(&str, &str)> = None;
    for line in text.lines() {
        if let Some((name, indent)) = open_trait {
            let Some(body) = line.trim_end().strip_prefix(indent) else {
                continue;
            };
            if body == "}" {
                open_trait = None;
            } else if let Some(decl) = body.strip_prefix("    ").filter(|d| d.starts_with("fn ")) {
                let decl = decl.strip_suffix("{}").unwrap_or(decl);
                let decl = decl.trim_end_matches(['{', ';']).trim_end();
                items.push(format!("trait {name}: {decl}"));
            }
            continue;
        }
        let Some(decl) = public_item_of(line) else {
            continue;
        };
        let header = line.trim_start();
        if let Some(rest) = header.strip_prefix("pub trait ") {
            if header.trim_end().ends_with('{') {
                let end = rest
                    .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .unwrap_or(rest.len());
                let indent = &line[..line.len() - header.len()];
                open_trait = Some((&rest[..end], indent));
            }
        }
        items.push(decl);
    }
    items
}

/// The sorted public-item snapshot of one crate, one `file: declaration` line each.
fn public_api_snapshot(src: &Path) -> Vec<String> {
    let mut files = Vec::new();
    collect_rs_files(src, &mut files);
    let mut lines = Vec::new();
    for file in files {
        let Ok(text) = std::fs::read_to_string(&file) else {
            continue;
        };
        let rel = file.display().to_string().replace('\\', "/");
        for decl in public_items(&text) {
            lines.push(format!("{rel}: {decl}"));
        }
    }
    lines.sort();
    lines
}

/// `xtask public-api`: regenerates every crate's snapshot and either rewrites the
/// committed files (`update`) or diffs against them, failing on any discrepancy.
fn public_api_gate(update: bool) -> ExitCode {
    let dir = PathBuf::from(PUBLIC_API_DIR);
    let mut clean = true;
    for (name, src) in workspace_library_crates() {
        let current = public_api_snapshot(&src);
        let snapshot_path = dir.join(format!("{name}.txt"));
        if update {
            if std::fs::create_dir_all(&dir).is_err() {
                eprintln!("cannot create {}", dir.display());
                return ExitCode::FAILURE;
            }
            let mut body = current.join("\n");
            body.push('\n');
            if std::fs::write(&snapshot_path, body).is_err() {
                eprintln!("cannot write {}", snapshot_path.display());
                return ExitCode::FAILURE;
            }
            println!(
                "public-api: wrote {} ({} items)",
                snapshot_path.display(),
                current.len()
            );
            continue;
        }
        let committed = match std::fs::read_to_string(&snapshot_path) {
            Ok(text) => text.lines().map(str::to_string).collect::<Vec<_>>(),
            Err(_) => {
                eprintln!(
                    "public-api: missing snapshot {} — run `cargo run -p xtask -- \
                     public-api --update` and commit it",
                    snapshot_path.display()
                );
                clean = false;
                continue;
            }
        };
        let removed: Vec<&String> = committed.iter().filter(|l| !current.contains(l)).collect();
        let added: Vec<&String> = current.iter().filter(|l| !committed.contains(l)).collect();
        if removed.is_empty() && added.is_empty() {
            println!("public-api: {name} ok ({} items)", current.len());
        } else {
            clean = false;
            eprintln!("public-api: {name} CHANGED");
            for line in removed {
                eprintln!("  - {line}");
            }
            for line in added {
                eprintln!("  + {line}");
            }
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "public-api: undeclared API change — if intentional, run `cargo run -p xtask \
             -- public-api --update` and commit the snapshots"
        );
        ExitCode::FAILURE
    }
}

/// Runs one external command, streaming its output; returns `true` on exit code 0.
fn run_command(program: &str, args: &[&str], envs: &[(&str, &str)]) -> bool {
    println!("$ {program} {}", args.join(" "));
    let mut cmd = Command::new(program);
    cmd.args(args);
    for (key, value) in envs {
        cmd.env(key, value);
    }
    match cmd.status() {
        Ok(status) => status.success(),
        Err(err) => {
            eprintln!("cannot run {program}: {err}");
            false
        }
    }
}

/// The CI jobs `ci-local` mirrors, in run order. `huge-smoke` is the million-node tier
/// (the long pole by far — skip it with `--skip huge-smoke` when iterating).
const CI_STEPS: [&str; 8] = [
    "fmt",
    "clippy",
    "doc",
    "public-api",
    "test",
    "bench",
    "matrix",
    "huge-smoke",
];

/// Parses `ci-local`'s arguments: the set of steps to skip.
fn parse_ci_local_args(mut argv: impl Iterator<Item = String>) -> Result<Vec<String>, String> {
    let mut skip = Vec::new();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--skip" => {
                for step in argv
                    .next()
                    .ok_or("--skip requires a value")?
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                {
                    if !CI_STEPS.contains(&step) {
                        return Err(format!(
                            "unknown step '{step}' (steps: {})",
                            CI_STEPS.join(", ")
                        ));
                    }
                    skip.push(step.to_string());
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(skip)
}

/// Runs one `ci-local` step; returns `true` on success.
fn ci_local_step(step: &str) -> bool {
    let cargo = cargo_bin();
    match step {
        "fmt" => run_command(&cargo, &["fmt", "--all", "--check"], &[]),
        "clippy" => run_command(
            &cargo,
            &[
                "clippy",
                "--workspace",
                "--all-targets",
                "--",
                "-D",
                "warnings",
            ],
            &[],
        ),
        "doc" => run_command(
            &cargo,
            &["doc", "--workspace", "--no-deps"],
            &[("RUSTDOCFLAGS", "-D warnings")],
        ),
        "test" => {
            run_command(&cargo, &["build", "--release", "--workspace"], &[])
                && run_command(&cargo, &["test", "-q", "--workspace"], &[])
        }
        "bench" => {
            // Each guarded target runs `BENCH_RUNS` times into run<N>/ subdirectories,
            // and the comparison below judges the fastest run per benchmark (best-of-N).
            // BENCH_JSON_DIR must be absolute: cargo runs each bench binary from its
            // package directory, so a relative override would scatter the reports.
            let json_root = match std::env::current_dir() {
                Ok(dir) => dir.join("target").join("bench-json"),
                Err(err) => {
                    eprintln!("cannot determine the working directory: {err}");
                    return false;
                }
            };
            // Stale reports from earlier invocations would min-merge into the gate.
            let _ = std::fs::remove_dir_all(&json_root);
            let mut bench_args = vec!["bench"];
            for target in GUARDED_BENCH_TARGETS {
                bench_args.push("--bench");
                bench_args.push(target);
            }
            for run in 1..=BENCH_RUNS {
                let dir = json_root.join(format!("run{run}"));
                let dir = dir.to_string_lossy().into_owned();
                if !run_command(&cargo, &bench_args, &[("BENCH_JSON_DIR", &dir)]) {
                    return false;
                }
            }
            // Same comparison the CI gate runs, in-process: parse_args with only the
            // required paths picks up the shared target/threshold/metric defaults.
            let args = parse_args(
                [
                    "--baseline",
                    "ci/bench-baseline",
                    "--current",
                    "target/bench-json",
                ]
                .map(String::from)
                .into_iter(),
            )
            .expect("defaults are valid");
            match bench_compare(&args) {
                Ok(outcome) => report_gate(&outcome, args.threshold) == ExitCode::SUCCESS,
                Err(err) => {
                    eprintln!("{err}");
                    false
                }
            }
        }
        "public-api" => public_api_gate(false) == ExitCode::SUCCESS,
        "matrix" => run_matrix(&[]),
        "huge-smoke" => run_command(
            &cargo,
            &[
                "test",
                "--release",
                "--test",
                "scale_smoke",
                "--",
                "--ignored",
                "--nocapture",
                "croupier_one_million",
            ],
            &[],
        ),
        other => {
            eprintln!("unknown ci-local step '{other}'");
            false
        }
    }
}

fn ci_local(skip: &[String]) -> ExitCode {
    let mut results: Vec<(&str, &str)> = Vec::new();
    for step in CI_STEPS {
        if skip.iter().any(|s| s == step) {
            results.push((step, "skipped"));
            continue;
        }
        println!("==> ci-local: {step}");
        let verdict = if ci_local_step(step) { "ok" } else { "FAILED" };
        results.push((step, verdict));
    }
    println!("\nci-local summary:");
    for (step, verdict) in &results {
        println!("  {step:<16} {verdict}");
    }
    if results.iter().any(|(_, v)| *v == "FAILED") {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    match argv.next().as_deref() {
        Some("bench-compare") => {
            let args = match parse_args(argv) {
                Ok(args) => args,
                Err(err) => {
                    eprintln!("{err}\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            };
            match bench_compare(&args) {
                Ok(outcome) => report_gate(&outcome, args.threshold),
                Err(err) => {
                    eprintln!("{err}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("public-api") => {
            let mut update = false;
            for arg in argv {
                match arg.as_str() {
                    "--update" => update = true,
                    other => {
                        eprintln!("unknown argument '{other}'\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            public_api_gate(update)
        }
        Some("matrix") => {
            // Thin forwarding wrapper so CI and contributors share one entry point.
            let extra: Vec<String> = argv.collect();
            if run_matrix(&extra) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("ci-local") => match parse_ci_local_args(argv) {
            Ok(skip) => ci_local(&skip),
            Err(err) => {
                eprintln!("{err}\n{USAGE}");
                ExitCode::FAILURE
            }
        },
        Some(other) => {
            eprintln!("unknown command '{other}'\n{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "target": "microbench_core",
  "entries": [
    {"name": "view/swapper_merge_10", "mean_ns": 140.2, "min_ns": 120.0, "ops_per_sec": 7132667.618, "samples": 20},
    {"name": "sampler/draw", "mean_ns": 55.0, "min_ns": 50.0, "ops_per_sec": 18181818.182, "samples": 20}
  ]
}
"#;

    #[test]
    fn parses_shim_reports() {
        let entries = parse_report(SAMPLE);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "view/swapper_merge_10");
        assert!((entries[0].mean_ns - 140.2).abs() < 1e-9);
        assert!((entries[1].ops_per_sec - 18_181_818.182).abs() < 1e-3);
    }

    #[test]
    fn parses_escaped_names() {
        let line = r#"{"name": "odd \"quoted\" name", "mean_ns": 10.0, "min_ns": 9.0, "ops_per_sec": 1.0, "samples": 2}"#;
        let entries = parse_report(line);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "odd \"quoted\" name");
    }

    fn entry(name: &str, mean_ns: f64) -> Entry {
        Entry {
            name: String::from(name),
            mean_ns,
            min_ns: mean_ns * 0.9,
            ops_per_sec: 1e9 / mean_ns,
            samples: 20,
        }
    }

    #[test]
    fn compare_flags_only_regressions_beyond_threshold() {
        let baseline = vec![entry("a", 100.0), entry("b", 100.0), entry("c", 100.0)];
        let current = vec![entry("a", 124.0), entry("b", 126.0), entry("c", 60.0)];
        for metric in [Metric::Mean, Metric::Min] {
            let verdicts = compare(&baseline, &current, 0.25, metric);
            assert!(matches!(verdicts[0].1, Verdict::Ok { .. }), "{verdicts:?}");
            assert!(
                matches!(verdicts[1].1, Verdict::Regressed { ratio } if ratio > 1.25),
                "{verdicts:?}"
            );
            assert!(matches!(verdicts[2].1, Verdict::Ok { .. }), "speedups pass");
        }
    }

    #[test]
    fn min_metric_judges_min_not_mean() {
        // Mean regressed 2x (noise) but min is stable: the default gate stays green.
        let baseline = vec![Entry {
            name: String::from("noisy"),
            mean_ns: 100.0,
            min_ns: 60.0,
            ops_per_sec: 1e7,
            samples: 20,
        }];
        let current = vec![Entry {
            name: String::from("noisy"),
            mean_ns: 200.0,
            min_ns: 62.0,
            ops_per_sec: 5e6,
            samples: 20,
        }];
        let by_min = compare(&baseline, &current, 0.25, Metric::Min);
        assert!(matches!(by_min[0].1, Verdict::Ok { .. }), "{by_min:?}");
        let by_mean = compare(&baseline, &current, 0.25, Metric::Mean);
        assert!(matches!(by_mean[0].1, Verdict::Regressed { .. }));
    }

    #[test]
    fn compare_flags_missing_benchmarks() {
        let baseline = vec![entry("gone", 100.0)];
        let verdicts = compare(&baseline, &[], 0.25, Metric::Min);
        assert_eq!(verdicts[0].1, Verdict::Missing);
    }

    #[test]
    fn gate_fails_on_missing_and_regressed_but_not_on_new() {
        let verdicts = vec![
            (String::from("fine"), Verdict::Ok { ratio: 1.0 }),
            (String::from("slow"), Verdict::Regressed { ratio: 1.6 }),
            (String::from("gone"), Verdict::Missing),
            (String::from("fresh"), Verdict::New),
        ];
        let mut outcome = GateOutcome::default();
        gate("t", &verdicts, &mut outcome);
        assert!(!outcome.is_ok());
        assert_eq!(outcome.regressed, vec![String::from("t::slow")]);
        assert_eq!(
            outcome.missing,
            vec![String::from("t::gone")],
            "a benchmark that vanished from the run must fail the gate"
        );
        assert_eq!(report_gate(&outcome, 0.25), ExitCode::FAILURE);
    }

    #[test]
    fn gate_passes_when_everything_is_ok_or_new() {
        let verdicts = vec![
            (String::from("fine"), Verdict::Ok { ratio: 0.9 }),
            (String::from("fresh"), Verdict::New),
        ];
        let mut outcome = GateOutcome::default();
        gate("t", &verdicts, &mut outcome);
        assert!(outcome.is_ok());
        assert_eq!(report_gate(&outcome, 0.25), ExitCode::SUCCESS);
    }

    #[test]
    fn ci_local_args_accept_known_steps_only() {
        assert_eq!(
            parse_ci_local_args(["--skip", "bench,matrix"].map(String::from).into_iter()).unwrap(),
            vec![String::from("bench"), String::from("matrix")]
        );
        assert!(parse_ci_local_args(std::iter::empty()).unwrap().is_empty());
        assert!(
            parse_ci_local_args(["--skip", "bogus"].map(String::from).into_iter()).is_err(),
            "unknown steps are rejected"
        );
        assert!(
            parse_ci_local_args(["--skip", "fault-matrix"].map(String::from).into_iter()).is_err(),
            "the per-tier matrix steps are gone"
        );
        assert!(parse_ci_local_args(["--wat"].map(String::from).into_iter()).is_err());
    }

    #[test]
    fn informational_entries_are_reported_but_never_gated() {
        let info = |name: &str, value: f64| Entry {
            name: String::from(name),
            mean_ns: value,
            min_ns: value,
            ops_per_sec: 0.0,
            samples: 0,
        };
        // A 10x "regression" of an informational value stays out of the gate.
        let baseline = vec![entry("timed", 100.0), info("engine/bytes_per_node", 80.0)];
        let current = vec![entry("timed", 100.0), info("engine/bytes_per_node", 800.0)];
        let verdicts = compare(&baseline, &current, 0.25, Metric::Min);
        assert!(matches!(verdicts[0].1, Verdict::Ok { .. }));
        assert_eq!(
            verdicts[1].1,
            Verdict::Info {
                baseline: 80.0,
                current: 800.0
            }
        );
        let mut outcome = GateOutcome::default();
        gate("t", &verdicts, &mut outcome);
        assert!(outcome.is_ok(), "informational entries never fail the gate");
        let table = render_table("t", &verdicts);
        assert!(
            table.contains("  info      engine/bytes_per_node"),
            "informational rows get their own marker: {table}"
        );
        assert!(table.contains("not gated"), "{table}");
    }

    #[test]
    fn parse_report_defaults_missing_samples_to_timed() {
        let line = r#"{"name": "old_style", "mean_ns": 10.0, "min_ns": 9.0, "ops_per_sec": 1.0}"#;
        let entries = parse_report(line);
        assert_eq!(entries[0].samples, 1, "pre-field baselines stay gated");
        assert!(!entries[0].is_informational());
    }

    #[test]
    fn scaling_summary_pairs_threads_8_with_threads_4() {
        let current = vec![
            entry("engine/10k_nodes/threads_4", 200.0),
            entry("engine/10k_nodes/threads_8", 100.0),
            entry("engine/100k_nodes/threads_8", 50.0), // no threads_4 partner: skipped
            entry("queue/wheel/depth_100k", 10.0),      // not a threads_8 row: skipped
        ];
        let summary = render_scaling("microbench_engine", &current, 8);
        assert_eq!(summary.lines().count(), 1, "{summary}");
        assert!(
            summary.contains("microbench_engine::engine/10k_nodes threads_8 vs threads_4: 2.00x"),
            "{summary}"
        );
        assert!(summary.contains("informational"), "{summary}");
    }

    #[test]
    fn scaling_summary_is_skipped_when_threads_exceed_cores() {
        let current = vec![
            entry("engine/10k_nodes/threads_4", 200.0),
            entry("engine/10k_nodes/threads_8", 100.0),
            entry("engine/100k_nodes/threads_4", 400.0),
            entry("engine/100k_nodes/threads_8", 200.0),
        ];
        let summary = render_scaling("microbench_engine", &current, 2);
        assert_eq!(
            summary,
            "  scaling   microbench_engine: threads_8 vs threads_4 skipped, 8 threads exceed \
             the 2 available cores\n"
        );
        let no_pairs = [entry("queue/wheel/depth_100k", 10.0)];
        assert_eq!(render_scaling("microbench_core", &no_pairs, 2), "");
    }

    #[test]
    fn new_benchmarks_are_surfaced_but_not_judged() {
        let baseline = vec![entry("a", 100.0)];
        let current = vec![entry("a", 100.0), entry("brand_new", 5.0)];
        let verdicts = compare(&baseline, &current, 0.25, Metric::Min);
        assert_eq!(verdicts.len(), 2);
        assert_eq!(verdicts[1], (String::from("brand_new"), Verdict::New));
        let table = render_table("t", &verdicts);
        assert!(
            table.contains("  new       brand_new"),
            "the New verdict must render with its own marker: {table}"
        );
        assert!(table.contains("--update"));
    }

    #[test]
    fn args_parse_with_defaults() {
        let args = parse_args(
            ["--baseline", "b", "--current", "c"]
                .into_iter()
                .map(String::from),
        )
        .unwrap();
        assert_eq!(args.threshold, 0.25);
        assert_eq!(args.metric, Metric::Min, "min is the stable default");
        assert_eq!(
            args.targets,
            vec!["microbench_core", "microbench_engine", "microbench_metrics"],
            "defaults cover every guarded target"
        );
        assert!(!args.update);
        assert!(parse_args(std::iter::empty()).is_err(), "baseline required");
    }

    #[test]
    fn args_parse_overrides() {
        let args = parse_args(
            [
                "--baseline",
                "b",
                "--current",
                "c",
                "--targets",
                "x, y",
                "--threshold",
                "0.5",
                "--metric",
                "mean",
                "--update",
            ]
            .into_iter()
            .map(String::from),
        )
        .unwrap();
        assert_eq!(args.targets, vec!["x", "y"]);
        assert!((args.threshold - 0.5).abs() < 1e-12);
        assert_eq!(args.metric, Metric::Mean);
        assert!(args.update);
    }

    #[test]
    fn render_table_marks_each_verdict() {
        let verdicts = vec![
            (String::from("fast"), Verdict::Ok { ratio: 0.9 }),
            (String::from("slow"), Verdict::Regressed { ratio: 1.4 }),
            (String::from("gone"), Verdict::Missing),
        ];
        let table = render_table("t", &verdicts);
        assert!(table.contains("ok"));
        assert!(table.contains("REGRESSED"));
        assert!(table.contains("MISSING"));
    }

    #[test]
    fn merge_runs_keeps_the_fastest_observation_per_entry() {
        let run1 = vec![entry("a", 100.0), entry("b", 200.0)];
        let run2 = vec![entry("a", 80.0), entry("b", 260.0)];
        let run3 = vec![entry("a", 120.0), entry("b", 240.0)];
        let (merged, spread) = merge_runs(&[run1, run2, run3]);
        let a = merged.iter().find(|e| e.name == "a").unwrap();
        assert!((a.mean_ns - 80.0).abs() < 1e-9, "fastest mean wins");
        assert!((a.min_ns - 72.0).abs() < 1e-9, "fastest min wins");
        assert!((a.ops_per_sec - 1e9 / 80.0).abs() < 1e-3);
        assert_eq!(a.samples, 60, "samples accumulate across runs");
        let (_, fastest, slowest) = spread.iter().find(|(n, _, _)| n == "b").unwrap();
        assert!((fastest - 180.0).abs() < 1e-9, "spread tracks min-ns floor");
        assert!(
            (slowest - 234.0).abs() < 1e-9,
            "spread tracks min-ns ceiling"
        );
    }

    #[test]
    fn merge_runs_lets_informational_entries_pass_through_ungated() {
        let mut info = entry("scaling/ratio", 2.0);
        info.samples = 0;
        let mut later = entry("scaling/ratio", 3.0);
        later.samples = 0;
        let (merged, spread) = merge_runs(&[vec![info], vec![later]]);
        assert!((merged[0].mean_ns - 3.0).abs() < 1e-9, "last run wins");
        assert!(merged[0].is_informational());
        assert!(spread.is_empty(), "informational rows have no spread line");
    }

    #[test]
    fn rendered_reports_round_trip_through_the_parser() {
        let entries = parse_report(SAMPLE);
        let rendered = render_report("microbench_core", &entries);
        assert_eq!(rendered, SAMPLE, "merged baselines must match shim output");
        assert_eq!(parse_report(&rendered), entries);
    }

    #[test]
    fn spread_lines_appear_only_for_multi_run_layouts() {
        let spread = vec![(String::from("a"), 100.0, 150.0)];
        assert!(render_spread("t", &spread, 1).is_empty());
        let text = render_spread("t", &spread, 3);
        assert!(text.contains("t::a best-of-3"), "{text}");
        assert!(text.contains("1.50x"), "{text}");
    }

    #[test]
    fn collect_runs_merges_direct_and_run_subdirectory_reports() {
        let dir = std::env::temp_dir().join(format!("xtask-collect-{}", std::process::id()));
        let run1 = dir.join("run1");
        std::fs::create_dir_all(&run1).unwrap();
        std::fs::write(report_path(&dir, "core"), SAMPLE).unwrap();
        std::fs::write(report_path(&run1, "core"), SAMPLE).unwrap();
        let runs = collect_runs(&dir, "core").unwrap();
        assert_eq!(runs.len(), 2);
        assert!(collect_runs(&dir, "missing").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn public_item_scan_recognises_declarations() {
        assert_eq!(
            public_item_of("    pub fn observed_ip(&self) -> Ip {"),
            Some(String::from("pub fn observed_ip(&self) -> Ip"))
        );
        assert_eq!(
            public_item_of("pub const fn as_u32(self) -> u32 {"),
            Some(String::from("pub const fn as_u32(self) -> u32"))
        );
        assert_eq!(
            public_item_of("pub const FIRST_NAT_PORT: u16 = 1024;"),
            Some(String::from("pub const FIRST_NAT_PORT: u16 = 1024;"))
        );
        assert_eq!(
            public_item_of("pub use mapping::{MappingPolicy, PoolingBehavior};"),
            Some(String::from(
                "pub use mapping::{MappingPolicy, PoolingBehavior};"
            ))
        );
        assert_eq!(
            public_item_of("pub struct Endpoint {"),
            Some(String::from("pub struct Endpoint"))
        );
        // Methods of a `pub trait` are API without a `pub` of their own; nested items of
        // a provided method's body and code after the trait's closing brace are not.
        let trait_body = "pub trait Engine<P: Protocol> {\n    /// Docs.\n    \
                          fn len(&self) -> usize;\n    fn is_empty(&self) -> bool {\n        \
                          fn helper() {}\n        self.len() == 0\n    }\n}\n\
                          fn private_helper() {}\n";
        assert_eq!(
            public_items(trait_body),
            vec![
                String::from("pub trait Engine<P: Protocol>"),
                String::from("trait Engine: fn len(&self) -> usize"),
                String::from("trait Engine: fn is_empty(&self) -> bool"),
            ]
        );
    }

    #[test]
    fn public_item_scan_skips_non_api_lines() {
        // Restricted visibility is not external API.
        assert_eq!(public_item_of("pub(crate) fn internal() {"), None);
        assert_eq!(public_item_of("    pub(super) mod detail;"), None);
        // Non-item uses of the word and non-pub lines.
        assert_eq!(public_item_of("fn private_helper() {"), None);
        assert_eq!(public_item_of("// pub fn in a comment"), None);
        assert_eq!(public_item_of("pub ip: Ip,"), None);
    }
}
