//! The repository's benchmark: end-to-end metrics of three workloads
//! (`serve`, `session`, `sweep`) and a traced per-layer breakdown.
//!
//! ```text
//! sws-perfbench --workload <serve|session|sweep|all> --seed N --seconds S --trace <0|1>
//!               [--out DIR]
//! ```
//!
//! The last line of standard output is the result as one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`). With `--trace 0` the
//! metrics are the end-to-end metrics of the workload; with `--trace 1`
//! they are the per-layer metrics. The full record — host metadata, run
//! parameters, exact counters, answer digests — is written to
//! `DIR/<workload>-s<seed>-t<trace>.json` (default `.bench_out`), and the
//! traced run's spans to `DIR/<workload>-s<seed>-<pass>.spans.tsv`.
//! `perfbench/compare.py` compares records and refuses records whose
//! host metadata differ. See `perfbench/README.md`.

mod affinity;
mod check;
mod digest;
mod gen;
mod report;
#[cfg(test)]
mod selftest;
mod serve;
mod session;
mod slo;
mod stats;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use report::{Report, SERVICE_WORKERS};

const USAGE: &str =
    "usage: sws-perfbench --workload <serve|session|sweep|all> --seed N --seconds S --trace <0|1> \
[--out DIR]";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: f64::NAN,
        trace: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut seed = None;
    let mut trace = None;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| -> Result<f64, String> {
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x > 0.0)
                .ok_or_else(|| format!("{flag}: expected a positive number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed: bad value {value:?}"))?,
                )
            }
            "--seconds" => args.seconds = number(&value)?,
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                })
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["serve", "session", "sweep", "all"].contains(&args.workload.as_str()) {
        return Err(format!("--workload: unknown workload {:?}", args.workload));
    }
    args.seed = seed.ok_or("--seed is required")?;
    args.trace = trace.ok_or("--trace is required")?;
    if !args.seconds.is_finite() {
        return Err("--seconds is required".into());
    }
    Ok(args)
}

/// The untraced run of one workload: every end-to-end metric.
fn untraced(args: &Args) -> Report {
    let mut report = match args.workload.as_str() {
        "serve" => serve::run(args.seed, serve::POOL, args.seconds, SETUPS),
        "session" => session::run(args.seed, args.seconds, SETUPS),
        _ => sweep::run(args.seed, args.seconds, SETUPS),
    };
    report.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
    report
}

/// The traced run: the per-layer breakdown of all three workloads (each
/// layer is measured on the workload that exercises it), plus the trace
/// overhead of the selected workload.
fn traced(args: &Args) -> (Report, Vec<(String, trace::Tracer)>) {
    let mut report = Report::default();
    let mut spans = Vec::new();
    let serve = serve::setup_for_trace(args.seed, serve::POOL, &mut report);
    serve::traced(&serve, &mut report, &mut spans);
    let mut sessions = session::Sessions::setup(args.seed);
    // Pins the session service's worker too (serve's set-up pinned its own).
    report.note("affinity", affinity::pin_threads());
    session::traced(&sessions, &mut report, &mut spans);
    let mut sweep = sweep::Sweep::setup(args.seed);
    sweep::traced(&mut sweep, &mut report, &mut spans);

    // Untraced and traced halves, alternated, for the selected workload.
    let half = (0.1 * args.seconds).max(0.25);
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        for traced in [false, true] {
            let rate = match args.workload.as_str() {
                "serve" => serve::backlog_throughput(&serve, half, traced),
                "session" => session::apply_throughput(&mut sessions, half, traced, &mut report),
                _ => sweep::front_throughput(&mut sweep, half, traced, &mut report),
            };
            if traced { &mut on } else { &mut off }.push(rate);
        }
    }
    report.metric(
        "harness.trace_overhead",
        stats::mean(&on) / stats::mean(&off),
        "ratio",
    );
    (report, spans)
}

fn git_rev() -> String {
    // Only a checkout's own repository counts, never an enclosing one.
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn host() -> Vec<(&'static str, String)> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("available_parallelism", cores.to_string()),
        ("service_workers", SERVICE_WORKERS.to_string()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        (
            "target",
            format!("{}-{}", std::env::consts::ARCH, std::env::consts::OS),
        ),
    ]
}

fn run_params(args: &Args) -> Vec<(&'static str, String)> {
    vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("git_rev", git_rev()),
    ]
}

fn emit(args: &Args, report: &Report, spans: &[(String, trace::Tracer)]) -> ExitCode {
    let stem = format!("{}-s{}", args.workload, args.seed);
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&args.out)?;
        let path = args
            .out
            .join(format!("{stem}-t{}.json", u8::from(args.trace)));
        std::fs::write(path, report.record_json(&host(), &run_params(args)))?;
        for (pass, tracer) in spans {
            tracer.write_tsv(&args.out.join(format!("{stem}-{pass}.spans.tsv")))?;
        }
        Ok(())
    };
    if let Err(e) = write() {
        eprintln!(
            "cannot write the run record under {}: {e}",
            args.out.display()
        );
        return ExitCode::from(1);
    }
    for (k, v) in host().iter().chain(run_params(args).iter()) {
        eprintln!("# {k}: {v}");
    }
    for (k, v) in &report.digests {
        eprintln!("# digest {k}: {v}");
    }
    for (k, v) in &report.counters {
        eprintln!("# counter {k}: {v}");
    }
    for (k, v) in &report.notes {
        eprintln!("# {k}: {v}");
    }
    for e in &report.errors {
        eprintln!("! {e}");
    }
    if let Some(why) = &report.invalid {
        // An invalid run is not reported.
        eprintln!("! invalid run: {why}");
        return ExitCode::from(3);
    }
    println!(
        "{} (seed {}, trace {})",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    print!("{}", report.table());
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}

/// `--workload all`: each workload in a process of its own (so
/// `peak_rss_mb` is that workload's), then one combined result line with
/// the metrics prefixed by workload.
fn run_all() -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut combined = Report::default();
    for workload in ["serve", "session", "sweep"] {
        let mut child_args: Vec<String> = std::env::args().skip(1).collect();
        if let Some(i) = child_args.iter().position(|a| a == "--workload") {
            child_args[i + 1] = workload.to_string();
        }
        let output = Command::new(&exe)
            .args(&child_args)
            .stderr(std::process::Stdio::inherit())
            .output();
        let Ok(output) = output else {
            eprintln!("cannot run the {workload} workload");
            return ExitCode::from(1);
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        match (output.status.success(), parse_result(last)) {
            (true, Some(child)) => {
                combined.attempted += child.attempted;
                combined.failed += child.failed;
                if !child.correct {
                    combined
                        .invalid
                        .get_or_insert(format!("{workload} reported incorrect output"));
                }
                for (name, value, unit) in child.metrics {
                    combined.metric(format!("{workload}.{name}"), value, unit);
                }
            }
            _ => {
                eprintln!("the {workload} workload did not report a result");
                return ExitCode::from(1);
            }
        }
    }
    let correct = combined.invalid.is_none();
    combined.invalid = None;
    let line = combined.result_json();
    println!(
        "{}",
        if correct {
            line
        } else {
            line.replacen("\"correct\": true", "\"correct\": false", 1)
        }
    );
    ExitCode::SUCCESS
}

struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

/// Reads back a result line printed by [`Report::result_json`].
fn parse_result(line: &str) -> Option<ChildResult> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let metrics_at = line.find("\"metrics\": {")? + 12;
    let mut metrics = Vec::new();
    for entry in line[metrics_at..].split("}, ") {
        let name = entry.split('"').nth(1)?;
        let value = entry
            .split("\"value\": ")
            .nth(1)?
            .split(',')
            .next()?
            .parse()
            .ok()?;
        let unit = entry.split("\"unit\": \"").nth(1)?.split('"').next()?;
        // Units come from this program's own fixed set.
        let unit = ["ops/s", "us", "ratio", "s", "MB", "count", "ns"]
            .into_iter()
            .find(|u| *u == unit)?;
        metrics.push((name.to_string(), value, unit));
    }
    Some(ChildResult {
        correct: field("correct")? == "true",
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all();
    }
    let (report, spans) = if args.trace {
        traced(&args)
    } else {
        (untraced(&args), Vec::new())
    };
    emit(&args, &report, &spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_line_reads_back() {
        let mut r = Report {
            attempted: 12,
            ..Report::default()
        };
        r.metric("latency_p50_us", 12.5, "us");
        r.metric("setup_s", 0.25, "s");
        let back = parse_result(&r.result_json()).expect("parses");
        assert!(back.correct);
        assert_eq!(back.attempted, 12);
        assert_eq!(back.metrics.len(), 2);
        assert_eq!(back.metrics[1], ("setup_s".to_string(), 0.25, "s"));
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| {
            s.split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>()
                .into_iter()
        };
        assert!(parse(argv("--workload serve --seed 3 --seconds 10 --trace 0")).is_ok());
        assert!(parse(argv("--workload bogus --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse(argv("--workload serve --seconds 10 --trace 0")).is_err());
        assert!(parse(argv("--workload serve --seed 3 --seconds -1 --trace 0")).is_err());
        assert!(parse(argv("--workload serve --seed 3 --seconds 10 --trace 2")).is_err());
    }
}
