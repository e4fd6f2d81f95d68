//! `e2e`: the repo's one benchmark. One process hosts `svc::Server` on
//! `127.0.0.1:0` and the load generator; `svc::Client` drives four named
//! workloads over real TCP through client → wire → reactor → pool → denova →
//! nova → pmem. See README.md in this directory.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, result JSON on the last line
//! e2e report    [--seed n] [--seconds s] [--workload name] [--trace 0|1]   every workload, each in a child process
//! e2e selfcheck [--seed n] [--seconds s] [--workload name]       the end-to-end set twice; fails outside the bounds
//! e2e spread    [--runs n] [--seconds s] [--workload name]       n runs on seeds 1..=n; run-to-run spread beside each bound
//! e2e list      [--benchmark-json]                               every workload and metric name
//! ```

mod catalog;
mod gen;
mod platform;
mod procfs;
mod run;
mod stats;
mod trace;

use catalog::{Better, END_TO_END, PER_LAYER, RUN_SECONDS, UNAVAILABLE};
use run::Outcome;
use std::process::ExitCode;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    benchmark_json: bool,
    runs: u64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        benchmark_json: false,
        runs: 10,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if gen::spec(name).is_none() {
                    return Err(format!("unknown workload {name}; try `e2e list`"));
                }
                out.workload = Some(name.clone());
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--benchmark-json" => out.benchmark_json = true,
            "--runs" => {
                out.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if out.runs < 2 {
                    return Err("--runs must be at least 2".into());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

/// The commit under test, when the checkout is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match hash.trim() {
        "" => "unknown (not a git checkout)".into(),
        h => h.chars().take(12).collect(),
    }
}

/// The lines every report starts with.
fn header(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    format!(
        "e2e {} run: workload {workload}, seed {seed}, --seconds {seconds}\n\
         commit {}, nproc {}\n\
         platform model: {}\n",
        if trace { "traced" } else { "end-to-end" },
        commit(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        platform::PLATFORM_MODEL,
    )
}

/// The catalogue's metrics for the mode, in order, with what the run
/// measured; a metric the run could not produce reads as unavailable.
fn catalogue_values(out: &Outcome, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
    let names: Vec<(&'static str, &'static str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    names
        .into_iter()
        .map(|(name, unit)| {
            let v = out.metrics.get(name).copied().unwrap_or(f64::NAN);
            (name, unit, if v.is_finite() { v } else { UNAVAILABLE })
        })
        .collect()
}

fn print_outcome(out: &Outcome, trace: bool) {
    for (name, unit, value) in catalogue_values(out, trace) {
        if value == UNAVAILABLE {
            println!("  {name:<36} {:>14}", "unavailable");
        } else {
            println!("  {name:<36} {value:>14.4} {unit}");
        }
    }
    for n in &out.notes {
        println!("  note: {n}");
    }
    for w in &out.warnings {
        println!("  warning: {w}");
    }
    for p in &out.problems {
        println!("  FAILED: {p}");
    }
    let undeclared: Vec<_> = out
        .metrics
        .keys()
        .filter(|k| {
            !END_TO_END.iter().any(|m| m.name == **k) && !PER_LAYER.iter().any(|m| m.name == **k)
        })
        .collect();
    assert!(
        undeclared.is_empty(),
        "metrics missing from the catalogue: {undeclared:?}"
    );
    println!("  error_rate {} / {} attempted", out.failed, out.attempted);
}

/// One run in this process; the driver's entry point.
fn run_once(args: &Args) -> ExitCode {
    let Some(name) = &args.workload else {
        eprintln!("--workload is required; try `e2e list`");
        return ExitCode::from(2);
    };
    let spec = gen::spec(name).expect("validated by parse_args");
    denova_pmem::calibrate_spin();
    print!("{}", header(name, args.seed, args.seconds, args.trace));
    let out = if args.trace {
        trace::run_trace(spec, args.seed, args.seconds)
    } else {
        run::run_e2e(spec, args.seed, args.seconds)
    };
    print_outcome(&out, args.trace);
    if let Some(rss) = procfs::peak_rss_mib() {
        println!("  peak RSS {rss:.0} MiB");
    }
    println!(
        "{}",
        catalog::result_json(
            out.correct(),
            out.attempted.max(1),
            out.failed,
            &catalogue_values(&out, args.trace)
        )
    );
    exit_code(out.correct())
}

/// What a child run reported on its last line.
struct ChildResult {
    correct: bool,
    metrics: Vec<(String, f64)>,
}

impl ChildResult {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|p| p.1)
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Parse a result line produced by [`catalog::result_json`]. This reads the
/// benchmark's own fixed format, not JSON in general.
fn parse_result_line(line: &str) -> Option<ChildResult> {
    let correct = line.contains("\"correct\": true");
    let body = line.split_once("\"metrics\": {")?.1;
    let mut metrics = Vec::new();
    for part in body.split("\"unit\":") {
        // Each part ends with `"<name>": {"value": <number>, `.
        let Some((head, value)) = part.rsplit_once("{\"value\": ") else {
            continue;
        };
        let name = head.trim_end().trim_end_matches(':').rsplit('"').nth(1)?;
        let value = value.trim().trim_end_matches(',').parse().ok()?;
        metrics.push((name.to_string(), value));
    }
    Some(ChildResult { correct, metrics })
}

/// Run one workload in a re-exec'd child, so thread names, peak RSS and the
/// spin calibration do not leak between workloads. The child's report is
/// passed through; its result line is returned.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    echo: bool,
) -> Option<ChildResult> {
    let exe = std::env::current_exe().ok()?;
    let output = std::process::Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&output.stdout);
    let (report, last) = text.trim_end().rsplit_once('\n')?;
    if echo {
        println!("{report}\n");
    }
    let result = parse_result_line(last)?;
    (output.status.success() == result.correct).then_some(result)
}

fn workloads(args: &Args) -> Vec<&'static str> {
    gen::SPECS
        .iter()
        .map(|s| s.name)
        .filter(|n| args.workload.as_deref().is_none_or(|w| w == *n))
        .collect()
}

fn report(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in workloads(args) {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            match run_child(w, args.seed, args.seconds, trace, true) {
                Some(r) if r.correct => {}
                _ => {
                    println!("{w}: run failed (trace {})", trace as u8);
                    ok = false;
                }
            }
        }
    }
    exit_code(ok)
}

/// A/A: the end-to-end set twice on the same build. Every metric x workload
/// pair must agree within its bound, in both directions.
fn selfcheck(args: &Args) -> ExitCode {
    println!(
        "A/A self-check, seed {}, --seconds {}: two runs of the same build\n\
         {:<10} {:<22} {:>12} {:>12} {:>9} {:>7}",
        args.seed, args.seconds, "workload", "metric", "run A", "run B", "diff", "bound"
    );
    let mut ok = true;
    for w in workloads(args) {
        let a = run_child(w, args.seed, args.seconds, false, false);
        let b = run_child(w, args.seed, args.seconds, false, false);
        let (Some(a), Some(b)) = (a, b) else {
            println!("{w}: a run failed");
            ok = false;
            continue;
        };
        ok &= a.correct && b.correct;
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (a.metric(m.name), b.metric(m.name)) else {
                println!("{w:<10} {:<22} missing", m.name);
                ok = false;
                continue;
            };
            let higher = m.better == Better::Higher;
            let diff = stats::worsening(va, vb, higher).max(stats::worsening(vb, va, higher));
            let verdict = if diff <= m.bound { "" } else { "  OUTSIDE" };
            ok &= diff <= m.bound;
            println!(
                "{w:<10} {:<22} {va:>12.4} {vb:>12.4} {:>8.2}% {:>6.0}%{verdict}",
                m.name,
                diff * 100.0,
                m.bound * 100.0
            );
        }
    }
    println!("self-check {}", if ok { "passed" } else { "FAILED" });
    exit_code(ok)
}

/// What the driver does before it accepts the benchmark: `--runs` runs per
/// workload, each on another seed, and for every end-to-end metric the
/// distance between the first and third quartile as a share of the median.
/// A spread over its bound fails; over a third of it is flagged.
fn spread(args: &Args) -> ExitCode {
    println!(
        "run-to-run spread over seeds 1..={}, --seconds {}\n\
         {:<10} {:<22} {:>12} {:>12} {:>12} {:>8} {:>7}",
        args.runs, args.seconds, "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    let mut ok = true;
    for w in workloads(args) {
        let runs: Vec<ChildResult> = (1..=args.runs)
            .filter_map(|seed| run_child(w, seed, args.seconds, false, false))
            .collect();
        if runs.len() as u64 != args.runs || runs.iter().any(|r| !r.correct) {
            println!("{w}: {} of {} runs were correct", runs.len(), args.runs);
            ok = false;
        }
        if runs.len() < 2 {
            continue;
        }
        for m in END_TO_END {
            let values: Vec<f64> = runs.iter().filter_map(|r| r.metric(m.name)).collect();
            let [q1, q2, q3] = stats::quartiles(&values);
            let spread = stats::spread(&values);
            // The driver does not hold setup_s to its spread, only to its median.
            let verdict = match spread {
                s if s > m.bound && m.name != "setup_s" => {
                    ok = false;
                    "  OVER THE BOUND"
                }
                s if s > m.bound / 3.0 => "  over a third of the bound",
                _ => "",
            };
            println!(
                "{w:<10} {:<22} {q1:>12.4} {q2:>12.4} {q3:>12.4} {:>7.2}% {:>6.0}%{verdict}",
                m.name,
                spread * 100.0,
                m.bound * 100.0
            );
        }
    }
    exit_code(ok)
}

fn list(args: &Args) -> ExitCode {
    if args.benchmark_json {
        print!("{}", catalog::benchmark_json());
        return ExitCode::SUCCESS;
    }
    println!("workloads:");
    for s in &gen::SPECS {
        println!("  {:<10} {}", s.name, s.why);
    }
    println!("\nend-to-end metrics (--trace 0), on every workload:");
    for m in END_TO_END {
        println!(
            "  {:<22} {:<6} {:<6} better, bound {:>3.0} %  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    println!("\nper-layer metrics (--trace 1), on every workload:");
    for m in PER_LAYER {
        println!(
            "  {:<36} {:<6} {:<6} better  [{}] {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.layer,
            m.what
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("report" | "selfcheck" | "spread" | "list")) => (c, &argv[1..]),
        _ => ("run", &argv[..]),
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    match command {
        "report" => report(&args),
        "selfcheck" => selfcheck(&args),
        "spread" => spread(&args),
        "list" => list(&args),
        _ => run_once(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome_with(names: impl Iterator<Item = &'static str>) -> Outcome {
        let mut out = Outcome::default();
        for (i, n) in names.enumerate() {
            out.metrics.insert(n, i as f64 + 0.5);
        }
        out
    }

    /// JSON output <-> BENCHMARK.json name parity, emitted side: a report
    /// carries every declared metric of its mode, nothing else, on every
    /// workload; a metric the run could not measure degrades to the
    /// unavailable marker instead of disappearing.
    #[test]
    fn reports_carry_exactly_the_catalogue() {
        let full = outcome_with(END_TO_END.iter().map(|m| m.name));
        let line = catalog::result_json(true, 1, 0, &catalogue_values(&full, false));
        let parsed = parse_result_line(&line).expect("own format parses");
        assert!(parsed.correct);
        let names: Vec<&str> = parsed.metrics.iter().map(|(n, _)| n.as_str()).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, declared);
        assert_eq!(parsed.metrics[3].1, 3.5);

        let partial = outcome_with(PER_LAYER.iter().map(|m| m.name).skip(1));
        let values = catalogue_values(&partial, true);
        assert_eq!(values.len(), PER_LAYER.len());
        assert_eq!(values[0].2, UNAVAILABLE);
        assert!(values[1..].iter().all(|v| v.2 != UNAVAILABLE));
    }

    #[test]
    fn arguments_parse_in_the_drivers_order() {
        let argv: Vec<String> = "--workload put4k --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(a.workload.as_deref(), Some("put4k"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--seconds".into(), "0".into()]).is_err());
    }
}
