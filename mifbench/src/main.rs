//! `mifbench`: the repository's one repeatable benchmark.
//!
//! Four workloads, two clocks (simulated and wall), end-to-end metrics from
//! untraced runs and per-layer metrics from traced ones, all measured from
//! outside the program through its public functions. README.md in this
//! directory is the manual; `report.rs` is the list of names.

mod direct;
mod eng;
mod engine;
mod host;
mod layers;
mod leaf;
mod mds;
mod plan;
mod report;
mod span;
mod stats;
mod svc;
mod svc_run;
mod verify;

use std::path::PathBuf;
use std::process::ExitCode;

use plan::SvcKind;
use report::{Outcome, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

const USAGE: &str = "usage: mifbench [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
       mifbench --selfcheck [--seed N] [--seconds N]
       mifbench --print-benchmark-json
Without --workload every workload runs, first untraced, then traced.";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    selfcheck: bool,
    print_benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: None,
        selfcheck: false,
        print_benchmark_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.iter().any(|k| k.name == w) {
                    return Err(format!("unknown workload {w}"));
                }
                a.workload = Some(w);
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 60")?;
            }
            "--trace" => {
                a.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--selfcheck" => a.selfcheck = true,
            "--print-benchmark-json" => a.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Where traces go: beside the build, which `.gitignore` already covers.
fn trace_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("mifbench")
}

/// The commit of the checkout, read without starting a process; the
/// driver's checkouts are not git repositories.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("{r} (packed)")),
        None if head.is_empty() => "unknown (not a git checkout)".to_string(),
        None => head.to_string(),
    }
}

fn run_one(workload: &str, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let dir = trace_dir();
    match (workload, trace) {
        ("svc_ckpt_write", false) => svc_run::run(SvcKind::CkptWrite, seed, seconds),
        ("svc_ckpt_write", true) => svc_run::run_traced(SvcKind::CkptWrite, seed, seconds, &dir),
        ("svc_restart_mixed", false) => svc_run::run(SvcKind::RestartMixed, seed, seconds),
        ("svc_restart_mixed", true) => {
            svc_run::run_traced(SvcKind::RestartMixed, seed, seconds, &dir)
        }
        ("eng_shared_file", false) => eng::run(seed, seconds),
        ("eng_shared_file", true) => eng::run_traced(seed, seconds, &dir),
        ("mds_metarates", false) => mds::run(seed, seconds),
        ("mds_metarates", true) => mds::run_traced(seed, seconds, &dir),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

fn print_header(seed: u64, seconds: u64) {
    println!(
        "mifbench: seed {seed}, {seconds} s per timed section, nproc {}, commit {}",
        host::nproc(),
        git_commit()
    );
    println!(
        "system under test: PolicyKind::OnDemand + DirMode::Embedded; no tier, defrag, scrub or fsck work in the background"
    );
}

fn print_outcome(o: &Outcome, trace: bool) {
    println!(
        "\n== {} ({}) ==",
        o.workload,
        if trace {
            "traced: per-layer metrics"
        } else {
            "untraced: end-to-end metrics"
        }
    );
    for n in &o.notes {
        println!("  {n}");
    }
    println!(
        "  attempted {} failed {} failed_frac {}",
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64
    );
    if trace {
        for m in &PER_LAYER {
            println!("  {:<36} {:>18.3} {}", m.name, o.metrics[m.name], m.unit);
        }
    } else {
        for m in &END_TO_END {
            match o.metrics.get(m.name) {
                Some(v) => println!(
                    "  {:<18} {:>16.4} {:<6} clock {:<5} better {:<6} bound {}",
                    m.name,
                    v,
                    m.unit,
                    m.clock.word(),
                    m.better.word(),
                    m.bound
                ),
                None => println!("  {:<18} not measured", m.name),
            }
        }
    }
    for c in &o.checks {
        println!(
            "  check {:<40} {} ({})",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
}

fn result_line(o: &Outcome, trace: bool) -> String {
    if trace {
        report::result_json(o, PER_LAYER.iter().map(|m| (m.name, m.unit)))
    } else {
        report::result_json(o, END_TO_END.iter().map(|m| (m.name, m.unit)))
    }
}

/// One run in a process of its own, as the driver does it: memory peaks
/// and what the allocator keeps are per process, so runs that share one
/// would not be comparable. Prints what the child printed, and returns the
/// child's result line if it ended well.
fn run_in_child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Option<String> {
    let exe = std::env::current_exe().expect("the path of this program");
    let child = std::process::Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("starting a run in a process of its own");
    let text = String::from_utf8_lossy(&child.stdout);
    // The child repeats the header; its result line is for machines.
    let (report, result) = text.trim_end().rsplit_once('\n').unwrap_or(("", &text));
    for line in report.lines().skip(2) {
        println!("{line}");
    }
    (child.status.success() && result.starts_with("{\"correct\": true")).then(|| result.to_string())
}

/// The value of `name` in a result line this program printed.
fn metric_in(result: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    result
        .split_once(&key)
        .and_then(|(_, rest)| rest.split_once(','))
        .and_then(|(value, _)| value.parse().ok())
        .unwrap_or_else(|| panic!("no {name} in the result line"))
}

/// Run everything twice with one seed and once with another, and compare
/// each end-to-end metric with its bound.
fn selfcheck(seed: u64, seconds: u64) -> bool {
    let other_seed = seed.wrapping_mul(0x9E37_79B9).wrapping_add(7);
    let mut agree = true;
    for w in &WORKLOADS {
        let runs: Vec<String> = [seed, seed, other_seed]
            .iter()
            .filter_map(|&s| run_in_child(w.name, s, seconds, false))
            .collect();
        if runs.len() < 3 {
            agree = false;
            continue;
        }
        println!(
            "\n-- selfcheck {}: seed {seed} twice, then seed {other_seed} --",
            w.name
        );
        for m in &END_TO_END {
            let v: Vec<f64> = runs.iter().map(|r| metric_in(r, m.name)).collect();
            let same_seed = (v[1] - v[0]).abs() / v[0].abs();
            let other = (v[2] - v[0]).abs() / v[0].abs();
            let word = |spread: f64| {
                if spread <= m.bound {
                    "unchanged"
                } else {
                    "unresolved"
                }
            };
            // Set-up time is bounded for a change of its median, not for
            // the spread of single runs.
            let disagree = same_seed > m.bound && m.name != "setup_s";
            agree &= !disagree;
            println!(
                "  {:<18} {:>14.4} {:>14.4} {:>14.4} {:<6} same-seed spread {:>8.4} ({}), other-seed spread {:>8.4} ({}), bound {}{}",
                m.name, v[0], v[1], v[2], m.unit,
                same_seed, word(same_seed), other, word(other), m.bound,
                if disagree { "  DISAGREE" } else { "" }
            );
        }
    }
    agree
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mifbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", report::benchmark_json());
        return ExitCode::SUCCESS;
    }
    print_header(args.seed, args.seconds);
    let correct = match &args.workload {
        _ if args.selfcheck => selfcheck(args.seed, args.seconds),
        // What the driver runs: one workload, one mode, the result last.
        Some(w) => {
            let trace = args.trace.unwrap_or(false);
            let o = run_one(w, args.seed, args.seconds, trace);
            print_outcome(&o, trace);
            println!("{}", result_line(&o, trace));
            o.correct()
        }
        // Every workload, untraced then traced (or only the mode asked
        // for), each run in a process of its own.
        None => [false, true]
            .into_iter()
            .filter(|&trace| args.trace.is_none_or(|t| t == trace))
            .flat_map(|trace| WORKLOADS.iter().map(move |w| (w.name, trace)))
            .fold(true, |ok, (w, trace)| {
                run_in_child(w, args.seed, args.seconds, trace).is_some() && ok
            }),
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("mifbench: a check failed; the results above are not valid");
        ExitCode::FAILURE
    }
}
