//! The end-to-end driver: runs workloads untraced, checks every output
//! against the generator's expected answer, prints every metric by name
//! with its unit, and exits non-zero on a failed operation or self-check.
//!
//! `benchmark/run.sh` builds `spex` and this binary and passes `--spex` and
//! `--out`; everything else is the user's (or the runner's) command line.

use spex_benchmark::report::{
    check_tables, check_values, manifest, print_metric, result_line, Reported, RUN_SECONDS,
};
use spex_benchmark::workload::{self, diagnostics, end_to_end, Env, Plan, Workload, END_TO_END};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                        [--quick] [--no-trace] [--aa] [--print-manifest]
  no --workload   run all four workloads untraced, then the traced pass
  --workload W    run one workload and end with the one-line JSON result
  --seed N        seed of the input generators (default 1)
  --seconds S     seconds one run measures (default: run_seconds of BENCHMARK.json)
  --trace 1       the per-layer traced pass instead of the end-to-end run
  --clients N     client connections of the serve-stream bulk phase (default 2;
                  the traced pass compares against a 1-client run)
  --quick         a tenth of every duration and count; output is not comparable
  --no-trace      skip the traced pass of a full run
  --aa            run the untraced benchmark as two sets on the same code, for
                  seeds 1 and 2, and compare them against the bounds
  --print-manifest  print BENCHMARK.json as the benchmark's tables define it
";

struct Args {
    spex: PathBuf,
    out_dir: PathBuf,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    clients: usize,
    quick: bool,
    aa: bool,
    print_manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        spex: PathBuf::new(),
        out_dir: PathBuf::from("benchmark/out"),
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        clients: 2,
        quick: false,
        aa: false,
        print_manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--spex" => args.spex = PathBuf::from(value()?),
            "--out" => args.out_dir = PathBuf::from(value()?),
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                if value()? != "0" {
                    return Err("the e2e binary runs untraced; run.sh routes --trace 1".to_string());
                }
            }
            "--clients" => {
                args.clients = value()?.parse().map_err(|e| format!("--clients: {e}"))?;
                if !(1..=2).contains(&args.clients) {
                    return Err("--clients must be 1 or 2".to_string());
                }
            }
            "--quick" => args.quick = true,
            "--aa" => args.aa = true,
            "--print-manifest" => args.print_manifest = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if !args.print_manifest && args.spex.as_os_str().is_empty() {
        return Err("--spex PATH is required (benchmark/run.sh passes it)".to_string());
    }
    Ok(args)
}

/// One run of one workload, reduced and checked.
struct Measured {
    metrics: Vec<Reported>,
    /// Measured and printed, but without a bound and not in the result line.
    diagnostics: Vec<Reported>,
    ops: u64,
    failed: u64,
    problems: Vec<String>,
}

fn measure(workload: Workload, seed: u64, plan: Plan, env: &Env) -> std::io::Result<Measured> {
    let outcome = workload::run(workload, seed, plan, env)?;
    let mut problems = outcome.failures.clone();
    let mut metrics = Vec::new();
    for measured in end_to_end(&outcome) {
        match measured {
            Ok(metric) => metrics.push(metric),
            Err(name) => problems.push(format!("no sample for `{name}`")),
        }
    }
    let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    problems.extend(check_values(&declared, &metrics, true));
    Ok(Measured {
        metrics,
        diagnostics: diagnostics(&outcome).to_vec(),
        ops: outcome.ops,
        failed: outcome.failed,
        problems,
    })
}

fn print_run(workload: Workload, run: &Measured) {
    for (def, metric) in END_TO_END.iter().zip(&run.metrics) {
        print_metric(workload, metric, Some(def.bound));
    }
    for metric in &run.diagnostics {
        print_metric(workload, metric, None);
        // Above 1 ms the open-loop generator did not hold its schedule, and
        // lag timed from the due time measures the benchmark, not the program.
        if metric.name == "gen.late_p99_ms" && metric.value > 1.0 {
            println!(
                "{:<13} result_lag_* unresolved: the generator ran late",
                workload.name()
            );
        }
    }
    println!(
        "{:<13} ops {}  ops_failed {}",
        workload.name(),
        run.ops,
        run.failed
    );
    for problem in &run.problems {
        println!("{:<13} PROBLEM: {problem}", workload.name());
    }
}

/// The A/A check: two sets of runs of the same code on the same seed,
/// workloads interleaved so that neither set always goes first. Prints, per
/// metric × workload, how much worse B reads than A against the bound.
fn run_aa(plan: Plan, env: &Env) -> std::io::Result<bool> {
    let mut ok = true;
    for seed in [1, 2] {
        for (i, workload) in Workload::ALL.into_iter().enumerate() {
            let first = measure(workload, seed, plan, env)?;
            let second = measure(workload, seed, plan, env)?;
            let (a, b) = if i % 2 == 0 {
                (first, second)
            } else {
                (second, first)
            };
            ok &= a.failed == 0 && b.failed == 0 && a.problems.is_empty() && b.problems.is_empty();
            for (def, (ma, mb)) in END_TO_END.iter().zip(a.metrics.iter().zip(&b.metrics)) {
                let worse = if def.better == "lower" {
                    (mb.value - ma.value) / ma.value
                } else {
                    (ma.value - mb.value) / ma.value
                };
                let within = worse.abs() <= def.bound;
                ok &= within;
                println!(
                    "seed {seed} {:<13} {:<20} A {:>12.4} B {:>12.4} {:<6} diff {:>+7.2}% bound {:>3.0}% {}",
                    workload.name(),
                    def.name,
                    ma.value,
                    mb.value,
                    def.unit,
                    worse * 100.0,
                    def.bound * 100.0,
                    if within { "ok" } else { "EXCEEDED" }
                );
            }
            println!(
                "seed {seed} {:<13} ops_failed A {} B {}",
                workload.name(),
                a.failed,
                b.failed
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_manifest {
        print!("{}", manifest());
        return ExitCode::SUCCESS;
    }
    let on_disk = std::fs::read_to_string("BENCHMARK.json").ok();
    let table_problems = check_tables(on_disk.as_deref());
    for problem in &table_problems {
        println!("SELF-CHECK: {problem}");
    }
    let env = Env {
        spex: args.spex,
        out_dir: args.out_dir,
    };
    let mut plan = Plan::from_seconds(args.seconds);
    plan.clients = args.clients;
    if args.quick {
        plan = plan.quick();
        println!("QUICK RUN: a tenth of every duration; these numbers are not comparable");
    }

    let outcome = (|| -> std::io::Result<bool> {
        if args.aa {
            return run_aa(plan, &env);
        }
        let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
        let mut ok = true;
        for workload in workloads {
            let run = measure(workload, args.seed, plan, &env)?;
            print_run(workload, &run);
            let correct = run.failed == 0 && run.problems.is_empty() && table_problems.is_empty();
            ok &= correct;
            if args.workload.is_some() {
                println!(
                    "{}",
                    result_line(correct, run.ops.max(1), run.failed, &run.metrics)
                );
            }
        }
        Ok(ok)
    })();
    match outcome {
        Ok(true) if table_problems.is_empty() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
