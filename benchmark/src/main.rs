//! The repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! htsp-benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! htsp-benchmark --smoke
//! htsp-benchmark compare <a> <b>
//! htsp-benchmark print-spec
//! htsp-benchmark describe
//! ```

mod api;
mod compare;
mod drive;
mod host;
mod inputs;
mod json;
mod layers;
mod oracle;
mod rng;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{RunConfig, Workload};

const USAGE: &str = "usage:
  htsp-benchmark --workload <steady_point|serve_under_updates|open_loop_mixed|build_restart|all>
                 --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
  htsp-benchmark --smoke
  htsp-benchmark compare <a.json|dir> <b.json|dir>
  htsp-benchmark print-spec      (the contents of BENCHMARK.json)
  htsp-benchmark describe        (every metric with its unit and what it times)";

/// Where result files, traces and scratch files go, relative to the
/// directory the benchmark is started in (the repository root).
const DEFAULT_OUT: &str = "benchmark/out";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    preset: inputs::Preset,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        preset: inputs::GRID64,
        out: PathBuf::from(DEFAULT_OUT),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workloads = if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload '{name}'"))?]
                };
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--out" => parsed.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

/// Runs one workload once, prints its report, writes its result file, and
/// prints the contract's line last. Returns whether the run was correct.
fn run_one(workload: Workload, args: &Args) -> Result<bool, String> {
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        preset: args.preset,
        out_dir: args.out.clone(),
        #[cfg(test)]
        flip_a_sample: false,
    };
    let result = run::run(&cfg, args.trace)?;
    result.print_report();
    let file = args.out.join(format!(
        "result-{}-seed{}-trace{}.json",
        result.workload,
        result.seed,
        u8::from(result.traced)
    ));
    std::fs::write(&file, result.to_json().encode_pretty())
        .map_err(|e| format!("{}: {e}", file.display()))?;
    println!("{}", result.contract_line());
    Ok(result.correct)
}

/// All four workloads on `grid32` with `--seconds 3`, oracle on: the quick
/// gate a later change can wire into CI.
fn smoke() -> Result<bool, String> {
    let args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 3.0,
        trace: false,
        preset: inputs::GRID32,
        out: Path::new(DEFAULT_OUT).join("smoke"),
    };
    let mut all_correct = true;
    for &workload in &args.workloads {
        all_correct &= run_one(workload, &args)?;
    }
    println!("smoke: {}", if all_correct { "ok" } else { "FAILED" });
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => {
            compare::compare(Path::new(&args[1]), Path::new(&args[2])).map(|worse| worse == 0)
        }
        Some("print-spec") if args.len() == 1 => {
            print!("{}", spec::benchmark_json().encode_pretty());
            Ok(true)
        }
        Some("describe") if args.len() == 1 => {
            spec::describe();
            Ok(true)
        }
        Some("--smoke") if args.len() == 1 => smoke(),
        Some(_) => parse(&args).and_then(|parsed| {
            let mut all_correct = true;
            for &workload in &parsed.workloads {
                all_correct &= run_one(workload, &parsed)?;
            }
            Ok(all_correct)
        }),
        None => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("htsp-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
