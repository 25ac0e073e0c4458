//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, the run record, and as its last line the
//! result object (`correct`, `attempted`, `failed`, `metrics`). Exits
//! nonzero when an answer check fails. `--manifest` prints `BENCHMARK.json`;
//! `--build-reference` recomputes `reference.tsv`.

use std::path::Path;
use std::process::ExitCode;

use perfbench::metrics::{manifest, RUN_SECONDS};
use perfbench::reference::{self, Reference};
use perfbench::run::{run, RunArgs, NUM_THREADS, WORKLOADS};

/// Where run records and spans go, relative to the checkout root.
const OUT_DIR: &str = "perfbench/out";

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>]\n       perfbench --manifest | --build-reference",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = RUN_SECONDS as f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .copied()
                        .find(|w| w.name == name)
                        .ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn write_out(name: &str, body: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(name);
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--manifest") {
        print!("{}", manifest());
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("--build-reference") {
        return match reference::build(NUM_THREADS) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let run_args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let reference = match Reference::committed() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match run(&run_args, Some(&reference)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stem = format!(
        "{}-seed{}-trace{}",
        run_args.workload.name,
        run_args.seed,
        u8::from(run_args.trace)
    );
    let mut written = write_out(&format!("{stem}.record.json"), &outcome.record);
    if let Some(spans) = &outcome.spans {
        written = written.and(write_out(&format!("{stem}.spans.jsonl"), spans));
    }
    if let Err(e) = written {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    for line in &outcome.report {
        println!("{line}");
    }
    println!("run-record {}", outcome.record);
    if !outcome.correct {
        eprintln!("perfbench: an answer check failed; see the failures above");
        return ExitCode::FAILURE;
    }
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
