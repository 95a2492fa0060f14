//! `wsnem-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the root of a repository checkout and prints, as
//! its last line, one JSON object with the run's correctness and metrics.
//! Traced runs also write their spans to `.bench_traces/`.

use std::path::PathBuf;
use std::process::ExitCode;

use wsnem_perfbench::metrics::{self, END_TO_END};
use wsnem_perfbench::workloads::{Sizes, Workload};
use wsnem_perfbench::{run, Config, DEFAULT_SEED};

/// Scratch inputs of each run go to `<WORK_ROOT>/<workload>-<pid>`.
const WORK_ROOT: &str = ".bench_work";

const USAGE: &str = "usage: wsnem-perfbench --workload <fleet_cold|mega_tree|fleet_dist> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds expects a positive number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        work_dir: PathBuf::from(WORK_ROOT).join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
        sizes: Sizes::default(),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = run(&cfg);
    // Left behind only when no other run is using it.
    let _ = std::fs::remove_dir(WORK_ROOT);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {} (seed {}): {e}", cfg.workload.name(), cfg.seed);
            return ExitCode::FAILURE;
        }
    };
    if cfg.trace {
        let path = PathBuf::from(".bench_traces").join(format!(
            "{}-seed{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        ));
        if let Err(e) = outcome.tracer.write_jsonl(&path) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("spans written to {}", path.display());
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    let catalogue: Vec<(String, &str)> = if cfg.trace {
        metrics::per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    for (name, unit) in &catalogue {
        println!(
            "{name} {} {unit}",
            outcome.values.get(name).copied().unwrap_or(0.0)
        );
    }
    println!(
        "{}",
        metrics::result_line(
            &catalogue,
            &outcome.values,
            outcome.attempted,
            outcome.failed
        )
    );
    ExitCode::SUCCESS
}
