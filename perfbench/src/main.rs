//! perfbench — the repository benchmark (see NOTES.md).
//!
//! ```text
//! perfbench --workload <sweep-cold|sim-inputs|serve-disk> --seed N
//!           --seconds S --trace 0|1 --probe-ref-ms R
//! ```
//!
//! Runs one workload in this process, closed-loop with one client, and
//! prints its metrics; the last line of standard output is the result
//! object. Scratch stores and span dumps go to `.bench_out/` under the
//! working directory. `perfbench/run.py` builds this binary and runs it
//! from the repository root.

mod oracle;
mod probe;
mod report;
mod run;
mod schedule;
mod serve_disk;
mod sim_inputs;
mod stats;
mod sweep_cold;
mod trace;

use run::{Opts, Run};
use std::process::ExitCode;
use std::time::Instant;

fn parse_args(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut probe_ref_ms) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--probe-ref-ms" => {
                probe_ref_ms = Some(value()?.parse().map_err(|_| "bad --probe-ref-ms")?)
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    let probe_ref_ms: f64 = probe_ref_ms.ok_or("--probe-ref-ms is required")?;
    if !(seconds > 0.0 && probe_ref_ms > 0.0) {
        return Err("--seconds and --probe-ref-ms must be positive".into());
    }
    Ok((
        workload.ok_or("--workload is required")?,
        Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            probe_ref_ns: probe_ref_ms * 1e6,
        },
    ))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(run::OUT_DIR) {
        eprintln!("perfbench: cannot create {}: {e}", run::OUT_DIR);
        return ExitCode::FAILURE;
    }
    let trace = opts.trace;
    let mut run = Run::new(opts, started);
    let result = match workload.as_str() {
        sweep_cold::NAME => sweep_cold::run(&mut run),
        sim_inputs::NAME => sim_inputs::run(&mut run),
        serve_disk::NAME => serve_disk::run(&mut run),
        other => Err(format!("unknown workload `{other}`")),
    };
    match result {
        Ok(report) => {
            report.print(trace);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
