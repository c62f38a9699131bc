//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the simulated-output digest, one `name value unit` line per
//! metric, and as its last line the JSON result object. Progress, failed
//! checks and the traced run's per-slice spans go to stderr.

use std::process::ExitCode;

use perfbench::{Options, Workload};

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        episode: workload.episode(),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // A panic inside the simulator exits non-zero without a result line,
    // which counts the whole run as failed.
    let report = perfbench::run(&opts);
    if !report.slices.is_empty() {
        eprintln!("slice,step_ns,httpsim_calls,httpsim_ns,workload_calls,workload_ns");
        for (i, s) in report.slices.iter().enumerate() {
            eprintln!(
                "{},{},{},{},{},{}",
                i + 1,
                s.step_ns,
                s.httpsim.0,
                s.httpsim.1,
                s.workload.0,
                s.workload.1
            );
        }
    }
    for e in &report.errors {
        eprintln!("check failed: {e}");
    }
    println!("sim_digest {:016x}", report.digest);
    for m in &report.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
