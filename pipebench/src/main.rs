//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path pipebench/Cargo.toml -- \
//!     --workload testbed18 --seed 1 --seconds 50 --trace 0
//! ```
//!
//! Prints human-readable lines, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 0 once that line is
//! printed (the verdict of the correctness checks is its `correct` field),
//! 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use pipebench::bench::{end_to_end, per_layer, Options};
use pipebench::workload::Workload;

const USAGE: &str = "usage: pipebench --workload <testbed18|grid1000|churn300_journal> \
                     --seed <u64> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {value}: must be a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Run files stay inside the working directory (the checkout) and are
    // removed on the way out; the spans of a traced run are kept.
    let out = PathBuf::from(".pipebench");
    let scratch = out.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("pipebench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let name = args.workload.name();
    let opts = Options {
        spec: args.workload.spec(),
        seed: args.seed,
        seconds: args.seconds,
        spans_out: out.join(format!("spans-{name}-{}.jsonl", args.seed)),
        scratch: scratch.clone(),
    };
    println!(
        "pipebench: workload {name}, seed {}, {} s, trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let report = if args.trace {
        per_layer(&opts)
    } else {
        end_to_end(&opts)
    };
    let _ = std::fs::remove_dir_all(&scratch);

    for line in &report.lines {
        println!("  {line}");
    }
    for (def, value) in &report.values {
        println!("  {:<34} {value:>16.6} {}", def.name, def.unit);
    }
    for f in &report.failures {
        println!("  FAILED: {f}");
    }
    println!(
        "correctness: {}",
        if report.correct { "passed" } else { "FAILED" }
    );
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
