//! The repository's benchmark: one workload per process, end to end with
//! tracing off, or a traced run that splits the time across layers.
//!
//! ```text
//! perfbench --workload census|serve_mixed|serve_churn --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root; see WORKLOADS.md. The last line of
//! standard output is the JSON result; every line before it names one
//! metric with its unit and sample count.

mod census;
mod churn;
mod floor;
mod inputs;
mod mixed;
mod report;
mod rng;
mod serve;
mod stats;
mod trace;

use std::path::Path;
use std::time::Instant;

use report::Report;
use trace::Tracer;

/// Parsed command line.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload census|serve_mixed|serve_churn --seed N --seconds S --trace 0|1";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range", args.seconds));
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("gen") {
        // Child process: generate one input (see inputs::ensure).
        let seed = argv.get(2).and_then(|s| s.parse().ok());
        match (argv.get(1), seed) {
            (Some(input), Some(seed)) => {
                if let Err(e) = inputs::generate(input, seed) {
                    eprintln!("perfbench gen: {e}");
                    std::process::exit(2);
                }
            }
            _ => {
                eprintln!("usage: perfbench gen <input> <seed>");
                std::process::exit(2);
            }
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut rep = Report::default();
    let mut tr = Tracer::new(args.trace, Instant::now());
    let result = match args.workload.as_str() {
        "census" => census::run(&args, &mut rep, &mut tr),
        "serve_mixed" => mixed::run(&args, &mut rep, &mut tr),
        "serve_churn" => churn::run(&args, &mut rep, &mut tr),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let fingerprint = match result {
        Ok(f) => f,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(2);
        }
    };
    let missing = rep.missing_end_to_end();
    if !missing.is_empty() {
        eprintln!("perfbench: {} set no value for {missing:?}", args.workload);
        std::process::exit(2);
    }
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# fingerprint {fingerprint}");
    rep.info(
        "error_rate",
        rep.failed as f64 / rep.attempted.max(1) as f64,
        "fraction",
        rep.attempted as usize,
        "failed or refused operations / attempted",
    );
    if args.trace {
        let dir = Path::new(inputs::CACHE).join("traces");
        let file = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| tr.write_jsonl(&file)) {
            Ok(()) => println!("# {} spans written to {}", tr.spans().len(), file.display()),
            Err(e) => eprintln!("perfbench: writing spans to {}: {e}", file.display()),
        }
    }
    rep.print(args.trace);
    if !rep.correct() {
        std::process::exit(1);
    }
}
