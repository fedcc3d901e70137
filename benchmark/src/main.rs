//! `sc-benchmark run --workload <name> [--seed <n>] [--seconds <s>]
//! [--trace [0|1]]`, `sc-benchmark all [...]`, `sc-benchmark list`.
//!
//! `run` prints every metric by name with its unit, the self-checks,
//! and — as the last line of standard output — the result object
//! `BENCHMARK.json`'s contract asks for. It exits 0 only when every
//! response was verified and every self-check held.

use sc_benchmark::run::{self, Outcome, Plan};
use sc_benchmark::workload::{self, Workload, DEFAULT_SEED, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str = "usage: sc-benchmark run --workload <name> [--seed <n>] [--seconds <s>] [--trace [0|1]]
       sc-benchmark all [--seed <n>] [--seconds <s>] [--trace [0|1]]
       sc-benchmark list";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: sc_benchmark::DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => parsed.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            // `--trace 0|1` as the driver passes it; a bare `--trace` means 1.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn report(workload: &Workload, args: &Args, outcome: &Outcome) {
    println!(
        "# {} seed {} seconds {} {} (drivers {}, shards {}, cores {}, lanes {})",
        workload.name,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "timed" },
        workload::DRIVERS,
        workload::SHARDS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        sc_benchmark::affinity::lanes().map_or("unpinned".to_string(), |l| format!("cpu{}+cpu{}", l[0], l[1])),
    );
    for m in &outcome.metrics {
        println!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for c in &outcome.checks {
        println!("check {} {}", if c.passed { "ok  " } else { "FAIL" }, c.what);
    }
    for n in &outcome.notes {
        println!("note  {n}");
    }
    println!("{}", sc_benchmark::result_line(outcome));
}

fn run_one(workload: &Workload, args: &Args) -> bool {
    let plan = Plan::for_seconds(args.seconds, args.trace);
    match run::run(workload, args.seed, &plan) {
        Ok(outcome) => {
            report(workload, args, &outcome);
            outcome.correct()
        }
        Err(e) => {
            eprintln!("sc-benchmark: {}: {e}", workload.name);
            false
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let args = match parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sc-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match command.as_str() {
        "list" => {
            for w in &WORKLOADS {
                println!("{}", w.name);
            }
            true
        }
        "run" => {
            let Some(w) = args.workload.as_deref().and_then(workload::find) else {
                eprintln!("sc-benchmark: run needs --workload, one of: {}", names());
                return ExitCode::from(2);
            };
            run_one(w, &args)
        }
        // Every workload runs even if an earlier one failed.
        "all" => {
            let results: Vec<bool> = WORKLOADS.iter().map(|w| run_one(w, &args)).collect();
            results.iter().all(|ok| *ok)
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn names() -> String {
    WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
}
