//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]`
//!
//! Prints the run's context, output checks and metrics, and as its last
//! line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. A traced run also writes its spans to
//! `<out>/<workload>-seed<n>-spans.csv` (default out: `.bench_out`). Exits
//! non-zero when an output check fails.

use std::path::PathBuf;
use std::process::ExitCode;

use headroom_perfbench::{run, Length, Options, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]",
        Workload::ALL.map(|w| w.name()).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".bench_out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--out" => out = PathBuf::from(value),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };

    let report = run(&Options { workload, seed, seconds, trace, length: Length::Full });
    print!("{}", report.text);
    for m in &report.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    if trace {
        let path = out.join(format!("{}-seed{seed}-spans.csv", workload.name()));
        match std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&path, &report.spans_csv))
        {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
