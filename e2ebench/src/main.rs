//! `qsim-e2ebench --workload <qv14|yorktown|vqa_cache> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints a histogram digest line and, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and the
//! metrics. Progress and notes go to standard error.

use std::process::ExitCode;

use qsim_e2ebench::bench::{run, Options};
use qsim_e2ebench::report::json_line;
use qsim_e2ebench::workload::Workload;

const USAGE: &str =
    "usage: qsim-e2ebench --workload <qv14|yorktown|vqa_cache> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = Workload::from_name(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = value("--seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_owned());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Options::full(workload, seed, seconds, trace))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("qsim-e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("qsim-e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in outcome.notes.iter().chain(&outcome.tally.notes) {
        eprintln!("note: {note}");
    }
    eprintln!("{} passes", outcome.passes);
    let line = match json_line(&outcome.tally, &outcome.metrics) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("qsim-e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("digest {} seed {} {:016x}", opts.workload.name(), opts.seed, outcome.digest);
    println!("{line}");
    ExitCode::SUCCESS
}
