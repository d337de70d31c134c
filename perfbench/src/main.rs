//! `perfbench`: the repository's end-to-end exchange benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig1_mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A sender peer and a receiving daemon run in this process and exchange
//! documents over loopback TCP. `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer ones; the last line of standard
//! output is one JSON object. See `perfbench/README.md`.

mod catalogue;
mod inputs;
mod replay;
mod rig;
mod run;
mod stats;
mod sys;
mod trace;

use inputs::Workload;
use run::Args;

const USAGE: &str =
    "usage: perfbench --workload <fig1_mix|fig1_mix_poll|wide_solver|feed_chunked> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
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

/// The result line: one JSON object.
fn result_json(outcome: &run::Outcome) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, value) in &outcome.metrics {
        let unit = catalogue::unit(name)
            .ok_or_else(|| format!("metric {name} is not in the catalogue"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number: {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match run::run(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let expected = if args.trace {
        catalogue::PER_LAYER
    } else {
        catalogue::END_TO_END
    };
    let names: Vec<&str> = outcome.metrics.iter().map(|(n, _)| n.as_str()).collect();
    let wanted: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    if names != wanted {
        eprintln!("perfbench: printed metrics {names:?} differ from the catalogue {wanted:?}");
        std::process::exit(1);
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    match result_json(&outcome) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    if !outcome.correct {
        eprintln!("perfbench: correctness checks failed");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload wide_solver --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::WideSolver);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10, true));
        assert!(args("--workload nope --seed 3 --seconds 10 --trace 1").is_err());
        assert!(args("--workload fig1_mix --seed 3 --seconds 0 --trace 0").is_err());
        assert!(args("--workload fig1_mix --seed 3 --seconds 5").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = run::Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![
                ("setup_s".to_owned(), 0.8127),
                ("ops_per_s".to_owned(), 1234.5),
            ],
            notes: vec![],
        };
        assert_eq!(
            result_json(&outcome).unwrap(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \
             \"unit\": \"s\"}, \"ops_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}}}"
        );
        let bad = run::Outcome {
            metrics: vec![("setup_s".to_owned(), f64::NAN)],
            ..outcome
        };
        assert!(result_json(&bad).is_err());
    }
}
