//! `bench_pipeline` — the end-to-end, layer-split performance ledger of the
//! QRCC pipeline, and the command `BENCHMARK.json` names.
//!
//! ```text
//! cargo run --release --manifest-path bench_pipeline/Cargo.toml -- \
//!     [--seed S] [--trace] [--smoke] [--check BASELINE]           # the ledger
//!     --workload W [--seed S] [--seconds T] [--trace 0|1]         # one workload
//! ```
//!
//! A workload times its own fixed number of requests; `--seconds T` times
//! what fits into `T` seconds instead, which is how `BENCHMARK.json` runs it.
//!
//! It measures the program from outside only: `Instant` timers around public
//! functions, counts read from the reports those functions already return.
//! `api.rs` is the one file that names the program's items.
//!
//! Load shape: a closed loop, one client thread, requests back to back; the
//! program's own rayon shim fans out to `nproc`. One process per workload, so
//! the tracer, the metrics registry and `VmHWM` never carry over.
//!
//! The workloads (why each, its dominant layer, the layer it bypasses and
//! the infeasible neighbours found while sizing are in `WORKLOADS.md`):
//!
//! | workload            | stresses                          | bypasses        |
//! |---------------------|-----------------------------------|-----------------|
//! | `aqft20_prob`       | `core.reconstruct` contraction    | net, cache      |
//! | `tfim12_expect`     | `core.reconstruct` fold           | net, cache      |
//! | `vqe20_sim`         | `sim` amplitude sweeps            | reconstruct     |
//! | `reg8_gate_fleet`   | `circuit.qasm`, `net`, dispatch   | cache, sampling |
//! | `reg8_gate_sampled` | `sim` sampling, `core.schedule`   | net, cache      |
//! | `reg8_sweep_cached` | `core.cache` reads beside writes  | net             |
//! | `plan_wide`         | `circuit.dag`, `core.heuristic`   | everything else |
//! | `plan_ilp`          | `ilp`, `core.model`               | everything else |
//!
//! Not feasible, so not here: full QFT 10–20 plans to 19–33 cuts, past
//! `MAX_DENSE_CUTS`; SPM 3×4 on 7 qubits and ADD-6 on 8 plan to 11 wire cuts
//! and are OOM-killed while enumerating; default-config `plan()` sits on its
//! ILP time limit for QFT-5/6, VQE-8 and REG-8.
//!
//! A `--workload` run prints one row per metric — workload, name, value,
//! unit; the ledger reads its children's rows — and, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`, the end-to-end metrics of `BENCHMARK.json` with `--trace 0`,
//! its per-layer metrics with `--trace 1`.

mod api;
mod catalog;
mod child;
mod json;
mod ledger;
mod staged;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    check: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("{flag}: cannot read {v:?}"))
    }
    let mut args = Args::default();
    let mut pending = argv.next();
    while let Some(flag) = pending.take() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&flag, argv.next())?),
            "--seed" => args.seed = value(&flag, argv.next())?,
            "--seconds" => args.seconds = Some(value(&flag, argv.next())?),
            "--check" => args.check = Some(value(&flag, argv.next())?),
            "--smoke" => args.smoke = true,
            // `--trace`, `--trace 1` and `--trace 0`
            "--trace" => match argv.next() {
                Some(v) if v == "0" || v == "1" => args.trace = v == "1",
                other => {
                    args.trace = true;
                    pending = other;
                    continue;
                }
            },
            _ => return Err(format!("unknown argument {flag:?}")),
        }
        pending = argv.next();
    }
    if args.seconds.is_some_and(|s| !s.is_finite() || s <= 0.0) {
        return Err("--seconds must be positive".into());
    }
    if args.workload.is_none() && args.seconds.is_some() {
        return Err("--seconds needs --workload: the ledger times fixed request counts".into());
    }
    if args.workload.is_some() && args.check.is_some() {
        return Err("--check compares a whole ledger run: leave out --workload".into());
    }
    Ok(args)
}

/// The benchmark's own directory: where the ledger and the traces go.
fn bench_dir() -> PathBuf {
    let from_root = PathBuf::from("bench_pipeline");
    if from_root.join("Cargo.toml").is_file() {
        from_root
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

fn result_line(report: &child::Report, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = report.metrics.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn run_workload(name: &str, args: &Args, process_start: Instant) -> Result<(), String> {
    let specs = workloads::all();
    let spec = specs.iter().find(|s| s.name == name).ok_or_else(|| {
        let known: Vec<&str> = specs.iter().map(|s| s.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let options = child::Options {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        trace_file: (args.trace && !args.smoke)
            .then(|| bench_dir().join(format!("TRACE_{name}.json"))),
    };
    let report = if args.trace {
        child::traced(spec, &options)?
    } else {
        child::timed(spec, &options, process_start)?
    };
    if let Some(why) = &report.failure {
        eprintln!(
            "{name}: {} of {} requests failed; first: {why}",
            report.failed, report.attempted
        );
    }
    println!("{name}: {}", spec.why);
    for (metric, value) in &report.metrics {
        // every digit: the ledger reads these rows back
        println!("{name:<20} {metric:<34} {value:>24} {}", catalog::unit_of(metric));
    }
    let everywhere: Vec<(&str, &str)> =
        catalog::END_TO_END.iter().filter(|m| m.everywhere).map(|m| (m.name, m.unit)).collect();
    println!(
        "{}",
        result_line(&report, if args.trace { &catalog::PER_LAYER } else { &everywhere })
    );
    Ok(())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("bench_pipeline: {why}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(name) => run_workload(name, &args, process_start).map(|()| true),
        None => ledger::run(
            &ledger::Options {
                seed: args.seed,
                trace: args.trace,
                smoke: args.smoke,
                check: args.check.clone(),
            },
            &bench_dir(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("bench_pipeline: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_contract_command_line_parses() {
        let args = parse("--workload vqe20_sim --seed 7 --seconds 8 --trace 1").unwrap();
        assert_eq!(args.workload.as_deref(), Some("vqe20_sim"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, Some(8.0), true));
        assert!(!parse("--workload w --seed 1 --seconds 2 --trace 0").unwrap().trace);
    }

    #[test]
    fn a_bare_trace_flag_is_on_and_does_not_eat_the_next_flag() {
        let args = parse("--trace --smoke --check base.json").unwrap();
        assert!(args.trace && args.smoke);
        assert_eq!(args.check, Some(PathBuf::from("base.json")));
        assert!(parse("--seed 3 --trace").unwrap().trace);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        let no_such_knob = "--workload w --requests 3";
        let ledger_only = "--workload w --check base.json";
        for bad in ["--seed", "--seed x", "--seconds 0", "--seconds 5", no_such_knob, ledger_only] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let report = child::Report {
            attempted: 3,
            failed: 0,
            failure: None,
            metrics: vec![("setup_s", 0.5), ("request_p50_s", f64::NAN), ("extra", 1.0)],
        };
        let line = result_line(&report, &[("setup_s", "s"), ("request_p50_s", "s")]);
        let value = json::parse(&line).unwrap();
        let keys: Vec<&str> = value.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = value.get("metrics").unwrap();
        assert_eq!(metrics.entries().len(), 2);
        assert_eq!(metrics.get("setup_s").unwrap().get("value").unwrap().as_f64(), Some(0.5));
        // a value that is not a number never reaches the line
        assert_eq!(metrics.get("request_p50_s").unwrap().get("value").unwrap().as_f64(), Some(0.0));
    }
}
