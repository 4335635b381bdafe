//! The ledger run: every workload in a process of its own, the determinism
//! self-check, `BENCH_pipeline.json`, and `--check` against a baseline.

use crate::api;
use crate::catalog::{self, unit_of};
use crate::json::{self, Value};
use crate::stats::{self, Verdict};
use crate::workloads::{self, Spec};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

pub struct Options {
    pub seed: u64,
    pub trace: bool,
    pub smoke: bool,
    pub check: Option<PathBuf>,
}

/// The two workloads whose counts the self-check runs twice: one sampled
/// (shots and error must repeat bit for bit), one planning-only.
const REPEATED: [&str; 2] = ["reg8_gate_sampled", "plan_wide"];

/// `workload/metric → value`, in the order measured.
type Table = Vec<(String, f64)>;

/// What one child said: its result line's verdict and its metric rows.
struct Child {
    failed: usize,
    metrics: Vec<(String, f64)>,
}

/// A child's metric rows: `workload name value unit`.
fn rows(workload: &str, stdout: &str) -> Vec<(String, f64)> {
    stdout
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (first, name, value) = (fields.next()?, fields.next()?, fields.next()?);
            (first == workload).then_some(())?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Re-executes this binary for one workload, so that no process-global
/// state (tracer, metrics registry, allocator high-water mark) carries over
/// from the workload before it. Without `--seconds` the child times the
/// workload's own request count.
fn spawn(spec: &Spec, options: &Options, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", spec.name, "--seed", &options.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if options.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child to end
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", spec.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{} exited with {}\n{stdout}", spec.name, output.status));
    }
    let line = stdout.lines().last().ok_or_else(|| format!("{} printed nothing", spec.name))?;
    let result = json::parse(line).map_err(|e| format!("{} result line: {e}", spec.name))?;
    let failed = result.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as usize;
    let correct = result.get("correct").and_then(Value::as_bool).unwrap_or(false);
    // an incorrect run with no failed request counted is still a failure
    Ok(Child { failed: failed.max(usize::from(!correct)), metrics: rows(spec.name, &stdout) })
}

/// A traced child repeats the shot and error metrics among its per-layer
/// ones (from fewer requests); the ledger keeps the timed child's.
fn wanted(metrics: Vec<(String, f64)>, traced: bool) -> impl Iterator<Item = (String, f64)> {
    metrics.into_iter().filter(move |(name, _)| !(traced && catalog::end_to_end(name).is_some()))
}

/// Whether two runs of a repeated workload agree on `name`. Shot, cut,
/// planner and dedup counts must be identical. `rms_error` must agree to
/// 1e-9 of its value: the samples are the same bit for bit, but the
/// program folds a chunk in `HashMap` order, so its sums differ in their
/// last digits from one process to the next.
fn repeats(name: &str, first: f64, second: f64) -> bool {
    let count =
        !name.ends_with("_s") && (name.starts_with("planner.") || name.starts_with("execute."));
    if name == "rms_error" {
        (first - second).abs() <= 1e-9 * first.abs()
    } else if count || matches!(name, "device_shots" | "cuts_effective") {
        first == second
    } else {
        true
    }
}

fn bench_json(table: &Table, options: &Options) -> String {
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    let rayon = std::env::var("RAYON_NUM_THREADS").map_or("null".into(), |v| format!("\"{v}\""));
    let config = [
        ("seed", options.seed.to_string()),
        ("nproc", threads.to_string()),
        ("RAYON_NUM_THREADS", rayon),
        ("load", "\"closed loop, 1 client, fixed request counts\"".to_string()),
        ("trace", options.trace.to_string()),
    ];
    // whole-number counts as counters, everything else as gauges
    let is_count = |(key, value): &&(String, f64)| {
        let metric = key.rsplit('/').next().unwrap_or(key);
        unit_of(metric) == "count" && value.fract() == 0.0 && *value >= 0.0
    };
    let counters: Vec<(String, u64)> =
        table.iter().filter(is_count).map(|(k, v)| (k.clone(), *v as u64)).collect();
    let gauges: Table = table.iter().filter(|e| !is_count(e)).cloned().collect();
    api::bench_json("bench_pipeline", &config, &counters, &gauges)
}

/// Quartile distance over median of a workload's timed requests in `run`;
/// 0 where the run does not have them.
fn request_spread(run: &Table, workload: &str) -> f64 {
    let of = |metric: &str| {
        let key = format!("{workload}/{metric}");
        run.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    };
    match (of("request_q1_s"), of("request_p50_s"), of("request_q3_s")) {
        (Some(q1), Some(p50), Some(q3)) if p50 > 0.0 => (q3 - q1) / p50,
        _ => 0.0,
    }
}

fn read_baseline(path: &Path) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let value = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(value
        .get("metrics")
        .map(Value::entries)
        .unwrap_or_default()
        .iter()
        .filter_map(|(key, v)| Some((key.clone(), v.as_f64()?)))
        .collect())
}

/// Runs the ledger; `Ok(false)` when a request failed, a count did not
/// repeat, or `--check` found a regression.
pub fn run(options: &Options, bench_dir: &Path) -> Result<bool, String> {
    // read first: the baseline may be the very file this run rewrites
    let baseline = options.check.as_deref().map(read_baseline).transpose()?;
    let specs = workloads::all();
    let mut table: Table = Vec::new();
    let mut ok = true;

    for spec in &specs {
        let mut runs = vec![false];
        if options.trace {
            runs.push(true);
        }
        let mut first: Vec<(String, f64)> = Vec::new();
        for &trace in &runs {
            let child = spawn(spec, options, trace)?;
            if child.failed > 0 {
                eprintln!("FAILED  {}: {} failed request(s)", spec.name, child.failed);
                ok = false;
            }
            first.extend(wanted(child.metrics, trace));
        }
        if REPEATED.contains(&spec.name) && !options.smoke {
            let mut second: Vec<(String, f64)> = Vec::new();
            for &trace in &runs {
                second.extend(wanted(spawn(spec, options, trace)?.metrics, trace));
            }
            for (name, value) in &first {
                let again = second.iter().find(|(n, _)| n == name).map_or(f64::NAN, |(_, v)| *v);
                if !repeats(name, *value, again) {
                    eprintln!("UNSTABLE  {}/{name}: {value} then {again}", spec.name);
                    ok = false;
                }
            }
        }
        for (name, value) in &first {
            println!("{:<20} {:<34} {:>18.6} {}", spec.name, name, value, unit_of(name));
        }
        table.extend(
            first.into_iter().map(|(name, value)| (format!("{}/{name}", spec.name), value)),
        );
    }

    if !options.smoke {
        let path = bench_dir.join("BENCH_pipeline.json");
        std::fs::write(&path, bench_json(&table, options))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }

    if let Some(baseline) = baseline {
        let end_to_end: Table =
            table.iter().filter(|(key, _)| catalog::end_to_end(key).is_some()).cloned().collect();
        let bound_of = |key: &str| catalog::end_to_end(key).map_or(0.0, |m| m.bound);
        // a request timing's spread: the wider of the two runs' own
        let spread_of = |key: &str| {
            let Some((workload, "request_p50_s" | "request_p90_s")) = key.split_once('/') else {
                return 0.0;
            };
            request_spread(&table, workload).max(request_spread(&baseline, workload))
        };
        println!(
            "\n{:<44} {:>14} {:>14} {:>7} {:>7}",
            "workload/metric", "baseline", "current", "ratio", "bound"
        );
        for row in stats::compare(&end_to_end, &baseline, bound_of, spread_of) {
            println!("{row}");
            ok &= row.verdict != Verdict::Regressed;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_must_repeat_exactly_and_the_error_to_its_last_digits() {
        assert!(repeats("device_shots", 1e6, 1e6));
        assert!(!repeats("device_shots", 1e6, 1e6 + 1.0));
        assert!(!repeats("cuts_effective", 134.0, f64::NAN));
        assert!(!repeats("planner.wire_cuts", 40.0, 41.0));
        assert!(!repeats("execute.executed", 875.0, 874.0));
        assert!(repeats("rms_error", 0.05082059075899992, 0.050820590758999876));
        assert!(!repeats("rms_error", 0.0508, 0.0509));
        // wall-clock never repeats and is not asked to
        assert!(repeats("planner.heuristic_s", 2.4, 2.6));
        assert!(repeats("request_p50_s", 0.5, 0.6));
    }

    #[test]
    fn a_traced_child_does_not_overwrite_the_timed_shot_metrics() {
        let metrics = vec![("device_shots".to_string(), 1.0), ("sim.sample_s".to_string(), 2.0)];
        let kept: Vec<_> = wanted(metrics.clone(), true).collect();
        assert_eq!(kept, [("sim.sample_s".to_string(), 2.0)]);
        assert_eq!(wanted(metrics, false).count(), 2);
    }

    #[test]
    fn a_childs_rows_are_read_back_with_every_digit() {
        let stdout = "plan_wide: why this workload\n\
                      plan_wide            rms_error                 0.050820590758999876 abs\n\
                      plan_wide            cuts_effective                         134.25 count\n\
                      other_workload       cuts_effective                              3 count\n\
                      {\"correct\": true}\n";
        assert_eq!(
            rows("plan_wide", stdout),
            [("rms_error".to_string(), 0.050820590758999876), ("cuts_effective".into(), 134.25)]
        );
    }

    #[test]
    fn a_runs_own_spread_comes_from_its_request_quartiles() {
        let run: Table =
            [("w/request_q1_s", 0.9), ("w/request_p50_s", 1.0), ("w/request_q3_s", 1.3)]
                .map(|(k, v)| (k.to_string(), v))
                .into();
        assert!((request_spread(&run, "w") - 0.4).abs() < 1e-12);
        assert_eq!(request_spread(&run, "other"), 0.0);
    }
}
