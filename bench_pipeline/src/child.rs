//! One workload in one process: set-up, warm-up, then either the timed
//! requests (`--trace 0`) or the traced run (`--trace 1`).

use crate::api::{self, FleetCounters, StreamReport};
use crate::staged::{self, Probe, Row};
use crate::stats;
use crate::trace::Recorder;
use crate::workloads::{Outcome, Spec, Workload};
use std::time::Instant;

/// Requests of a `--smoke` run, and the least a `--seconds` run times.
const MIN_REQUESTS: usize = 2;
/// Staged requests recorded by a traced run.
const STAGED_REQUESTS: usize = 2;
/// Streaming requests of a traced run with the program's tracer off, and as
/// many with it on.
const STREAMED_REQUESTS: usize = 3;

pub struct Options {
    pub seed: u64,
    /// Time requests for this long; `None` times the workload's own count.
    pub seconds: Option<f64>,
    pub smoke: bool,
    /// Where a traced run writes its Chrome trace; `None` writes none.
    pub trace_file: Option<std::path::PathBuf>,
}

/// What one child reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    /// First failure, for the log.
    pub failure: Option<String>,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    fn record(&mut self, outcome: &Outcome) {
        self.attempted += 1;
        if let Some(why) = &outcome.failure {
            self.failed += 1;
            self.failure.get_or_insert_with(|| why.clone());
        }
    }
}

/// One request, end to end: untimed preparation, the timed call, the verdict.
fn request(workload: &mut Workload, r: usize) -> Result<(f64, Outcome), String> {
    workload.prepare(r)?;
    let started = Instant::now();
    let raw = workload.run(r);
    let wall_s = started.elapsed().as_secs_f64();
    Ok((wall_s, workload.judge(r, raw, wall_s)))
}

/// Generators, reference, plan, fleet and one warm-up request.
fn set_up(spec: &Spec, seed: u64, report: &mut Report) -> Result<Workload, String> {
    let mut workload = Workload::setup(spec, seed)?;
    let (_, outcome) = request(&mut workload, 0)?;
    report.record(&outcome);
    Ok(workload)
}

/// `VmHWM`: the process's peak resident set since start or the last reset.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets `VmHWM` to the current resident set (Linux: `5` into
/// `clear_refs`), so that the next read is the peak of one request. Where
/// the reset is refused the peak stays that of the whole process.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The timed run: end-to-end metrics, the program's tracing off, no spans.
/// `setup_s` runs from `process_start` to the end of the warm-up request.
pub fn timed(spec: &Spec, options: &Options, process_start: Instant) -> Result<Report, String> {
    let mut report = Report::default();
    let mut workload = set_up(spec, options.seed, &mut report)?;
    let setup_s = process_start.elapsed().as_secs_f64();

    let mut walls = Vec::new();
    let mut errors = Vec::new();
    let mut shots = Vec::new();
    let mut peaks = Vec::new();
    let mut cuts_effective = 0.0;
    let measuring = Instant::now();
    for r in 1.. {
        reset_peak_rss();
        let (wall_s, outcome) = request(&mut workload, r)?;
        peaks.push(peak_rss_mb());
        report.record(&outcome);
        walls.push(wall_s);
        shots.push(outcome.shots as f64);
        cuts_effective = outcome.cuts_effective;
        errors.extend(outcome.errors);
        let enough = if options.smoke {
            r >= MIN_REQUESTS
        } else if let Some(seconds) = options.seconds {
            r >= MIN_REQUESTS && measuring.elapsed().as_secs_f64() >= seconds
        } else {
            r >= spec.requests
        };
        if enough {
            break;
        }
    }

    let device_shots = stats::median(&shots);
    let (q1, p50, q3) = stats::quartiles(&walls).unwrap_or_default();
    report.metrics = vec![
        ("setup_s", setup_s),
        ("request_p50_s", p50),
        ("request_q1_s", q1),
        ("request_q3_s", q3),
        ("failed_fraction", report.failed as f64 / report.attempted as f64),
        ("device_shots", device_shots),
        ("cuts_effective", cuts_effective),
        ("request_samples", walls.len() as f64),
    ];
    if let Some((percentile, value)) = stats::tail(&walls) {
        // the fleet workload's hundred requests are the only ones with a p90
        if percentile == 0.90 {
            report.metrics.push(("request_p90_s", value));
        }
    }
    if device_shots > 0.0 {
        let rms = stats::rms(&errors);
        report.metrics.extend([("rms_error", rms), ("shot_cost", device_shots * rms * rms)]);
    }
    // Per request, then the median: two rayon threads that happen to hold
    // their largest buffers at once lift a process-wide peak by a third in
    // one run out of five, which no bound below that can tell from a leak.
    report.metrics.push(("peak_rss_mb", stats::median(&peaks)));
    Ok(report)
}

/// What a streaming request's own reports say, as per-layer rows.
fn stream_row(reports: &[StreamReport], before: &FleetCounters, after: &FleetCounters) -> Row {
    let sum = |f: fn(&StreamReport) -> f64| reports.iter().map(f).sum::<f64>();
    let routed: Vec<u64> = reports.iter().flat_map(|r| r.routed.iter().copied()).collect();
    let imbalance = match (routed.iter().max(), routed.iter().min()) {
        (Some(&max), Some(&min)) => max as f64 / min.max(1) as f64,
        _ => 0.0,
    };
    let delta = |f: fn(&FleetCounters) -> u64| (f(after) - f(before)) as f64;
    let (kernel_hits, kernel_misses) = (delta(|c| c.kernel_hits), delta(|c| c.kernel_misses));
    let (hits, partial, misses) =
        (delta(|c| c.cache_hits), delta(|c| c.cache_delta_hits), delta(|c| c.cache_misses));
    let rate = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    vec![
        ("schedule.chunks", sum(|r| r.chunks as f64)),
        ("schedule.total_shots", sum(|r| r.total_shots as f64)),
        ("schedule.backend_imbalance", imbalance),
        ("dispatch.jobs", sum(|r| r.jobs as f64)),
        ("dispatch.retries", sum(|r| r.retries as f64)),
        (
            "dispatch.max_in_flight",
            reports.iter().map(|r| r.max_in_flight).max().unwrap_or(0) as f64,
        ),
        ("dispatch.queue_wait_s", sum(|r| r.queue_wait_s)),
        ("dispatch.execute_wall_s", sum(|r| r.execute_wall_s)),
        ("dispatch.deliver_wall_s", sum(|r| r.deliver_wall_s)),
        ("dispatch.consumer_wait_s", sum(|r| (r.dispatch_s - r.fold_s).max(0.0))),
        ("sim.kernel_cache_hit_rate", rate(kernel_hits, kernel_hits + kernel_misses)),
        ("cache.hits", hits),
        ("cache.delta_hits", partial),
        ("cache.misses", misses),
        ("cache.hit_rate", rate(hits + partial, hits + partial + misses)),
        ("cache.shots_saved", delta(|c| c.cache_shots_saved)),
        ("net.server_batches", delta(|c| c.server_batches)),
        ("net.server_queue_high_water", after.server_queue_high_water as f64),
    ]
}

/// The traced run: streaming requests with the program's tracer off, as many
/// with it on, then the staged requests. Per-layer metrics only.
pub fn traced(spec: &Spec, options: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let mut workload = set_up(spec, options.seed, &mut report)?;
    let mut rec = Recorder::new();
    let mut next = 1;

    let mut walls = [Vec::new(), Vec::new()];
    let mut errors = Vec::new();
    let mut shots = Vec::new();
    let mut stream_rows = Vec::new();
    // what each streaming call says it took (its `PhaseProfile`), per point
    let mut profiles = Vec::new();
    // in turns, so that neither group has the warmer process to itself
    for i in 0..2 * if options.smoke { 1 } else { STREAMED_REQUESTS } {
        let tracing = i % 2 == 1;
        workload.prepare(next)?;
        let before = workload.fleet_counters();
        let root = rec.begin_request(next, if tracing { "traced" } else { "untraced" });
        api::program_tracing(tracing);
        let (raw, wall_s) = rec.span("pipeline.stream", || workload.run(next));
        let program_spans = api::program_tracing(false);
        rec.end(root);
        let mut outcome = workload.judge(next, raw, wall_s);
        // the planner has no tracer callsites; everything that executes does
        let silent = tracing && program_spans == 0 && matches!(workload, Workload::Exec(_));
        if silent && outcome.failure.is_none() {
            outcome.failure = Some("the program's tracer was on and recorded nothing".into());
        }
        report.record(&outcome);
        walls[usize::from(tracing)].push(wall_s);
        if !tracing {
            shots.push(outcome.shots as f64);
            errors.extend(outcome.errors);
            let points = outcome.reports.len().max(1) as f64;
            profiles.push(outcome.reports.iter().map(|r| r.total_s).sum::<f64>() / points);
            stream_rows.push(stream_row(&outcome.reports, &before, &workload.fleet_counters()));
        }
        next += 1;
    }

    let mut staged_rows = Vec::new();
    // the harness's sum of the stages a streaming request also runs
    let mut staged_pipelines = Vec::new();
    let staged_from = rec.spans().len();
    let probe = match &workload {
        Workload::Exec(exec) => Some(Probe::new(exec)?),
        Workload::Plans(_) => None,
    };
    let recorded = if options.smoke { 1 } else { STAGED_REQUESTS };
    // a probe's backend starts cold: one unrecorded staged request warms it
    let warmups = usize::from(probe.is_some());
    for i in 0..warmups + recorded {
        workload.prepare(next)?;
        let mut scratch = Recorder::new();
        let rec = if i < warmups { &mut scratch } else { &mut rec };
        let row = match (&workload, &probe) {
            (Workload::Exec(exec), Some(probe)) => staged::exec_request(rec, exec, probe, next),
            (Workload::Plans(plans), _) => {
                staged::plans_request(rec, plans, next).map(|row| (row, 0.0))
            }
            (Workload::Exec(_), None) => Err("no probe for an execution workload".into()),
        };
        match row {
            Ok((row, pipeline_s)) => {
                report.record(&Outcome::default());
                if i >= warmups {
                    staged_rows.push(row);
                    staged_pipelines.push(pipeline_s);
                }
            }
            Err(why) => report.record(&Outcome { failure: Some(why), ..Outcome::default() }),
        }
        next += 1;
    }
    if staged_rows.is_empty() {
        return Err(format!("no staged request completed: {:?}", report.failure));
    }

    let staged_walls: Vec<f64> = rec.spans()[staged_from..]
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_s())
        .collect();
    let mut layers = staged::medians(&staged_rows);
    let [untraced, traced] = walls.map(|w| stats::median(&w));
    let device_shots = stats::median(&shots);
    let rms = if device_shots > 0.0 { stats::rms(&errors) } else { 0.0 };
    let profile = stats::median(&profiles);
    let gap =
        if profile > 0.0 { (stats::median(&staged_pipelines) - profile) / profile } else { 0.0 };
    layers.extend(staged::medians(&stream_rows));
    layers.extend([
        ("device_shots", device_shots),
        ("rms_error", rms),
        ("shot_cost", device_shots * rms * rms),
        ("bench.layer_coverage", rec.layer_coverage(staged_from)),
        ("bench.trace_overhead_fraction", traced / untraced - 1.0),
        ("bench.profile_gap_fraction", gap),
        // the bases of the ratios above and of every layer's share
        ("bench.traced_request_s", traced),
        ("bench.untraced_request_s", untraced),
        ("bench.staged_request_s", stats::median(&staged_walls)),
    ]);
    report.metrics = layers;

    if let Some(path) = &options.trace_file {
        std::fs::write(path, rec.chrome_json(spec.name))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(report)
}
