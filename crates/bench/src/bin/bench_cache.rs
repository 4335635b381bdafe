//! Result-cache benchmark: a QAOA-style parameter sweep executed cold
//! (empty cache), warm (every circuit already cached — zero device shots),
//! and as a shot top-up (the same sweep at a doubled per-circuit shot count,
//! served as delta hits that execute only the missing half). Writes
//! `BENCH_cache.json` in the working directory.
//!
//! Usage: `cargo run --release -p qrcc-bench --bin bench_cache [--smoke]`
//!
//! `--smoke` runs a scaled-down sweep and exits non-zero unless the warm
//! pass spends at least 50% fewer device shots than the cold pass at
//! byte-identical reconstruction — the CI guard against cache regressions.
//! The full run records the numbers quoted in the README.

use qrcc_circuit::Circuit;
use qrcc_core::obs::{bench_json, Histogram, MetricsSnapshot};
use qrcc_core::pipeline::QrccPipeline;
use qrcc_core::schedule::{DeviceRegistry, Scheduler};
use qrcc_core::{CacheStats, QrccConfig, ResultCachePolicy, SchedulePolicy};
use qrcc_sim::device::{Device, DeviceConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shots each circuit runs on the cold registry's device.
const BASE_SHOTS: u64 = 2048;

/// One measured sweep pass.
struct Phase {
    name: &'static str,
    wall_ms: f64,
    device_shots: u64,
    hits: u64,
    delta_hits: u64,
    misses: u64,
    shots_saved: u64,
    /// Largest |Δp| against the cold pass's reconstruction (0 for cold).
    max_dp: f64,
    /// Per-point request latency (execute + reconstruct) in microseconds.
    latency: Histogram,
}

impl Phase {
    /// Folds this pass into the snapshot behind the shared bench schema:
    /// counters for the cache ledger, a gauge for the output drift, and the
    /// per-request latency histogram (which carries p50/p99 into the JSON).
    fn fold_into(&self, snapshot: MetricsSnapshot) -> MetricsSnapshot {
        snapshot
            .with_counter(&format!("{}.device_shots", self.name), self.device_shots)
            .with_counter(&format!("{}.hits", self.name), self.hits)
            .with_counter(&format!("{}.delta_hits", self.name), self.delta_hits)
            .with_counter(&format!("{}.misses", self.name), self.misses)
            .with_counter(&format!("{}.shots_saved", self.name), self.shots_saved)
            .with_gauge(&format!("{}.wall_ms", self.name), self.wall_ms)
            .with_gauge(&format!("{}.max_dp", self.name), self.max_dp)
            .with_histogram(&format!("{}.request_latency_us", self.name), self.latency.clone())
    }
}

/// A QAOA-style ansatz point: a parameterized entangling chain whose angles
/// vary per sweep point (so every point cuts into the same *structure* but
/// distinct *instantiated* circuits — exactly what content-addressing keys).
fn ansatz(qubits: usize, gamma: f64, beta: f64) -> Circuit {
    let mut c = Circuit::new(qubits);
    for q in 0..qubits {
        c.h(q);
    }
    for q in 0..qubits - 1 {
        c.cx(q, q + 1);
        c.rz(gamma * (1.0 + 0.1 * q as f64), q + 1);
        c.cx(q, q + 1);
    }
    for q in 0..qubits {
        c.ry(2.0 * beta, q);
    }
    c
}

/// Executes the whole sweep once against `scheduler` and reconstructs every
/// point, returning (per-point probabilities, device shots spent, per-point
/// request latency).
fn run_sweep(
    pipelines: &[QrccPipeline],
    scheduler: &Scheduler<'_>,
) -> (Vec<Vec<f64>>, u64, Histogram) {
    let mut outputs = Vec::with_capacity(pipelines.len());
    let mut shots = 0u64;
    let mut latency = Histogram::new();
    for pipeline in pipelines {
        let t = Instant::now();
        let (p, _, report) = pipeline.execute_streaming(scheduler).expect("sweep executes");
        latency.record_duration(t.elapsed());
        shots += report.total_shots;
        assert!(report.result_cache.is_some(), "cache counters must reach the report");
        outputs.push(p);
    }
    (outputs, shots, latency)
}

/// Largest |Δp| between two sweeps' reconstructions.
fn max_dp(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    a.iter()
        .zip(b)
        .flat_map(|(x, y)| x.iter().zip(y).map(|(p, q)| (p - q).abs()))
        .fold(0.0, f64::max)
}

#[allow(clippy::too_many_arguments)]
fn phase(
    name: &'static str,
    before: &CacheStats,
    after: &CacheStats,
    wall_ms: f64,
    device_shots: u64,
    max_dp: f64,
    latency: Histogram,
) -> Phase {
    Phase {
        name,
        wall_ms,
        device_shots,
        hits: after.hits - before.hits,
        delta_hits: after.delta_hits - before.delta_hits,
        misses: after.misses - before.misses,
        shots_saved: after.shots_saved - before.shots_saved,
        max_dp,
        latency,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (qubits, points) = if smoke { (5, 4) } else { (6, 12) };

    println!(
        "result-cache benchmark: {points}-point sweep, {qubits}-qubit ansatz on a 3-qubit device\n"
    );

    let config = QrccConfig::new(3).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO);
    let pipelines: Vec<QrccPipeline> = (0..points)
        .map(|k| {
            let gamma = 0.3 + 0.07 * k as f64;
            let beta = 0.2 + 0.05 * k as f64;
            QrccPipeline::plan(&ansatz(qubits, gamma, beta), config.clone()).expect("plans")
        })
        .collect();

    // one shared cache; the cold/warm registry samples BASE_SHOTS per
    // circuit, the top-up registry asks for twice that from the same device
    let mut registry = DeviceRegistry::new();
    registry.register_device("dev3", Device::new(DeviceConfig::ideal(3).with_seed(11)), BASE_SHOTS);
    let registry = registry.with_result_cache(&ResultCachePolicy::in_memory());
    let cache = Arc::clone(registry.result_cache().expect("cache enabled"));
    let scheduler = Scheduler::new(&registry, SchedulePolicy::default());

    let mut upsized = DeviceRegistry::new();
    upsized.register_device(
        "dev3-2x",
        Device::new(DeviceConfig::ideal(3).with_seed(11)),
        2 * BASE_SHOTS,
    );
    upsized.set_result_cache(Arc::clone(&cache));
    let upsized_scheduler = Scheduler::new(&upsized, SchedulePolicy::default());

    let mut phases: Vec<Phase> = Vec::new();

    let s0 = cache.stats();
    let t = Instant::now();
    let (cold_p, cold_shots, cold_latency) = run_sweep(&pipelines, &scheduler);
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    let s1 = cache.stats();
    phases.push(phase("cold", &s0, &s1, cold_ms, cold_shots, 0.0, cold_latency));

    let t = Instant::now();
    let (warm_p, warm_shots, warm_latency) = run_sweep(&pipelines, &scheduler);
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;
    let s2 = cache.stats();
    phases.push(phase(
        "warm",
        &s1,
        &s2,
        warm_ms,
        warm_shots,
        max_dp(&cold_p, &warm_p),
        warm_latency,
    ));

    let t = Instant::now();
    let (topup_p, topup_shots, topup_latency) = run_sweep(&pipelines, &upsized_scheduler);
    let topup_ms = t.elapsed().as_secs_f64() * 1e3;
    let s3 = cache.stats();
    phases.push(phase(
        "topup_2x",
        &s2,
        &s3,
        topup_ms,
        topup_shots,
        max_dp(&cold_p, &topup_p),
        topup_latency,
    ));

    println!(
        "{:<10} {:>10} {:>13} {:>6} {:>7} {:>7} {:>12} {:>10} {:>9} {:>9}",
        "phase",
        "wall (ms)",
        "device shots",
        "hits",
        "deltas",
        "misses",
        "shots saved",
        "max |Δp|",
        "p50 (us)",
        "p99 (us)"
    );
    for p in &phases {
        println!(
            "{:<10} {:>10.1} {:>13} {:>6} {:>7} {:>7} {:>12} {:>10.2e} {:>9} {:>9}",
            p.name,
            p.wall_ms,
            p.device_shots,
            p.hits,
            p.delta_hits,
            p.misses,
            p.shots_saved,
            p.max_dp,
            p.latency.p50().unwrap_or(0),
            p.latency.p99().unwrap_or(0),
        );
    }
    let speedup = if warm_ms > 0.0 { cold_ms / warm_ms } else { f64::INFINITY };
    println!(
        "\nwarm pass: {speedup:.1}x wall-clock, {warm_shots} of {cold_shots} cold device shots"
    );

    let (cold, warm, topup) = (&phases[0], &phases[1], &phases[2]);
    // the sweep's circuits deduplicate within a point but not across points,
    // so the warm pass must re-serve every cold miss as a full hit...
    assert_eq!(warm.hits, cold.misses, "every cold miss must warm-hit");
    assert_eq!(warm.misses, 0, "a warm pass has nothing left to miss");
    // ... spending at least 50% fewer device shots at identical output
    assert!(
        2 * warm.device_shots <= cold.device_shots,
        "warm pass must halve device shots: {} vs {}",
        warm.device_shots,
        cold.device_shots
    );
    assert!(warm.max_dp <= 1e-9, "warm output must match cold: max |Δp| = {:.3e}", warm.max_dp);
    // the doubled request is served as deltas: only the missing half runs
    assert_eq!(topup.delta_hits, cold.misses, "every doubled request must delta-hit");
    assert_eq!(
        topup.device_shots, cold.device_shots,
        "a 2x top-up executes exactly the missing half"
    );

    if smoke {
        println!("smoke OK: warm {} shots vs cold {} shots", warm.device_shots, cold.device_shots);
    } else {
        // the shared bench schema: {name, config, metrics{}} rendered by the
        // obs exporter, so every BENCH_*.json parses the same way
        let metrics = phases
            .iter()
            .fold(MetricsSnapshot::default(), |snapshot, p| p.fold_into(snapshot))
            .with_gauge("warm_speedup", speedup)
            .with_gauge(
                "warm_shot_fraction",
                warm.device_shots as f64 / cold.device_shots.max(1) as f64,
            );
        let json = bench_json(
            "bench_cache",
            &[
                ("qubits", qubits.to_string()),
                ("points", points.to_string()),
                ("base_shots", BASE_SHOTS.to_string()),
                ("smoke", smoke.to_string()),
            ],
            &metrics,
        );
        std::fs::write("BENCH_cache.json", &json).expect("write BENCH_cache.json");
        println!("wrote BENCH_cache.json");
    }
}
