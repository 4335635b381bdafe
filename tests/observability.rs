//! Observability contract tests: histogram merge algebra under random
//! inputs, and the tracer's end-to-end guarantees through a real pipeline
//! run (zero spans when disabled, a valid closed tree with a covering
//! phase profile when enabled).
//!
//! The tracer under test is the process-global one, so every test touching
//! it serializes on [`tracer_lock`] — `cargo test` runs these functions on
//! parallel threads inside one binary.

use proptest::prelude::*;
use qrcc::core::obs::{metrics, tracer, validate_spans, Histogram, PhaseProfile};
use qrcc::prelude::*;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Serializes tests that drain or enable the process-global tracer.
fn tracer_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn histogram_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// The 6-qubit chain every walkthrough cuts onto a 3-qubit device.
fn workload() -> Circuit {
    let mut c = Circuit::new(6);
    c.h(0);
    for q in 0..5 {
        c.cx(q, q + 1);
        c.ry(0.19 * (q as f64 + 1.0), q + 1);
    }
    c
}

fn run_pipeline(config: QrccConfig) -> ReconstructionReport {
    let mut registry = DeviceRegistry::new();
    registry.register_device("dev3", Device::new(DeviceConfig::ideal(3).with_seed(3)), 512);
    let scheduler = Scheduler::new(&registry, SchedulePolicy::default());
    let pipeline = QrccPipeline::plan(&workload(), config).expect("plans");
    let (_, reconstruction, _) = pipeline.execute_streaming(&scheduler).expect("executes");
    reconstruction
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// merge is commutative: a ∪ b == b ∪ a, bucket for bucket.
    #[test]
    fn histogram_merge_commutes(
        a in proptest::collection::vec(0u64..1_000_000_000, 0..40),
        b in proptest::collection::vec(0u64..1_000_000_000, 0..40),
    ) {
        let (ha, hb) = (histogram_of(&a), histogram_of(&b));
        prop_assert_eq!(ha.clone().merged(&hb), hb.clone().merged(&ha));
    }

    /// merge is associative: (a ∪ b) ∪ c == a ∪ (b ∪ c).
    #[test]
    fn histogram_merge_associates(
        a in proptest::collection::vec(0u64..1_000_000_000, 0..30),
        b in proptest::collection::vec(0u64..1_000_000_000, 0..30),
        c in proptest::collection::vec(0u64..1_000_000_000, 0..30),
    ) {
        let (ha, hb, hc) = (histogram_of(&a), histogram_of(&b), histogram_of(&c));
        let left = ha.clone().merged(&hb).merged(&hc);
        let right = ha.merged(&hb.merged(&hc));
        prop_assert_eq!(left, right);
    }

    /// merging partitions of a stream equals recording the whole stream —
    /// per-worker histograms fold into fleet totals losslessly.
    #[test]
    fn histogram_merge_equals_sequential(
        values in proptest::collection::vec(0u64..1_000_000_000, 1..60),
        split in 0usize..60,
    ) {
        let split = split % values.len();
        let merged = histogram_of(&values[..split]).merged(&histogram_of(&values[split..]));
        let sequential = histogram_of(&values);
        prop_assert_eq!(&merged, &sequential);
        prop_assert_eq!(merged.count(), values.len() as u64);
    }

    /// every reported quantile of a non-empty histogram lies in [min, max].
    #[test]
    fn histogram_quantiles_stay_in_range(
        values in proptest::collection::vec(0u64..u64::MAX, 1..60),
    ) {
        let h = histogram_of(&values);
        let (min, max) = (h.min().unwrap(), h.max().unwrap());
        for q in [h.p50(), h.p90(), h.p99(), h.p999()] {
            let q = q.unwrap();
            prop_assert!(min <= q && q <= max, "quantile {q} outside [{min}, {max}]");
        }
    }
}

#[test]
fn default_config_records_no_spans_through_a_full_run() {
    let _guard = tracer_lock();
    let _ = tracer().drain();
    let config = QrccConfig::new(3).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO);
    let reconstruction = run_pipeline(config);
    // the enabled flag may be latched on by other tests in this binary (the
    // global tracer only ever turns on), so only assert the default-config
    // contract when this run actually started disabled
    if !tracer().enabled() {
        assert!(tracer().drain().is_empty(), "a disabled run must record zero spans");
    }
    // the flame summary is plain Instant arithmetic, so it ships even
    // without tracing — only spans are gated
    assert!(reconstruction.profile.is_some(), "the phase profile is always attached");
}

#[test]
fn traced_run_yields_a_valid_tree_and_a_covering_profile() {
    let _guard = tracer_lock();
    let _ = tracer().drain();
    let config = QrccConfig::new(3).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO);
    tracer().enable();
    let reconstruction = run_pipeline(config);

    let spans = tracer().drain();
    validate_spans(&spans).expect("traced run must drain a structurally valid tree");
    assert!(spans.iter().any(|s| s.name.starts_with("phase.")), "phase spans must be present");
    assert!(spans.iter().any(|s| s.name == "pipeline.execute"), "the root span must be present");

    let profile: &PhaseProfile =
        reconstruction.profile.as_ref().expect("traced runs attach a phase profile");
    assert!(
        profile.coverage() >= 0.95,
        "phases must attribute >=95% of wall-clock, got {:.1}%",
        100.0 * profile.coverage()
    );
    // the flame summary renders every phase with a percentage
    let rendered = format!("{profile}");
    assert!(rendered.contains('%'), "the flame summary renders percentages: {rendered}");
}

/// The in-flight window holds at the pipeline level: with one backend,
/// one-circuit chunks and a window of 1, the dispatch loop folds each chunk
/// on the caller's thread (its `phase.deliver` span) before the next chunk's
/// job starts, so at most one chunk's results are ever unfolded.
#[test]
fn a_window_of_one_folds_each_chunk_before_the_next_executes() {
    let _guard = tracer_lock();
    let _ = tracer().drain();
    let config = QrccConfig::new(3).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO);
    let pipeline = QrccPipeline::plan(&workload(), config).expect("plans");
    let mut registry = DeviceRegistry::new();
    registry.register("exact", ExactBackend::new());
    let policy = SchedulePolicy::default().with_chunk_size(1).with_max_in_flight_chunks(1);
    let scheduler = Scheduler::new(&registry, policy);
    tracer().enable();
    let (_, _, schedule) = pipeline.execute_streaming(&scheduler).expect("executes");

    let mut spans = tracer().drain();
    validate_spans(&spans).expect("traced run must drain a structurally valid tree");
    // span ids are handed out as spans open, so id order is start order
    spans.sort_by_key(|s| s.id);
    let caller = spans.iter().find(|s| s.name == "pipeline.execute").expect("root span").thread;
    let delivers: Vec<_> = spans.iter().filter(|s| s.name == "phase.deliver").collect();
    let jobs: Vec<_> = spans.iter().filter(|s| s.name == "job.execute").collect();
    assert!(schedule.chunks > 2, "chunk size 1 must stream many chunks");
    assert_eq!(delivers.len(), schedule.chunks, "one delivery per chunk");
    assert_eq!(jobs.len(), schedule.chunks, "one backend, no retries: one job per chunk");
    assert!(
        delivers.iter().all(|d| d.thread == caller),
        "chunks are delivered and folded on the caller's thread"
    );
    for (k, (job, folded)) in jobs.iter().skip(1).zip(&delivers).enumerate() {
        let folded_at = folded.start_us + folded.duration_us;
        assert!(
            job.start_us >= folded_at,
            "chunk {} started executing at {} us, before chunk {k} was folded at {folded_at} us",
            k + 1,
            job.start_us
        );
    }
    assert_eq!(schedule.dispatch.max_in_flight_chunks, 1);
}

#[test]
fn dispatch_latency_lands_in_the_global_registry_when_traced() {
    let _guard = tracer_lock();
    let _ = tracer().drain();
    let config = QrccConfig::new(3).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO);
    tracer().enable();
    let _ = run_pipeline(config);
    let _ = tracer().drain();
    let execute = metrics()
        .histogram("dispatch.execute_us")
        .expect("traced dispatch must record per-job execute latency");
    assert!(execute.count() > 0);
    assert!(execute.p50().is_some() && execute.p999().is_some());
}
