//! Unified reporting: the [`PhaseProfile`] flame summary attached to
//! [`ReconstructionReport`](crate::ReconstructionReport), adapters turning
//! the repo's five telemetry structs into [`MetricsSnapshot`]s, and
//! [`QrccReport`] — one renderable view over all of them.

use std::time::Duration;

use super::{Histogram, MetricsSnapshot};
use crate::cache::CacheStats;
use crate::dispatch::DispatchStats;
use crate::reconstruct::ReconstructionReport;
use crate::schedule::ScheduleReport;

/// Wall-clock attribution by pipeline phase — "where did this run's time
/// go?". Phases are measured independently and may nest (the fold runs
/// inside the dispatch loop, so its time is also part of dispatch's), so
/// percentages can sum past 100; a sum well *below* 100 means unattributed
/// time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseProfile {
    /// `(phase name, wall-clock)` in execution order.
    pub phases: Vec<(String, Duration)>,
    /// Total measured wall-clock of the run.
    pub total: Duration,
}

impl PhaseProfile {
    /// Starts an empty profile; feed it with [`PhaseProfile::add`].
    pub fn new() -> Self {
        PhaseProfile::default()
    }

    /// Records one phase's wall-clock.
    pub fn add(&mut self, name: &str, elapsed: Duration) {
        self.phases.push((name.to_owned(), elapsed));
    }

    /// Sum of all phase durations (may exceed `total` when phases overlap).
    pub fn attributed(&self) -> Duration {
        self.phases.iter().map(|(_, d)| *d).sum()
    }

    /// Attributed time over total: the share of wall-clock the phase
    /// breakdown explains. ≥ 1.0 is possible with overlapping phases.
    pub fn coverage(&self) -> f64 {
        if self.total.is_zero() {
            return 0.0;
        }
        self.attributed().as_secs_f64() / self.total.as_secs_f64()
    }
}

impl std::fmt::Display for PhaseProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "wall-clock by phase (total {:.3?}):", self.total)?;
        let total = self.total.as_secs_f64().max(f64::MIN_POSITIVE);
        for (name, elapsed) in &self.phases {
            let share = elapsed.as_secs_f64() / total * 100.0;
            let bar = "#".repeat(((share / 4.0).round() as usize).min(25));
            writeln!(f, "  {name:<12} {share:>5.1}%  {elapsed:>10.3?}  {bar}")?;
        }
        write!(f, "  attributed   {:>5.1}%  (phases may overlap)", self.coverage() * 100.0)
    }
}

/// Adapters from the pre-existing telemetry structs into
/// [`MetricsSnapshot`]s, so [`QrccReport`] (and Prometheus exposition) can
/// present all five through one vocabulary.
pub mod adapt {
    use super::*;
    use qrcc_sim::compile::CompileStats;

    fn duration_histogram(total: Duration, events: u64) -> Histogram {
        // The legacy structs keep only totals; represent each as a single
        // mean-valued sample so merges and quantile readouts stay
        // well-formed (exact per-event samples flow through the live
        // metrics registry instead).
        let mut h = Histogram::new();
        if events > 0 {
            h.record((total.as_micros() / events as u128).min(u64::MAX as u128) as u64);
        }
        h
    }

    /// [`DispatchStats`] as counters plus per-phase wall totals.
    pub fn dispatch_metrics(stats: &DispatchStats) -> MetricsSnapshot {
        MetricsSnapshot::default()
            .with_counter("dispatch.jobs_dispatched", stats.jobs_dispatched)
            .with_counter("dispatch.jobs_completed", stats.jobs_completed)
            .with_counter("dispatch.jobs_retried", stats.jobs_retried)
            .with_counter("dispatch.jobs_requeued", stats.jobs_requeued)
            .with_counter("dispatch.failures", stats.failures)
            .with_counter("dispatch.queue_wait_total_us", stats.queue_wait.as_micros() as u64)
            .with_counter("dispatch.execute_wall_total_us", stats.execute_wall.as_micros() as u64)
            .with_counter("dispatch.deliver_wall_total_us", stats.deliver_wall.as_micros() as u64)
            .with_gauge("dispatch.max_in_flight_chunks", stats.max_in_flight_chunks as f64)
            .with_histogram(
                "dispatch.queue_wait_us",
                duration_histogram(stats.queue_wait, stats.jobs_dispatched),
            )
    }

    /// [`CacheStats`] as counters and occupancy gauges.
    pub fn cache_metrics(stats: &CacheStats) -> MetricsSnapshot {
        MetricsSnapshot::default()
            .with_counter("cache.hits", stats.hits)
            .with_counter("cache.delta_hits", stats.delta_hits)
            .with_counter("cache.misses", stats.misses)
            .with_counter("cache.insertions", stats.insertions)
            .with_counter("cache.evictions", stats.evictions)
            .with_counter("cache.shots_saved", stats.shots_saved)
            .with_gauge("cache.entries", stats.entries as f64)
            .with_gauge("cache.weight", stats.weight as f64)
    }

    /// [`CompileStats`] as counters plus the fusion ratio gauge.
    pub fn compile_metrics(stats: &CompileStats) -> MetricsSnapshot {
        MetricsSnapshot::default()
            .with_counter("compile.gates_in", stats.gates_in)
            .with_counter("compile.kernels_out", stats.kernels_out)
            .with_counter("compile.control_kernels", stats.control_kernels)
            .with_counter("compile.terminal_measures", stats.terminal_measures)
            .with_counter("compile.branch_points", stats.branch_points)
            .with_counter("compile.eliminated_gates", stats.eliminated_gates)
            .with_gauge("compile.fusion_ratio", stats.fusion_ratio())
    }

    /// [`ScheduleReport`] as metrics: its own totals plus the embedded
    /// dispatch stats and, when present, the kernel-compile and
    /// result-cache snapshots.
    pub fn schedule_metrics(report: &ScheduleReport) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default()
            .with_counter("schedule.total_shots", report.total_shots)
            .with_counter("schedule.circuits", report.circuits)
            .with_counter("schedule.chunks", report.chunks as u64)
            .with_gauge("schedule.backends", report.backends.len() as f64);
        snap.merge(&dispatch_metrics(&report.dispatch));
        if let Some(compile) = &report.kernel_compile {
            snap.merge(&compile_metrics(compile));
        }
        if let Some(cache) = &report.result_cache {
            snap.merge(&cache_metrics(cache));
        }
        snap
    }

    /// The flat reconstruction fields as metrics.
    pub fn reconstruction_metrics(report: &ReconstructionReport) -> MetricsSnapshot {
        MetricsSnapshot::default()
            .with_counter("reconstruct.contractions", report.contractions as u64)
            .with_counter("reconstruct.kept_terms", report.kept_terms as u64)
            .with_counter("reconstruct.pruned_terms", report.pruned_terms as u64)
            .with_gauge("reconstruct.pruned_weight", report.pruned_weight)
            .with_gauge("reconstruct.max_contraction_legs", report.max_contraction_legs as f64)
    }
}

/// One report over everything a run produced: schedule + reconstruction
/// telemetry (via the adapters above), the live metrics registry, the phase
/// profile, and free-form named sections (e.g. per-server stats supplied by
/// `qrcc-net`). `render()` / `Display` shows the whole story.
#[derive(Debug, Clone, Default)]
pub struct QrccReport {
    /// Scheduling + dispatch telemetry, adapted to metrics on render.
    pub schedule: Option<ScheduleReport>,
    /// Reconstruction telemetry, adapted to metrics on render.
    pub reconstruction: Option<ReconstructionReport>,
    /// A snapshot of the live metrics registry (histograms included).
    pub metrics: MetricsSnapshot,
    /// The run's phase profile, when streaming execution measured one.
    pub profile: Option<PhaseProfile>,
    /// Extra named metric sections, e.g. one per remote server.
    pub sections: Vec<(String, MetricsSnapshot)>,
}

impl QrccReport {
    /// An empty report.
    pub fn new() -> Self {
        QrccReport::default()
    }

    /// Attaches a [`ScheduleReport`].
    #[must_use]
    pub fn with_schedule(mut self, schedule: ScheduleReport) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Attaches a [`ReconstructionReport`] (adopting its phase profile when
    /// no profile was set yet).
    #[must_use]
    pub fn with_reconstruction(mut self, reconstruction: ReconstructionReport) -> Self {
        if self.profile.is_none() {
            self.profile = reconstruction.profile.clone();
        }
        self.reconstruction = Some(reconstruction);
        self
    }

    /// Attaches a metrics snapshot (typically `obs::metrics().snapshot()`).
    #[must_use]
    pub fn with_metrics(mut self, metrics: MetricsSnapshot) -> Self {
        self.metrics = metrics;
        self
    }

    /// Attaches an explicit phase profile.
    #[must_use]
    pub fn with_profile(mut self, profile: PhaseProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Adds a named metric section (e.g. `("server 127.0.0.1:7777", …)`).
    #[must_use]
    pub fn with_section(mut self, name: &str, metrics: MetricsSnapshot) -> Self {
        self.sections.push((name.to_owned(), metrics));
        self
    }

    /// Every metric in the report folded into one snapshot: adapted
    /// schedule + reconstruction metrics, the live snapshot, and all
    /// sections. This is what Prometheus exposition should serve.
    pub fn merged_metrics(&self) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::default();
        if let Some(schedule) = &self.schedule {
            merged.merge(&adapt::schedule_metrics(schedule));
        }
        if let Some(reconstruction) = &self.reconstruction {
            merged.merge(&adapt::reconstruction_metrics(reconstruction));
        }
        merged.merge(&self.metrics);
        for (_, section) in &self.sections {
            merged.merge(section);
        }
        merged
    }

    /// The human-readable rendering (same as `Display`).
    pub fn render(&self) -> String {
        self.to_string()
    }
}

fn render_snapshot(f: &mut std::fmt::Formatter<'_>, snap: &MetricsSnapshot) -> std::fmt::Result {
    for (name, value) in &snap.counters {
        writeln!(f, "  {name:<34} {value}")?;
    }
    for (name, value) in &snap.gauges {
        writeln!(f, "  {name:<34} {value:.3}")?;
    }
    for (name, histogram) in &snap.histograms {
        writeln!(f, "  {name:<34} {histogram}")?;
    }
    Ok(())
}

impl std::fmt::Display for QrccReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== qrcc report ==")?;
        if let Some(profile) = &self.profile {
            writeln!(f, "{profile}")?;
        }
        if let Some(schedule) = &self.schedule {
            writeln!(f, "-- schedule --")?;
            render_snapshot(f, &adapt::schedule_metrics(schedule))?;
        }
        if let Some(reconstruction) = &self.reconstruction {
            writeln!(f, "-- reconstruction --")?;
            render_snapshot(f, &adapt::reconstruction_metrics(reconstruction))?;
        }
        if !self.metrics.is_empty() {
            writeln!(f, "-- metrics --")?;
            render_snapshot(f, &self.metrics)?;
        }
        for (name, section) in &self.sections {
            writeln!(f, "-- {name} --")?;
            render_snapshot(f, section)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_display_shows_shares_and_coverage() {
        let mut profile = PhaseProfile::new();
        profile.add("enumerate", Duration::from_millis(10));
        profile.add("dispatch", Duration::from_millis(80));
        profile.add("contract", Duration::from_millis(10));
        profile.total = Duration::from_millis(100);
        let text = profile.to_string();
        assert!(text.contains("enumerate"), "{text}");
        assert!(text.contains("80.0%"), "{text}");
        assert!((profile.coverage() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_profile_coverage_is_zero() {
        assert_eq!(PhaseProfile::new().coverage(), 0.0);
    }

    #[test]
    fn dispatch_adapter_exposes_all_counters() {
        let stats = DispatchStats {
            jobs_dispatched: 4,
            jobs_completed: 3,
            jobs_retried: 1,
            jobs_requeued: 0,
            failures: 1,
            max_in_flight_chunks: 2,
            queue_wait: Duration::from_micros(400),
            execute_wall: Duration::from_micros(4_000),
            deliver_wall: Duration::from_micros(40),
        };
        let snap = adapt::dispatch_metrics(&stats);
        let get = |n: &str| snap.counters.iter().find(|(k, _)| k == n).map(|(_, v)| *v);
        assert_eq!(get("dispatch.jobs_dispatched"), Some(4));
        assert_eq!(get("dispatch.failures"), Some(1));
        assert_eq!(get("dispatch.execute_wall_total_us"), Some(4_000));
    }

    #[test]
    fn schedule_adapter_carries_the_compile_and_cache_snapshots() {
        let counter = |snap: &MetricsSnapshot, n: &str| {
            snap.counters.iter().find(|(k, _)| k == n).map(|(_, v)| *v)
        };
        let bare = adapt::schedule_metrics(&ScheduleReport::default());
        assert_eq!(counter(&bare, "compile.kernels_out"), None);
        assert_eq!(counter(&bare, "cache.hits"), None);

        let report = ScheduleReport {
            kernel_compile: Some(qrcc_sim::compile::CompileStats {
                kernels_out: 7,
                ..Default::default()
            }),
            result_cache: Some(CacheStats { hits: 3, ..CacheStats::default() }),
            ..ScheduleReport::default()
        };
        let snap = adapt::schedule_metrics(&report);
        assert_eq!(counter(&snap, "compile.kernels_out"), Some(7));
        assert_eq!(counter(&snap, "cache.hits"), Some(3));
    }

    #[test]
    fn report_renders_every_attached_section() {
        let mut profile = PhaseProfile::new();
        profile.add("dispatch", Duration::from_millis(5));
        profile.total = Duration::from_millis(5);
        let section = MetricsSnapshot::default().with_counter("server.batches", 2);
        let report = QrccReport::new()
            .with_profile(profile)
            .with_metrics(MetricsSnapshot::default().with_counter("net.pings", 3))
            .with_section("server A", section);
        let text = report.render();
        assert!(text.contains("wall-clock by phase"), "{text}");
        assert!(text.contains("net.pings"), "{text}");
        assert!(text.contains("-- server A --"), "{text}");
        assert!(text.contains("server.batches"), "{text}");
    }

    #[test]
    fn merged_metrics_folds_sections_into_one_snapshot() {
        let report = QrccReport::new()
            .with_metrics(MetricsSnapshot::default().with_counter("net.pings", 3))
            .with_section("s", MetricsSnapshot::default().with_counter("net.pings", 2));
        let merged = report.merged_metrics();
        assert_eq!(merged.counters, vec![("net.pings".to_owned(), 5)]);
    }
}
