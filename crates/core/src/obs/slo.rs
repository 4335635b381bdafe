//! Declarative service-level objectives evaluated over windowed metrics.
//!
//! An [`SloSpec`] names what "healthy" means for a serving fleet — a
//! latency quantile target, an error-rate ceiling, a minimum availability —
//! and [`SloSpec::evaluate`] scores an observed window against it with
//! **burn rates**: `observed / limit`, so `1.0` is exactly at the objective
//! and the [`SloStatus`] laddering (`Ok` → `Warn` at
//! [`SloSpec::warn_ratio`], → `Breached` at `1.0`) is uniform across
//! objective kinds. The load harness and fleet monitor evaluate specs
//! live.

use serde::{Deserialize, Serialize};

use super::Histogram;

/// Health verdict for one objective or a whole spec, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SloStatus {
    /// All burn rates below the warn ratio.
    Ok,
    /// At least one burn rate at or above the warn ratio but below 1.0.
    Warn,
    /// At least one burn rate at or above 1.0 — the objective is violated.
    Breached,
}

impl std::fmt::Display for SloStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SloStatus::Ok => write!(f, "ok"),
            SloStatus::Warn => write!(f, "warn"),
            SloStatus::Breached => write!(f, "breached"),
        }
    }
}

/// A latency objective: the value of `quantile` (in `(0, 1)`) must stay at
/// or below `max_us` microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyTarget {
    /// Which quantile to hold (e.g. `0.99`). Must lie in the open interval
    /// `(0, 1)`.
    pub quantile: f64,
    /// Ceiling for that quantile, in microseconds.
    pub max_us: u64,
}

/// A declarative SLO: any subset of latency, error-rate and availability
/// objectives, plus the warn threshold shared by all of them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloSpec {
    /// Human-readable spec name, echoed into evaluations and reports.
    pub name: String,
    /// Latency-quantile objectives (all must hold).
    #[serde(default)]
    pub latency: Vec<LatencyTarget>,
    /// Ceiling on `errors / requests` in the window, as a fraction.
    #[serde(default)]
    pub max_error_rate: Option<f64>,
    /// Floor on `successes / requests` in the window, as a fraction. The
    /// burn rate is computed on the *unavailability* budget:
    /// `(1 - availability) / (1 - min_availability)`.
    #[serde(default)]
    pub min_availability: Option<f64>,
    /// Burn-rate fraction at which a healthy objective degrades to
    /// [`SloStatus::Warn`]. Defaults to 0.8.
    #[serde(default = "default_warn_ratio")]
    pub warn_ratio: f64,
}

fn default_warn_ratio() -> f64 {
    0.8
}

/// One objective's score inside an [`SloEvaluation`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloObjective {
    /// What was measured (`latency p0.99`, `error_rate`, `availability`).
    pub name: String,
    /// The observed value (microseconds for latency, fraction otherwise).
    pub observed: f64,
    /// The configured limit the observation is scored against.
    pub limit: f64,
    /// `observed / limit` (budget-relative for availability); `>= 1.0`
    /// means the objective is violated.
    pub burn_rate: f64,
    /// This objective's verdict under the spec's warn ratio.
    pub status: SloStatus,
}

/// The result of scoring one window against an [`SloSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloEvaluation {
    /// Name of the spec that produced this evaluation.
    pub spec: String,
    /// Per-objective scores, in spec order.
    pub objectives: Vec<SloObjective>,
    /// The worst per-objective status (or `Ok` when no objective applies).
    pub status: SloStatus,
}

impl SloEvaluation {
    /// The highest burn rate across objectives (0.0 when none apply).
    pub fn max_burn_rate(&self) -> f64 {
        self.objectives.iter().map(|o| o.burn_rate).fold(0.0, f64::max)
    }
}

impl std::fmt::Display for SloEvaluation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "slo {} [{}]", self.spec, self.status)?;
        for o in &self.objectives {
            write!(
                f,
                "\n  {:<16} observed {:>12.3} limit {:>12.3} burn {:>6.3} [{}]",
                o.name, o.observed, o.limit, o.burn_rate, o.status
            )?;
        }
        Ok(())
    }
}

impl SloSpec {
    /// A named spec with no objectives (add them with the builders).
    pub fn new(name: &str) -> Self {
        SloSpec {
            name: name.to_owned(),
            latency: Vec::new(),
            max_error_rate: None,
            min_availability: None,
            warn_ratio: default_warn_ratio(),
        }
    }

    /// Adds a latency objective: `quantile` must stay at or below `max_us`.
    pub fn with_latency(mut self, quantile: f64, max_us: u64) -> Self {
        self.latency.push(LatencyTarget { quantile, max_us });
        self
    }

    /// Caps the window error rate (`errors / requests`) at `rate`.
    pub fn with_max_error_rate(mut self, rate: f64) -> Self {
        self.max_error_rate = Some(rate);
        self
    }

    /// Requires at least `fraction` of window requests to succeed.
    pub fn with_min_availability(mut self, fraction: f64) -> Self {
        self.min_availability = Some(fraction);
        self
    }

    /// Sets the burn-rate fraction where `Ok` degrades to `Warn`.
    pub fn with_warn_ratio(mut self, ratio: f64) -> Self {
        self.warn_ratio = ratio;
        self
    }

    fn status_for(&self, burn_rate: f64) -> SloStatus {
        if burn_rate >= 1.0 {
            SloStatus::Breached
        } else if burn_rate >= self.warn_ratio {
            SloStatus::Warn
        } else {
            SloStatus::Ok
        }
    }

    /// Scores one observed window: `latency` holds the window's request
    /// latencies (microseconds), `requests`/`errors` count the window's
    /// outcomes. An empty window trivially satisfies every objective.
    pub fn evaluate(&self, latency: &Histogram, requests: u64, errors: u64) -> SloEvaluation {
        let mut objectives = Vec::new();

        for target in &self.latency {
            let observed = latency.quantile(target.quantile).unwrap_or(0) as f64;
            let limit = target.max_us as f64;
            let burn_rate = if limit > 0.0 { observed / limit } else { f64::INFINITY };
            objectives.push(SloObjective {
                name: format!("latency p{}", target.quantile),
                observed,
                limit,
                burn_rate,
                status: self.status_for(burn_rate),
            });
        }

        if let Some(max_rate) = self.max_error_rate {
            let observed = if requests == 0 { 0.0 } else { errors as f64 / requests as f64 };
            let burn_rate = if max_rate > 0.0 {
                observed / max_rate
            } else if observed > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
            objectives.push(SloObjective {
                name: "error_rate".to_owned(),
                observed,
                limit: max_rate,
                burn_rate,
                status: self.status_for(burn_rate),
            });
        }

        if let Some(min_avail) = self.min_availability {
            let observed = if requests == 0 {
                1.0
            } else {
                (requests.saturating_sub(errors)) as f64 / requests as f64
            };
            let budget = 1.0 - min_avail;
            let spent = 1.0 - observed;
            let burn_rate = if budget > 0.0 {
                spent / budget
            } else if spent > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
            objectives.push(SloObjective {
                name: "availability".to_owned(),
                observed,
                limit: min_avail,
                burn_rate,
                status: self.status_for(burn_rate),
            });
        }

        let status = objectives.iter().map(|o| o.status).max().unwrap_or(SloStatus::Ok);
        SloEvaluation { spec: self.name.clone(), objectives, status }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latencies(values: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for v in values {
            h.record(*v);
        }
        h
    }

    #[test]
    fn healthy_window_is_ok() {
        let spec = SloSpec::new("serve")
            .with_latency(0.99, 10_000)
            .with_max_error_rate(0.05)
            .with_min_availability(0.99);
        let eval = spec.evaluate(&latencies(&[100, 200, 300]), 100, 0);
        assert_eq!(eval.status, SloStatus::Ok);
        assert_eq!(eval.objectives.len(), 3);
        assert!(eval.max_burn_rate() < 0.8);
    }

    #[test]
    fn latency_over_target_breaches() {
        let spec = SloSpec::new("serve").with_latency(0.5, 1_000);
        let eval = spec.evaluate(&latencies(&[5_000, 5_000, 5_000]), 3, 0);
        assert_eq!(eval.status, SloStatus::Breached);
        assert!(eval.max_burn_rate() >= 1.0);
    }

    #[test]
    fn warn_band_sits_between_ok_and_breach() {
        let spec = SloSpec::new("serve").with_latency(0.5, 1_000).with_warn_ratio(0.5);
        // p50 ~ 700 with a 1000 us target: burn ~0.7, inside [0.5, 1.0)
        let eval = spec.evaluate(&latencies(&[700; 10]), 10, 0);
        assert_eq!(eval.status, SloStatus::Warn);
    }

    #[test]
    fn error_rate_and_availability_burn_on_budget() {
        let spec = SloSpec::new("serve").with_max_error_rate(0.10).with_min_availability(0.90);
        // 5% errors: error burn 0.5, availability burn (0.05 / 0.10) = 0.5
        let eval = spec.evaluate(&Histogram::new(), 100, 5);
        assert_eq!(eval.status, SloStatus::Ok);
        for o in &eval.objectives {
            assert!((o.burn_rate - 0.5).abs() < 1e-9, "{}: {}", o.name, o.burn_rate);
        }
        // 20% errors: both burn 2.0
        let eval = spec.evaluate(&Histogram::new(), 100, 20);
        assert_eq!(eval.status, SloStatus::Breached);
    }

    #[test]
    fn empty_window_trivially_passes() {
        let spec = SloSpec::new("serve")
            .with_latency(0.99, 1)
            .with_max_error_rate(0.0)
            .with_min_availability(0.999);
        let eval = spec.evaluate(&Histogram::new(), 0, 0);
        assert_eq!(eval.status, SloStatus::Ok);
    }

    #[test]
    fn evaluation_renders_and_orders_status() {
        assert!(SloStatus::Ok < SloStatus::Warn);
        assert!(SloStatus::Warn < SloStatus::Breached);
        let spec = SloSpec::new("serve").with_latency(0.5, 10);
        let text = spec.evaluate(&latencies(&[100]), 1, 0).to_string();
        assert!(text.contains("slo serve [breached]"));
        assert!(text.contains("latency p0.5"));
    }
}
