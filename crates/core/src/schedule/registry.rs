//! A registry of heterogeneous execution backends the scheduler routes over.

use crate::cache::{CacheStats, ResultCache, ResultCachePolicy};
use crate::execute::{ExecutionBackend, ShotsBackend};
use qrcc_sim::compile::CompileStats;
use qrcc_sim::device::Device;
use std::sync::Arc;

/// One backend of a [`DeviceRegistry`]: a name for accounting, the backend
/// itself, and its relative shot cost.
pub struct RegisteredBackend {
    name: String,
    backend: Box<dyn ExecutionBackend + Send + Sync>,
    cost_per_shot: f64,
}

impl RegisteredBackend {
    /// The registration name (used in routing stats).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The backend.
    pub fn backend(&self) -> &(dyn ExecutionBackend + Send + Sync) {
        self.backend.as_ref()
    }

    /// Relative cost of one shot on this backend (the router's load unit —
    /// a busy or expensive device gets a higher factor and receives
    /// proportionally less work).
    pub fn cost_per_shot(&self) -> f64 {
        self.cost_per_shot
    }

    /// The widest circuit this backend accepts, or `None` when unbounded.
    pub fn max_qubits(&self) -> Option<usize> {
        self.backend.max_qubits()
    }
}

impl std::fmt::Debug for RegisteredBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegisteredBackend")
            .field("name", &self.name)
            .field("max_qubits", &self.max_qubits())
            .field("cost_per_shot", &self.cost_per_shot)
            .finish()
    }
}

/// A set of heterogeneous [`ExecutionBackend`]s (different qubit counts,
/// noise models, shot costs) the [`Scheduler`](crate::schedule::Scheduler)
/// places fragment circuits on.
///
/// ```rust
/// use qrcc_core::execute::ExactBackend;
/// use qrcc_core::schedule::DeviceRegistry;
///
/// let mut registry = DeviceRegistry::new();
/// registry.register("big", ExactBackend::capped(3));
/// registry.register("small", ExactBackend::capped(2));
/// assert_eq!(registry.len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct DeviceRegistry {
    entries: Vec<RegisteredBackend>,
    /// Shot-aware result cache the dispatch layer consults before routing
    /// circuits to any of the registered backends. `None` (the default)
    /// executes everything.
    result_cache: Option<Arc<ResultCache>>,
}

impl DeviceRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a backend under `name` with unit shot cost.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        backend: impl ExecutionBackend + Send + 'static,
    ) -> &mut Self {
        self.register_with_cost(name, backend, 1.0)
    }

    /// Registers a backend with an explicit relative shot cost.
    ///
    /// # Panics
    ///
    /// Panics if `cost_per_shot` is not finite and positive.
    pub fn register_with_cost(
        &mut self,
        name: impl Into<String>,
        backend: impl ExecutionBackend + Send + 'static,
        cost_per_shot: f64,
    ) -> &mut Self {
        assert!(
            cost_per_shot.is_finite() && cost_per_shot > 0.0,
            "cost per shot must be finite and positive"
        );
        self.entries.push(RegisteredBackend {
            name: name.into(),
            backend: Box::new(backend),
            cost_per_shot,
        });
        self
    }

    /// Convenience: registers a simulated [`Device`] as a [`ShotsBackend`]
    /// running `shots` shots per circuit by default (a scheduler with a
    /// global budget overrides the per-circuit count).
    pub fn register_device(
        &mut self,
        name: impl Into<String>,
        device: Device,
        shots: u64,
    ) -> &mut Self {
        self.register(name, ShotsBackend::new(device, shots))
    }

    /// Number of registered backends.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no backend is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The registered backends, in registration order.
    pub fn entries(&self) -> &[RegisteredBackend] {
        &self.entries
    }

    /// The registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }

    /// Total circuits executed across all backends.
    pub fn total_executions(&self) -> u64 {
        self.entries.iter().map(|e| e.backend.executions()).sum()
    }

    /// Attaches a result cache built from `policy` (builder form). Once
    /// attached, each [`dispatch`](crate::dispatch) worker serves the jobs
    /// routed to it through the cache
    /// ([`cache::serve`](crate::cache::serve)): full hits skip the backend
    /// (their allocated shots are simply not spent), delta hits execute
    /// only the shot top-up, and every fresh execution is written back.
    #[must_use]
    pub fn with_result_cache(mut self, policy: &ResultCachePolicy) -> Self {
        self.result_cache = Some(Arc::new(ResultCache::open(policy)));
        self
    }

    /// Attaches an existing (possibly shared) result cache.
    pub fn set_result_cache(&mut self, cache: Arc<ResultCache>) {
        self.result_cache = Some(cache);
    }

    /// The attached result cache, if any.
    pub fn result_cache(&self) -> Option<&Arc<ResultCache>> {
        self.result_cache.as_ref()
    }

    /// Counters of the attached result cache, or `None` when no cache is
    /// attached.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.result_cache.as_ref().map(|cache| cache.stats())
    }

    /// Merged kernel-compilation statistics across every registered backend
    /// that reports them, or `None` when none does (e.g. an all-remote
    /// registry).
    pub fn compile_stats(&self) -> Option<CompileStats> {
        let mut merged: Option<CompileStats> = None;
        for entry in &self.entries {
            if let Some(stats) = entry.backend.compile_stats() {
                merged.get_or_insert_with(CompileStats::default).merge(&stats);
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute::ExactBackend;
    use qrcc_sim::device::DeviceConfig;

    #[test]
    fn registration_preserves_order_and_metadata() {
        let mut registry = DeviceRegistry::new();
        registry
            .register("wide", ExactBackend::new())
            .register_with_cost("narrow", ExactBackend::capped(2), 2.5)
            .register_device("noisy", Device::new(DeviceConfig::ideal(3)), 1000);
        assert_eq!(registry.names(), vec!["wide", "narrow", "noisy"]);
        assert_eq!(registry.entries()[0].max_qubits(), None);
        assert_eq!(registry.entries()[1].max_qubits(), Some(2));
        assert_eq!(registry.entries()[1].cost_per_shot(), 2.5);
        assert_eq!(registry.entries()[2].max_qubits(), Some(3));
        assert_eq!(registry.entries()[2].backend().shots_per_circuit(), Some(1000));
        assert_eq!(registry.total_executions(), 0);
    }

    #[test]
    #[should_panic(expected = "cost per shot")]
    fn zero_cost_is_rejected() {
        DeviceRegistry::new().register_with_cost("free", ExactBackend::new(), 0.0);
    }
}
