//! Every metric the benchmark prints, by name, with its unit — and, for the
//! end-to-end metrics, the one bound both `BENCHMARK.json` and `--check` hold
//! it to.

/// An end-to-end metric; all are lower-is-better.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// The share of the baseline by which the metric may worsen before
    /// `--check` (and, for the `everywhere` ones, the benchmark driver)
    /// calls it a regression; 0 tolerates nothing.
    pub bound: f64,
    /// Defined, and never zero, on all eight workloads: `BENCHMARK.json`
    /// lists exactly these as `end_to_end`, with this bound, and a
    /// `--trace 0` result line carries exactly these. The others exist only
    /// on some workloads (shots and error on the sampled ones, p90 with a
    /// hundred samples) or are zero when all is well (`failed_fraction`,
    /// which the result line carries as `failed` / `attempted`).
    pub everywhere: bool,
}

const fn metric(name: &'static str, unit: &'static str, bound: f64, everywhere: bool) -> EndToEnd {
    EndToEnd { name, unit, bound, everywhere }
}

/// The issue asked for 0.10 on the request timings and the peak RSS. Ten
/// runs of one commit on the 2-vCPU sizing box spread by up to 0.22 (see
/// `WORKLOADS.md`), so a 0.10 gate fails a commit against itself; 0.25 is
/// the widest bound `BENCHMARK.json` may state. `cuts_effective` repeats
/// exactly; 0.001 is under one whole cut for any sum below a thousand.
pub const END_TO_END: [EndToEnd; 9] = [
    metric("request_p50_s", "s", 0.25, true),
    metric("setup_s", "s", 0.25, true),
    metric("peak_rss_mb", "MB", 0.25, true),
    metric("cuts_effective", "count", 0.001, true),
    metric("request_p90_s", "s", 0.25, false),
    metric("failed_fraction", "ratio", 0.0, false),
    metric("device_shots", "count", 0.0, false),
    metric("rms_error", "abs", 0.15, false),
    metric("shot_cost", "count", 0.15, false),
];

/// What a timed run prints about its samples beside the metrics: the request
/// quartiles `--check` reads a run's own spread from, and the sample count.
pub const SAMPLES: [(&str, &str); 3] =
    [("request_q1_s", "s"), ("request_q3_s", "s"), ("request_samples", "count")];

/// The per-layer metrics, layer = module. A `--trace 1` result line carries
/// exactly these, 0 where a workload does not reach the layer. The first
/// three are the shot and accuracy metrics of [`END_TO_END`] again, from the
/// traced run's few requests: `BENCHMARK.json` has no other place for a
/// metric that only the sampled workloads define.
pub const PER_LAYER: [(&str, &str); 75] = [
    ("device_shots", "count"),
    ("rms_error", "abs"),
    ("shot_cost", "count"),
    ("circuit.dag_build_s", "s"),
    ("circuit.qasm_encode_s", "s"),
    ("circuit.qasm_parse_s", "s"),
    ("circuit.qasm_bytes", "bytes"),
    ("ilp.solve_s", "s"),
    ("ilp.vars", "count"),
    ("ilp.constraints", "count"),
    ("ilp.optimal", "count"),
    ("planner.heuristic_s", "s"),
    ("planner.wire_cuts", "count"),
    ("planner.gate_cuts", "count"),
    ("planner.subcircuits", "count"),
    ("planner.max_width", "count"),
    ("planner.used_ilp", "count"),
    ("fragment.build_s", "s"),
    ("fragment.total_variants", "count"),
    ("fragment.instantiate_s", "s"),
    ("reconstruct.enumerate_s", "s"),
    ("reconstruct.requests", "count"),
    ("reconstruct.fold_s", "s"),
    ("reconstruct.contract_s", "s"),
    ("reconstruct.contractions", "count"),
    ("reconstruct.strategy_dense", "count"),
    ("reconstruct.pruned_mass", "abs"),
    ("execute.prepare_s", "s"),
    ("execute.requested", "count"),
    ("execute.unique_variants", "count"),
    ("execute.executed", "count"),
    ("execute.dedup_ratio", "ratio"),
    ("sim.compile_s", "s"),
    ("sim.kernels", "count"),
    ("sim.fusion_ratio", "ratio"),
    ("sim.coverage", "ratio"),
    ("sim.kernel_cache_hit_rate", "ratio"),
    ("sim.run_batch_s", "s"),
    ("sim.amp_updates", "count"),
    ("sim.sample_s", "s"),
    ("sim.shots_per_s", "1/s"),
    ("schedule.variant_weight_s", "s"),
    ("schedule.chunks", "count"),
    ("schedule.total_shots", "count"),
    ("schedule.backend_imbalance", "ratio"),
    ("dispatch.jobs", "count"),
    ("dispatch.retries", "count"),
    ("dispatch.max_in_flight", "count"),
    ("dispatch.queue_wait_s", "s"),
    ("dispatch.execute_wall_s", "s"),
    ("dispatch.deliver_wall_s", "s"),
    ("dispatch.consumer_wait_s", "s"),
    ("net.connect_s", "s"),
    ("net.ping_rtt_us", "us"),
    ("net.run_batch_s", "s"),
    ("net.overhead_s", "s"),
    ("net.frame_encode_s", "s"),
    ("net.frame_decode_s", "s"),
    ("net.frame_bytes_tx", "bytes"),
    ("net.frame_bytes_rx", "bytes"),
    ("net.server_batches", "count"),
    ("net.server_queue_high_water", "count"),
    ("cache.lookup_s", "s"),
    ("cache.store_s", "s"),
    ("cache.hits", "count"),
    ("cache.delta_hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.shots_saved", "count"),
    ("bench.layer_coverage", "ratio"),
    ("bench.trace_overhead_fraction", "ratio"),
    ("bench.profile_gap_fraction", "ratio"),
    ("bench.traced_request_s", "s"),
    ("bench.untraced_request_s", "s"),
    ("bench.staged_request_s", "s"),
];

/// The unit of a metric a run prints. A name outside the catalogue is a
/// mistake in the benchmark, not in its input.
pub fn unit_of(metric: &str) -> &'static str {
    let end_to_end = END_TO_END.iter().map(|m| (m.name, m.unit));
    end_to_end
        .chain(PER_LAYER)
        .chain(SAMPLES)
        .find(|(name, _)| *name == metric)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("{metric} is not in the catalogue"))
}

/// The end-to-end metric behind a `workload/metric` key of the ledger.
pub fn end_to_end(key: &str) -> Option<&'static EndToEnd> {
    let metric = key.rsplit('/').next().unwrap_or(key);
    END_TO_END.iter().find(|m| m.name == metric)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn field(entry: &Value, key: &str) -> String {
        entry.get(key).and_then(Value::as_str).unwrap_or_default().to_string()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogued_metrics_with_their_bounds() {
        let file = benchmark_json();
        let listed: Vec<(String, String, String, Option<f64>)> = file
            .get("end_to_end")
            .unwrap()
            .items()
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Value::as_f64);
                (field(m, "name"), field(m, "unit"), field(m, "better"), bound)
            })
            .collect();
        let own: Vec<(String, String, String, Option<f64>)> = END_TO_END
            .iter()
            .filter(|m| m.everywhere)
            .map(|m| (m.name.to_string(), m.unit.to_string(), "lower".to_string(), Some(m.bound)))
            .collect();
        assert_eq!(listed, own);

        let per_layer = file.get("per_layer").unwrap().items();
        let listed: Vec<(String, String)> =
            per_layer.iter().map(|m| (field(m, "name"), field(m, "unit"))).collect();
        let own: Vec<(String, String)> =
            PER_LAYER.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(listed, own);
    }

    #[test]
    fn benchmark_json_lists_exactly_the_workloads() {
        let file = benchmark_json();
        let listed: Vec<(String, String)> = file
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let own: Vec<(String, String)> = crate::workloads::all()
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(listed, own);
    }

    #[test]
    fn names_are_unique_and_keys_find_their_metric() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .filter(|m| m.everywhere)
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|(name, _)| *name))
            .chain(SAMPLES.iter().map(|(name, _)| *name))
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} twice");
        }
        // the shot and accuracy metrics keep one unit in both places
        for m in END_TO_END.iter().filter(|m| !m.everywhere) {
            assert!(PER_LAYER.iter().all(|(name, unit)| *name != m.name || *unit == m.unit));
        }
        assert_eq!(end_to_end("plan_wide/cuts_effective").unwrap().bound, 0.001);
        assert_eq!(end_to_end("reg8_gate_fleet/request_p90_s").unwrap().bound, 0.25);
        assert!(end_to_end("vqe20_sim/sim.run_batch_s").is_none());
        assert_eq!(unit_of("request_q3_s"), "s");
        assert_eq!(unit_of("peak_rss_mb"), "MB");
    }
}
