//! A keyed job whose variants together instantiate more than
//! `MAX_BATCH_WEIGHT` travels as consecutive keyed submissions through a
//! frame-counting relay and answers exactly what the in-process backend
//! answers — and, run in a process of its own, the whole test stays within
//! a memory bound: every backend builds each variant where it runs it, so
//! neither the local reference run nor the worker holds the job's circuits
//! at once.

mod relay;

use qrcc_core::execute::ExactBackend;
use qrcc_core::fragment::{FragmentSet, VariantKey, VariantRequest};
use qrcc_core::planner::CutPlanner;
use qrcc_core::{DeviceRegistry, QrccConfig};
use qrcc_net::proto::{MAX_BATCH_WEIGHT, MAX_FRAGMENT_WEIGHT};
use relay::{bitwise, scheduled, tailed_chain, through_relay};
use std::time::Duration;

/// The most resident memory the test process may reach, in MiB: half of
/// what it reached while a job's circuits were all built before any ran.
const PEAK_RSS_BOUND_MB: u64 = 420;

/// The process's peak resident set (`VmHWM`) in MiB, where the platform
/// reports it.
fn peak_rss_mb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024)
}

/// Every variant of every fragment of `set`, each under every packing of
/// output bases (Z, X or Y per output).
fn every_variant(set: &FragmentSet) -> Vec<VariantRequest> {
    let mut requests = Vec::new();
    for (index, fragment) in set.fragments.iter().enumerate() {
        let outputs = fragment.body().num_outputs() as u32;
        for ordinal in 0..fragment.variant_count() {
            for bases in 0..3u64.pow(outputs) {
                let packed = (0..outputs)
                    .fold(0u64, |packed, slot| packed | (bases / 3u64.pow(slot) % 3) << (2 * slot));
                requests.push(VariantRequest { key: VariantKey::new(index, ordinal, packed) });
            }
        }
    }
    requests
}

#[test]
fn a_job_heavier_than_the_batch_cap_goes_as_consecutive_keyed_submissions() {
    // the same chain, wider: the fragment holding the tail measures five
    // outputs, so its variants under every output basis together outweigh
    // the batch cap while each body stays far under the body cap
    let circuit = tailed_chain(11, 9_000);
    let config = QrccConfig::new(5).with_subcircuit_range(2, 2).with_ilp_time_limit(Duration::ZERO);
    let plan = CutPlanner::new(config).plan(&circuit).unwrap();
    let set = FragmentSet::from_plan(&plan).unwrap();
    let requests = every_variant(&set);
    let weight: usize =
        requests.iter().map(|request| set.fragments[request.key.fragment].body().weight()).sum();
    assert!(weight > MAX_BATCH_WEIGHT, "{weight}");
    assert!(set.fragments.iter().all(|f| f.body().weight() <= MAX_FRAGMENT_WEIGHT));

    let mut local = DeviceRegistry::new();
    local.register("exact", ExactBackend::new());
    let expected = scheduled(&local, &set, &requests);
    let mut remote = None;
    let (qasm, keys, defines) = through_relay(|registry| {
        remote = Some(scheduled(registry, &set, &requests));
    });
    assert_eq!((qasm, keys, defines), (0, 2, 2), "two keyed submissions, each body defined once");
    assert_eq!(bitwise(&remote.unwrap()), bitwise(&expected));
    if let Some(peak) = peak_rss_mb() {
        assert!(peak < PEAK_RSS_BOUND_MB, "peak RSS {peak} MiB, bound {PEAK_RSS_BOUND_MB} MiB");
    }
}
