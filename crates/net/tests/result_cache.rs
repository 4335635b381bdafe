//! Server-side result-cache tests over the loopback transport: a warm
//! `QrccServer` must answer repeats from its cache without touching its
//! backend, doubled shot requests must cross the wire as delta top-ups, the
//! worker's cache counters must reach its metrics scrape, a persisted
//! snapshot must survive a full server kill-and-restart, and keyed variants
//! must be cached under their fragment body, apart from the same circuits
//! sent bare.

use qrcc_circuit::Circuit;
use qrcc_core::cache::ResultCachePolicy;
use qrcc_core::execute::{ExactBackend, ExecutionBackend, ShotsBackend, VariantBatch};
use qrcc_core::fragment::{FragmentSet, VariantKey};
use qrcc_core::planner::CutPlanner;
use qrcc_core::QrccConfig;
use qrcc_net::{QrccServer, RemoteBackend};
use qrcc_sim::device::{Device, DeviceConfig};

fn scratch(name: &str) -> std::path::PathBuf {
    static COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("qrcc-net-cache-{}-{n}-{name}", std::process::id()))
}

/// Three structurally distinct 2-qubit circuits — three cache entries.
fn workload() -> Vec<Circuit> {
    (0..3)
        .map(|k| {
            let mut c = Circuit::new(2);
            c.h(0).ry(0.3 * (k as f64 + 1.0), 1).cx(0, 1).measure_all();
            c
        })
        .collect()
}

fn sampling_server(seed: u64, shots: u64) -> QrccServer {
    let device = Device::new(DeviceConfig::ideal(2).with_seed(seed));
    QrccServer::bind("127.0.0.1:0", ShotsBackend::new(device, shots)).unwrap()
}

#[test]
fn a_warm_server_answers_repeats_from_its_cache() {
    let server =
        sampling_server(7, 1_000).with_result_cache(&ResultCachePolicy::in_memory()).spawn();
    let remote = RemoteBackend::connect(server.addr()).unwrap();
    let circuits = workload();

    let cold: Vec<Vec<f64>> = remote.run_batch(&circuits).into_iter().map(Result::unwrap).collect();
    let cache = server.cache_stats().unwrap();
    assert_eq!(cache.misses, 3, "the first batch misses everything");
    assert_eq!(cache.hits, 0);

    let warm: Vec<Vec<f64>> = remote.run_batch(&circuits).into_iter().map(Result::unwrap).collect();
    assert_eq!(cold, warm, "cache-served distributions must be byte-identical");

    let cache = server.cache_stats().unwrap();
    assert_eq!(cache.hits, 3, "the repeat is served entirely from cache");
    assert_eq!(cache.misses, 3, "no new misses on the repeat");
    assert_eq!(cache.shots_saved, 3_000, "three cached circuits at 1000 shots each");
    assert_eq!(server.stats().circuits_ok, 6, "cache-served circuits still count as answered");

    // the metrics scrape reports the cache's own counters
    let report = remote.get_metrics().unwrap();
    let counter = |name: &str| report.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    assert_eq!(counter("server.cache_hits"), Some(3));
    assert_eq!(counter("server.cache_misses"), Some(3));
    assert_eq!(counter("server.cache_shots_saved"), Some(3_000));
    server.shutdown();
}

#[test]
fn doubled_shot_requests_cross_the_wire_as_delta_top_ups() {
    let server =
        sampling_server(7, 1_000).with_result_cache(&ResultCachePolicy::in_memory()).spawn();
    let remote = RemoteBackend::connect(server.addr()).unwrap();
    let circuits = workload();

    let low = vec![500u64; 3];
    let high = vec![1_000u64; 3];
    for r in remote.run_batch_with_shots(&circuits, &low) {
        r.unwrap();
    }
    for r in remote.run_batch_with_shots(&circuits, &high) {
        r.unwrap();
    }
    let cache = server.cache_stats().unwrap();
    assert_eq!(cache.delta_hits, 3, "the doubled request is served as deltas");
    assert_eq!(cache.shots_saved, 3 * 500, "the stored half is not re-executed");

    // the merged write-back upgraded the entries to 1000 shots: the same
    // request again is now a full hit
    for r in remote.run_batch_with_shots(&circuits, &high) {
        r.unwrap();
    }
    let cache = server.cache_stats().unwrap();
    assert_eq!(cache.hits, 3, "merged entries serve the doubled request fully");
    server.shutdown();
}

#[test]
fn a_persisted_cache_survives_a_server_restart() {
    let path = scratch("restart.snapshot");
    let policy = ResultCachePolicy::persisted(path.to_string_lossy().into_owned());
    let circuits = workload();

    // first server: execute, then shut down — shutdown persists the snapshot
    let first = sampling_server(7, 1_000).with_result_cache(&policy).spawn();
    let remote = RemoteBackend::connect(first.addr()).unwrap();
    let cold: Vec<Vec<f64>> = remote.run_batch(&circuits).into_iter().map(Result::unwrap).collect();
    drop(remote);
    first.shutdown();
    assert!(path.exists(), "shutdown must write the snapshot");

    // second server: same snapshot, but a device with a different seed — it
    // would sample different distributions, so identical output proves the
    // snapshot served every circuit
    let second = sampling_server(999, 1_000).with_result_cache(&policy).spawn();
    let remote = RemoteBackend::connect(second.addr()).unwrap();
    let restored: Vec<Vec<f64>> =
        remote.run_batch(&circuits).into_iter().map(Result::unwrap).collect();
    assert_eq!(cold, restored, "snapshot-served distributions must be byte-identical");

    let cache = second.cache_stats().unwrap();
    assert_eq!(cache.hits, 3, "the restarted server serves from the snapshot");
    assert_eq!(cache.misses, 0);
    second.shutdown();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn keyed_variants_are_cached_by_key_and_apart_from_their_qasm() {
    let mut chain = Circuit::new(5);
    chain.h(0).cx(0, 1).cx(1, 2).ry(0.4, 2).cx(2, 3).cx(3, 4);
    let config = QrccConfig::new(3)
        .with_subcircuit_range(2, 3)
        .with_ilp_time_limit(std::time::Duration::ZERO);
    let set = FragmentSet::from_plan(&CutPlanner::new(config).plan(&chain).unwrap()).unwrap();
    let keys: Vec<VariantKey> = (0..set.fragments.len())
        .flat_map(|f| (0..set.fragments[f].variant_count()).map(move |o| VariantKey::new(f, o, 0)))
        .collect();
    let server = QrccServer::bind("127.0.0.1:0", ExactBackend::new())
        .unwrap()
        .with_result_cache(&ResultCachePolicy::in_memory())
        .spawn();
    let remote = RemoteBackend::connect(server.addr()).unwrap();
    let bodies = set.bodies();
    let batch = VariantBatch::new(&bodies, keys.clone(), None);
    let n = keys.len() as u64;

    let cold: Vec<Vec<f64>> = remote.run(&batch).into_iter().map(Result::unwrap).collect();
    let warm: Vec<Vec<f64>> = remote.run(&batch).into_iter().map(Result::unwrap).collect();
    assert_eq!(cold, warm);
    let cache = server.cache_stats().unwrap();
    assert_eq!((cache.misses, cache.hits), (n, n), "the keyed repeat is served by key");

    // the same circuits sent bare are one-variant bodies of their own
    let circuits: Vec<Circuit> = (0..batch.len()).map(|i| batch.build(i)).collect();
    let bare = remote.run_batch(&circuits);
    assert!(bare.into_iter().map(Result::unwrap).eq(cold));
    let cache = server.cache_stats().unwrap();
    assert_eq!((cache.misses, cache.hits), (2 * n, n), "a key and its bare circuit share no entry");
    server.shutdown();
}
