//! Fault-tolerant asynchronous dispatch: the event loop between routing and
//! folding.
//!
//! The [`Scheduler`](crate::schedule::Scheduler) of PR 3 ran each chunk's
//! backends on scoped threads and **blocked** until the chunk finished —
//! fine for ideal simulators, wrong for the setting QRCC actually targets:
//! flaky, queued, heterogeneous remote devices. This module replaces that
//! inner loop with a hand-rolled async dispatcher (the build environment
//! vendors no tokio, so concurrency is a channel-driven event loop over
//! worker threads, in the spirit of the `vendor/` shims):
//!
//! * **Worker pool** — one `worker` thread per
//!   [`DeviceRegistry`] backend, each
//!   draining a FIFO job queue, so a slow or queued device
//!   (`QueueBackend`) never stalls the others.
//! * **Bounded in-flight window** — at most
//!   [`SchedulePolicy::max_in_flight_chunks`] chunks may be dispatched but
//!   not yet delivered. The loop runs on the caller's thread and calls the
//!   consumer itself, in chunk order; on the pipeline path that is an
//!   accumulator's `absorb`, so each chunk is folded where it is delivered.
//!   A slow fold exerts **backpressure** (nothing is routed while it runs),
//!   and the window bounds the results not yet folded: a window of 1 holds
//!   at most one chunk's. The workers keep executing what is already in
//!   flight, so folding overlaps execution.
//! * **Retry with exclusion** — a circuit that fails on a backend with a
//!   transient error ([`CoreError::is_transient`]; `FlakyBackend` simulates
//!   transient and persistent faults) is re-routed to another compatible
//!   backend with the failer excluded ([`route_retry`](crate::schedule));
//!   once every compatible backend has failed it, the exclusions are waived
//!   (*requeue* — the fault may have been transient) until
//!   [`SchedulePolicy::max_retries`] failures accumulate, at which point
//!   [`CoreError::RetriesExhausted`] surfaces. A permanent error — a
//!   protocol violation, a simulator refusal, a bad key — would recur on
//!   any backend, so it ends the request at once, unwrapped.
//!   Shot accounting stays exact: a circuit's allocated shots, less what
//!   the result cache serves, are spent exactly once, on the backend where
//!   it finally succeeds, and every delivered chunk holds its keys in
//!   ascending order regardless of worker timing or retry schedule.
//! * **Result cache** — with a cache attached to the registry, every
//!   fragment body is interned once per request, and each worker serves its
//!   jobs' canonical keys through [`cache::serve`](crate::cache::serve):
//!   full hits never reach the backend and are never built, and misses and
//!   delta top-ups run as one call. A retry asks for the circuit's
//!   allocated shots again, and the cache is consulted again.
//! * **Lifecycle telemetry** — [`DispatchStats`] counts jobs dispatched /
//!   completed / retried / requeued and the wall-clock of each phase
//!   (queue wait, backend execution, consumer delivery); per-backend
//!   circuit, shot, failure and retry counters go to the scheduler as
//!   [`BackendUsage`] and from there into the
//!   [`ScheduleReport`](crate::schedule::ScheduleReport).
//!
//! [`SchedulePolicy::max_in_flight_chunks`]: crate::SchedulePolicy::max_in_flight_chunks
//! [`SchedulePolicy::max_retries`]: crate::SchedulePolicy::max_retries

#[cfg(any(test, feature = "testing"))]
pub mod testing;
mod worker;

#[cfg(any(test, feature = "testing"))]
pub use testing::{FailureMode, FlakyBackend, QueueBackend};

use crate::cache::CachedBody;
use crate::config::SchedulePolicy;
use crate::execute::{BackendUsage, ExecutionResults, PreparedBatch, Shared};
use crate::schedule::{router, DeviceRegistry};
use crate::CoreError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use worker::{Job, JobContext, JobOutcome};

/// Lifecycle telemetry of one dispatched batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Jobs handed to backend workers by the initial per-chunk routing (one
    /// job per chunk × backend sub-batch).
    pub jobs_dispatched: u64,
    /// Jobs that returned with every circuit succeeding.
    pub jobs_completed: u64,
    /// Single-circuit retry jobs created after a failure.
    pub jobs_retried: u64,
    /// Retry jobs that had to fall back to a previously failed backend
    /// because every compatible backend had already failed the circuit.
    pub jobs_requeued: u64,
    /// Individual circuit executions that failed (each either became a
    /// retry or exhausted the budget).
    pub failures: u64,
    /// Largest number of chunks simultaneously in flight (dispatched but
    /// not yet delivered) — never exceeds the policy window when one is set.
    pub max_in_flight_chunks: usize,
    /// Total time jobs sat in worker queues before executing.
    pub queue_wait: Duration,
    /// Total backend execution wall-clock across all workers (overlapping
    /// workers each contribute their own time).
    pub execute_wall: Duration,
    /// Total time the consumer (`sink`) spent accepting delivered chunks —
    /// the backpressure the dispatcher absorbed. On the pipeline path the
    /// sink is the accumulator's `absorb`, so this is the fold time.
    pub deliver_wall: Duration,
}

/// The channel-driven async dispatch engine inside
/// [`Scheduler`](crate::schedule::Scheduler): runs one prepared
/// (deduplicated, shot-allocated) batch of fragment variants across
/// `registry` under `policy`. Each chunk is routed across the registry, and
/// its sub-batches are driven through per-backend worker threads under a
/// bounded in-flight window — each job goes through the registry's result
/// cache ([`cache::serve`](crate::cache::serve)), and what the cache does
/// not answer reaches the backend as one
/// [`run`](crate::execute::ExecutionBackend::run) call over canonical keys
/// of `batch`. Failed circuits are routed again with the
/// failing backend excluded, and each chunk's [`ExecutionResults`] are
/// delivered to `sink` strictly in chunk order. Returns the lifecycle
/// telemetry and, per backend that did any work (registry order), its
/// usage.
///
/// # Errors
///
/// * [`CoreError::NoCompatibleBackend`] when routing cannot place a
///   circuit on any registered backend.
/// * [`CoreError::RetriesExhausted`] when a circuit fails transiently more
///   than [`SchedulePolicy::max_retries`] times; with a retry budget of 0
///   the first backend error propagates unwrapped instead, and so does the
///   first permanent one ([`CoreError::is_transient`]) under any budget.
/// * Any error `sink` returns.
pub(crate) fn dispatch(
    registry: &DeviceRegistry,
    policy: SchedulePolicy,
    batch: &PreparedBatch<'_>,
    shots: Option<&[u64]>,
    mut sink: impl FnMut(ExecutionResults) -> Result<(), CoreError>,
) -> Result<(DispatchStats, Vec<BackendUsage>), CoreError> {
    let tracer = crate::obs::tracer();
    // per-job spans parent under the caller's open span (the streaming
    // pipeline's `phase.dispatch`) even though workers run on their own
    // threads: the id crosses with the job
    let dispatch_span = tracer.current();
    let total = batch.len();
    let mut stats = DispatchStats::default();
    if total == 0 {
        // preserve the chunk protocol: an empty batch still delivers one
        // (empty, accounted) chunk
        let chunk = ExecutionResults::from_entries(Vec::new(), batch.requested, 0);
        let started = Instant::now();
        sink(chunk)?;
        stats.deliver_wall = started.elapsed();
        return Ok((stats, Vec::new()));
    }

    let entries = registry.entries();
    let chunk_size = if policy.chunk_size == 0 { total } else { policy.chunk_size };
    let mut bounds: Vec<(usize, usize)> = Vec::new();
    let mut start = 0;
    while start < total {
        let end = (start + chunk_size).min(total);
        bounds.push((start, end));
        start = end;
    }
    let window =
        if policy.max_in_flight_chunks == 0 { bounds.len() } else { policy.max_in_flight_chunks };

    // per-circuit dispatch state (indices are batch-global)
    let mut outcomes: Vec<Option<Shared>> = vec![None; total];
    let mut failures_of: Vec<u32> = vec![0; total];
    let mut excluded: Vec<Vec<usize>> = vec![Vec::new(); total];
    // per-chunk progress and per-backend usage accounting
    let mut remaining: Vec<usize> = bounds.iter().map(|&(s, e)| e - s).collect();
    let mut usage: Vec<BackendUsage> = entries
        .iter()
        .map(|entry| BackendUsage { backend: entry.name().to_string(), ..Default::default() })
        .collect();

    // each body's identity is checked once here, for the whole request
    let cache = registry.result_cache().map(|cache| &**cache);
    let bodies: Vec<CachedBody> = cache.map_or_else(Vec::new, |cache| {
        batch.bodies.iter().map(|body| cache.intern(body)).collect()
    });
    let cache = cache.map(|cache| (cache, &bodies[..]));
    let cancelled = AtomicBool::new(false);
    std::thread::scope(|scope| -> Result<(), CoreError> {
        let (event_tx, event_rx) = std::sync::mpsc::channel::<JobOutcome>();
        let context = JobContext { batch, cache, cancelled: &cancelled };
        let workers = worker::spawn_workers(scope, entries, &event_tx, context);
        drop(event_tx); // workers hold their own clones

        let mut next_dispatch = 0usize; // next chunk to route + enqueue
        let mut next_deliver = 0usize; // next chunk owed to the sink
        let mut in_flight = 0usize;
        let loop_result = (|| -> Result<(), CoreError> {
            while next_deliver < bounds.len() {
                // 1. dispatch while the in-flight window allows
                if next_dispatch < bounds.len() && in_flight < window {
                    let chunk_index = next_dispatch;
                    let (start, end) = bounds[chunk_index];
                    let chunk_shots = shots.map(|s| &s[start..end]);
                    let assignment = {
                        let _span = tracer.span_under("phase.route", dispatch_span);
                        router::route(registry, &batch.shapes[start..end], chunk_shots)?
                    };
                    let mut per_entry: Vec<Vec<usize>> = vec![Vec::new(); entries.len()];
                    for (local, &entry) in assignment.iter().enumerate() {
                        per_entry[entry].push(start + local);
                    }
                    for (entry_index, globals) in per_entry.into_iter().enumerate() {
                        if globals.is_empty() {
                            continue;
                        }
                        let job_shots: Option<Vec<u64>> =
                            shots.map(|s| globals.iter().map(|&c| s[c]).collect());
                        stats.jobs_dispatched += 1;
                        workers[entry_index].submit(Job {
                            chunk: chunk_index,
                            entry: entry_index,
                            circuits: globals,
                            shots: job_shots,
                            retry: false,
                            dispatched_at: Instant::now(),
                            span: dispatch_span,
                        });
                    }
                    in_flight += 1;
                    next_dispatch += 1;
                    stats.max_in_flight_chunks = stats.max_in_flight_chunks.max(in_flight);
                    continue;
                }

                // 2. deliver the next chunk owed, once complete — always
                // in order, so merge order is deterministic and a slow
                // sink throttles step 1 through the window
                if next_deliver < next_dispatch && remaining[next_deliver] == 0 {
                    // release the delivered distributions: with a window
                    // of w the dispatcher retains at most w chunks of
                    // undelivered results
                    let (start, end) = bounds[next_deliver];
                    let distributions = outcomes[start..end]
                        .iter_mut()
                        .map(|slot| slot.take().expect("delivered chunks are complete"))
                        .collect();
                    let chunk = batch.results(start..end, distributions);
                    let started = Instant::now();
                    {
                        let _span = tracer.span_under("phase.deliver", dispatch_span);
                        sink(chunk)?;
                    }
                    stats.deliver_wall += started.elapsed();
                    in_flight -= 1;
                    next_deliver += 1;
                    continue;
                }

                // 3. otherwise wait for a worker event
                let JobOutcome { job, results, queue_wait, execute_wall } =
                    event_rx.recv().expect("outstanding jobs keep workers alive");
                stats.queue_wait += queue_wait;
                stats.execute_wall += execute_wall;
                if tracer.enabled() {
                    // per-job latency histograms; merged across workers
                    // by the shared registry, and into fleet totals by
                    // snapshot merges
                    let metrics = crate::obs::metrics();
                    metrics.record_duration("dispatch.queue_wait_us", queue_wait);
                    metrics.record_duration("dispatch.execute_us", execute_wall);
                }
                let mut job_clean = true;
                for (&circuit, served) in job.circuits.iter().zip(results) {
                    match served.distribution {
                        Ok(dist) => {
                            // a circuit's allocated shots are spent
                            // exactly once: on the backend where it
                            // finally ran (exact backends spend 0, delta
                            // hits only the top-up, full hits nothing)
                            if !served.cached {
                                let entry_usage = &mut usage[job.entry];
                                entry_usage.circuits += 1;
                                entry_usage.shots += served.spent;
                                if job.retry {
                                    entry_usage.retries += 1;
                                }
                            }
                            outcomes[circuit] = Some(dist);
                            remaining[job.chunk] -= 1;
                        }
                        Err(error) => {
                            job_clean = false;
                            stats.failures += 1;
                            usage[job.entry].failures += 1;
                            failures_of[circuit] += 1;
                            if !excluded[circuit].contains(&job.entry) {
                                excluded[circuit].push(job.entry);
                            }
                            if policy.max_retries == 0 || !error.is_transient() {
                                // retries disabled, or a failure that would
                                // recur on any backend: surface it unwrapped
                                return Err(error);
                            }
                            if failures_of[circuit] > policy.max_retries {
                                return Err(CoreError::RetriesExhausted {
                                    attempts: failures_of[circuit],
                                    last: Box::new(error),
                                });
                            }
                            let (retry_entry, requeued) = router::route_retry(
                                registry,
                                &batch.shapes[circuit],
                                &excluded[circuit],
                            )?;
                            if requeued {
                                // every compatible backend failed once:
                                // waive the exclusions and hope the
                                // faults were transient
                                excluded[circuit].clear();
                                stats.jobs_requeued += 1;
                            }
                            stats.jobs_retried += 1;
                            // the retry asks for the allocation again; the
                            // cache front works out what still has to run
                            workers[retry_entry].submit(Job {
                                chunk: job.chunk,
                                entry: retry_entry,
                                circuits: vec![circuit],
                                shots: shots.map(|s| vec![s[circuit]]),
                                retry: true,
                                dispatched_at: Instant::now(),
                                span: dispatch_span,
                            });
                        }
                    }
                }
                if job_clean {
                    stats.jobs_completed += 1;
                }
            }
            Ok(())
        })();
        if loop_result.is_err() {
            // let workers drain their queues without executing, so the
            // error returns promptly
            cancelled.store(true, Ordering::Relaxed);
        }
        loop_result
    })?;
    usage.retain(|u| u.circuits > 0 || u.failures > 0);
    Ok((stats, usage))
}
