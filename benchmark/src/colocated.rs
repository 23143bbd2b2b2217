//! `serve_hot` and `serve_cold`: the colocated `ServingEngine` under an
//! open-loop Poisson load from one single-threaded generator.
//!
//! The engine's `submit` answers one batch synchronously, so the generator
//! is also the frontend: it batches arrivals with the program's
//! `MicroBatcher` and submits each closed batch. Requests that arrive while a
//! batch is being served wait, and every request is timed from the instant
//! its schedule said it was due, so a stall shows up in the latency of every
//! request behind it.

use crate::probes;
use crate::report::Report;
use crate::stats::{self, GeneratorLag};
use crate::tracer::Tracer;
use crate::{cluster, fabric, Args, LIMIT_US};
use dmt_data::{DatasetSchema, Query, ZipfRequestStream};
use dmt_models::ModelArch;
use dmt_serve::{
    ArrivalProcess, BatchConfig, BatcherConfig, MicroBatcher, ServeConfig, ServeStats,
    ServingEngine, SingleRankServer,
};
use dmt_tensor::Precision;
use dmt_trainer::distributed::{
    run_with_snapshot, DistributedConfig, ExecutionMode, MeasuredRun, ModelSnapshot,
};
use std::time::{Duration, Instant};

/// Requests per micro-batch (size trigger).
const MAX_BATCH: usize = 32;
/// Micro-batch close delay (deadline trigger), microseconds.
const MAX_DELAY_US: u64 = 2_000;
/// Hot-row cache capacity per rank, rows.
const CACHE_ROWS: usize = 4_096;
/// Training iterations behind the served snapshot.
const SNAPSHOT_ITERATIONS: usize = 2;
/// Open-loop warm-up before timing, seconds: fills the hot-row cache.
const WARM_UP_S: f64 = 0.5;
/// Queries in the fixed output probe.
const PROBE_QUERIES: usize = 64;
/// Batch size the probe is served in, so it never lines up with the
/// reference's single batch.
const PROBE_BATCH: usize = 7;
/// Share of the run spent on the fixed-rate window; the capacity
/// measurement takes [`CAPACITY_SHARE`].
const WINDOW_SHARE: f64 = 0.7;
const CAPACITY_SHARE: f64 = 0.2;
/// Slices the capacity measurement is split into; it reports their median.
const CAPACITY_SLICES: usize = 5;

/// One colocated serving workload.
pub struct Colocated {
    pub name: &'static str,
    pub mode: ExecutionMode,
    pub schema: fn() -> DatasetSchema,
    /// Zipf exponent of the query ids.
    pub zipf: f64,
    /// The fixed offered rate, requests per second: well below the knee.
    pub rate_qps: f64,
}

/// `serve_hot`: DMT serving of the small schema, skewed ids. The working set
/// fits the hot-row cache and only tower outputs cross hosts.
pub const HOT: Colocated = Colocated {
    name: "serve_hot",
    mode: ExecutionMode::Dmt,
    schema: DatasetSchema::criteo_like_small,
    zipf: 1.1,
    rate_qps: 4_000.0,
};

/// `serve_cold`: baseline serving of the full schema (~8.1M rows), near
/// uniform ids. Gathers miss the cache and the global row AlltoAll carries
/// every row across hosts.
pub const COLD: Colocated = Colocated {
    name: "serve_cold",
    mode: ExecutionMode::Baseline,
    schema: DatasetSchema::criteo_like,
    zipf: 0.01,
    rate_qps: 2_500.0,
};

fn serve_config() -> ServeConfig {
    let cluster = cluster();
    ServeConfig::new(cluster.clone())
        .with_fabric(fabric(&cluster))
        .with_batch(BatchConfig {
            max_batch: MAX_BATCH,
            max_delay_us: MAX_DELAY_US,
            cache_rows: CACHE_ROWS,
        })
}

/// Trains the snapshot a serving workload serves. Its training run is kept:
/// the trainer layer's figures on a serving workload come from it.
pub fn train_snapshot(
    mode: ExecutionMode,
    schema: DatasetSchema,
    seed: u64,
) -> Result<(MeasuredRun, ModelSnapshot), String> {
    let mut config =
        DistributedConfig::quick(cluster(), ModelArch::Dlrm).with_iterations(SNAPSHOT_ITERATIONS);
    config.schema = schema;
    config.seed = seed;
    run_with_snapshot(&config, mode).map_err(|e| format!("snapshot training failed: {e}"))
}

/// The fixed probe's queries: the same for every run of a workload,
/// whatever its seed.
pub fn probe_queries(schema: &DatasetSchema, zipf: f64) -> Vec<Query> {
    const PROBE_SEED: u64 = 0x0005_EED0_F9E0;
    ZipfRequestStream::new(schema.clone(), PROBE_SEED, zipf).next_queries(PROBE_QUERIES)
}

/// Reference predictions for the probe: `SingleRankServer` for a baseline
/// snapshot, an uncached engine for DMT (which has no single-rank path).
fn reference(snapshot: &ModelSnapshot, probe: &[Query]) -> Result<Vec<f32>, String> {
    match snapshot.mode {
        ExecutionMode::Baseline => SingleRankServer::from_snapshot(snapshot, Precision::F32)
            .and_then(|mut s| s.serve(probe))
            .map_err(|e| format!("reference server: {e}")),
        ExecutionMode::Dmt => {
            let mut config = serve_config();
            config.batch.cache_rows = 0;
            let mut engine = ServingEngine::start(snapshot, &config)
                .map_err(|e| format!("reference engine: {e}"))?;
            let preds = engine
                .submit(probe.to_vec())
                .map_err(|e| format!("reference engine: {e}"));
            let _ = engine.shutdown();
            preds
        }
    }
}

/// Serves the probe through `engine` in batches of [`PROBE_BATCH`].
fn serve_probe(engine: &mut ServingEngine, probe: &[Query]) -> Result<Vec<f32>, String> {
    let mut served = Vec::with_capacity(probe.len());
    for chunk in probe.chunks(PROBE_BATCH) {
        served.extend(
            engine
                .submit(chunk.to_vec())
                .map_err(|e| format!("probe: {e}"))?,
        );
    }
    Ok(served)
}

/// Checks the served probe bit for bit against the reference.
fn check_probe(served: &[f32], reference: &[f32], report: &mut Report) {
    let same = served.len() == reference.len()
        && served
            .iter()
            .zip(reference)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    report.check(
        format!(
            "{PROBE_QUERIES}-query probe served in batches of {PROBE_BATCH} is bit-identical \
             to the reference"
        ),
        same,
    );
}

/// What one open-loop window measured.
#[derive(Debug, Default)]
pub struct Window {
    pub offered: usize,
    pub completed: usize,
    pub errors: usize,
    /// Completed within [`LIMIT_US`] of the scheduled send.
    pub within_limit: usize,
    /// Predictions that were not finite or outside [0, 1], or missing.
    pub bad_predictions: usize,
    pub sojourn_ms: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    /// Time inside `submit`, one sample per batch.
    pub service_ms: Vec<f64>,
    pub batches: usize,
    pub lag: GeneratorLag,
    pub wall_s: f64,
}

/// Offers `queries` on `schedule` (microsecond offsets) and serves them.
pub fn open_loop(
    engine: &mut ServingEngine,
    queries: &[Query],
    schedule: &[u64],
    tracer: &mut Tracer,
) -> Window {
    let mut w = Window {
        offered: schedule.len(),
        ..Window::default()
    };
    let mut batcher: MicroBatcher<(u64, &Query)> =
        MicroBatcher::new(BatcherConfig::new(MAX_BATCH, MAX_DELAY_US));
    // The generator's own time is this span's self time: everything outside
    // the engine calls nested in it.
    let window = tracer.begin("gen", "open_loop", 0);
    let start = Instant::now();
    let now_us = || u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    let mut next = 0usize;
    while next < schedule.len() || !batcher.is_empty() {
        let now = now_us();
        let mut closed = None;
        while next < schedule.len() && schedule[next] <= now {
            w.lag.record(schedule[next], now);
            closed = batcher.push(now, (schedule[next], &queries[next % queries.len()]));
            next += 1;
            if closed.is_some() {
                break;
            }
        }
        let closed = closed
            .or_else(|| batcher.poll(now))
            .or_else(|| (next >= schedule.len()).then(|| batcher.flush()).flatten());
        if let Some(batch) = closed {
            let id = w.batches as u64;
            let submitted = now_us();
            let (due, batch): (Vec<u64>, Vec<Query>) =
                batch.into_iter().map(|(due, q)| (due, q.clone())).unzip();
            let size = batch.len();
            let result = tracer.time("serve", "submit", id, || engine.submit(batch));
            let done = now_us();
            w.batches += 1;
            w.service_ms.push((done - submitted) as f64 * 1e-3);
            match result {
                Ok(preds) => {
                    w.bad_predictions += size.abs_diff(preds.len())
                        + preds
                            .iter()
                            .filter(|p| !(p.is_finite() && (0.0..=1.0).contains(*p)))
                            .count();
                    for d in due {
                        let sojourn = done.saturating_sub(d);
                        w.sojourn_ms.push(sojourn as f64 * 1e-3);
                        w.queue_wait_ms
                            .push(submitted.saturating_sub(d) as f64 * 1e-3);
                        w.within_limit += usize::from(sojourn <= LIMIT_US);
                    }
                    w.completed += size;
                }
                Err(_) => w.errors += size,
            }
            continue;
        }
        let mut wake = schedule.get(next).copied().unwrap_or(u64::MAX);
        if let Some(deadline) = batcher.next_deadline_us() {
            wake = wake.min(deadline);
        }
        let now = now_us();
        if wake > now {
            std::thread::sleep(Duration::from_micros((wake - now).min(1_000)));
        }
    }
    w.wall_s = start.elapsed().as_secs_f64();
    tracer.end(window);
    w
}

/// Poisson offsets for `seconds` at `qps`.
pub fn poisson(qps: f64, seconds: f64, seed: u64) -> Vec<u64> {
    let n = (qps * seconds).ceil() as usize;
    ArrivalProcess::Poisson { qps, seed }.schedule(n.max(1))
}

/// Saturation throughput: full batches submitted back to back for `seconds`,
/// in [`CAPACITY_SLICES`] slices, as the median slice's queries per second.
/// An open-loop rate above it builds a backlog without bound, so it is the
/// highest rate the engine can take.
fn capacity(engine: &mut ServingEngine, queries: &[Query], seconds: f64) -> Result<f64, String> {
    let slice = Duration::from_secs_f64(seconds / CAPACITY_SLICES as f64);
    let mut rates = Vec::with_capacity(CAPACITY_SLICES);
    let mut batches = queries.chunks_exact(MAX_BATCH).cycle();
    for _ in 0..CAPACITY_SLICES {
        let start = Instant::now();
        let mut served = 0usize;
        while start.elapsed() < slice {
            let batch = batches.next().ok_or("fewer queries than one batch")?;
            let preds = engine
                .submit(batch.to_vec())
                .map_err(|e| format!("saturation batch: {e}"))?;
            if preds.len() != batch.len() {
                return Err("saturation batch lost predictions".into());
            }
            served += preds.len();
        }
        rates.push(served as f64 / start.elapsed().as_secs_f64());
    }
    println!("  capacity per slice: {rates:.0?} queries/s");
    Ok(stats::median(&rates).expect("capacity slices"))
}

pub fn run(
    workload: &Colocated,
    args: &Args,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let schema = (workload.schema)();
    let (train_run, snapshot) = tracer.time("trainer", "run_with_snapshot", 0, || {
        train_snapshot(workload.mode, schema.clone(), args.seed)
    })?;
    // The probe's reference is served before the engine starts, so the two
    // never hold tables at the same time.
    let probe = probe_queries(&schema, workload.zipf);
    let reference = reference(&snapshot, &probe)?;
    let config = serve_config();
    let (mut engine, setup_s) = crate::timed_setup(
        || ServingEngine::start(&snapshot, &config).map_err(|e| format!("engine start: {e}")),
        |engine| {
            let _: ServeStats = engine.shutdown();
            Ok(())
        },
    )?;
    report.metric("setup_s", setup_s, "s");

    // The workload's queries, generated before the clock starts so the
    // generator only sends; generation cost is reported on its own.
    let total = crate::QUERY_POOL.min((workload.rate_qps * args.seconds).ceil() as usize);
    let gen_start = Instant::now();
    let queries =
        ZipfRequestStream::new(schema.clone(), args.seed, workload.zipf).next_queries(total);
    let gen_us = gen_start.elapsed().as_secs_f64() * 1e6 / total as f64;

    // Warm-up: let the hot-row cache fill before timing.
    let mut off = Tracer::new(false);
    let warm = poisson(workload.rate_qps, WARM_UP_S, args.seed ^ 0xA);
    let _ = open_loop(&mut engine, &queries, &warm, &mut off);

    // The fixed-rate window (split with the traced window when tracing),
    // then the capacity measurement.
    let main_s = args.seconds * WINDOW_SHARE;
    let window_s = if tracer.enabled() {
        main_s / 2.0
    } else {
        main_s
    };
    let before = engine.stats();
    let schedule = poisson(workload.rate_qps, window_s, args.seed);
    let w = open_loop(&mut engine, &queries, &schedule, &mut off);
    let delta = engine.stats().since(&before);
    report.attempted = w.offered as u64;
    report.failed = w.errors as u64;
    println!(
        "{}: {} requests at {:.0}/s over {:.2} s",
        workload.name, w.offered, workload.rate_qps, w.wall_s
    );
    report.latency(&w.sojourn_ms, 99.0, crate::TAIL_SLICES);
    report.metric("goodput_per_s", w.within_limit as f64 / w.wall_s, "1/s");
    report.metric("ok_frac", w.within_limit as f64 / w.offered as f64, "frac");
    report.check(
        "every request got one finite prediction in [0, 1]",
        w.bad_predictions == 0 && w.completed + w.errors == w.offered,
    );
    report.check(
        format!(
            "engine-counted queries ({}) equal the requests the generator saw complete ({})",
            delta.queries, w.completed
        ),
        delta.queries == w.completed as u64,
    );

    let cap = capacity(&mut engine, &queries, args.seconds * CAPACITY_SHARE)?;
    report.metric("capacity_per_s", cap, "1/s");

    // The probe runs through the warm engine.
    let served = serve_probe(&mut engine, &probe)?;

    // The traced window and the layer probes; returns the observed mean batch.
    let traced_batch = if tracer.enabled() {
        let before = engine.stats();
        let schedule = poisson(workload.rate_qps, window_s, args.seed ^ 0x7);
        let traced = open_loop(&mut engine, &queries, &schedule, tracer);
        let delta = engine.stats().since(&before);
        let traced_p50 = stats::percentile(&traced.sojourn_ms, 50.0).unwrap_or(f64::NAN);
        let base_p50 = report.value("p50_ms").unwrap_or(f64::NAN);
        report.metric("trace.overhead_frac", traced_p50 / base_p50 - 1.0, "frac");
        serve_metrics(&traced, &delta, gen_us, report);
        report.metric(
            "comm.cross_host_bytes_per_item",
            delta.cross_host_bytes_per_query(),
            "B",
        );
        report.metric(
            "comm.intra_host_bytes_per_item",
            delta.intra_host_bytes_per_query(),
            "B",
        );
        crate::train::segment_metrics(&train_run, report);
        let mean_batch = traced.completed as f64 / traced.batches.max(1) as f64;
        let batch = mean_batch.round().max(1.0) as usize;
        let per_batch = |bytes: u64| bytes as f64 / traced.batches.max(1) as f64;
        let world = config.cluster.world_size() as f64;
        let wire = config.fabric.target_duration(
            (per_batch(delta.cross_host_bytes) / world) as u64,
            (per_batch(delta.intra_host_bytes) / world) as u64,
        );
        report.metric(
            "comm.modelled_wire_ms_per_item",
            wire.as_secs_f64() * 1e3 / mean_batch,
            "ms",
        );
        probes::all_to_all(
            tracer,
            report,
            &config.cluster,
            ((per_batch(delta.payload_bytes) / world) / 4.0).ceil() as usize,
        );
        Some(batch)
    } else {
        None
    };
    let _ = engine.shutdown();
    check_probe(&served, &reference, report);
    if let Some(batch) = traced_batch {
        probes::dense_gemm(tracer, report, &snapshot, batch);
        probes::pool_and_dense(
            tracer,
            report,
            &snapshot,
            &queries[..queries.len().min(4_096)],
            batch,
        )?;
    }
    Ok(())
}

/// The serve-layer and generator figures of one window.
pub fn serve_metrics(w: &Window, delta: &ServeStats, gen_us: f64, report: &mut Report) {
    report.metric(
        "serve.service_ms_p50",
        stats::percentile(&w.service_ms, 50.0).unwrap_or(f64::NAN),
        "ms",
    );
    report.metric(
        "serve.queue_wait_ms_p50",
        stats::percentile(&w.queue_wait_ms, 50.0).unwrap_or(f64::NAN),
        "ms",
    );
    report.metric(
        "serve.queue_wait_ms_p99",
        stats::percentile(&w.queue_wait_ms, 99.0).unwrap_or(f64::NAN),
        "ms",
    );
    report.metric(
        "serve.batch_size_mean",
        w.completed as f64 / w.batches.max(1) as f64,
        "count",
    );
    let lookups = delta.cache.hits + delta.cache.misses;
    report.metric(
        "serve.cache_hit_rate",
        delta.cache.hits as f64 / lookups.max(1) as f64,
        "frac",
    );
    report.metric("serve.shed_frac", 0.0, "frac");
    report.metric(
        "serve.deadline_misses",
        (w.completed - w.within_limit) as f64,
        "count",
    );
    report.metric("serve.stage_queue_depth_max", 0.0, "count");
    report.metric("data.gen_us_per_query", gen_us, "us");
    report.metric("gen.lag_ms_max", w.lag.max_ms(), "ms");
}

/// The serving check of `train_dmt`: the freshly trained DMT snapshot is
/// served through a cached engine and its probe checked against an uncached
/// one; a short open-loop window gives the serve-layer figures.
pub fn probe_trained(
    tracer: &mut Tracer,
    report: &mut Report,
    snapshot: &ModelSnapshot,
    seed: u64,
) -> Result<(), String> {
    let probe = probe_queries(&snapshot.schema, HOT.zipf);
    let reference = reference(snapshot, &probe)?;
    let mut engine = ServingEngine::start(snapshot, &serve_config())
        .map_err(|e| format!("engine start: {e}"))?;
    let gen_start = Instant::now();
    let queries =
        ZipfRequestStream::new(snapshot.schema.clone(), seed, HOT.zipf).next_queries(1_024);
    let gen_us = gen_start.elapsed().as_secs_f64() * 1e6 / 1_024.0;
    let before = engine.stats();
    let w = open_loop(
        &mut engine,
        &queries,
        &poisson(HOT.rate_qps / 2.0, 0.5, seed),
        tracer,
    );
    let delta = engine.stats().since(&before);
    report.check(
        "the trained model serves one finite prediction in [0, 1] per request",
        w.bad_predictions == 0 && w.errors == 0 && w.completed == w.offered,
    );
    serve_metrics(&w, &delta, gen_us, report);
    check_probe(&serve_probe(&mut engine, &probe)?, &reference, report);
    let _ = engine.shutdown();
    let batch = (w.completed as f64 / w.batches.max(1) as f64)
        .round()
        .max(1.0) as usize;
    probes::pool_and_dense(tracer, report, snapshot, &queries, batch)
}
