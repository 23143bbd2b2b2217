//! `serve_overload`: the stage-disaggregated `StagedEngine` with SLO
//! admission, offered about 1.5x what it can serve.
//!
//! Service time is a paced sleep on the stage link, so kernel changes should
//! not move this workload; admission, shedding and the stage queue do the
//! work. Admission runs with the static service estimate the serving crate
//! ships with in its SLO bench, so its known inaccuracy stays visible here.

use crate::colocated;
use crate::probes;
use crate::report::Report;
use crate::stats::{self, GeneratorLag};
use crate::tracer::Tracer;
use crate::{cluster, fabric, Args, LIMIT_US};
use dmt_data::{DatasetSchema, Query, ZipfRequestStream};
use dmt_metrics::Registry;
use dmt_serve::{
    ArrivalProcess, BatchConfig, LoadConfig, Request, ServeConfig, SingleRankServer, SloConfig,
    StagePools, StageStats, StagedEngine,
};
use dmt_tensor::Precision;
use dmt_trainer::distributed::ExecutionMode;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Lookup-pool and dense-pool ranks.
const POOLS: (usize, usize) = (2, 2);
/// Stage-link pacing, bytes per second: batch service time is a paced sleep.
const XFER_BYTES_PER_S: u64 = 4_000_000;
/// Requests per micro-batch.
const MAX_BATCH: usize = 8;
/// Micro-batch close delay, microseconds.
const MAX_DELAY_US: u64 = 500;
/// Admission queue bound, queries.
const QUEUE_BOUND: usize = 32;
/// Admission's static service estimate, microseconds.
const SERVICE_ESTIMATE_US: u64 = 5_000;
/// Priority mix: percent low, percent high (the rest standard).
const MIX: (u32, u32) = (30, 10);
/// Offered rate, requests per second: about 1.5x the engine's capacity.
const RATE_QPS: f64 = 3_000.0;
/// Zipf exponent of the query ids.
const ZIPF: f64 = 1.1;
/// How long the drain after the last send may take before the run fails.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

fn serve_config() -> ServeConfig {
    let cluster = cluster();
    ServeConfig::new(cluster.clone())
        .with_fabric(fabric(&cluster))
        .with_batch(BatchConfig {
            max_batch: MAX_BATCH,
            max_delay_us: MAX_DELAY_US,
            ..BatchConfig::default()
        })
        .with_slo(SloConfig {
            deadline_us: LIMIT_US,
            queue_bound: QUEUE_BOUND,
            service_estimate_us: SERVICE_ESTIMATE_US,
            shed: true,
            ..SloConfig::default()
        })
}

fn pools() -> StagePools {
    StagePools::new(POOLS.0, POOLS.1).with_xfer_bytes_per_s(XFER_BYTES_PER_S)
}

/// What one overload window measured.
#[derive(Debug, Default)]
struct Window {
    offered: usize,
    admitted: usize,
    shed: usize,
    errors: usize,
    completed: usize,
    within_deadline: usize,
    bad_predictions: usize,
    sojourn_ms: Vec<f64>,
    /// Scheduled send to admission.
    queue_wait_ms: Vec<f64>,
    /// Admission to answer, inside the engine.
    service_ms: Vec<f64>,
    depth_max: f64,
    lag: GeneratorLag,
    wall_s: f64,
}

/// Offers `queries` on `schedule` and collects every admitted answer. The
/// generator's own time is the enclosing span's self time.
fn run_window(
    engine: &mut StagedEngine,
    queries: &[Query],
    schedule: &[u64],
    tracer: &mut Tracer,
) -> Result<Window, String> {
    let span = tracer.begin("gen", "offer_loop", 0);
    let window = offer_all(engine, queries, schedule, tracer);
    tracer.end(span);
    window
}

fn offer_all(
    engine: &mut StagedEngine,
    queries: &[Query],
    schedule: &[u64],
    tracer: &mut Tracer,
) -> Result<Window, String> {
    let mix = LoadConfig::new(schedule.len(), ArrivalProcess::Closed { clients: 1 })
        .with_mix(MIX.0, MIX.1);
    let depth = Registry::global().gauge("staged.stage_queue_depth");
    let mut w = Window {
        offered: schedule.len(),
        ..Window::default()
    };
    // Scheduled send of every admitted request, by sequence number.
    let mut due_of: HashMap<u64, u64> = HashMap::with_capacity(schedule.len());
    let base = engine.now_us();
    let start = Instant::now();
    // Fires the batcher's close deadline and harvests completions: one span
    // per generator step.
    let poll = |engine: &mut StagedEngine,
                w: &mut Window,
                due_of: &mut HashMap<u64, u64>,
                tracer: &mut Tracer|
     -> Result<(), String> {
        let done = tracer
            .time("serve", "pump+drain", 0, || {
                engine.pump()?;
                engine.drain()
            })
            .map_err(|e| format!("staged pipeline: {e}"))?;
        for c in done {
            let due = due_of.remove(&c.seq).unwrap_or(c.arrival_us);
            w.sojourn_ms
                .push(c.done_us.saturating_sub(due) as f64 * 1e-3);
            w.service_ms.push(c.sojourn_us() as f64 * 1e-3);
            w.within_deadline += usize::from(c.met_deadline());
            w.bad_predictions += 1usize.abs_diff(c.preds.len())
                + c.preds
                    .iter()
                    .filter(|p| !(p.is_finite() && (0.0..=1.0).contains(*p)))
                    .count();
            w.completed += 1;
        }
        w.depth_max = w.depth_max.max(depth.get());
        Ok(())
    };
    for (i, offset) in schedule.iter().enumerate() {
        let due = base + offset;
        loop {
            poll(engine, &mut w, &mut due_of, tracer)?;
            let now = engine.now_us();
            if now >= due {
                break;
            }
            let wake = due.min(engine.next_close_us().unwrap_or(u64::MAX));
            if wake > now {
                std::thread::sleep(Duration::from_micros((wake - now).min(200)));
            }
        }
        let sent = engine.now_us();
        w.lag.record(due, sent);
        let request = Request::new(vec![queries[i % queries.len()].clone()])
            .with_deadline_us(due + LIMIT_US)
            .with_priority(mix.priority_of(i));
        match tracer.time("serve", "offer", i as u64, || engine.offer(request)) {
            Ok(seq) => {
                due_of.insert(seq, due);
                w.admitted += 1;
                w.queue_wait_ms.push(sent.saturating_sub(due) as f64 * 1e-3);
            }
            Err(e) if e.is_shed() => w.shed += 1,
            Err(_) => w.errors += 1,
        }
    }
    engine
        .flush()
        .map_err(|e| format!("staged pipeline: {e}"))?;
    let drain_start = Instant::now();
    while w.completed < w.admitted {
        poll(engine, &mut w, &mut due_of, tracer)?;
        if drain_start.elapsed() > DRAIN_LIMIT {
            return Err(format!(
                "staged engine stalled: {} of {} admitted requests completed",
                w.completed, w.admitted
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    w.wall_s = start.elapsed().as_secs_f64();
    Ok(w)
}

/// Serves the probe as requests of seven queries, one at a time so
/// admission never sheds them, and checks it bit for bit against
/// `SingleRankServer`.
fn check_probe(
    engine: &mut StagedEngine,
    probe: &[Query],
    reference: &[f32],
    report: &mut Report,
) -> Result<(), String> {
    let mut served = Vec::with_capacity(probe.len());
    for chunk in probe.chunks(7) {
        let seq = engine
            .offer(Request::new(chunk.to_vec()))
            .map_err(|e| format!("probe offer: {e}"))?;
        engine.flush().map_err(|e| format!("probe: {e}"))?;
        let start = Instant::now();
        let answer = loop {
            let done = engine.drain().map_err(|e| format!("probe: {e}"))?;
            if let Some(c) = done.into_iter().find(|c| c.seq == seq) {
                break c.preds;
            }
            if start.elapsed() > DRAIN_LIMIT {
                return Err("probe request never completed".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        served.extend(answer);
    }
    let same = served.len() == reference.len()
        && served
            .iter()
            .zip(reference)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    report.check(
        "64-query probe served as requests of 7 is bit-identical to SingleRankServer",
        same,
    );
    Ok(())
}

pub fn run(args: &Args, tracer: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let schema = DatasetSchema::criteo_like_small();
    let (train_run, snapshot) = tracer.time("trainer", "run_with_snapshot", 0, || {
        colocated::train_snapshot(ExecutionMode::Baseline, schema.clone(), args.seed)
    })?;
    let config = serve_config();
    let (mut engine, setup_s) = crate::timed_setup(
        || {
            StagedEngine::start(&snapshot, pools(), &config)
                .map_err(|e| format!("engine start: {e}"))
        },
        |engine| {
            engine
                .shutdown()
                .map(drop)
                .map_err(|e| format!("engine shutdown: {e}"))
        },
    )?;
    report.metric("setup_s", setup_s, "s");
    let probe = colocated::probe_queries(&schema, ZIPF);
    let reference = SingleRankServer::from_snapshot(&snapshot, Precision::F32)
        .and_then(|mut s| s.serve(&probe))
        .map_err(|e| format!("reference server: {e}"))?;

    let total = crate::QUERY_POOL.min((RATE_QPS * args.seconds).ceil() as usize);
    let gen_start = Instant::now();
    let queries = ZipfRequestStream::new(schema, args.seed, ZIPF).next_queries(total);
    let gen_us = gen_start.elapsed().as_secs_f64() * 1e6 / total as f64;

    let mut off = Tracer::new(false);
    let window_s = if tracer.enabled() {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let before = engine.stats();
    let w = run_window(
        &mut engine,
        &queries,
        &colocated::poisson(RATE_QPS, window_s, args.seed),
        &mut off,
    )?;
    let delta = stats_since(&engine.stats(), &before);
    report.attempted = w.offered as u64;
    report.failed = w.errors as u64;
    println!(
        "serve_overload: {} requests at {RATE_QPS:.0}/s over {:.2} s, {} shed",
        w.offered, w.wall_s, w.shed
    );
    report.latency(&w.sojourn_ms, 99.0, crate::TAIL_SLICES);
    report.metric("goodput_per_s", w.within_deadline as f64 / w.wall_s, "1/s");
    report.metric("capacity_per_s", w.completed as f64 / w.wall_s, "1/s");
    report.metric(
        "ok_frac",
        w.within_deadline as f64 / w.offered as f64,
        "frac",
    );
    report.check(
        "every completed request got one finite prediction in [0, 1]",
        w.bad_predictions == 0,
    );
    report.check(
        format!(
            "offered ({}) = admitted ({}) + shed ({}), and completed ({}) = admitted",
            w.offered, w.admitted, w.shed, w.completed
        ),
        w.offered == w.admitted + w.shed && w.completed == w.admitted && w.errors == 0,
    );
    report.check(
        format!(
            "engine admitted/shed/answered ({}/{}/{}) equal the generator's outcomes",
            delta.admitted(),
            delta.shed(),
            delta.queries
        ),
        delta.admitted() == w.admitted as u64
            && delta.shed() == w.shed as u64
            && delta.queries == w.completed as u64,
    );
    check_probe(&mut engine, &probe, &reference, report)?;

    if tracer.enabled() {
        let before = engine.stats();
        let traced = run_window(
            &mut engine,
            &queries,
            &colocated::poisson(RATE_QPS, window_s, args.seed ^ 0x7),
            tracer,
        )?;
        let delta = stats_since(&engine.stats(), &before);
        let traced_p50 = stats::percentile(&traced.sojourn_ms, 50.0).unwrap_or(f64::NAN);
        let base_p50 = report.value("p50_ms").unwrap_or(f64::NAN);
        report.metric("trace.overhead_frac", traced_p50 / base_p50 - 1.0, "frac");
        layer_metrics(&traced, &delta, gen_us, report);
        crate::train::segment_metrics(&train_run, report);
        let batches = delta.batches.max(1) as f64;
        let lookup_payload = (delta.row_bytes as f64 / batches / POOLS.0 as f64 / 4.0).ceil();
        probes::all_to_all(tracer, report, &config.cluster, lookup_payload as usize);
        let mean_batch = (delta.queries as f64 / batches).round().max(1.0) as usize;
        engine
            .shutdown()
            .map_err(|e| format!("engine shutdown: {e}"))?;
        probes::dense_gemm(tracer, report, &snapshot, mean_batch);
        probes::pool_and_dense(
            tracer,
            report,
            &snapshot,
            &queries[..queries.len().min(4_096)],
            mean_batch,
        )?;
    } else {
        engine
            .shutdown()
            .map_err(|e| format!("engine shutdown: {e}"))?;
    }
    Ok(())
}

/// Field-wise `after - before` of the staged engine's cumulative counters.
fn stats_since(after: &StageStats, before: &StageStats) -> StageStats {
    let sub3 = |a: [u64; 3], b: [u64; 3]| [a[0] - b[0], a[1] - b[1], a[2] - b[2]];
    StageStats {
        queries: after.queries - before.queries,
        batches: after.batches - before.batches,
        index_bytes: after.index_bytes - before.index_bytes,
        row_bytes: after.row_bytes - before.row_bytes,
        xfer_bytes: after.xfer_bytes - before.xfer_bytes,
        pred_bytes: after.pred_bytes - before.pred_bytes,
        size_closes: after.size_closes - before.size_closes,
        deadline_closes: after.deadline_closes - before.deadline_closes,
        flush_closes: after.flush_closes - before.flush_closes,
        admitted_by_class: sub3(after.admitted_by_class, before.admitted_by_class),
        shed_by_class: sub3(after.shed_by_class, before.shed_by_class),
        max_occupancy: after.max_occupancy,
    }
}

/// The serve-layer figures of one overload window. The staged engine keeps
/// no cache and reports modelled bytes without a link class: the paced stage
/// link counts as cross-host, lookup-pool traffic as intra-host.
fn layer_metrics(w: &Window, delta: &StageStats, gen_us: f64, report: &mut Report) {
    let pct = |v: &[f64], p| stats::percentile(v, p).unwrap_or(f64::NAN);
    report.metric("serve.service_ms_p50", pct(&w.service_ms, 50.0), "ms");
    report.metric("serve.queue_wait_ms_p50", pct(&w.queue_wait_ms, 50.0), "ms");
    report.metric("serve.queue_wait_ms_p99", pct(&w.queue_wait_ms, 99.0), "ms");
    report.metric(
        "serve.batch_size_mean",
        delta.queries as f64 / delta.batches.max(1) as f64,
        "count",
    );
    report.metric("serve.cache_hit_rate", 0.0, "frac");
    report.metric("serve.shed_frac", w.shed as f64 / w.offered as f64, "frac");
    report.metric(
        "serve.deadline_misses",
        (w.completed - w.within_deadline) as f64,
        "count",
    );
    report.metric("serve.stage_queue_depth_max", w.depth_max, "count");
    let per_query = |bytes: u64| bytes as f64 / delta.queries.max(1) as f64;
    report.metric(
        "comm.cross_host_bytes_per_item",
        per_query(delta.xfer_bytes),
        "B",
    );
    report.metric(
        "comm.intra_host_bytes_per_item",
        per_query(delta.index_bytes + delta.row_bytes),
        "B",
    );
    report.metric(
        "comm.modelled_wire_ms_per_item",
        per_query(delta.xfer_bytes) / XFER_BYTES_PER_S as f64 * 1e3,
        "ms",
    );
    report.metric("data.gen_us_per_query", gen_us, "us");
    report.metric("gen.lag_ms_max", w.lag.max_ms(), "ms");
}
