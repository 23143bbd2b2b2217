//! `train_dmt`: pipelined DMT training on the 2x2 cluster.
//!
//! The only workload that writes: every iteration runs the backward pass,
//! the sparse embedding updates and the gradient AllReduce. Compute
//! (`tensor`, `nn`) and pipelined overlap (`trainer`, `comm`) carry it.

use crate::probes;
use crate::report::Report;
use crate::tracer::Tracer;
use crate::{cluster, fabric, Args};
use dmt_commsim::SegmentKind;
use dmt_models::ModelArch;
use dmt_trainer::distributed::{
    run_dmt, run_with_snapshot, DistributedConfig, ExecutionMode, MeasuredRun, ScheduleMode,
};
use std::time::{Duration, Instant};

/// Per-rank batch of the training workload.
const LOCAL_BATCH: usize = 384;
/// Iterations per training run: at least 100, so the p90 iteration time has
/// ten samples beyond it within every run.
const ITERATIONS: usize = 100;
/// How far the exposed segment times may sit from the measured wall time per
/// iteration before the attribution counts as broken. The gap is reported as
/// measured (`trainer.unattributed_frac`); this only bounds it.
const ATTRIBUTION_TOLERANCE: f64 = 0.25;

fn config(seed: u64) -> DistributedConfig {
    let cluster = cluster();
    let mut config = DistributedConfig::quick(cluster.clone(), ModelArch::Dlrm)
        .with_local_batch(LOCAL_BATCH)
        .with_iterations(ITERATIONS)
        .with_schedule(ScheduleMode::Pipelined)
        .with_fabric(fabric(&cluster));
    config.seed = seed;
    config
}

fn train(config: &DistributedConfig) -> Result<MeasuredRun, String> {
    run_dmt(config).map_err(|e| format!("training failed: {e}"))
}

/// Runs whole training runs of one seed until `budget` is spent (at least
/// two, so repeats can be compared bit for bit).
fn measure(config: &DistributedConfig, budget: Duration) -> Result<Vec<MeasuredRun>, String> {
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < 2 || start.elapsed() < budget {
        runs.push(train(config)?);
    }
    Ok(runs)
}

/// Time to a first trained iteration: model and communicator set-up, one
/// iteration and teardown. Per-iteration walls are taken on the slowest rank
/// and overlap across ranks, so set-up cannot be read off a long run.
fn setup_s(config: &DistributedConfig) -> Result<f64, String> {
    let one = config.clone().with_iterations(1);
    crate::timed_setup(|| train(&one), |_| Ok(())).map(|(_, median)| median)
}

pub fn run(args: &Args, tracer: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let config = config(args.seed);
    let samples_per_iter = (LOCAL_BATCH * config.cluster.world_size()) as f64;
    let budget = Duration::from_secs_f64(args.seconds);

    // The untraced runs give the end-to-end figures (and, in a traced run,
    // the base that tracing overhead is measured against).
    let untraced_budget = if tracer.enabled() { budget / 2 } else { budget };
    report.metric("setup_s", setup_s(&config)?, "s");
    let runs = measure(&config, untraced_budget)?;
    let iters: Vec<f64> = runs.iter().flat_map(|r| r.iter_wall_s.clone()).collect();
    report.attempted = (runs.len() * ITERATIONS) as u64;
    let iter_s = iters.iter().sum::<f64>() / iters.len() as f64;
    let samples_per_s = samples_per_iter / iter_s;
    println!("train_dmt: {} runs x {ITERATIONS} iterations", runs.len());
    report.metric("goodput_per_s", samples_per_s, "1/s");
    report.metric("capacity_per_s", samples_per_s, "1/s");
    let iters_ms: Vec<f64> = iters.iter().map(|s| s * 1e3).collect();
    // Each training run is one slice of the tail.
    report.latency(&iters_ms, 90.0, runs.len());

    // Output checks: every loss finite, and repeats of one seed bit-identical.
    let first = &runs[0];
    let finite = runs
        .iter()
        .all(|r| r.losses.len() == ITERATIONS && r.losses.iter().all(|l| l.is_finite()));
    report.check("every training loss is finite, one per iteration", finite);
    let identical = runs.iter().all(|r| {
        r.losses.len() == first.losses.len()
            && r.losses
                .iter()
                .zip(&first.losses)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    });
    report.check(
        "losses are bit-identical across repeats of one seed",
        identical,
    );
    let ok_iters = runs
        .iter()
        .map(|r| r.losses.iter().filter(|l| l.is_finite()).count())
        .sum::<usize>();
    report.metric("ok_frac", ok_iters as f64 / report.attempted as f64, "frac");

    // Reconciliation: the exposed segment times must add up to the measured
    // wall time per iteration; the gap is reported as measured.
    let gap = unattributed(first);
    report.check(
        format!(
            "exposed segment time matches wall time per iteration within {:.0}% \
             (measured gap {:+.1}%)",
            ATTRIBUTION_TOLERANCE * 100.0,
            gap * 100.0
        ),
        gap.abs() <= ATTRIBUTION_TOLERANCE,
    );

    if !tracer.enabled() {
        return Ok(());
    }

    // Traced run: the same training with the benchmark's spans around each
    // call, then the per-layer probes at this workload's shapes.
    let traced_start = Instant::now();
    let mut traced = Vec::new();
    while traced.is_empty() || traced_start.elapsed() < budget / 2 {
        let id = traced.len() as u64;
        traced.push(tracer.time("trainer", "run_dmt", id, || train(&config))?);
    }
    let traced_iters: Vec<f64> = traced.iter().flat_map(|r| r.iter_wall_s.clone()).collect();
    let traced_iter_s = traced_iters.iter().sum::<f64>() / traced_iters.len() as f64;
    report.metric("trace.overhead_frac", traced_iter_s / iter_s - 1.0, "frac");
    segment_metrics(&traced[0], report);
    report.metric(
        "comm.cross_host_bytes_per_item",
        traced[0].cross_host_bytes() as f64,
        "B",
    );
    report.metric(
        "comm.intra_host_bytes_per_item",
        traced[0].intra_host_bytes() as f64,
        "B",
    );
    let fabric = fabric(&config.cluster);
    let wire_ms: f64 = traced[0]
        .segments
        .iter()
        .filter(|s| s.is_comm())
        .map(|s| {
            fabric
                .target_duration(s.cross_host_bytes, s.intra_host_bytes)
                .as_secs_f64()
        })
        .sum::<f64>()
        * 1e3;
    report.metric("comm.modelled_wire_ms_per_item", wire_ms, "ms");

    // A short snapshot run gives the trained tables and dense stack the
    // nn probes and the serving check run over.
    let snapshot_config = config.clone().with_iterations(2);
    let (_, snapshot) = tracer
        .time("trainer", "run_with_snapshot", 0, || {
            run_with_snapshot(&snapshot_config, ExecutionMode::Dmt)
        })
        .map_err(|e| format!("snapshot export failed: {e}"))?;
    probes::dense_gemm(tracer, report, &snapshot, LOCAL_BATCH);
    probes::all_to_all(tracer, report, &config.cluster, embedding_payload(first));
    crate::colocated::probe_trained(tracer, report, &snapshot, args.seed)?;
    Ok(())
}

/// Mean per-rank payload of one embedding AlltoAll in this run, in f32s.
fn embedding_payload(run: &MeasuredRun) -> usize {
    let exchanges: Vec<u64> = run
        .segments
        .iter()
        .filter(|s| s.kind == SegmentKind::EmbeddingComm && s.payload_bytes > 0)
        .map(|s| s.payload_bytes)
        .collect();
    let mean = exchanges.iter().sum::<u64>() / exchanges.len().max(1) as u64;
    usize::try_from(mean / 4).unwrap_or(0).max(1)
}

/// The share of an iteration's wall time its exposed segments do not cover
/// (negative when they sum to more than the wall).
pub fn unattributed(run: &MeasuredRun) -> f64 {
    let exposed: f64 = run.segments.iter().map(|s| s.exposed_s()).sum();
    (run.wall_s_per_iter - exposed) / run.wall_s_per_iter
}

/// Busy (full duration) and exposed time per iteration by segment class, the
/// share of communication the pipeline hid, and the unattributed share.
pub fn segment_metrics(run: &MeasuredRun, report: &mut Report) {
    let class = |kind: SegmentKind| match kind {
        SegmentKind::Compute => "compute",
        SegmentKind::EmbeddingComm => "embedding_comm",
        SegmentKind::DenseSync => "dense_sync",
        SegmentKind::Shuffle | SegmentKind::Other => "other",
    };
    for name in ["compute", "embedding_comm", "dense_sync", "other"] {
        let (busy, exposed) = run
            .segments
            .iter()
            .filter(|s| class(s.kind) == name)
            .fold((0.0, 0.0), |(b, e), s| (b + s.time_s, e + s.exposed_s()));
        report.metric(&format!("trainer.{name}_ms_busy"), busy * 1e3, "ms");
        report.metric(&format!("trainer.{name}_ms_exposed"), exposed * 1e3, "ms");
    }
    report.metric(
        "trainer.hidden_comm_frac",
        run.hidden_comm_fraction(),
        "frac",
    );
    report.metric("trainer.unattributed_frac", unattributed(run), "frac");
}
