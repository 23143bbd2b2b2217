//! Per-layer probes: direct calls into one layer's public functions at the
//! shapes and on the inputs a workload uses, each wrapped in a span.

use crate::report::Report;
use crate::stats;
use crate::tracer::Tracer;
use dmt_comm::{Backend, FabricProfile, SharedMemoryComm};
use dmt_data::Query;
use dmt_tensor::Tensor;
use dmt_topology::{ClusterTopology, ProcessGroup};
use dmt_trainer::distributed::model::{
    load_params, tower_groups, tower_num_units, DenseScratch, DenseStack, ShardedLookup,
};
use dmt_trainer::distributed::{ExecutionMode, ModelSnapshot};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall time each probe spends measuring.
const PROBE_TIME: Duration = Duration::from_millis(300);

/// The dense stack's interaction geometry `(unit_width, num_units)` for a
/// snapshot, as the serving engine derives it.
fn dense_geometry(snapshot: &ModelSnapshot) -> (usize, usize) {
    match snapshot.mode {
        ExecutionMode::Baseline => (
            snapshot.hyper.embedding_dim,
            snapshot.schema.num_sparse() + 1,
        ),
        ExecutionMode::Dmt => {
            let groups = tower_groups(snapshot.schema.num_sparse(), snapshot.num_towers)
                .expect("snapshot tower geometry");
            let units = tower_num_units(
                &groups,
                snapshot.tower_ensemble_c,
                snapshot.tower_ensemble_p,
            );
            (snapshot.tower_output_dim, units)
        }
    }
}

/// The `(k, n)` shapes of the dense stack's linear layers: bottom MLP then
/// over-arch, as `[batch, k] x [k, n]` GEMMs.
fn linear_shapes(snapshot: &ModelSnapshot) -> Vec<(usize, usize)> {
    let (unit_width, num_units) = dense_geometry(snapshot);
    let hyper = &snapshot.hyper;
    let mut bottom = vec![snapshot.schema.num_dense];
    bottom.extend(&hyper.bottom_mlp_hidden);
    bottom.push(unit_width);
    // DLRM over-arch input: the dense unit plus the pairwise dot products of
    // all units (`num_units` counts the dense unit).
    let mut over = vec![unit_width + num_units * (num_units - 1) / 2];
    over.extend(&hyper.over_mlp_hidden);
    over.push(1);
    bottom
        .windows(2)
        .chain(over.windows(2))
        .map(|w| (w[0], w[1]))
        .collect()
}

/// Repeats `f` for about [`PROBE_TIME`] and returns the per-call seconds.
fn repeat(mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed() < PROBE_TIME {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    samples
}

/// `tensor.gemm_gflops`: `dmt_tensor::kernels::gemm` over the dense stack's
/// linear-layer shapes at `batch` rows.
pub fn dense_gemm(
    tracer: &mut Tracer,
    report: &mut Report,
    snapshot: &ModelSnapshot,
    batch: usize,
) {
    let shapes = linear_shapes(snapshot);
    let mut buffers: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> = shapes
        .iter()
        .map(|&(k, n)| {
            let a = (0..batch * k)
                .map(|i| ((i % 13) as f32 - 6.0) * 0.01)
                .collect();
            let b = (0..k * n).map(|i| ((i % 7) as f32 - 3.0) * 0.01).collect();
            (a, b, vec![0.0; batch * n])
        })
        .collect();
    let flops: f64 = shapes
        .iter()
        .map(|&(k, n)| 2.0 * (batch * k * n) as f64)
        .sum();
    let samples = tracer.time("tensor", "gemm", 0, || {
        repeat(|| {
            for ((a, b, c), &(k, n)) in buffers.iter_mut().zip(&shapes) {
                c.fill(0.0);
                dmt_tensor::kernels::gemm(black_box(a), black_box(b), c, batch, k, n);
                black_box(&c);
            }
        })
    });
    let per_call = stats::median(&samples).expect("probe samples");
    report.metric("tensor.gemm_gflops", flops / per_call * 1e-9, "GFLOP/s");
}

/// `nn.pool_ns_per_row` and `nn.dense_forward_us_per_batch`: rank-local
/// pooling (`ShardedLookup::pool_local_into`) over the workload's own queries
/// and the dense forward (`DenseStack::forward_infer`) at `batch` rows.
pub fn pool_and_dense(
    tracer: &mut Tracer,
    report: &mut Report,
    snapshot: &ModelSnapshot,
    queries: &[Query],
    batch: usize,
) -> Result<(), String> {
    let batch = batch.clamp(1, queries.len());
    let features: Vec<usize> = (0..snapshot.schema.num_sparse()).collect();
    let lookup = tracer
        .time("nn", "load tables", 0, || {
            ShardedLookup::from_tables(features, &snapshot.tables, 1, 0)
        })
        .map_err(|e| format!("pool probe tables: {e}"))?;
    let rows_per_pass: usize = queries
        .iter()
        .map(|q| q.sparse.iter().map(Vec::len).sum::<usize>())
        .sum();
    let mut row_buf = Vec::new();
    let mut block = Tensor::default();
    let mut failed = None;
    let samples = tracer.time("nn", "pool_local_into", 0, || {
        repeat(|| {
            for chunk in queries.chunks(batch) {
                if let Err(e) = lookup.pool_local_into(
                    chunk.len(),
                    |f, s| chunk[s].sparse[f].as_slice(),
                    &mut row_buf,
                    &mut block,
                ) {
                    failed = Some(e.to_string());
                }
                black_box(&block);
            }
        })
    });
    if let Some(e) = failed {
        return Err(format!("pool probe: {e}"));
    }
    let per_pass = stats::median(&samples).expect("probe samples");
    report.metric(
        "nn.pool_ns_per_row",
        per_pass / rows_per_pass as f64 * 1e9,
        "ns",
    );
    drop(lookup);

    let (unit_width, num_units) = dense_geometry(snapshot);
    let mut dense = DenseStack::new(
        snapshot.seed,
        &snapshot.schema,
        snapshot.arch,
        &snapshot.hyper,
        unit_width,
        num_units,
    );
    load_params(&mut dense, &snapshot.dense_params).map_err(|e| format!("dense probe: {e}"))?;
    let num_dense = snapshot.schema.num_dense;
    let mut dense_input = Tensor::zeros(&[batch, num_dense]);
    for (row, q) in dense_input
        .data_mut()
        .chunks_exact_mut(num_dense)
        .zip(queries)
    {
        row.copy_from_slice(&q.dense);
    }
    // The feature block holds every unit but the dense one.
    let width = unit_width * (num_units - 1);
    let mut features = Tensor::zeros(&[batch, width]);
    for (i, v) in features.data_mut().iter_mut().enumerate() {
        *v = ((i % 17) as f32 - 8.0) * 0.01;
    }
    let mut preds = Vec::new();
    let mut scratch = DenseScratch::default();
    let mut failed = None;
    let samples = tracer.time("nn", "forward_infer", 0, || {
        repeat(|| {
            if let Err(e) = dense.forward_infer(&dense_input, &features, &mut preds, &mut scratch) {
                failed = Some(e.to_string());
            }
            black_box(&preds);
        })
    });
    if let Some(e) = failed {
        return Err(format!("dense probe: {e}"));
    }
    report.metric(
        "nn.dense_forward_us_per_batch",
        stats::median(&samples).expect("probe samples") * 1e6,
        "us",
    );
    Ok(())
}

/// `comm.all_to_all_us`: one unpaced `Backend::all_to_all` over the
/// cluster's global world carrying `payload` f32s per rank, timed on rank 0.
/// Pacing is off so the figure is the real transfer work; the modelled wire
/// time is reported apart.
pub fn all_to_all(
    tracer: &mut Tracer,
    report: &mut Report,
    cluster: &ClusterTopology,
    payload: usize,
) {
    let world = cluster.world_size();
    let handles = SharedMemoryComm::for_group(
        cluster,
        &ProcessGroup::global(cluster),
        FabricProfile::unthrottled(),
    );
    let per_peer = payload.div_ceil(world).max(1);
    // Every rank must issue the same number of collectives, so the round
    // count is fixed up front: about 200 MB moved per rank in total.
    let rounds = (200_000_000 / (payload * 4).max(1)).clamp(20, 2_000);
    let samples = tracer.time("comm", "all_to_all", 0, || {
        std::thread::scope(|scope| {
            let workers: Vec<_> = handles
                .into_iter()
                .map(|mut backend| {
                    scope.spawn(move || {
                        let mut samples = Vec::with_capacity(rounds);
                        for round in 0..rounds {
                            let sends = vec![vec![round as f32; per_peer]; world];
                            let t = Instant::now();
                            let got = backend.all_to_all(sends).expect("all_to_all");
                            samples.push(t.elapsed().as_secs_f64());
                            black_box(got);
                            let _ = backend.drain_records();
                        }
                        samples
                    })
                })
                .collect();
            let mut per_rank: Vec<Vec<f64>> = workers
                .into_iter()
                .map(|w| w.join().expect("all_to_all worker"))
                .collect();
            per_rank.swap_remove(0)
        })
    });
    report.metric(
        "comm.all_to_all_us",
        stats::median(&samples).expect("probe samples") * 1e6,
        "us",
    );
}
