//! Per-layer probes timed from outside around public calls: the
//! `nnir::exec` engine on a workload's model, `trust` hashing and
//! attestation, and the `obs` histogram.

use crate::report::{Report, OP_TYPES};
use crate::stats::median;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use vedliot_fleet::ModelArtifact;
use vedliot_nnir::exec::{MemoryPlan, Parallelism, RunOptions, Runner};
use vedliot_nnir::profile::RunProfile;
use vedliot_nnir::{Graph, Shape, Tensor};
use vedliot_obs::Histogram;
use vedliot_trust::attestation::{attest, RootOfTrust, Verifier};
use vedliot_trust::sha256;

const MIB: f64 = 1024.0 * 1024.0;

/// Profiled passes per batch size: at least this many, and until
/// [`EXEC_BUDGET`] has passed.
const EXEC_MIN_RUNS: usize = 3;
const EXEC_BUDGET: Duration = Duration::from_millis(500);
const EXEC_MAX_RUNS: usize = 2000;

/// Median wall time of `f` in milliseconds, timed `n` times.
///
/// # Errors
///
/// The first error `f` returns.
pub fn median_ms<E: std::fmt::Display>(
    n: usize,
    mut f: impl FnMut() -> Result<(), E>,
) -> Result<f64, String> {
    let mut times = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        f().map_err(|e| e.to_string())?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&times))
}

/// Median per-call time of `f` in nanoseconds, over `blocks` blocks of
/// `per_block` calls.
fn per_call_ns(
    blocks: usize,
    per_block: usize,
    mut f: impl FnMut() -> bool,
) -> Result<f64, String> {
    let mut times = Vec::with_capacity(blocks);
    for _ in 0..blocks {
        let t = Instant::now();
        for _ in 0..per_block {
            if !f() {
                return Err("layer probe call returned a wrong result".into());
            }
        }
        times.push(t.elapsed().as_nanos() as f64 / per_block as f64);
    }
    Ok(median(&times))
}

/// The model's input shape at batch `b`.
fn input_shape(graph: &Graph, b: usize) -> Result<Shape, String> {
    let shape = graph
        .inputs()
        .first()
        .and_then(|&t| graph.tensor_shape(t))
        .ok_or("model has no input shape")?;
    let mut dims = shape.dims().to_vec();
    dims[0] = b;
    Ok(Shape::new(dims))
}

/// Profiled passes of a warm runner over `graph` at batch `b`.
fn profiles(graph: &Graph, b: usize, parallelism: Parallelism) -> Result<Vec<RunProfile>, String> {
    let graph = graph.with_batch(b).map_err(|e| e.to_string())?;
    let mut runner = Runner::builder()
        .parallelism(parallelism)
        .build(&graph)
        .map_err(|e| e.to_string())?;
    let x = Tensor::random(input_shape(&graph, b)?, 0x9E37 + b as u64, 1.0);
    let inputs = std::slice::from_ref(&x);
    runner
        .execute(inputs, RunOptions::default())
        .map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < EXEC_MAX_RUNS && (out.len() < EXEC_MIN_RUNS || t0.elapsed() < EXEC_BUDGET) {
        let run = runner
            .execute(inputs, RunOptions::new().profile(true))
            .map_err(|e| e.to_string())?;
        out.push(
            run.into_profile()
                .ok_or("profile requested but not returned")?,
        );
    }
    Ok(out)
}

/// Bytes one batch-1 pass moves, computed from tensor sizes (not
/// measured): every node's inputs, output and weights, at 4 bytes per
/// element.
fn traffic_bytes(graph: &Graph) -> u64 {
    let elems = |id| graph.tensor_shape(id).map_or(0, Shape::elem_count) as u64;
    graph
        .nodes()
        .iter()
        .map(|node| {
            let ins = graph.node_input_shapes(node);
            let weights: u64 = node
                .weight_shapes(&ins)
                .iter()
                .map(|s| s.elem_count() as u64)
                .sum();
            let inputs: u64 = node.inputs.iter().map(|&t| elems(t)).sum();
            (inputs + elems(node.output) + weights) * 4
        })
        .sum()
}

/// The `exec.*` metrics: a direct [`Runner`] on the workload's `graph`
/// with its caller's `parallelism`. `batches` is the largest batch the
/// caller compiles runners for; `exec.arena_peak_mb` sums their planned
/// arenas.
///
/// # Errors
///
/// The graph failed to build or execute.
pub fn exec_layer(
    report: &mut Report,
    graph: &Graph,
    parallelism: Parallelism,
    batches: usize,
) -> Result<(), String> {
    for b in [1, 8] {
        let gb = graph.with_batch(b).map_err(|e| e.to_string())?;
        let build = median_ms(5, || {
            Runner::builder()
                .parallelism(parallelism)
                .build(&gb)
                .map(|runner| drop(black_box(runner)))
        })?;
        report.set(
            &format!("exec.build_ms.b{b}"),
            build,
            format!("median of 5, {parallelism:?}"),
        );
        let runs = profiles(graph, b, parallelism)?;
        let walls: Vec<f64> = runs.iter().map(|p| p.wall_ns as f64 / 1e6).collect();
        report.set(
            &format!("exec.run_ms.b{b}"),
            median(&walls),
            format!("median of n={} warm passes, {parallelism:?}", runs.len()),
        );
        if b == 1 {
            op_metrics(report, graph, &runs);
        }
    }
    let mut arena = 0;
    for b in 1..=batches {
        let gb = graph.with_batch(b).map_err(|e| e.to_string())?;
        arena += MemoryPlan::plan(&gb).peak_bytes();
    }
    report.set(
        "exec.arena_peak_mb",
        arena as f64 / MIB,
        format!("planned arenas of batch 1..={batches}"),
    );
    report.set(
        "exec.traffic_mb",
        traffic_bytes(graph) as f64 / MIB,
        "batch 1, computed from tensor sizes",
    );
    Ok(())
}

/// Per-op-type time and rates from batch-1 profiles.
fn op_metrics(report: &mut Report, graph: &Graph, runs: &[RunProfile]) {
    let op_of: HashMap<&str, &str> = graph
        .nodes()
        .iter()
        .map(|n| (n.name.as_str(), n.op.name()))
        .collect();
    let mut op_ns: HashMap<&str, u64> = HashMap::new();
    let (mut conv_ns, mut conv_ops, mut nodes_ns, mut ops, mut wall_ns) = (0, 0, 0, 0, 0);
    for run in runs {
        for node in &run.per_node {
            let op = op_of.get(node.name.as_str()).copied().unwrap_or("other");
            let key = if OP_TYPES.contains(&op) { op } else { "other" };
            *op_ns.entry(key).or_default() += node.duration_ns;
            if op == "Conv2d" {
                conv_ns += node.duration_ns;
                conv_ops += node.ops();
            }
        }
        nodes_ns += run.nodes_ns();
        ops += run.total_ops();
        wall_ns += run.wall_ns;
    }
    let n = runs.len() as f64;
    for op in OP_TYPES.iter().chain(&["other"]) {
        let ns = op_ns.get(op).copied().unwrap_or(0);
        report.set(
            &format!("exec.op_ms.{op}"),
            ns as f64 / n / 1e6,
            "batch 1, mean per pass",
        );
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    report.set(
        "exec.conv_share",
        ratio(conv_ns, nodes_ns),
        "batch 1, of summed node time",
    );
    report.set(
        "exec.conv_gops",
        ratio(conv_ops, conv_ns),
        "batch 1, conv ops / conv time",
    );
    report.set(
        "exec.gops",
        ratio(ops, wall_ns),
        "batch 1, all ops / pass wall time",
    );
    report.set(
        "exec.coverage",
        ratio(nodes_ns, wall_ns),
        "batch 1, node time / pass wall time",
    );
}

/// The `trust.*` micro-timings: [`vedliot_fleet::Chunk::verify`] on one
/// 256-byte chunk of `graph`'s packed artifact, and one attestation
/// round (`attest` plus [`Verifier::verify`]). Returns the chunk-verify
/// time in microseconds.
///
/// # Errors
///
/// The artifact could not be packed, or a probe call returned a wrong
/// result.
pub fn trust_layer(report: &mut Report, graph: &Graph) -> Result<f64, String> {
    let artifact = ModelArtifact::pack("perfbench", graph, 256).map_err(|e| e.to_string())?;
    let chunk = artifact
        .chunks
        .iter()
        .find(|c| c.payload.len() == 256)
        .ok_or("artifact has no full 256-byte chunk")?;
    let verify_us = per_call_ns(30, 1000, || black_box(chunk).verify(&artifact.manifest))? / 1e3;
    report.set(
        "trust.chunk_verify_us",
        verify_us,
        "median of 30 blocks of 1000 calls",
    );

    let rot = RootOfTrust::provision(b"perfbench-device");
    let measurement = sha256(b"perfbench-firmware");
    let mut verifier = Verifier::new();
    verifier.enroll(&rot);
    verifier.expect_measurement(measurement);
    let attest_us = per_call_ns(30, 100, || {
        let nonce = verifier.challenge_for(rot.device_id);
        let report = attest(&rot, measurement, nonce);
        verifier.verify(black_box(&report))
    })? / 1e3;
    report.set(
        "trust.attest_us",
        attest_us,
        "median of 30 blocks of 100 rounds",
    );
    Ok(verify_us)
}

/// `obs.hist_record_ns`: one [`Histogram::record`], the call the
/// gateway's reply path makes for every request.
///
/// # Errors
///
/// Never in practice: the probe's calls cannot return a wrong result.
pub fn obs_layer(report: &mut Report) -> Result<(), String> {
    let hist = Histogram::new();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let ns = per_call_ns(50, 20_000, || {
        // xorshift: latency-like values spread over many buckets.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        black_box(&hist).record(x >> 44);
        true
    })?;
    report.set(
        "obs.hist_record_ns",
        ns,
        "median of 50 blocks of 20000 records",
    );
    Ok(())
}
