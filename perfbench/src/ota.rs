//! The `ota` workload: a 1200-device fleet rolls the Smart-Mirror
//! gesture net from v1 to v2 under the hostile fault plan, canary 24.
//!
//! Every repetition builds a fresh fleet and runs the whole rollout.
//! With one seed the rollout is bit-deterministic, so every repetition
//! must end `Completed` with an empty audit and exactly the counters of
//! the run's first repetition.

use crate::layers::median_ms;
use crate::procstat::{peak_rss_mb, process_cpu_s};
use crate::report::Report;
use crate::stats::{interquartile_mean, median, percentile, sorted, tail_percentile};
use std::time::Instant;
use vedliot_fleet::{
    Fleet, FleetConfig, FleetCounters, FleetFaultPlan, FleetHealth, ModelArtifact, Rollout,
    RolloutOutcome, RolloutPolicy,
};
use vedliot_nnir::det::splitmix64;
use vedliot_nnir::exec::{Parallelism, Runner};
use vedliot_nnir::graph::WeightInit;
use vedliot_nnir::{Graph, Tensor};

/// Devices in the fleet.
pub const DEVICES: usize = 1200;
/// Devices in the canary wave.
pub const CANARY: usize = 24;
/// Highest tail percentile reported.
const TAIL_CAP: f64 = 80.0;
/// Repetitions every run makes, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// The rollout's inputs, all derived from the workload seed.
#[derive(Debug, Clone)]
pub struct OtaInputs {
    /// The deployed release: the use case's gesture net, explicit weights.
    pub v1: Graph,
    /// The update: the same network with weights drawn from the seed.
    pub v2: Graph,
    /// The fleet's golden-probe input.
    pub probe: Tensor,
    /// Fleet provisioning.
    pub config: FleetConfig,
    /// Wave pacing (E26's: canary 24, health threshold 0.8).
    pub policy: RolloutPolicy,
    /// The hostile fault plan.
    pub plan: FleetFaultPlan,
}

/// `graph` with every weighted node's weights materialized as explicit
/// tensors (an OTA artifact ships weights, not seeds); with `reseed`,
/// seeded from it first.
fn explicit_weights(graph: &Graph, reseed: Option<u64>) -> Result<Graph, String> {
    let mut g = graph.clone();
    if let Some(seed) = reseed {
        for (i, node) in g.nodes_mut().iter_mut().enumerate() {
            if !matches!(node.weights, WeightInit::None) {
                node.weights = WeightInit::Seeded(splitmix64(seed ^ i as u64));
            }
        }
    }
    let weights = {
        let runner = Runner::builder().build(&g).map_err(|e| e.to_string())?;
        g.nodes()
            .iter()
            .map(|n| match n.weights {
                WeightInit::None => Ok(None),
                _ => runner.node_weights(n).map(Some).map_err(|e| e.to_string()),
            })
            .collect::<Result<Vec<_>, String>>()?
    };
    for (node, w) in g.nodes_mut().iter_mut().zip(weights) {
        if let Some(w) = w {
            node.weights = WeightInit::Explicit(w);
        }
    }
    Ok(g)
}

impl OtaInputs {
    /// The workload for `seed`.
    ///
    /// # Errors
    ///
    /// The gesture net could not be built.
    pub fn new(seed: u64) -> Result<Self, String> {
        let (gesture, _) = crate::serving::mirror_net("gesture")?;
        let shape = gesture
            .inputs()
            .first()
            .and_then(|&t| gesture.tensor_shape(t))
            .cloned()
            .ok_or("gesture net has no input shape")?;
        Ok(OtaInputs {
            v1: explicit_weights(&gesture, None)?,
            v2: explicit_weights(&gesture, Some(splitmix64(seed ^ 0x07A2)))?,
            probe: Tensor::random(shape, splitmix64(seed ^ 0x9_20BE), 1.0),
            config: FleetConfig {
                devices: DEVICES,
                seed: splitmix64(seed ^ 0xF1EE7),
                trace_len: 256,
            },
            policy: RolloutPolicy {
                canary: CANARY,
                health_threshold: 0.8,
                ..RolloutPolicy::default()
            },
            plan: FleetFaultPlan::hostile(splitmix64(seed ^ 0xBAD5EED)),
        })
    }
}

/// What a rollout must reproduce exactly on every repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// How the rollout ended.
    pub outcome: RolloutOutcome,
    /// `Fleet::audit` violations.
    pub violations: Vec<String>,
    /// Simulation ticks.
    pub ticks: u64,
    /// Event counters.
    pub counters: FleetCounters,
    /// Fleet health at the end.
    pub health: FleetHealth,
}

impl Shape {
    /// Completed with a clean audit.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.outcome == RolloutOutcome::Completed && self.violations.is_empty()
    }
}

/// One repetition, timed.
#[derive(Debug, Clone)]
pub struct Rep {
    /// `Fleet::new`, seconds.
    pub new_s: f64,
    /// `Fleet::register_version` of v2, seconds.
    pub register_s: f64,
    /// `Rollout::run`, seconds.
    pub rollout_s: f64,
    /// Process CPU during `Rollout::run`, seconds.
    pub rollout_cpu_s: f64,
    /// `Fleet::audit`, seconds.
    pub audit_s: f64,
    /// The outcome to compare.
    pub shape: Shape,
}

/// Builds a fresh fleet, registers v2 and rolls it out.
///
/// # Errors
///
/// Fleet construction, registration or the rollout returned an error.
pub fn rollout(inputs: &OtaInputs) -> Result<Rep, String> {
    let (v1, v2, probe) = (inputs.v1.clone(), inputs.v2.clone(), inputs.probe.clone());
    let t0 = Instant::now();
    let mut fleet =
        Fleet::new(inputs.config, ("v1", v1), probe, None).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let target = fleet
        .register_version("v2", v2, None)
        .map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let cpu0 = process_cpu_s()?;
    let report = Rollout::new(target, inputs.policy, inputs.plan)
        .run(&mut fleet)
        .map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    let rollout_cpu_s = process_cpu_s()? - cpu0;
    let violations = fleet.audit(&report);
    let t4 = Instant::now();
    Ok(Rep {
        new_s: (t1 - t0).as_secs_f64(),
        register_s: (t2 - t1).as_secs_f64(),
        rollout_s: (t3 - t2).as_secs_f64(),
        rollout_cpu_s,
        audit_s: (t4 - t3).as_secs_f64(),
        shape: Shape {
            outcome: report.outcome,
            violations,
            ticks: report.ticks,
            counters: report.counters,
            health: report.health,
        },
    })
}

/// Repeats [`rollout`] for `seconds` (at least [`MIN_REPS`] times).
fn repeat(inputs: &OtaInputs, seconds: f64) -> Result<Vec<Rep>, String> {
    let t0 = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || t0.elapsed().as_secs_f64() < seconds {
        reps.push(rollout(inputs)?);
    }
    Ok(reps)
}

/// Repetitions that completed cleanly with the first one's shape.
fn good(reps: &[Rep]) -> usize {
    reps.iter()
        .filter(|r| r.shape.clean() && r.shape == reps[0].shape)
        .count()
}

/// Untraced run: the end-to-end metrics.
///
/// # Errors
///
/// As [`rollout`].
pub fn run_untraced(seed: u64, seconds: f64, report: &mut Report) -> Result<(), String> {
    let inputs = OtaInputs::new(seed)?;
    let reps = repeat(&inputs, seconds)?;
    let n = reps.len();
    let good = good(&reps);
    let wall = sorted(&reps.iter().map(|r| r.rollout_s * 1e3).collect::<Vec<_>>());
    let tail = tail_percentile(n, TAIL_CAP);
    let p50 = percentile(&wall, 50.0);
    let converged = reps[0].shape.health.on_target;
    let cpu_ms: Vec<f64> = reps.iter().map(|r| r.rollout_cpu_s * 1e3).collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.new_s + r.register_s).collect();
    report.set("latency_p50_ms", p50, format!("p50 of n={n} rollouts"));
    report.set(
        "latency_tail_ms",
        percentile(&wall, tail),
        format!("p{tail} of n={n}"),
    );
    report.set(
        "throughput_per_s",
        converged as f64 / (p50 / 1e3),
        format!("{converged} devices converged per p50 rollout"),
    );
    report.set(
        "good_share",
        good as f64 / n as f64,
        format!("{good} of {n} rollouts"),
    );
    report.set(
        "cpu_ms_per_op",
        interquartile_mean(&cpu_ms),
        format!("interquartile mean per rollout, n={n}"),
    );
    report.set(
        "setup_s",
        median(&setups),
        format!("median Fleet::new + register_version, n={n}"),
    );
    report.set("peak_rss_mb", peak_rss_mb()?, "VmHWM after the timed phase");
    let s = &reps[0].shape;
    println!(
        "# ota: {:?} in {} ticks, {} on target, {} chunks delivered, audit violations {}",
        s.outcome,
        s.ticks,
        s.health.on_target,
        s.counters.chunks_delivered,
        s.violations.len()
    );
    report.attempted = n as u64;
    report.failed = (n - good) as u64;
    report.correct = good == n;
    Ok(())
}

/// Traced run: fleet, artifact, exec, trust and obs layer metrics.
///
/// # Errors
///
/// As [`rollout`], or a layer probe failed.
pub fn run_traced(seed: u64, seconds: f64, report: &mut Report) -> Result<(), String> {
    let inputs = OtaInputs::new(seed)?;
    let reps = repeat(&inputs, seconds)?;
    let n = reps.len();
    let ms = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(|r| f(r) * 1e3).collect::<Vec<_>>());
    let rollout_ms = ms(&|r| r.rollout_s);
    let s = &reps[0].shape;
    let c = &s.counters;
    report.set("fleet.rollout_ms", rollout_ms, format!("median of n={n}"));
    report.set(
        "fleet.tick_us",
        rollout_ms * 1e3 / s.ticks.max(1) as f64,
        "rollout_ms / ticks",
    );
    report.set(
        "fleet.audit_ms",
        ms(&|r| r.audit_s),
        format!("median of n={n}"),
    );
    report.set("fleet.new_ms", ms(&|r| r.new_s), format!("median of n={n}"));
    report.set(
        "fleet.register_ms",
        ms(&|r| r.register_s),
        format!("median of n={n}"),
    );
    report.set("fleet.ticks", s.ticks as f64, "exact");
    report.set("fleet.chunks_delivered", c.chunks_delivered as f64, "exact");
    report.set("fleet.chunk_retries", c.chunk_retries as f64, "exact");
    report.set("fleet.installs", c.installs as f64, "exact");
    report.set(
        "fleet.golden_probes",
        c.weight_flips_injected as f64,
        "exact: soak probes that ran an inference",
    );
    report.set(
        "fleet.attestations",
        (c.attest_ok + c.quarantined) as f64,
        "exact: attested plus quarantined",
    );

    let chunk = inputs.policy.chunk_bytes;
    let pack_ms = median_ms(20, || {
        ModelArtifact::pack("v2", &inputs.v2, chunk).map(drop)
    })?;
    let artifact = ModelArtifact::pack("v2", &inputs.v2, chunk).map_err(|e| e.to_string())?;
    report.set("artifact.pack_ms", pack_ms, "median of 20");
    report.set(
        "artifact.verify_ms",
        median_ms(20, || artifact.verify())?,
        "median of 20",
    );
    report.set(
        "artifact.unpack_ms",
        median_ms(20, || artifact.unpack().map(drop))?,
        "median of 20",
    );

    crate::layers::exec_layer(report, &inputs.v2, Parallelism::Auto, 1)?;
    let verify_us = crate::layers::trust_layer(report, &inputs.v2)?;
    let verifications = c.chunks_delivered + c.artifact_flips_caught;
    report.set(
        "trust.hash_share",
        verifications as f64 * verify_us / (rollout_ms * 1e3),
        format!("estimate: {verifications} chunk verifications x trust.chunk_verify_us / fleet.rollout_ms"),
    );
    crate::layers::obs_layer(report)?;
    report.attempted = n as u64;
    let good = good(&reps);
    report.failed = (n - good) as u64;
    report.correct = good == n;
    Ok(())
}
