//! The metric registry and the result line.
//!
//! Every metric the benchmark can print is declared here with its unit;
//! `BENCHMARK.json` at the repository root lists the same names (a
//! self-test keeps the two in step).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("good_share", "share"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Op types with their own `exec.op_ms.<op>` metric: the union over the
/// three workloads' models. Any other op lands in `exec.op_ms.other`.
pub const OP_TYPES: &[&str] = &[
    "Conv2d",
    "Dense",
    "BatchNorm",
    "Activation",
    "Add",
    "Mul",
    "GlobalAvgPool",
    "Flatten",
];

/// Per-layer metrics, printed with `--trace 1`. A layer the workload
/// does not drive reports 0 (and `n/a` in the table).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.linger_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.submit_us", "us"),
    ("serve.exec_us", "us"),
    ("serve.reply_us", "us"),
    ("serve.wake_us", "us"),
    ("serve.batch_mean", "count"),
    ("serve.batches", "count"),
    ("serve.busy_share", "share"),
    ("serve.queue_hwm", "count"),
    ("serve.refused", "count"),
    ("serve.failed", "count"),
    ("exec.run_ms.b1", "ms"),
    ("exec.run_ms.b8", "ms"),
    ("exec.op_ms.Conv2d", "ms"),
    ("exec.op_ms.Dense", "ms"),
    ("exec.op_ms.BatchNorm", "ms"),
    ("exec.op_ms.Activation", "ms"),
    ("exec.op_ms.Add", "ms"),
    ("exec.op_ms.Mul", "ms"),
    ("exec.op_ms.GlobalAvgPool", "ms"),
    ("exec.op_ms.Flatten", "ms"),
    ("exec.op_ms.other", "ms"),
    ("exec.conv_share", "share"),
    ("exec.conv_gops", "GOP/s"),
    ("exec.gops", "GOP/s"),
    ("exec.coverage", "share"),
    ("exec.traffic_mb", "MiB"),
    ("exec.build_ms.b1", "ms"),
    ("exec.build_ms.b8", "ms"),
    ("exec.arena_peak_mb", "MiB"),
    ("fleet.rollout_ms", "ms"),
    ("fleet.tick_us", "us"),
    ("fleet.audit_ms", "ms"),
    ("fleet.new_ms", "ms"),
    ("fleet.register_ms", "ms"),
    ("artifact.pack_ms", "ms"),
    ("artifact.verify_ms", "ms"),
    ("artifact.unpack_ms", "ms"),
    ("fleet.ticks", "count"),
    ("fleet.chunks_delivered", "count"),
    ("fleet.chunk_retries", "count"),
    ("fleet.installs", "count"),
    ("fleet.golden_probes", "count"),
    ("fleet.attestations", "count"),
    ("trust.chunk_verify_us", "us"),
    ("trust.attest_us", "us"),
    ("trust.hash_share", "share"),
    ("obs.hist_record_ns", "ns"),
    ("obs.trace_tax.latency_p50", "ratio"),
    ("obs.trace_tax.throughput", "ratio"),
    ("obs.spans_dropped", "count"),
    ("gen.late_p50_us", "us"),
    ("gen.late_p99_us", "us"),
    ("host.steal_share", "share"),
];

/// One run's outcome: the correctness verdict, the operation ledger and
/// the measured metrics, each with a note (percentile, sample count,
/// how it was derived).
#[derive(Debug, Default)]
pub struct Report {
    /// Every checked output matched its reference and every audit was
    /// clean.
    pub correct: bool,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations refused, failed, or answered wrongly.
    pub failed: u64,
    values: BTreeMap<String, (f64, String)>,
}

impl Report {
    /// Records `name = value` with its explanatory note.
    pub fn set(&mut self, name: &str, value: f64, note: impl Into<String>) {
        self.values.insert(name.to_string(), (value, note.into()));
    }

    /// Records every name in `names` that is still unset as 0: the
    /// workload does not drive that layer.
    pub fn fill_unused(&mut self, names: &[(&str, &str)]) {
        for (name, _) in names {
            self.values
                .entry((*name).to_string())
                .or_insert((0.0, "n/a: layer not driven by this workload".into()));
        }
    }

    /// The human-readable table followed by the one-line JSON result
    /// over exactly `names`.
    ///
    /// # Errors
    ///
    /// A name in `names` was never recorded, or a value is not finite.
    pub fn render(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut table = String::new();
        let mut json = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let (value, note) = self
                .values
                .get(*name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let _ = writeln!(table, "  {name:<28} {value:>16.4} {unit:<6} {note}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        let _ = write!(
            table,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct, self.attempted, self.failed
        );
        Ok(table)
    }
}
