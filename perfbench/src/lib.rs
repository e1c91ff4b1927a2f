//! End-to-end and per-layer benchmark of the VEDLIoT workspace.
//!
//! The workloads drive the workspace's public APIs from outside:
//! `keyword` and `object` serve Smart-Mirror networks through the
//! `serve` gateway, `ota` rolls a Smart-Mirror network out to a
//! simulated fleet; `BENCHMARK.json` gates `keyword` and `ota`. See
//! `README.md` beside this crate for why each workload exists and which
//! layer it loads.

pub mod layers;
pub mod openloop;
pub mod ota;
pub mod procstat;
pub mod report;
pub mod serving;
pub mod stats;

use report::{Report, END_TO_END, PER_LAYER};

/// The workloads `BENCHMARK.json` lists.
pub const WORKLOADS: &[&str] = &["keyword", "ota"];

/// Workloads the command line also accepts. `object` (MobileNetV3 through
/// the gateway) is the kernel-bound serving workload; its saturation
/// throughput spread too widely between runs on a shared two-core host
/// to hold a regression bound, so `BENCHMARK.json` leaves it out.
pub const MANUAL_WORKLOADS: &[&str] = &["object"];

/// Runs one workload and returns its printable result: the metric
/// table followed by the one-line JSON result.
///
/// # Errors
///
/// An unknown workload, a failed layer call, or a `/proc` read error.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Report, String), String> {
    let steal0 = procstat::steal_jiffies()?;
    let mut report = Report::default();
    match (workload, trace) {
        ("object", false) => serving::run_untraced(&serving::OBJECT, seed, seconds, &mut report)?,
        ("object", true) => serving::run_traced(&serving::OBJECT, seed, seconds, &mut report)?,
        ("keyword", false) => serving::run_untraced(&serving::KEYWORD, seed, seconds, &mut report)?,
        ("keyword", true) => serving::run_traced(&serving::KEYWORD, seed, seconds, &mut report)?,
        ("ota", false) => ota::run_untraced(seed, seconds, &mut report)?,
        ("ota", true) => ota::run_traced(seed, seconds, &mut report)?,
        _ => {
            return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?} or {MANUAL_WORKLOADS:?}"
        ))
        }
    }
    let steal = procstat::steal_share(steal0, procstat::steal_jiffies()?);
    println!("# host steal share during the run: {steal:.4}");
    let names = if trace {
        report.set("host.steal_share", steal, "/proc/stat steal over the run");
        report.fill_unused(PER_LAYER);
        PER_LAYER
    } else {
        END_TO_END
    };
    let text = report.render(names)?;
    Ok((report, text))
}
