//! Self-tests of the benchmark's own machinery: the tail-percentile
//! rule, due-time latency accounting, the metric registry, and the
//! determinism the `ota` workload's output check relies on.

use std::time::{Duration, Instant};
use vedliot_perfbench::openloop::{open_loop, Verdict};
use vedliot_perfbench::ota::{rollout, OtaInputs};
use vedliot_perfbench::report::{Report, END_TO_END, PER_LAYER};
use vedliot_perfbench::serving::trace_epoch_us;
use vedliot_perfbench::stats::{
    interquartile_mean, percentile, samples_beyond, tail_percentile, valid_metric_name, MIN_BEYOND,
    TAIL_CANDIDATES,
};
use vedliot_perfbench::WORKLOADS;

#[test]
fn nearest_rank_percentiles() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 50.0);
    assert_eq!(percentile(&v, 99.0), 99.0);
    assert_eq!(percentile(&v, 99.9), 100.0);
    assert_eq!(samples_beyond(100, 90.0), 10);
    assert_eq!(percentile(&[7.0], 99.0), 7.0);
    // The trimmed mean ignores an outlier burst either way.
    assert_eq!(interquartile_mean(&[100.0, 1.0, 3.0, 2.0, 4.0]), 3.0);
    assert_eq!(interquartile_mean(&[0.0, 2.0, 3.0, 4.0, 9.0]), 3.0);
}

#[test]
fn trace_epoch_is_recovered_from_enqueue_stamps() {
    // The gateway's epoch sits 1234.6 µs after the reference instant;
    // each request enqueues somewhere inside its submit call, and the
    // span stamps whole microseconds after the epoch.
    let epoch = 1234.6;
    let stamps: Vec<(f64, f64, u64)> = (0..50)
        .map(|i| {
            let t0 = 2000.0 + 997.3 * f64::from(i);
            let t1 = t0 + 3.0 + f64::from(i % 5);
            let enqueued = t0 + (t1 - t0) * f64::from(i % 7) / 6.0;
            (t0, t1, (enqueued - epoch).floor() as u64)
        })
        .collect();
    let estimate = trace_epoch_us(&stamps);
    assert!(
        (estimate - epoch).abs() <= 1.5,
        "estimated {estimate} µs, true {epoch} µs"
    );
    assert_eq!(trace_epoch_us(&[]), 0.0);
}

#[test]
fn tail_rule_keeps_ten_samples_beyond() {
    // The workloads' own caps and sample counts: keyword, ota, object.
    assert_eq!(tail_percentile(30_000, 70.0), 70.0);
    assert_eq!(tail_percentile(105, 80.0), 80.0);
    assert_eq!(tail_percentile(45, 75.0), 75.0);
    // Too few samples step the percentile down: p80 of 45 leaves 9
    // beyond, and over 28 samples only p60 leaves 10.
    assert_eq!(tail_percentile(45, 80.0), 75.0);
    assert_eq!(tail_percentile(28, 80.0), 60.0);
    assert_eq!(tail_percentile(12, 80.0), 50.0);
    // 99.9 over 1000 samples leaves one beyond: step down to 99.
    assert_eq!(tail_percentile(1000, 99.9), 99.0);
    for n in 1..3000 {
        for cap in TAIL_CANDIDATES {
            let p = tail_percentile(n, cap);
            assert!(p <= cap || p == 50.0, "n={n} cap={cap} gave p{p}");
            if p != 50.0 {
                assert!(samples_beyond(n, p) >= MIN_BEYOND, "n={n} p{p}");
            }
            // No higher admissible candidate was skipped.
            for q in TAIL_CANDIDATES.iter().filter(|&&q| q > p && q <= cap) {
                assert!(samples_beyond(n, *q) < MIN_BEYOND, "n={n}: p{q} beats p{p}");
            }
        }
    }
}

#[test]
fn open_loop_charges_a_stall_to_every_request_it_delays() {
    // An instant echo service; the generator stalls 60 ms inside request
    // 5's submission. Requests 6.. fall due during the stall.
    let interval = Duration::from_millis(5);
    let stall = Duration::from_millis(60);
    let mut sent_at = vec![None; 40];
    let run = open_loop(
        40,
        interval,
        |_| (),
        |i, ()| {
            if i == 5 {
                std::thread::sleep(stall);
            }
            sent_at[i] = Some(Instant::now());
            Some(())
        },
        |_, ()| (Instant::now(), Verdict::Match),
    )
    .expect("generator runs");
    assert_eq!(run.replies.len(), 40);
    let latency = |i: usize| {
        run.replies
            .iter()
            .find(|r| r.index == i)
            .expect("answered")
            .latency_ms
    };
    assert!(latency(5) >= 60.0, "stalled request: {} ms", latency(5));
    for j in 6..=15 {
        // Due (j - 5) intervals after request 5, sent only after the stall.
        let owed = 60.0 - 5.0 * (j - 5) as f64;
        assert!(
            latency(j) >= owed,
            "request {j}: {} ms < {owed} ms",
            latency(j)
        );
        assert!(
            run.late_us[j] >= owed * 1e3,
            "request {j} lateness not recorded"
        );
    }
    // The service itself answered instantly: timing from the send would
    // have hidden the stall entirely.
    assert!(sent_at.iter().all(Option::is_some));
    // Once the generator caught up, latency falls back to the service time.
    assert!(latency(39) < 20.0, "did not recover: {} ms", latency(39));
}

#[test]
fn metric_names_are_legal_unique_and_match_benchmark_json() {
    let mut seen = std::collections::HashSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_metric_name(name), "bad metric name {name}");
        assert!(seen.insert(*name), "duplicate metric name {name}");
        assert!(!unit.is_empty() && unit.len() <= 16, "bad unit for {name}");
    }
    assert!(!valid_metric_name(""));
    assert!(!valid_metric_name(".leading-dot"));
    assert!(!valid_metric_name("has space"));

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let declared = json.matches("\"name\":").count();
    assert_eq!(
        declared,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
    );
    for name in WORKLOADS
        .iter()
        .chain(END_TO_END.iter().map(|(n, _)| n))
        .chain(PER_LAYER.iter().map(|(n, _)| n))
    {
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "{name} not in BENCHMARK.json"
        );
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} has another unit in BENCHMARK.json"
        );
    }
}

#[test]
fn result_line_has_exactly_the_requested_metrics() {
    let mut report = Report::default();
    report.correct = true;
    report.attempted = 3;
    assert!(
        report.render(END_TO_END).is_err(),
        "unmeasured metrics must not render"
    );
    for (i, (name, _)) in END_TO_END.iter().enumerate() {
        report.set(name, 1.5 + i as f64, "note");
    }
    let text = report.render(END_TO_END).expect("all measured");
    let last = text.lines().last().expect("result line");
    assert!(last.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    assert_eq!(last.matches("\"value\"").count(), END_TO_END.len());
    assert!(last.contains("\"setup_s\": {\"value\": 6.5, \"unit\": \"s\"}"));
    report.set("setup_s", f64::NAN, "note");
    assert!(
        report.render(END_TO_END).is_err(),
        "non-finite values must not render"
    );
}

#[test]
fn busy_share_is_the_union_of_execute_intervals() {
    use vedliot_perfbench::serving::busy_share;
    let span = |a, b| vedliot_obs::SpanRecord {
        exec_start_us: a,
        exec_end_us: b,
        ..Default::default()
    };
    // A batch of two shares one interval; a second batch overlaps the
    // window's end.
    let spans = [span(10, 30), span(10, 30), span(40, 120)];
    assert!((busy_share(&spans, (0, 100)) - 0.8).abs() < 1e-12);
    assert_eq!(busy_share(&[], (0, 100)), 0.0);
}

#[test]
fn ota_rollouts_repeat_exactly_and_every_seed_completes_cleanly() {
    let first = OtaInputs::new(1).expect("inputs");
    let a = rollout(&first).expect("rollout runs");
    let b = rollout(&first).expect("rollout runs");
    assert_eq!(
        a.shape, b.shape,
        "one seed must reproduce its rollout exactly"
    );
    let second = OtaInputs::new(2).expect("inputs");
    let c = rollout(&second).expect("rollout runs");
    for shape in [&a.shape, &c.shape] {
        assert!(shape.clean(), "{shape:?}");
    }
    assert_eq!(a.shape.outcome, c.shape.outcome);
    assert_eq!(a.shape.violations, c.shape.violations);
    assert_ne!(
        a.shape.counters, c.shape.counters,
        "the seed must change the rollout"
    );
}
