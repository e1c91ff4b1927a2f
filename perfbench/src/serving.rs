//! The two Smart-Mirror gateway workloads, `object` and `keyword`.
//!
//! Each run boots the `serve` gateway with the default [`ServeConfig`]
//! (one worker, max batch 8, 500 µs linger, serial kernels), warms every
//! batch size, then measures two phases:
//!
//! 1. an **open loop** at a fixed rate well under capacity, timed from
//!    each request's due time to its reply (latency, good share, CPU);
//! 2. a **saturation** phase: one thread keeps three full batches in
//!    flight, submitting a batch whenever the oldest one is answered
//!    (throughput).
//!
//! Every reply is compared bit for bit with a reference output computed
//! beforehand by a separately built serial batch-1 [`Runner`].

use crate::openloop::{open_loop, OpenLoopRun, Verdict};
use crate::procstat::{peak_rss_mb, process_cpu_s};
use crate::stats::{interquartile_mean, median, percentile, sorted, tail_percentile};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};
use vedliot_nnir::det::{splitmix64, DetRng};
use vedliot_nnir::exec::{Parallelism, RunOptions, Runner};
use vedliot_nnir::{Graph, Tensor};
use vedliot_obs::SpanRecord;
use vedliot_serve::{MetricsSnapshot, ServeConfig, Server, SubmitRequest, Ticket, TracePolicy};

/// The gateway's default batch bound ([`vedliot_serve::BatchPolicy`]).
const MAX_BATCH: usize = 8;

/// Trace-ring slots for a traced session: more than a traced run can
/// submit, so no span is overwritten before it is read.
const TRACE_CAPACITY: usize = 1 << 18;

/// Tries per batch size in the warm-up.
const WARM_ATTEMPTS: usize = 10;

/// Full batches in flight during saturation: one running, two queued.
const SAT_WINDOW: usize = 3;

/// One serving workload.
#[derive(Debug, Clone, Copy)]
pub struct ServingSpec {
    /// Workload name on the command line.
    pub workload: &'static str,
    /// Network name in `usecases::mirror::mirror_networks()`.
    pub net: &'static str,
    /// Open-loop arrival rate, requests per second.
    pub rate_per_s: f64,
    /// Distinct inputs in the workload's input pool.
    pub pool: usize,
    /// Highest tail percentile reported (see [`tail_percentile`]).
    pub tail_cap: f64,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// Share of the measured time spent in the open loop; the rest is
    /// the saturation phase.
    pub open_share: f64,
}

/// MobileNetV3-Large, the Smart-Mirror object net, at 3 req/s: about
/// half the one-worker capacity, so requests do not queue and the
/// latency is the kernels' time.
pub const OBJECT: ServingSpec = ServingSpec {
    workload: "object",
    net: "object",
    rate_per_s: 3.0,
    pool: 8,
    tail_cap: 75.0,
    setups: 5,
    open_share: 0.5,
};

/// The Smart-Mirror speech net at one request per millisecond, twice
/// the default linger: each request lingers alone, so the gateway path
/// (linger, queueing, wake-ups, reply) dominates the latency.
pub const KEYWORD: ServingSpec = ServingSpec {
    workload: "keyword",
    net: "speech",
    rate_per_s: 1000.0,
    pool: 64,
    tail_cap: 70.0,
    setups: 21,
    open_share: 0.6,
};

/// A mirror network with its latency bound.
///
/// # Errors
///
/// Graph construction failed or no network has that name.
pub fn mirror_net(name: &str) -> Result<(Graph, f64), String> {
    let nets = vedliot_usecases::mirror::mirror_networks().map_err(|e| e.to_string())?;
    nets.into_iter()
        .find(|w| w.name == name)
        .map(|w| (w.model, w.latency_bound_ms))
        .ok_or_else(|| format!("no mirror network named {name}"))
}

/// The workload's inputs and their reference outputs.
pub struct Inputs {
    /// The model as the use case defines it.
    graph: Graph,
    /// The use case's latency bound, milliseconds.
    limit_ms: f64,
    /// The fixed input pool.
    pool: Vec<Tensor>,
    /// Reference output bits for each pool entry.
    refs: Vec<Vec<u32>>,
    /// Draws each request's pool index, in submission order.
    rng: DetRng,
}

impl Inputs {
    /// Builds the pool from `seed` and computes every reference output
    /// with a serial batch-1 runner.
    ///
    /// # Errors
    ///
    /// Model construction or reference execution failed.
    pub fn new(spec: &ServingSpec, seed: u64) -> Result<Self, String> {
        let (graph, limit_ms) = mirror_net(spec.net)?;
        let shape = graph
            .inputs()
            .first()
            .and_then(|&t| graph.tensor_shape(t))
            .cloned()
            .ok_or("model has no input shape")?;
        let pool: Vec<Tensor> = (0..spec.pool as u64)
            .map(|k| Tensor::random(shape.clone(), splitmix64(seed ^ (k << 32)), 1.0))
            .collect();
        let mut runner = Runner::builder()
            .parallelism(Parallelism::Serial)
            .build(&graph)
            .map_err(|e| e.to_string())?;
        let refs = pool
            .iter()
            .map(|x| {
                let out = runner
                    .execute(std::slice::from_ref(x), RunOptions::default())
                    .map_err(|e| e.to_string())?;
                Ok(bits(out.outputs()))
            })
            .collect::<Result<_, String>>()?;
        Ok(Inputs {
            graph,
            limit_ms,
            pool,
            refs,
            rng: DetRng::new(splitmix64(seed ^ 0x005E_ED0F_0DE5)),
        })
    }

    /// The pool index for the next request.
    fn next(&mut self) -> usize {
        self.rng.index(self.pool.len())
    }

    /// A request for pool entry `k`.
    fn request(&self, k: usize) -> SubmitRequest {
        SubmitRequest::new(vec![self.pool[k].clone()])
    }

    /// Checks a reply against pool entry `k`'s reference.
    fn check(&self, k: usize, reply: Result<Vec<Tensor>, vedliot_serve::ServeError>) -> Verdict {
        match reply {
            Ok(out) if bits(&out) == self.refs[k] => Verdict::Match,
            Ok(_) => Verdict::Mismatch,
            Err(_) => Verdict::Error,
        }
    }
}

/// The bit patterns of a model's outputs, concatenated.
fn bits(outputs: &[Tensor]) -> Vec<u32> {
    outputs
        .iter()
        .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
        .collect()
}

/// A started gateway and what its start cost.
struct Started {
    server: Server,
    /// Graph construction until the first served reply, seconds.
    setup_s: f64,
    /// Taken just before `Server::start`, and so before the gateway's
    /// trace epoch (see [`trace_epoch_us`]).
    epoch: Instant,
    /// Requests the gateway has accepted so far (span `seq` counts them).
    accepted: u64,
}

/// Builds the model and the gateway and serves one request.
fn start(spec: &ServingSpec, inputs: &Inputs, traced: bool) -> Result<Started, String> {
    let t0 = Instant::now();
    let (graph, _) = mirror_net(spec.net)?;
    let mut config = ServeConfig::builder();
    if traced {
        config = config.trace(TracePolicy {
            capacity: TRACE_CAPACITY,
        });
    }
    let config = config.build().map_err(|e| e.to_string())?;
    let epoch = Instant::now();
    let server = Server::start(&graph, config).map_err(|e| e.to_string())?;
    let reply = server
        .submit_request(inputs.request(0))
        .map_err(|e| e.to_string())?
        .wait();
    let setup_s = t0.elapsed().as_secs_f64();
    if inputs.check(0, reply) != Verdict::Match {
        return Err("first reply differs from the reference".into());
    }
    Ok(Started {
        server,
        setup_s,
        epoch,
        accepted: 1,
    })
}

/// Saturation-phase record.
#[derive(Debug, Default)]
pub struct Saturation {
    /// Requests submitted.
    pub attempted: usize,
    /// Requests refused at submission.
    pub refused: usize,
    /// Requests answered bit-correctly.
    pub completed: usize,
    /// Replies that differed from the reference.
    pub mismatches: usize,
    /// Requests answered with an error.
    pub errors: usize,
    /// Phase wall time, seconds.
    pub wall_s: f64,
    /// Bit-correct replies per second between successive batch
    /// completions.
    pub batch_rates: Vec<f64>,
    /// Phase bounds relative to the trace epoch, microseconds.
    pub window_us: (u64, u64),
}

/// Everything one gateway session measured.
pub struct Session {
    /// Graph construction until the first reply, seconds.
    pub setup_s: f64,
    /// The open-loop phase.
    pub open: OpenLoopRun,
    /// Process CPU seconds in the open loop, generator threads excluded.
    pub open_cpu_s: f64,
    /// Duration of each open-loop `submit_request` call, microseconds.
    pub submit_us: Vec<f64>,
    /// Open-loop wake-up cost per answered request: ticket return minus
    /// the span's reply stamp, microseconds (traced sessions only).
    pub wake_us: Vec<f64>,
    /// Open-loop spans (traced sessions only).
    pub open_spans: Vec<SpanRecord>,
    /// Open-loop requests accepted.
    pub open_accepted: u64,
    /// The saturation phase.
    pub sat: Saturation,
    /// Saturation spans (traced sessions only).
    pub sat_spans: Vec<SpanRecord>,
    /// Saturation requests accepted.
    pub sat_accepted: u64,
    /// Gateway counters before the open loop, before saturation, after.
    pub metrics: [MetricsSnapshot; 3],
    /// `VmHWM` after the timed phases, MiB.
    pub rss_mb: f64,
}

impl Session {
    /// Median open-loop latency of bit-correct replies, ms.
    #[must_use]
    pub fn p50_ms(&self) -> f64 {
        median(&self.open.matched_latencies_ms())
    }

    /// Saturation throughput: the interquartile mean of the per-batch
    /// rates. A host stall slows the batches it hits, and this host
    /// alternates between fast and slow spells of a few seconds: the
    /// trimmed mean drops the stalled batches and, unlike the median,
    /// does not jump between the two speeds.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        interquartile_mean(&self.sat.batch_rates)
    }

    /// Replies that were wrong or errors, across both phases.
    #[must_use]
    pub fn wrong(&self) -> usize {
        self.open.count(Verdict::Mismatch)
            + self.open.count(Verdict::Error)
            + self.sat.mismatches
            + self.sat.errors
    }

    /// Operations attempted in the measured phases.
    #[must_use]
    pub fn attempted(&self) -> usize {
        self.open.attempted + self.sat.attempted
    }

    /// Refused, failed or wrong operations in the measured phases.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.open.refused + self.sat.refused + self.wrong()
    }
}

/// Submits `k` requests back to back; with `k` at most the batch bound
/// and the worker idle, they form one batch.
fn submit_group(
    started: &mut Started,
    inputs: &mut Inputs,
    k: usize,
    sat: &mut Saturation,
) -> Vec<(usize, Ticket)> {
    // Build every request first: cloning an input can take longer than
    // the linger window, which would split the batch.
    let requests: Vec<(usize, SubmitRequest)> = (0..k)
        .map(|_| {
            let idx = inputs.next();
            (idx, inputs.request(idx))
        })
        .collect();
    let mut tickets = Vec::with_capacity(k);
    for (idx, request) in requests {
        sat.attempted += 1;
        match started.server.submit_request(request) {
            Ok(t) => {
                started.accepted += 1;
                tickets.push((idx, t));
            }
            Err(_) => sat.refused += 1,
        }
    }
    tickets
}

/// Waits for every reply of a group and checks it.
fn redeem_group(inputs: &Inputs, group: Vec<(usize, Ticket)>, sat: &mut Saturation) {
    for (idx, ticket) in group {
        match inputs.check(idx, ticket.wait()) {
            Verdict::Match => sat.completed += 1,
            Verdict::Mismatch => sat.mismatches += 1,
            Verdict::Error => sat.errors += 1,
        }
    }
}

/// The gateway's trace epoch in microseconds after a reference instant,
/// recovered from `(submit call start, submit call end, span enqueue_us)`
/// triples with the call times relative to that instant.
///
/// Span stamps count whole microseconds from an epoch the gateway takes
/// privately. A request's enqueue instant lies inside its
/// `submit_request` call, so each triple bounds the epoch to
/// `(start - enqueue_us - 1, end - enqueue_us]`; the estimate is the
/// middle of the intersection of all the bounds.
#[must_use]
pub fn trace_epoch_us(stamps: &[(f64, f64, u64)]) -> f64 {
    let lower = stamps
        .iter()
        .map(|&(t0, _, enq)| t0 - enq as f64 - 1.0)
        .fold(f64::NEG_INFINITY, f64::max);
    let upper = stamps
        .iter()
        .map(|&(_, t1, enq)| t1 - enq as f64)
        .fold(f64::INFINITY, f64::min);
    if stamps.is_empty() {
        0.0
    } else {
        (lower + upper.max(lower)) / 2.0
    }
}

/// Spans whose `seq` falls in `(after, upto]`.
fn spans_in(server: &Server, after: u64, upto: u64) -> Vec<SpanRecord> {
    server
        .trace_spans()
        .into_iter()
        .filter(|s| s.seq > after && s.seq <= upto)
        .collect()
}

/// Microseconds from `epoch` to `t`.
fn us_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_micros() as u64
}

/// One gateway session: start, warm up, open loop for `open`,
/// saturation for `sat`, shut down.
///
/// # Errors
///
/// The gateway failed to start or a `/proc` counter could not be read.
pub fn session(
    spec: &ServingSpec,
    inputs: &mut Inputs,
    traced: bool,
    open: Duration,
    sat: Duration,
) -> Result<Session, String> {
    let mut started = start(spec, inputs, traced)?;

    // Warm-up: touch every batch size the timed phases can form, so each
    // batch runner's weights and arena are allocated before timing.
    // A burst split by a host stall forms smaller batches instead; such
    // a size is driven again.
    let mut warm = Saturation::default();
    for k in 1..=MAX_BATCH {
        for attempt in 1.. {
            let before = started.server.metrics().batches;
            let group = submit_group(&mut started, inputs, k, &mut warm);
            redeem_group(inputs, group, &mut warm);
            if started.server.metrics().batches == before + 1 {
                break;
            }
            if attempt == WARM_ATTEMPTS {
                return Err(format!("warm-up never formed a batch of {k}"));
            }
        }
    }
    if warm.completed != warm.attempted {
        return Err(format!(
            "warm-up: {} of {} requests not answered correctly",
            warm.attempted - warm.completed,
            warm.attempted
        ));
    }
    let before_open = started.server.metrics();

    // Open loop.
    let n = (spec.rate_per_s * open.as_secs_f64()).round().max(1.0) as usize;
    let order: Vec<usize> = (0..n).map(|_| inputs.next()).collect();
    let interval = Duration::from_secs_f64(1.0 / spec.rate_per_s);
    let open_first = started.accepted;
    let mut submit_us = Vec::with_capacity(n);
    // (seq, submit call start, end) per accepted request, and (seq,
    // reply arrival) per answered one.
    let mut sent: Vec<(u64, Instant, Instant)> = Vec::with_capacity(n);
    let mut replied: Vec<(u64, Instant)> = Vec::with_capacity(n);
    let cpu0 = process_cpu_s()?;
    let run = {
        let server = &started.server;
        let accepted = &mut started.accepted;
        let submit_us = &mut submit_us;
        let sent = &mut sent;
        let replied = &mut replied;
        let inputs = &*inputs;
        let order = &order;
        open_loop(
            n,
            interval,
            |i| inputs.request(order[i]),
            |_, request| {
                let t0 = Instant::now();
                let result = server.submit_request(request);
                let t1 = Instant::now();
                submit_us.push((t1 - t0).as_secs_f64() * 1e6);
                result.ok().map(|ticket| {
                    *accepted += 1;
                    sent.push((*accepted, t0, t1));
                    (*accepted, ticket)
                })
            },
            |i, (seq, ticket)| {
                let reply = ticket.wait();
                let done = Instant::now();
                replied.push((seq, done));
                (done, inputs.check(order[i], reply))
            },
        )?
    };
    let open_cpu_s = process_cpu_s()? - cpu0 - run.gen_cpu_s;
    let open_last = started.accepted;
    let open_spans = if traced {
        spans_in(&started.server, open_first, open_last)
    } else {
        Vec::new()
    };
    let wake_us = if traced {
        let rel = |t: Instant| t.saturating_duration_since(started.epoch).as_secs_f64() * 1e6;
        let spans: HashMap<u64, &SpanRecord> = open_spans.iter().map(|s| (s.seq, s)).collect();
        let stamps: Vec<(f64, f64, u64)> = sent
            .iter()
            .filter_map(|(seq, t0, t1)| Some((rel(*t0), rel(*t1), spans.get(seq)?.enqueue_us)))
            .collect();
        let gateway_epoch = trace_epoch_us(&stamps);
        replied
            .iter()
            .filter_map(|(seq, done)| {
                let reply = gateway_epoch + spans.get(seq)?.reply_us as f64;
                Some((rel(*done) - reply).max(0.0))
            })
            .collect()
    } else {
        Vec::new()
    };
    let before_sat = started.server.metrics();

    // Saturation: SAT_WINDOW full batches in flight. Each time the
    // oldest batch's replies are in, one more batch is submitted, so the
    // worker always finds a full batch queued and never lingers or idles
    // on the generator. Refilling one request at a time instead lets
    // batch sizes follow wake-up jitter, and throughput with them.
    let mut phase = Saturation::default();
    let mut window: VecDeque<Vec<(usize, Ticket)>> = (0..SAT_WINDOW)
        .map(|_| submit_group(&mut started, inputs, MAX_BATCH, &mut phase))
        .collect();
    let t0 = Instant::now();
    let mut last = t0;
    while let Some(group) = window.pop_front() {
        let done = phase.completed;
        redeem_group(inputs, group, &mut phase);
        let now = Instant::now();
        let rate = (phase.completed - done) as f64 / (now - last).as_secs_f64();
        phase.batch_rates.push(rate);
        last = now;
        if now - t0 < sat {
            window.push_back(submit_group(&mut started, inputs, MAX_BATCH, &mut phase));
        }
    }
    let t1 = Instant::now();
    phase.wall_s = (t1 - t0).as_secs_f64();
    phase.window_us = (us_since(started.epoch, t0), us_since(started.epoch, t1));
    let sat_spans = if traced {
        spans_in(&started.server, open_last, started.accepted)
    } else {
        Vec::new()
    };
    let after = started.server.metrics();
    let rss_mb = peak_rss_mb()?;
    let sat_accepted = started.accepted - open_last;
    started.server.shutdown();
    Ok(Session {
        setup_s: started.setup_s,
        open: run,
        open_cpu_s,
        submit_us,
        wake_us,
        open_spans,
        open_accepted: open_last - open_first,
        sat: phase,
        sat_spans,
        sat_accepted,
        metrics: [before_open, before_sat, after],
        rss_mb,
    })
}

/// Untraced run: the end-to-end metrics.
///
/// # Errors
///
/// As [`session`].
pub fn run_untraced(
    spec: &ServingSpec,
    seed: u64,
    seconds: f64,
    report: &mut crate::report::Report,
) -> Result<(), String> {
    let mut inputs = Inputs::new(spec, seed)?;
    let s = session(
        spec,
        &mut inputs,
        false,
        Duration::from_secs_f64(seconds * spec.open_share),
        Duration::from_secs_f64(seconds * (1.0 - spec.open_share)),
    )?;
    // The other set-ups come after the timed session, so the peak RSS it
    // read is that of one gateway.
    let mut setups = vec![s.setup_s];
    for _ in 1..spec.setups {
        let started = start(spec, &inputs, false)?;
        setups.push(started.setup_s);
        started.server.shutdown();
    }

    let lat = sorted(&s.open.matched_latencies_ms());
    if lat.is_empty() || s.sat.completed == 0 {
        return Err("no request was answered correctly".into());
    }
    let tail = tail_percentile(lat.len(), spec.tail_cap);
    let good = s.open.good(inputs.limit_ms);
    let open_done = s.open.count(Verdict::Match);
    report.set(
        "latency_p50_ms",
        percentile(&lat, 50.0),
        format!(
            "p50 of n={} open-loop requests, due time to reply",
            lat.len()
        ),
    );
    report.set(
        "latency_tail_ms",
        percentile(&lat, tail),
        format!("p{tail} of n={}", lat.len()),
    );
    report.set(
        "throughput_per_s",
        s.throughput(),
        format!(
            "interquartile mean of n={} batches, {SAT_WINDOW} in flight; overall {} in {:.2} s",
            s.sat.batch_rates.len(),
            s.sat.completed,
            s.sat.wall_s
        ),
    );
    report.set(
        "good_share",
        good as f64 / s.open.attempted as f64,
        format!(
            "{good} of {} open-loop requests correct within {} ms",
            s.open.attempted, inputs.limit_ms
        ),
    );
    report.set(
        "cpu_ms_per_op",
        s.open_cpu_s * 1e3 / open_done.max(1) as f64,
        format!("open loop, n={open_done}, generator threads excluded"),
    );
    report.set(
        "setup_s",
        median(&setups),
        format!(
            "median of n={} set-ups, graph build to first reply",
            setups.len()
        ),
    );
    report.set("peak_rss_mb", s.rss_mb, "VmHWM after the timed phases");
    let late = sorted(&s.open.late_us);
    println!(
        "# {}: open loop {} req at {}/s, latency p60 {:.3} p70 {:.3} p75 {:.3} p90 {:.3} p95 {:.3} p99 {:.3} max {:.3} ms, generator late p50 {:.1} us p99 {:.1} us",
        spec.workload,
        s.open.attempted,
        spec.rate_per_s,
        percentile(&lat, 60.0),
        percentile(&lat, 70.0),
        percentile(&lat, 75.0),
        percentile(&lat, 90.0),
        percentile(&lat, 95.0),
        percentile(&lat, 99.0),
        lat[lat.len() - 1],
        percentile(&late, 50.0),
        percentile(&late, 99.0)
    );
    report.attempted = s.attempted() as u64;
    report.failed = s.failed() as u64;
    report.correct = s.wrong() == 0;
    Ok(())
}

/// Traced run: four gateway sessions of a quarter of the time each,
/// untraced–traced–traced–untraced so that a drift in host speed
/// cancels out of the trace tax; the gateway's per-stage spans from the
/// traced pair; and the exec, trust and obs layers.
///
/// # Errors
///
/// As [`session`], or a layer probe failed.
pub fn run_traced(
    spec: &ServingSpec,
    seed: u64,
    seconds: f64,
    report: &mut crate::report::Report,
) -> Result<(), String> {
    let mut inputs = Inputs::new(spec, seed)?;
    let quarter = seconds / 4.0;
    let open = Duration::from_secs_f64(quarter * spec.open_share);
    let sat = Duration::from_secs_f64(quarter * (1.0 - spec.open_share));
    let mut plain = Vec::with_capacity(2);
    let mut traced = Vec::with_capacity(2);
    for on in [false, true, true, false] {
        let s = session(spec, &mut inputs, on, open, sat)?;
        if on {
            traced.push(s)
        } else {
            plain.push(s)
        }
    }

    let open_spans: Vec<&SpanRecord> = traced.iter().flat_map(|s| &s.open_spans).collect();
    let n = open_spans.len();
    let med = |f: &dyn Fn(&SpanRecord) -> u64| {
        let v: Vec<f64> = open_spans.iter().map(|s| f(s) as f64).collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let concat = |f: &dyn Fn(&Session) -> &[f64]| -> Vec<f64> {
        traced.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    report.set(
        "serve.linger_us",
        med(&|s| s.linger_us),
        format!("median of n={n} open-loop spans"),
    );
    report.set(
        "serve.queue_wait_us",
        med(&SpanRecord::queue_wait_us),
        format!("median, n={n}"),
    );
    report.set(
        "serve.exec_us",
        med(&SpanRecord::execute_us),
        format!("median, n={n}"),
    );
    report.set(
        "serve.reply_us",
        med(&SpanRecord::reply_stage_us),
        format!("median, n={n}"),
    );
    let submit_us = concat(&|s| &s.submit_us);
    report.set(
        "serve.submit_us",
        or_zero(&submit_us),
        format!("median submit_request call, n={}", submit_us.len()),
    );
    let wake_us = concat(&|s| &s.wake_us);
    report.set(
        "serve.wake_us",
        or_zero(&wake_us),
        format!("median ticket return minus span reply, n={}", wake_us.len()),
    );
    let delta = |f: &dyn Fn(&MetricsSnapshot) -> u64, from: usize| -> u64 {
        traced
            .iter()
            .map(|s| f(&s.metrics[2]) - f(&s.metrics[from]))
            .sum()
    };
    let batches = delta(&|m| m.batches, 1);
    report.set(
        "serve.batch_mean",
        delta(&|m| m.served, 1) as f64 / batches.max(1) as f64,
        "saturation phases",
    );
    report.set("serve.batches", batches as f64, "saturation phases");
    let busy: Vec<f64> = traced
        .iter()
        .map(|s| busy_share(&s.sat_spans, s.sat.window_us))
        .collect();
    report.set(
        "serve.busy_share",
        busy.iter().sum::<f64>() / busy.len() as f64,
        "saturation phases: union of span execute intervals over wall time",
    );
    let hwm = traced
        .iter()
        .map(|s| s.metrics[2].queue_hwm)
        .max()
        .unwrap_or(0);
    report.set(
        "serve.queue_hwm",
        hwm as f64,
        "highest of the traced sessions",
    );
    report.set(
        "serve.refused",
        delta(&|m| m.rejected, 0) as f64,
        "timed phases",
    );
    report.set(
        "serve.failed",
        delta(&|m| m.failed + m.timed_out, 0) as f64,
        "timed phases",
    );
    let dropped: u64 = traced
        .iter()
        .map(|s| {
            (s.open_accepted + s.sat_accepted)
                .saturating_sub((s.open_spans.len() + s.sat_spans.len()) as u64)
        })
        .sum();
    report.set(
        "obs.spans_dropped",
        dropped as f64,
        "accepted requests without a span",
    );
    let p50 = |ss: &[Session]| {
        median(
            &ss.iter()
                .flat_map(|s| s.open.matched_latencies_ms())
                .collect::<Vec<_>>(),
        )
    };
    let rate = |ss: &[Session]| {
        interquartile_mean(
            &ss.iter()
                .flat_map(|s| s.sat.batch_rates.iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    let (p50_on, p50_off) = (p50(&traced), p50(&plain));
    let (rate_on, rate_off) = (rate(&traced), rate(&plain));
    report.set(
        "obs.trace_tax.latency_p50",
        p50_on / p50_off,
        format!("traced {p50_on:.4} ms / untraced {p50_off:.4} ms"),
    );
    report.set(
        "obs.trace_tax.throughput",
        rate_on / rate_off,
        format!("traced {rate_on:.2}/s / untraced {rate_off:.2}/s"),
    );
    let late = sorted(
        &traced
            .iter()
            .flat_map(|s| s.open.late_us.iter().copied())
            .collect::<Vec<_>>(),
    );
    report.set(
        "gen.late_p50_us",
        percentile(&late, 50.0),
        format!("n={}", late.len()),
    );
    report.set(
        "gen.late_p99_us",
        percentile(&late, 99.0),
        format!("n={}", late.len()),
    );

    crate::layers::exec_layer(report, &inputs.graph, Parallelism::Serial, MAX_BATCH)?;
    crate::layers::trust_layer(report, &inputs.graph)?;
    crate::layers::obs_layer(report)?;

    let all = plain.iter().chain(&traced);
    report.attempted = all.clone().map(|s| s.attempted() as u64).sum();
    report.failed = all.clone().map(|s| s.failed() as u64).sum();
    report.correct = all.map(Session::wrong).sum::<usize>() == 0 && dropped == 0;
    Ok(())
}

/// Share of `window` (µs) covered by the union of the spans' execute
/// intervals.
#[must_use]
pub fn busy_share(spans: &[SpanRecord], window: (u64, u64)) -> f64 {
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.exec_start_us.max(window.0), s.exec_end_us.min(window.1)))
        .filter(|(a, b)| b > a)
        .collect();
    intervals.sort_unstable();
    let mut busy = 0;
    let mut end = window.0;
    for (a, b) in intervals {
        let a = a.max(end);
        if b > a {
            busy += b - a;
            end = b;
        }
    }
    let span = window.1.saturating_sub(window.0);
    if span == 0 {
        0.0
    } else {
        busy as f64 / span as f64
    }
}
