//! The open-loop generator: requests go out on a fixed schedule whether
//! or not earlier ones were answered, and each is timed from when it was
//! *due*, so a stall in the generator or the system is charged to every
//! request it delayed (no coordinated omission).

use crate::procstat::thread_cpu_s;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// How one answered request checked out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Output bit-identical to the reference.
    Match,
    /// Answered, but the output differs from the reference.
    Mismatch,
    /// Answered with an error.
    Error,
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// Request index in schedule order.
    pub index: usize,
    /// Due time to reply, milliseconds.
    pub latency_ms: f64,
    /// Output check.
    pub verdict: Verdict,
}

/// The record of one open-loop phase.
#[derive(Debug, Default)]
pub struct OpenLoopRun {
    /// Requests scheduled.
    pub attempted: usize,
    /// Requests the system refused at submission.
    pub refused: usize,
    /// Answered requests, in answer order.
    pub replies: Vec<Reply>,
    /// How late the generator sent each request, microseconds.
    pub late_us: Vec<f64>,
    /// CPU seconds the two generator threads used themselves.
    pub gen_cpu_s: f64,
}

impl OpenLoopRun {
    /// Latencies of the answered requests whose output matched.
    #[must_use]
    pub fn matched_latencies_ms(&self) -> Vec<f64> {
        self.replies
            .iter()
            .filter(|r| r.verdict == Verdict::Match)
            .map(|r| r.latency_ms)
            .collect()
    }

    /// Requests answered bit-correctly within `limit_ms` of being due.
    #[must_use]
    pub fn good(&self, limit_ms: f64) -> usize {
        self.replies
            .iter()
            .filter(|r| r.verdict == Verdict::Match && r.latency_ms <= limit_ms)
            .count()
    }

    /// Answered requests whose check failed, by verdict.
    #[must_use]
    pub fn count(&self, verdict: Verdict) -> usize {
        self.replies.iter().filter(|r| r.verdict == verdict).count()
    }
}

/// Runs `n` requests, one every `interval`, from two threads.
///
/// The submitter thread calls `prepare(i)` ahead of request `i`'s due
/// time (so building the request is not part of its latency), sleeps
/// until it is due, then calls `submit(i, request)`; `None` means the
/// system refused it. The collector thread hands each accepted ticket to
/// `redeem(i, ticket)`, which blocks until the reply and returns the
/// instant the reply reached the caller with the output check.
///
/// # Errors
///
/// The generator threads' CPU time could not be read.
pub fn open_loop<R, T, P, S, W>(
    n: usize,
    interval: Duration,
    mut prepare: P,
    mut submit: S,
    mut redeem: W,
) -> Result<OpenLoopRun, String>
where
    T: Send,
    P: FnMut(usize) -> R + Send,
    S: FnMut(usize, R) -> Option<T> + Send,
    W: FnMut(usize, T) -> (Instant, Verdict) + Send,
{
    let (tx, rx) = mpsc::channel::<(usize, Instant, T)>();
    let interval_ns = interval.as_nanos();
    // A short lead lets both threads reach their loops before request 0
    // is due.
    let start = Instant::now() + Duration::from_millis(2);
    thread::scope(|scope| {
        let submitter = scope.spawn(move || -> Result<(usize, Vec<f64>, f64), String> {
            let cpu0 = thread_cpu_s()?;
            let mut refused = 0;
            let mut late_us = Vec::with_capacity(n);
            for i in 0..n {
                let request = prepare(i);
                let offset = u64::try_from(interval_ns * i as u128).unwrap_or(u64::MAX);
                let due = start + Duration::from_nanos(offset);
                let now = Instant::now();
                if due > now {
                    thread::sleep(due - now);
                }
                late_us.push(due.elapsed().as_secs_f64() * 1e6);
                match submit(i, request) {
                    Some(ticket) => {
                        if tx.send((i, due, ticket)).is_err() {
                            return Err("open-loop collector exited early".into());
                        }
                    }
                    None => refused += 1,
                }
            }
            drop(tx);
            Ok((refused, late_us, thread_cpu_s()? - cpu0))
        });
        let collector = scope.spawn(move || -> Result<(Vec<Reply>, f64), String> {
            let cpu0 = thread_cpu_s()?;
            let mut replies = Vec::with_capacity(n);
            for (index, due, ticket) in rx {
                let (done, verdict) = redeem(index, ticket);
                replies.push(Reply {
                    index,
                    latency_ms: done.saturating_duration_since(due).as_secs_f64() * 1e3,
                    verdict,
                });
            }
            Ok((replies, thread_cpu_s()? - cpu0))
        });
        let submitted = submitter
            .join()
            .map_err(|_| "open-loop submitter panicked".to_string())?;
        let collected = collector
            .join()
            .map_err(|_| "open-loop collector panicked".to_string())?;
        let (refused, late_us, submit_cpu) = submitted?;
        let (replies, collect_cpu) = collected?;
        Ok(OpenLoopRun {
            attempted: n,
            refused,
            replies,
            late_us,
            gen_cpu_s: submit_cpu + collect_cpu,
        })
    })
}
