//! One pass of the pipeline: build, run to the end of the drain, and read
//! the simulated results back out — the digest the determinism gate
//! compares, job conservation, and the raw samples the metrics come from.

use std::path::Path;
use std::time::Instant;

use cg_sim::{SampleSet, SimDuration, SimTime};
use cg_trace::check_invariants;
use crossbroker::{BrokerStats, JobState};

use crate::calib;
use crate::heap;
use crate::stats::Digest;

const MIB: f64 = 1024.0 * 1024.0;
use crate::workload::{build, Pipeline, Spec, SubmitHook};

/// Terminal buckets of the submitted jobs after the drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Jobs the benchmark submitted.
    pub submitted: u64,
    /// Finished normally.
    pub done: u64,
    /// Failed for a reason other than admission (churn, retries spent).
    pub failed: u64,
    /// Refused by JDL analysis or fair-share admission.
    pub rejected: u64,
    /// Cancelled by their user (the workloads cancel none).
    pub cancelled: u64,
    /// Still in flight when the (extended) drain ended: lost.
    pub nonterminal: u64,
}

impl Outcomes {
    /// Jobs that reached a terminal state.
    pub fn terminal(&self) -> u64 {
        self.done + self.failed + self.rejected + self.cancelled
    }

    /// (failed + rejected + non-terminal) ÷ submitted.
    pub fn fail_ratio(&self) -> f64 {
        (self.failed + self.rejected + self.nonterminal) as f64 / self.submitted.max(1) as f64
    }
}

/// What the invariant checker could say about the retained trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Invariants {
    /// The whole stream was retained and checked; these are the violations.
    Checked(Vec<String>),
    /// The trace ring wrapped, so the retained stream is truncated and the
    /// rules cannot be checked on it.
    Unchecked {
        /// Events evicted from the ring.
        dropped: u64,
    },
}

impl Invariants {
    /// One-line status for the report.
    pub fn describe(&self) -> String {
        match self {
            Invariants::Checked(v) if v.is_empty() => "checked, clean".into(),
            Invariants::Checked(v) => format!("checked, {} violations: {}", v.len(), v[0]),
            Invariants::Unchecked { dropped } => {
                format!("unchecked (ring wrapped, {dropped} events dropped)")
            }
        }
    }
}

/// Everything one pass produced.
pub struct Pass {
    /// The pipeline after the run (broker, sim, links, sites still live).
    pub pipeline: Pipeline,
    /// Host seconds of the build.
    pub setup_s: f64,
    /// Host time of `run_until` (arrivals, selection, dispatch, drain).
    pub drained: Drained,
    /// The process's peak resident set (`VmHWM`, MiB) when the run phase
    /// ended, before this pass's own checks copied the trace.
    pub peak_rss_mb: f64,
    /// Peak heap the pass's build and run phase held above what was live
    /// before the build (MiB).
    pub peak_heap_mb: f64,
    /// Digest of the simulated results.
    pub digest: u64,
    /// Terminal buckets.
    pub outcomes: Outcomes,
    /// Conservation violations (empty when the books balance).
    pub conservation: Vec<String>,
    /// Invariant status of the retained trace.
    pub invariants: Invariants,
    /// Response samples (simulated seconds), indexed like [`crate::workload::JobPath::ALL`].
    pub response_s: [SampleSet; 3],
    /// Console steering round trips, simulated milliseconds.
    pub steer_ms: SampleSet,
    /// The broker's aggregate counters.
    pub stats: BrokerStats,
    /// Sim events executed.
    pub events: u64,
    /// The journal's error, if an append or sync failed.
    pub journal_error: Option<String>,
}

impl Pass {
    /// Every correctness check of this pass, as failure messages.
    pub fn failures(&self) -> Vec<String> {
        let mut out = self.conservation.clone();
        if let Invariants::Checked(v) = &self.invariants {
            out.extend(v.iter().map(|e| format!("invariant: {e}")));
        }
        if let Some(e) = &self.journal_error {
            out.push(format!("journal: {e}"));
        }
        out
    }

    /// Jobs reaching a terminal state per host second of the run phase.
    pub fn jobs_per_s(&self) -> f64 {
        self.outcomes.terminal() as f64 / self.drained.run_s
    }
}

/// Builds and runs one pass, its run phase calibrated (see [`drain`]).
/// `hook` wraps each submission; `scratch` receives the journal when the
/// workload has one.
pub fn run_pass(spec: Spec, seed: u64, scratch: &Path, hook: Option<SubmitHook>) -> Pass {
    let mut pipeline = build(spec, seed, scratch, hook);
    let setup_s = pipeline.setup_s;
    let drained = drain(&mut pipeline, true);
    finish(pipeline, setup_s, drained)
}

/// A memory field of this process's `/proc/self/status`, MiB (0 when
/// unreadable).
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / MIB)
}

/// Simulated time every workload runs after its last arrival for queues
/// to drain.
pub const DRAIN: SimDuration = SimDuration::from_secs(4 * 3_600);

/// Longest the drain is extended past [`Spec::end`] while jobs are still
/// in flight (long batch jobs submitted near the end of the window).
pub const MAX_EXTRA_DRAIN: SimDuration = SimDuration::from_secs(48 * 3_600);

/// Equal simulated-time slices the window up to [`Spec::end`] is timed in.
pub const SLICES: u64 = 64;

/// Host time of one pass's run phase.
pub struct Drained {
    /// Host seconds of each of the [`SLICES`] slices of the fixed window
    /// `[0, Spec::end]`. Repeats of one seed run the same events in every
    /// slice.
    pub window_s: Vec<f64>,
    /// The same, each scaled to the reference speed by a reference-kernel
    /// run just before it (see [`crate::calib`]); empty when the drain was
    /// not calibrated.
    pub window_scaled_s: Vec<f64>,
    /// Jobs terminal at the end of the window.
    pub window_terminal: u64,
    /// Host seconds of the whole run phase, extended drain included,
    /// reference-kernel runs excluded.
    pub run_s: f64,
}

fn terminal(pipeline: &Pipeline) -> u64 {
    let s = pipeline.broker.stats();
    s.finished + s.failed + s.rejected + s.cancelled
}

/// Runs the pipeline to the end of the drain in [`SLICES`] timed steps,
/// then on in one-hour steps until every submitted job is terminal or
/// [`MAX_EXTRA_DRAIN`] has passed. A job still in flight after that is
/// lost. With `calibrate`, the reference kernel runs just before every
/// slice.
pub fn drain(pipeline: &mut Pipeline, calibrate: bool) -> Drained {
    let end = pipeline.spec.end();
    let mut window_s = Vec::new();
    let mut window_scaled_s = Vec::new();
    for i in 1..=SLICES {
        let reference_s = calibrate.then(calib::reference_s);
        let started = Instant::now();
        let until = if i == SLICES {
            end
        } else {
            SimTime::from_nanos(end.as_nanos() / SLICES * i)
        };
        pipeline.sim.run_until(until);
        let t = started.elapsed().as_secs_f64();
        window_s.push(t);
        if let Some(c) = reference_s {
            window_scaled_s.push(calib::scaled(t, c));
        }
    }
    let window_terminal = terminal(pipeline);
    let started = Instant::now();
    let step = SimDuration::from_secs(3_600);
    let mut until = end;
    while until < end + MAX_EXTRA_DRAIN && terminal(pipeline) < pipeline.broker.stats().submitted {
        until += step;
        pipeline.sim.run_until(until);
    }
    Drained {
        run_s: window_s.iter().sum::<f64>() + started.elapsed().as_secs_f64(),
        window_s,
        window_scaled_s,
        window_terminal,
    }
}

/// Reads the results of a run pipeline.
pub fn finish(pipeline: Pipeline, setup_s: f64, drained: Drained) -> Pass {
    let peak_rss_mb = status_mb("VmHWM:");
    let peak_heap_mb = heap::peak_bytes().saturating_sub(pipeline.heap_before) as f64 / MIB;
    let broker = &pipeline.broker;
    let stats = broker.stats();
    let submitted = pipeline.submitted.borrow().clone();
    let mut digest = Digest::default();
    let mut outcomes = Outcomes {
        submitted: submitted.len() as u64,
        ..Outcomes::default()
    };
    let mut response_s: [SampleSet; 3] = Default::default();
    let time = |t: Option<cg_sim::SimTime>| t.map_or(u64::MAX, |t| t.as_nanos());
    for &(id, path) in &submitted {
        let r = broker.record(id);
        let bucket = match &r.state {
            JobState::Done => {
                outcomes.done += 1;
                1
            }
            JobState::Failed { reason } if reason == "cancelled by user" => {
                outcomes.cancelled += 1;
                2
            }
            JobState::Failed { reason } if reason.starts_with("rejected") => {
                outcomes.rejected += 1;
                3
            }
            JobState::Failed { .. } => {
                outcomes.failed += 1;
                4
            }
            _ => {
                outcomes.nonterminal += 1;
                5
            }
        };
        if let Some(resp) = r.response_s() {
            response_s[path as usize].record(resp);
        }
        digest.u64(id.0);
        digest.u64(path as u64);
        digest.u64(bucket);
        digest.u64(r.submitted_at.as_nanos());
        for t in [
            r.discovered_at,
            r.selected_at,
            r.dispatched_at,
            r.started_at,
            r.finished_at,
        ] {
            digest.u64(time(t));
        }
        digest.u64(u64::from(r.resubmissions));
    }
    for v in [
        stats.submitted,
        stats.started,
        stats.finished,
        stats.rejected,
        stats.failed,
        stats.resubmissions,
        stats.cancelled,
        stats.agents_deployed,
    ] {
        digest.u64(v);
    }
    let events = pipeline.sim.events_executed();
    digest.u64(events);

    let mut conservation = Vec::new();
    if stats.submitted != outcomes.submitted || pipeline.arrivals as u64 != outcomes.submitted {
        conservation.push(format!(
            "submitted: broker counted {}, benchmark submitted {} of {} arrivals",
            stats.submitted, outcomes.submitted, pipeline.arrivals
        ));
    }
    let o = outcomes;
    if o.done + o.failed + o.rejected + o.cancelled + o.nonterminal != o.submitted {
        conservation.push(format!("job buckets do not sum to submitted: {o:?}"));
    }
    if stats.finished != o.done
        || stats.failed != o.failed
        || stats.rejected != o.rejected
        || stats.cancelled != o.cancelled
    {
        conservation.push(format!(
            "broker stats disagree with job records: stats {stats:?}, records {o:?}"
        ));
    }

    let log = broker.event_log();
    let invariants = if log.dropped() == 0 {
        Invariants::Checked(check_invariants(&log.snapshot()))
    } else {
        Invariants::Unchecked {
            dropped: log.dropped(),
        }
    };
    let journal_error = log.journal_error();
    let mut steer_ms = SampleSet::new();
    for s in broker.session_latencies().samples() {
        steer_ms.record(s * 1e3);
    }

    Pass {
        setup_s,
        drained,
        peak_rss_mb,
        peak_heap_mb,
        digest: digest.finish(),
        outcomes,
        conservation,
        invariants,
        response_s,
        steer_ms,
        stats,
        events,
        journal_error,
        pipeline,
    }
}
