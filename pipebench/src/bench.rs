//! The two modes of one benchmark invocation.
//!
//! `--trace 0` runs every replica of the workload once, then the timed
//! replicas again in turn until the requested host time has passed (at
//! least [`MIN_ROUNDS`] passes of each), times [`SETUP_BUILDS_PER_PASS`]
//! set-up-only builds after every repeat, and reports the end-to-end
//! metrics: throughput over the fastest repeat of every simulated-time
//! slice of every timed replica and set-up time as a median, both scaled
//! to the reference speed ([`crate::calib`]); the median peak heap of the
//! replicas; simulated metrics pooled over the replicas' first runs (every
//! repeat must reproduce its replica's digest).
//! `--trace 1` runs untraced passes of the seed for half the requested time,
//! then one traced pass of the same seed, then the standalone layer
//! measurements, and reports the per-layer metrics.

use std::path::PathBuf;
use std::time::Instant;

use cg_sim::SampleSet;

use crate::calib;
use crate::metrics::{Report, END_TO_END, PER_LAYER};
use crate::probe::{
    fairshare_tick_ns, kernel_ns_per_event, lrms_totals, mds_refresh_ns, run_traced, trace_replay,
};
use crate::run::{run_pass, Pass};
use crate::stats::{median, summarize, Digest, Summary};
use crate::workload::{build, JobPath, Spec};

/// Fewest passes of every timed replica an end-to-end run makes, however
/// long they take (`jobs_per_s` uses each slice's fastest).
pub const MIN_ROUNDS: usize = 2;
/// Set-up-only builds of the workload seed's first replica timed after
/// every repeat for `setup_s`.
pub const SETUP_BUILDS_PER_PASS: usize = 16;

/// One invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload at its stated size.
    pub spec: Spec,
    /// Workload seed.
    pub seed: u64,
    /// Host seconds to keep measuring for.
    pub seconds: f64,
    /// Directory for journals and other run files; must exist.
    pub scratch: PathBuf,
    /// Where the traced run writes its spans.
    pub spans_out: PathBuf,
}

/// The simulated results of every replica, pooled.
#[derive(Default)]
struct Pooled {
    /// Each replica's digest, in replica order.
    digests: Vec<u64>,
    submitted: u64,
    done: u64,
    lost: u64,
    response_s: [SampleSet; 3],
    steer_ms: SampleSet,
    invariants: Vec<String>,
}

impl Pooled {
    fn add(&mut self, pass: &Pass) {
        let o = pass.outcomes;
        self.digests.push(pass.digest);
        self.submitted += o.submitted;
        self.done += o.done;
        self.lost += o.nonterminal;
        for p in JobPath::ALL {
            extend(
                &mut self.response_s[p as usize],
                &pass.response_s[p as usize],
            );
        }
        extend(&mut self.steer_ms, &pass.steer_ms);
        self.invariants.push(pass.invariants.describe());
    }

    /// One digest over every replica's.
    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for &x in &self.digests {
            d.u64(x);
        }
        d.finish()
    }
}

fn extend(into: &mut SampleSet, from: &SampleSet) {
    for &x in from.samples() {
        into.record(x);
    }
}

/// Keeps in `into` the element-wise minimum of itself and `slices`.
fn min_into(into: &mut Vec<f64>, slices: &[f64]) {
    for (i, &s) in slices.iter().enumerate() {
        match into.get_mut(i) {
            Some(t) => *t = t.min(s),
            None => into.push(s),
        }
    }
}

fn check_pass(report: &mut Report, label: &str, pass: &Pass, expect_digest: Option<u64>) {
    for f in pass.failures() {
        report.failures.push(format!("{label}: {f}"));
    }
    if let Some(d) = expect_digest {
        if d != pass.digest {
            report.failures.push(format!(
                "{label}: digest {:016x} differs from the first pass's {d:016x}",
                pass.digest
            ));
        }
    }
}

fn describe(s: &Summary) -> String {
    format!(
        "p50 {:.4}, p{:.3} {:.4} ({} samples)",
        s.p50, s.tail_pct, s.tail, s.count
    )
}

/// `--trace 0`: the end-to-end metrics.
pub fn end_to_end(opts: &Options) -> Report {
    calib::reference_s(); // allocates the kernel's table outside any pass
    let mut report = Report::default();
    let spec = opts.spec;
    let replicas = spec.replicas as usize;
    let started = Instant::now();
    let mut rates = Vec::new();
    let mut pooled = Pooled::default();
    let timed = spec.timed as usize;
    let mut terminal = vec![0u64; timed];
    let mut fastest: Vec<Vec<f64>> = vec![Vec::new(); timed];
    let mut fastest_raw: Vec<Vec<f64>> = vec![Vec::new(); timed];
    let mut setups = SampleSet::new();
    let mut setups_raw = SampleSet::new();
    let mut peak_rss = 0.0;
    let mut heaps = SampleSet::new();
    // Every replica once (the simulated results), then the timed replicas
    // again in turn, at least `MIN_ROUNDS` times each in all and while
    // measuring time remains. Each repeat must reproduce its replica's
    // digest. Set-up-only builds follow every repeat, so their median
    // samples the whole run rather than one stretch of it.
    let mut i: usize = 0;
    loop {
        let repeat = i.checked_sub(replicas);
        if let Some(k) = repeat {
            if k >= timed * (MIN_ROUNDS - 1) && started.elapsed().as_secs_f64() >= opts.seconds {
                break;
            }
        }
        let r = repeat.map_or(i, |k| k % timed);
        let seed = Spec::replica_seed(opts.seed, r as u64);
        let expect = pooled.digests.get(r).copied();
        let pass = run_pass(spec, seed, &opts.scratch, None);
        if i + 1 == replicas {
            peak_rss = pass.peak_rss_mb;
        }
        check_pass(&mut report, &format!("replica {r}"), &pass, expect);
        report.attempted += pass.outcomes.submitted;
        report.failed += pass.outcomes.nonterminal;
        if expect.is_none() {
            pooled.add(&pass);
            heaps.record(pass.peak_heap_mb);
        }
        if r < timed {
            rates.push(pass.jobs_per_s());
            terminal[r] = pass.drained.window_terminal;
            min_into(&mut fastest[r], &pass.drained.window_scaled_s);
            min_into(&mut fastest_raw[r], &pass.drained.window_s);
        }
        if repeat.is_some() {
            for _ in 0..SETUP_BUILDS_PER_PASS {
                let reference_s = calib::reference_s();
                let setup_s = build(spec, opts.seed, &opts.scratch, None).setup_s;
                setups.record(calib::scaled(setup_s, reference_s));
                setups_raw.record(setup_s);
            }
        }
        i += 1;
    }

    // Each slice of each timed replica at its fastest, scaled to the
    // reference speed: on a shared machine the host's speed drifts over
    // minutes (the scaling) and swings over tens of milliseconds to
    // seconds (a slice's fastest repeat is the one other load slowed
    // least). Repeats run the same events in every slice (the digest gate).
    let window_jobs = terminal.iter().sum::<u64>() as f64;
    let per_s = |slices: &[Vec<f64>]| window_jobs / slices.iter().flatten().sum::<f64>();
    report.set(END_TO_END, "jobs_per_s", per_s(&fastest));
    report.set(END_TO_END, "setup_s", median(&setups));
    report.note(format!(
        "unscaled host time: {:.1} jobs/s, set-up {:.6} s",
        per_s(&fastest_raw),
        median(&setups_raw)
    ));
    report.set(END_TO_END, "peak_heap_mb", median(&heaps));
    report.note(format!(
        "peak heap per replica (MiB): {:?}; process VmHWM after one pass of each: {peak_rss:.2} MiB",
        heaps.samples()
    ));
    report.set(
        END_TO_END,
        "job_done_ratio",
        pooled.done as f64 / pooled.submitted.max(1) as f64,
    );
    for path in JobPath::ALL {
        let s = summarize(&pooled.response_s[path as usize]);
        report.set(END_TO_END, &format!("{}_resp_p50_s", path.name()), s.p50);
        report.set(END_TO_END, &format!("{}_resp_tail_s", path.name()), s.tail);
        report.note(format!(
            "{} response (sim s): {}",
            path.name(),
            describe(&s)
        ));
    }
    let steer = summarize(&pooled.steer_ms);
    report.set(END_TO_END, "steer_p50_ms", steer.p50);
    report.set(END_TO_END, "steer_tail_ms", steer.tail);
    report.note(format!(
        "steering round trip (sim ms): {}",
        describe(&steer)
    ));
    report.note(format!(
        "{} replicas, {} jobs in all; {} timed passes, jobs/s per pass: {:?}",
        spec.replicas,
        pooled.submitted,
        rates.len(),
        rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));
    report.note(format!(
        "jobs left in flight after the drain: {}; digest {:016x}",
        pooled.lost,
        pooled.digest()
    ));
    let mut inv = pooled.invariants.clone();
    inv.dedup();
    report.note(format!("invariants: {}", inv.join("; ")));
    report.correct = report.failures.is_empty();
    report
}

/// `--trace 1`: the per-layer metrics.
pub fn per_layer(opts: &Options) -> Report {
    calib::reference_s(); // allocates the kernel's table outside any pass
    let mut report = Report::default();
    let started = Instant::now();
    let mut untraced_runs = SampleSet::new();
    let base = run_pass(opts.spec, opts.seed, &opts.scratch, None);
    check_pass(&mut report, "untraced pass", &base, None);
    // Later passes of the same seed rewrite the same journal file.
    let journal_bytes = base
        .pipeline
        .journal
        .as_ref()
        .map(|path| std::fs::metadata(path).map_or(0, |m| m.len()) as f64);
    untraced_runs.record(base.drained.run_s);
    report.attempted += base.outcomes.submitted;
    report.failed += base.outcomes.nonterminal;
    while started.elapsed().as_secs_f64() < opts.seconds / 2.0 {
        let again = run_pass(opts.spec, opts.seed, &opts.scratch, None);
        check_pass(&mut report, "untraced pass", &again, Some(base.digest));
        untraced_runs.record(again.drained.run_s);
        report.attempted += again.outcomes.submitted;
        report.failed += again.outcomes.nonterminal;
    }
    let traced = run_traced(opts.spec, opts.seed, &opts.scratch);
    check_pass(&mut report, "traced pass", &traced.pass, Some(base.digest));
    report.attempted += traced.pass.outcomes.submitted;
    report.failed += traced.pass.outcomes.nonterminal;

    let set = |r: &mut Report, name: &str, v: f64| r.set(PER_LAYER, name, v);
    let jobs = base.outcomes.submitted.max(1) as f64;
    let untraced_s = median(&untraced_runs);
    let untraced_ns = untraced_s * 1e9;
    let metrics = base.pipeline.broker.metrics();
    let counter = |kind: &str| metrics.counter(&format!("events.{kind}")) as f64;
    let tracer = &traced.tracer;

    // cg-sim
    set(&mut report, "sim.events_per_job", base.events as f64 / jobs);
    set(
        &mut report,
        "sim.events_per_s",
        base.events as f64 / untraced_s,
    );
    let gaps = traced.event_gaps.summary();
    set(&mut report, "sim.host_ns_per_event_p50", gaps.p50);
    set(&mut report, "sim.host_ns_per_event_tail", gaps.tail);
    report.note(format!("host ns per sim event: {}", describe(&gaps)));
    set(
        &mut report,
        "sim.kernel_ns_per_event",
        kernel_ns_per_event(1_000_000, false),
    );
    set(
        &mut report,
        "sim.kernel_cancel_ns_per_event",
        kernel_ns_per_event(1_000_000, true),
    );

    // cg-net
    let (mut msgs, mut failed_msgs, mut bytes) = (0u64, 0u64, 0u64);
    for link in &base.pipeline.links {
        let s = link.stats();
        msgs += s.delivered + s.failed;
        failed_msgs += s.failed;
        bytes += s.bytes;
    }
    set(&mut report, "net.msgs_per_job", msgs as f64 / jobs);
    set(&mut report, "net.bytes_per_job", bytes as f64 / jobs);
    set(
        &mut report,
        "net.msg_fail_ratio",
        failed_msgs as f64 / msgs.max(1) as f64,
    );

    // cg-jdl
    for layer in ["jdl.parse", "jdl.analyze"] {
        let s = summarize(&tracer.durations(layer));
        set(&mut report, &format!("{layer}_ns_p50"), s.p50);
        set(&mut report, &format!("{layer}_ns_tail"), s.tail);
        report.note(format!("{layer} ns: {}", describe(&s)));
    }

    // crossbroker submit
    let run_span_ns = tracer.durations("run").samples()[0].max(1.0);
    let submit = summarize(&tracer.durations("submit"));
    set(&mut report, "broker.submit_ns_p50", submit.p50);
    set(&mut report, "broker.submit_ns_tail", submit.tail);
    set(
        &mut report,
        "broker.submit_share",
        tracer.self_ns("submit") as f64 / run_span_ns,
    );
    set(
        &mut report,
        "broker.job_fail_ratio",
        base.outcomes.fail_ratio(),
    );
    report.note(format!("broker.submit ns: {}", describe(&submit)));

    // crossbroker matchmaking
    let filters = tracer.durations("match.filter");
    let filter = summarize(&filters);
    let (scanned, shortlisted) = tracer.scanned();
    let filter_total: f64 = filters.samples().iter().sum();
    set(&mut report, "match.filter_ns_p50", filter.p50);
    set(&mut report, "match.filter_ns_tail", filter.tail);
    set(
        &mut report,
        "match.filter_ns_per_site",
        filter_total / scanned.max(1) as f64,
    );
    set(
        &mut report,
        "match.filter_share",
        filter_total / untraced_ns,
    );
    set(
        &mut report,
        "match.live_filter_ns",
        median(&tracer.durations("match.live_filter")),
    );
    set(
        &mut report,
        "match.select_ns",
        median(&tracer.durations("match.select")),
    );
    set(
        &mut report,
        "match.pass_ratio",
        shortlisted as f64 / scanned.max(1) as f64,
    );
    report.note(format!("match.filter ns: {}", describe(&filter)));

    // crossbroker fair-share
    set(&mut report, "fairshare.ticks", counter("FairShareTick"));
    set(
        &mut report,
        "fairshare.tick_ns",
        fairshare_tick_ns(&base, 20_000),
    );

    // cg-site
    let index = base.pipeline.broker.index();
    set(&mut report, "mds.refreshes", index.refreshes() as f64);
    set(&mut report, "mds.late_merges", index.late_merges() as f64);
    set(&mut report, "mds.amnestied", index.amnestied() as f64);
    set(
        &mut report,
        "mds.refresh_ns",
        mds_refresh_ns(opts.spec, opts.seed),
    );
    set(
        &mut report,
        "membership.transitions",
        counter("SiteSuspect") + counter("SiteDead") + counter("SiteRejoin"),
    );
    let (lrms_submitted, lrms_wait) = lrms_totals(&base);
    set(
        &mut report,
        "lrms.submits_per_job",
        lrms_submitted as f64 / jobs,
    );
    report.note(format!(
        "LRMS queue wait: mean {:.4} sim s over {} started jobs",
        if lrms_wait.count() == 0 {
            0.0
        } else {
            lrms_wait.mean()
        },
        lrms_wait.count()
    ));

    // crossbroker failure paths
    set(
        &mut report,
        "broker.query_retries",
        counter("QueryRetry") / jobs,
    );
    set(
        &mut report,
        "broker.query_timeouts",
        counter("LiveQueryTimeout") / jobs,
    );
    set(
        &mut report,
        "broker.degraded_matches",
        counter("DegradedMatch") / jobs,
    );
    set(
        &mut report,
        "broker.resubmissions",
        base.stats.resubmissions as f64 / jobs,
    );

    // cg-vm
    set(
        &mut report,
        "vm.agents_per_job",
        base.stats.agents_deployed as f64 / jobs,
    );
    set(&mut report, "vm.agent_deaths", counter("AgentDied"));
    set(&mut report, "vm.slot_preemptions", counter("SlotPreempted"));

    // cg-trace
    let log = base.pipeline.broker.event_log();
    let recorded = log.recorded();
    set(&mut report, "trace.events_per_job", recorded as f64 / jobs);
    set(
        &mut report,
        "trace.dropped_ratio",
        log.dropped() as f64 / recorded.max(1) as f64,
    );
    let replay = trace_replay(&log, &opts.scratch);
    set(&mut report, "trace.record_ns", replay.record_ns);
    set(&mut report, "trace.record_plain_ns", replay.record_plain_ns);
    set(
        &mut report,
        "trace.record_share",
        replay.record_ns * recorded as f64 / untraced_ns,
    );
    set(&mut report, "trace.encode_ns", replay.encode_ns);
    set(&mut report, "trace.bytes_per_event", replay.bytes_per_event);
    set(
        &mut report,
        "trace.journal_append_ns",
        replay.journal_append_ns,
    );
    // No journal attached: what one would hold for the whole stream.
    let journal_bytes = journal_bytes.unwrap_or(replay.journal_bytes_per_event * recorded as f64);
    set(
        &mut report,
        "trace.journal_bytes_per_job",
        journal_bytes / jobs,
    );
    set(
        &mut report,
        "trace.invariants_ns_per_event",
        replay.invariants_ns_per_event,
    );
    report.note(format!(
        "trace: {recorded} events recorded, {} retained and replayed; invariants: {}",
        replay.events,
        base.invariants.describe()
    ));

    // tracing overhead, both bases
    let terminal = base.outcomes.terminal() as f64;
    let untraced_rate = terminal / untraced_s;
    let traced_rate = terminal / traced.pass.drained.run_s;
    set(&mut report, "overhead.untraced_jobs_per_s", untraced_rate);
    set(&mut report, "overhead.traced_jobs_per_s", traced_rate);
    set(
        &mut report,
        "overhead.ratio",
        traced.pass.drained.run_s / untraced_s - 1.0,
    );
    report.note(format!(
        "tracing overhead: untraced {untraced_rate:.1} jobs/s (median of {} passes), \
         traced {traced_rate:.1} jobs/s (1 pass)",
        untraced_runs.len()
    ));
    let path = &opts.spans_out;
    match std::fs::write(path, tracer.to_jsonl()) {
        Ok(()) => report.note(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => report
            .failures
            .push(format!("writing spans to {}: {e}", path.display())),
    }
    report.correct = report.failures.is_empty();
    report
}
