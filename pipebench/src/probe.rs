//! The traced run and the standalone layer measurements.
//!
//! Spans are recorded by the benchmark's own code around calls into each
//! layer's public functions — none inside the library. Each arrival's
//! closure parses and analyzes the job's JDL, runs the matchmaking engines
//! over the broker's current MDS snapshot with a benchmark-owned RNG, and
//! then calls `CrossBroker::submit`, all under spans. Every probe only
//! reads broker state, so the traced run's simulated results must equal
//! the untraced run's (the digest gate checks this). Per-event host gaps
//! come from `Sim::set_trace` and go into a histogram, not into spans.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use cg_jdl::{JobDescription, Parallelism};
use cg_sim::{OnlineStats, SampleSet, Sim, SimDuration, SimRng, SimTime};
use cg_site::{InformationIndex, RefreshWindow};
use cg_trace::{
    check_invariants, encode_event, Event, EventLog, Journal, JournalConfig, MetricsRegistry,
};
use crossbroker::{
    filter_candidates_columnar, filter_candidates_compiled, select_detailed_with, CompiledJob,
    CrossBroker, FairShare, JobId, PolicyKind, PolicySignals, UsageKind,
};

use crate::run::{drain, finish, Pass};
use crate::stats::LogHistogram;
use crate::workload::{build, build_grid, Spec, SubmitHook, GRID_SEED};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span covers (`run`, `submit`, `jdl.parse`, …).
    pub name: &'static str,
    /// Host nanoseconds since the traced run began.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing span (`None` only for the `run` root).
    pub parent: Option<usize>,
    /// The job the span worked for, when there is one.
    pub job: Option<u64>,
}

impl Span {
    /// Duration in host nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder plus the per-submit matchmaking tallies.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    /// Sites scanned and shortlisted by the columnar filter probes.
    scanned: RefCell<(u64, u64)>,
    rng: RefCell<SimRng>,
}

/// Index of the `run` root span.
const ROOT: usize = 0;

impl Tracer {
    fn new(seed: u64) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            scanned: RefCell::new((0, 0)),
            rng: RefCell::new(SimRng::new(seed ^ 0x5E1E_C7ED)),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` under a span named `name`, child of the `run` root.
    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.borrow_mut().push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(ROOT),
            job: None,
        });
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> SampleSet {
        let mut set = SampleSet::new();
        for s in self.spans.borrow().iter().filter(|s| s.name == name) {
            set.record(s.ns() as f64);
        }
        set
    }

    /// Self time of every span named `name`: its duration minus the part
    /// covered by its child spans.
    pub fn self_ns(&self, name: &str) -> u64 {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.ns().saturating_sub(child_ns[i]))
            .sum()
    }

    /// `(sites scanned, sites shortlisted)` over every filter probe.
    pub fn scanned(&self) -> (u64, u64) {
        *self.scanned.borrow()
    }

    /// The probes and the traced `CrossBroker::submit` for one arrival.
    fn submit(
        &self,
        sim: &mut Sim,
        broker: &CrossBroker,
        job: JobDescription,
        runtime: SimDuration,
    ) -> JobId {
        let first = self.spans.borrow().len();
        let src = job.ad.to_string();
        let _ = black_box(self.span("jdl.parse", || JobDescription::parse(&src)));
        let analysis = self.span("jdl.analyze", || job.analyze());
        let compiled = CompiledJob {
            requirements: analysis.requirements,
            rank: analysis.rank,
        };
        let require_full = job.is_interactive() && job.parallelism != Parallelism::MpichG2;
        let snap = broker.index().snapshot_arc();
        let shortlist = self.span("match.filter", || {
            filter_candidates_columnar(&job, &compiled, &snap, require_full)
        });
        {
            let mut tally = self.scanned.borrow_mut();
            tally.0 += snap.len() as u64;
            tally.1 += shortlist.len() as u64;
        }
        let ads = snap.indexed_ads();
        black_box(self.span("match.live_filter", || {
            filter_candidates_compiled(&job, &compiled, &ads, require_full)
        }));
        let signals = PolicySignals::new();
        black_box(self.span("match.select", || {
            select_detailed_with(
                PolicyKind::default().policy(),
                &signals,
                &shortlist,
                &mut self.rng.borrow_mut(),
            )
        }));
        let id = self.span("submit", || broker.submit(sim, job, runtime));
        for s in &mut self.spans.borrow_mut()[first..] {
            s.job = Some(id.0);
        }
        id
    }

    /// The spans as JSON Lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.name, s.start_ns, s.end_ns
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(j) = s.job {
                let _ = write!(out, ",\"job\":{j}");
            }
            out.push_str("}\n");
        }
        out
    }
}

/// What the traced run produced beyond the pass itself.
pub struct Traced {
    /// The pass (same seed as the untraced one).
    pub pass: Pass,
    /// Spans recorded by the benchmark's probes.
    pub tracer: Rc<Tracer>,
    /// Host nanoseconds between consecutive `Sim::set_trace` hook calls.
    pub event_gaps: LogHistogram,
}

/// Runs the traced pass: probes around every submission, the sim hook
/// timing every event, and one `run` root span around `run_until`.
pub fn run_traced(spec: Spec, seed: u64, scratch: &Path) -> Traced {
    let tracer = Rc::new(Tracer::new(seed));
    let t = Rc::clone(&tracer);
    let hook: SubmitHook =
        Rc::new(move |sim, broker, job, runtime| t.submit(sim, broker, job, runtime));
    let mut pipeline = build(spec, seed, scratch, Some(hook));
    let setup_s = pipeline.setup_s;

    let gaps = Rc::new(RefCell::new((LogHistogram::default(), None::<Instant>)));
    let g = Rc::clone(&gaps);
    pipeline.sim.set_trace(move |_, _| {
        let now = Instant::now();
        let mut g = g.borrow_mut();
        if let Some(prev) = g.1 {
            g.0.record((now - prev).as_nanos() as u64);
        }
        g.1 = Some(now);
    });

    tracer.spans.borrow_mut().push(Span {
        name: "run",
        start_ns: tracer.now_ns(),
        end_ns: 0,
        parent: None,
        job: None,
    });
    let drained = drain(&mut pipeline, false);
    tracer.spans.borrow_mut()[ROOT].end_ns = tracer.now_ns();
    let event_gaps = gaps.borrow().0.clone();
    Traced {
        pass: finish(pipeline, setup_s, drained),
        tracer,
        event_gaps,
    }
}

/// Host nanoseconds per executed event of a self-rescheduling chain
/// through `Sim`'s public API: `schedule_in` then `run`. With `cancel`,
/// every step also schedules a decoy and cancels it, so the cancel set is
/// exercised once per executed event.
pub fn kernel_ns_per_event(events: u64, cancel: bool) -> f64 {
    fn step(sim: &mut Sim, left: u64, cancel: bool) {
        if left == 0 {
            return;
        }
        if cancel {
            let decoy = sim.schedule_in(SimDuration::from_nanos(2), |_| {});
            sim.cancel(decoy);
        }
        sim.schedule_in(SimDuration::from_nanos(1), move |sim| {
            step(sim, left - 1, cancel);
        });
    }
    let mut sim = Sim::new(1);
    let started = Instant::now();
    step(&mut sim, events, cancel);
    sim.run();
    let ns = started.elapsed().as_nanos() as f64;
    assert_eq!(sim.events_executed(), events, "the chain ran every event");
    ns / events as f64
}

/// Host nanoseconds per standalone `FairShare::tick` with one running
/// usage per user of the workload's mix.
pub fn fairshare_tick_ns(pass: &Pass, ticks: u64) -> f64 {
    let total_cpus: u32 = pass
        .pipeline
        .sites
        .iter()
        .map(|s| s.lrms().total_nodes() as u32)
        .sum();
    let mut fs = FairShare::new(pass.pipeline.config.fairshare.clone(), total_cpus.max(1));
    for u in 0..pass.pipeline.users {
        let kind = if u % 2 == 0 {
            UsageKind::Batch
        } else {
            UsageKind::Interactive {
                performance_loss: 10,
            }
        };
        fs.register(format!("user{u}"), kind, 1);
    }
    let dt = pass.pipeline.config.fairshare.delta_t;
    let mut now = SimTime::ZERO;
    let started = Instant::now();
    for _ in 0..ticks {
        now += dt;
        fs.tick(now);
    }
    black_box(fs.priority("user0"));
    started.elapsed().as_nanos() as f64 / ticks as f64
}

/// Host nanoseconds per MDS refresh: a standalone information index over
/// the workload's grid (same generator, same refresh setup) run alone for
/// the workload's whole span.
pub fn mds_refresh_ns(spec: Spec, seed: u64) -> f64 {
    let mut faults_rng = SimRng::new(seed ^ 0x6772_6964);
    let grid = build_grid(&spec, &mut SimRng::new(GRID_SEED), &mut faults_rng);
    let sites = grid.handles.iter().map(|h| h.site.clone()).collect();
    let c = grid.config;
    let mut sim = Sim::new(seed);
    let started = Instant::now();
    let index = if c.refresh_fanout > 0 {
        InformationIndex::start_windowed(
            &mut sim,
            sites,
            c.index_refresh,
            RefreshWindow {
                fanout: c.refresh_fanout,
                latency: c.publish_latency,
            },
            c.publish_faults,
            c.membership,
        )
    } else {
        InformationIndex::start_with_faults(
            &mut sim,
            sites,
            c.index_refresh,
            c.publish_faults,
            c.membership,
        )
    };
    sim.run_until(spec.end());
    let ns = started.elapsed().as_nanos() as f64;
    ns / index.refreshes().max(1) as f64
}

/// Costs of the trace layer, measured by replaying a run's retained events.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceReplay {
    /// Events replayed.
    pub events: usize,
    /// `EventLog::record` with a metrics registry attached (the broker's
    /// setting), ns per event.
    pub record_ns: f64,
    /// `EventLog::record` without metrics, ns per event.
    pub record_plain_ns: f64,
    /// `encode_event`, ns per event.
    pub encode_ns: f64,
    /// Encoded bytes per event.
    pub bytes_per_event: f64,
    /// `Journal::append_event` with default fsync batching, ns per event.
    pub journal_append_ns: f64,
    /// Journal file bytes per event (frame headers included).
    pub journal_bytes_per_event: f64,
    /// `check_invariants` over the retained stream, ns per event.
    pub invariants_ns_per_event: f64,
}

/// Replays `log`'s retained events through each trace-layer operation.
/// `scratch` receives a throwaway journal, removed before returning.
pub fn trace_replay(log: &EventLog, scratch: &Path) -> TraceReplay {
    let retained = log.snapshot();
    let n = retained.len().max(1);
    let per_event = |started: Instant| started.elapsed().as_nanos() as f64 / n as f64;
    let events =
        || -> Vec<(SimTime, Event)> { retained.iter().map(|e| (e.at, e.event.clone())).collect() };

    let batch = events();
    let with_metrics = EventLog::with_metrics(n, MetricsRegistry::new());
    let started = Instant::now();
    for (at, ev) in batch {
        with_metrics.record(at, ev);
    }
    let record_ns = per_event(started);

    let batch = events();
    let plain = EventLog::new(n);
    let started = Instant::now();
    for (at, ev) in batch {
        plain.record(at, ev);
    }
    let record_plain_ns = per_event(started);

    let mut buf = Vec::new();
    let started = Instant::now();
    for ev in &retained {
        encode_event(ev, &mut buf);
    }
    let encode_ns = per_event(started);
    let bytes_per_event = buf.len() as f64 / n as f64;

    let path = scratch.join("replay.journal");
    let journal = Journal::create(&path, JournalConfig::default())
        .expect("the benchmark's scratch directory must be writable");
    let started = Instant::now();
    for ev in &retained {
        journal
            .append_event(ev)
            .expect("journal append in the scratch directory");
    }
    journal
        .sync()
        .expect("journal sync in the scratch directory");
    let journal_append_ns = per_event(started);
    let journal_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    drop(journal);
    let _ = std::fs::remove_file(&path);

    let started = Instant::now();
    black_box(check_invariants(&retained));
    let invariants_ns_per_event = per_event(started);

    TraceReplay {
        events: retained.len(),
        record_ns,
        record_plain_ns,
        encode_ns,
        bytes_per_event,
        journal_append_ns,
        journal_bytes_per_event: journal_bytes as f64 / n as f64,
        invariants_ns_per_event,
    }
}

/// Every site's LRMS counters summed: jobs accepted, and the queue waits
/// (simulated seconds) of the jobs that started.
pub fn lrms_totals(pass: &Pass) -> (u64, OnlineStats) {
    let mut submitted = 0;
    let mut wait = OnlineStats::new();
    for site in &pass.pipeline.sites {
        let stats = site.lrms().stats();
        submitted += stats.submitted;
        wait.merge(&stats.wait);
    }
    (submitted, wait)
}
