//! Typed lifecycle events and their JSON rendering.
//!
//! The workspace's `serde` is a no-op offline shim, so JSON is produced by
//! hand here: one flat object per event, `at_ns`/`seq`/`event` first, then
//! the variant's own fields. Keeping the rendering next to the enum means
//! adding a variant without serialization fails to compile.

use cg_sim::SimTime;

/// One broker-stack lifecycle event. Identifiers are plain integers and
/// strings (not the originating crates' newtypes) so this crate sits below
/// every other layer and never creates a dependency cycle.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    // ── broker job lifecycle ────────────────────────────────────────────
    /// A job entered the broker.
    JobSubmitted {
        /// Broker job id.
        job: u64,
        /// Submitting user.
        user: String,
        /// Whether the job is interactive.
        interactive: bool,
    },
    /// The job's full description, journalled right after [`Event::JobSubmitted`]
    /// so crash recovery can re-run matchmaking. The pair acts as the job's
    /// commit record: a journal that contains `JobSubmitted` but not `JobAd`
    /// aborts the job deterministically on recovery.
    JobAd {
        /// Broker job id.
        job: u64,
        /// The classad source, as re-parseable JDL text.
        jdl: String,
        /// Declared runtime, nanoseconds.
        runtime_ns: u64,
    },
    /// A batch job with no current candidates entered the broker queue.
    JobQueued {
        /// Broker job id.
        job: u64,
    },
    /// The broker re-ran matchmaking for a queued batch job.
    QueueRetry {
        /// Broker job id.
        job: u64,
    },
    /// A time-limited claim was taken on a target before dispatch.
    LeaseGranted {
        /// Broker job id.
        job: u64,
        /// Leased target, e.g. `agent:3` or `site:cesga`.
        target: String,
        /// Lease expiry, nanoseconds of sim time.
        until_ns: u64,
    },
    /// The job left the broker towards a target.
    JobDispatched {
        /// Broker job id.
        job: u64,
        /// Dispatch target, e.g. `agent:3` or `site:cesga`.
        target: String,
    },
    /// The job began computing.
    JobStarted {
        /// Broker job id.
        job: u64,
    },
    /// On-line scheduling withdrew the job from a queue and re-matched it.
    JobResubmitted {
        /// Broker job id.
        job: u64,
        /// 1-based resubmission attempt.
        attempt: u32,
    },
    /// A resubmission was delayed by bounded exponential backoff.
    JobBackoff {
        /// Broker job id.
        job: u64,
        /// 1-based resubmission attempt being delayed.
        attempt: u32,
        /// Jittered delay before the retry, nanoseconds.
        delay_ns: u64,
    },
    /// Terminal: the job completed normally.
    JobFinished {
        /// Broker job id.
        job: u64,
    },
    /// Terminal: the job failed.
    JobFailed {
        /// Broker job id.
        job: u64,
        /// Failure reason.
        reason: String,
    },
    /// Terminal: the user cancelled the job.
    JobCancelled {
        /// Broker job id.
        job: u64,
    },
    /// The submit-time JDL analyzer produced a finding for this job's ad.
    JdlDiagnostic {
        /// Broker job id.
        job: u64,
        /// `error` or `warning`.
        severity: String,
        /// Stable diagnostic code, e.g. `E108`.
        code: String,
        /// Human-readable description.
        message: String,
    },
    /// Terminal: the ad failed static analysis and was rejected at submit;
    /// no dispatch or lease may follow.
    JdlRejected {
        /// Broker job id.
        job: u64,
        /// Number of `error`-severity diagnostics.
        errors: u32,
    },
    /// Matchmaking excluded a candidate whose `Rank` evaluated to NaN
    /// (e.g. `0.0/0.0`). Without this exclusion the selection fold would
    /// silently never pick the site; the diagnostic makes the drop visible.
    RankNanDiscarded {
        /// Broker job id whose `Rank` misbehaved.
        job: u64,
        /// Site whose candidate was discarded.
        site: String,
    },
    /// The selection step chose a site for a job under a named policy.
    /// One event per selected site (co-allocation emits one per planned
    /// subjob site), making policy A/B runs diffable from the trace alone.
    PolicyDecision {
        /// Broker job id.
        job: u64,
        /// Registry name of the policy that scored the candidates.
        policy: String,
        /// The chosen site.
        site: String,
        /// The winning score (the rank itself under `free-cpus-rank`).
        score: f64,
    },

    // ── fair-share scheduler ────────────────────────────────────────────
    /// The fair-share engine decayed usage and recomputed priorities.
    FairShareTick {
        /// Live usage records at the tick.
        usages: u32,
    },
    /// A usage record changed application kind (and thus its factor).
    PriorityChanged {
        /// Usage record id.
        usage: u64,
        /// New kind: `batch`, `interactive` or `yielded-batch`.
        kind: String,
    },

    // ── glide-in agents & VM multiprogramming ───────────────────────────
    /// A glide-in agent was submitted to a site's LRMS.
    AgentDeployed {
        /// Agent id.
        agent: u64,
        /// Hosting site name.
        site: String,
    },
    /// The agent started on a worker node and is accepting work.
    AgentReady {
        /// Agent id.
        agent: u64,
    },
    /// The agent's carrier job ended.
    AgentDied {
        /// Agent id.
        agent: u64,
        /// LRMS-reported reason.
        reason: String,
        /// True when the agent left on purpose (machine handed back).
        voluntary: bool,
    },
    /// The batch job riding the agent finished.
    AgentBatchFinished {
        /// Agent id.
        agent: u64,
    },
    /// An arriving interactive job demoted the agent's batch job.
    BatchYielded {
        /// Agent id.
        agent: u64,
        /// Interactive broker job id that caused the yield.
        job: u64,
        /// Declared performance loss, percent.
        performance_loss: u32,
    },
    /// The interactive job departed; the batch job's priority came back.
    BatchRestored {
        /// Agent id.
        agent: u64,
        /// Interactive broker job id that departed.
        job: u64,
    },
    /// A VM slot started executing a task.
    SlotStarted {
        /// Machine label.
        machine: String,
        /// Whether the task is interactive.
        interactive: bool,
    },
    /// Interactive arrival throttled the slot's batch task.
    SlotPreempted {
        /// Machine label.
        machine: String,
        /// Batch task's new CPU rate, percent of one CPU.
        batch_rate_pct: u32,
    },
    /// Last interactive task left; the batch task runs at full rate again.
    SlotRestored {
        /// Machine label.
        machine: String,
    },
    /// A VM slot task completed.
    SlotFinished {
        /// Machine label.
        machine: String,
        /// Whether the task was interactive.
        interactive: bool,
    },

    // ── Grid Console ────────────────────────────────────────────────────
    /// The console session to the job's agent authenticated.
    ConsoleConnected {
        /// Broker job id.
        job: u64,
    },
    /// A reliable-mode connect attempt failed and will be retried.
    ConsoleRetry {
        /// Broker job id.
        job: u64,
        /// 1-based attempt that failed.
        attempt: u32,
    },
    /// First output bytes reached the user.
    ConsoleReady {
        /// Broker job id.
        job: u64,
    },
    /// A record was appended to an output spool.
    SpoolAppend {
        /// Spool/stream label.
        stream: String,
        /// Record sequence number.
        seq: u64,
    },
    /// Records through `seq` were acknowledged by the peer.
    SpoolAck {
        /// Spool/stream label.
        stream: String,
        /// Highest acknowledged sequence number.
        seq: u64,
    },
    /// Unacknowledged records were replayed after a reconnect.
    SpoolReplay {
        /// Spool/stream label.
        stream: String,
        /// Replay resumed after this sequence number.
        after: u64,
        /// Records replayed.
        records: u32,
    },
    /// An output buffer emitted a chunk.
    BufferFlush {
        /// Stream label.
        stream: String,
        /// Trigger: `full`, `timeout`, `eol` or `explicit`.
        reason: String,
        /// Bytes emitted.
        bytes: u64,
    },
    /// An agent connected to the shadow (real transport).
    ShadowConnected {
        /// Process rank.
        rank: u32,
    },
    /// An agent connection to the shadow dropped.
    ShadowDisconnected {
        /// Process rank.
        rank: u32,
    },

    // ── site LRMS ───────────────────────────────────────────────────────
    /// A job entered a site scheduler's queue.
    LrmsQueued {
        /// Site name.
        site: String,
        /// LRMS-local job id.
        job: u64,
    },
    /// A site scheduler placed a job on nodes.
    LrmsStarted {
        /// Site name.
        site: String,
        /// LRMS-local job id.
        job: u64,
        /// Nodes allocated.
        nodes: u32,
    },
    /// A site job finished normally.
    LrmsFinished {
        /// Site name.
        site: String,
        /// LRMS-local job id.
        job: u64,
    },
    /// A site job was killed (walltime, broker withdrawal, …).
    LrmsKilled {
        /// Site name.
        site: String,
        /// LRMS-local job id.
        job: u64,
        /// Kill reason.
        reason: String,
    },
    /// A terminal disposition fell off the site's bounded poll-back record:
    /// status polls for this job now return nothing, so a rejoining broker
    /// must treat its outcome as unknown.
    DispositionEvicted {
        /// Site name.
        site: String,
        /// LRMS-local job id whose record was evicted.
        job: u64,
    },

    // ── site membership & degradation ───────────────────────────────────
    /// Missed MDS refreshes or failed/timed-out live queries put a site on
    /// probation: running work keeps going, but no new lease or dispatch
    /// may land on it until it answers again.
    SiteSuspect {
        /// Site name.
        site: String,
        /// Consecutive missed MDS refreshes at the transition.
        missed_refreshes: u32,
        /// Consecutive failed or timed-out live queries at the transition.
        failed_queries: u32,
    },
    /// Obituary: the suspect site stayed quiet past the dead threshold.
    /// Its capacity lease is revoked and in-flight jobs are re-matched
    /// without burning resubmission budget.
    SiteDead {
        /// Site name.
        site: String,
        /// Broker jobs in flight on the site when it was declared dead.
        in_flight: u32,
    },
    /// A `Suspect`/`Dead` site answered again: it is `Alive` and eligible
    /// for leases, and its failure streaks are forgiven.
    SiteRejoin {
        /// Site name.
        site: String,
        /// Time spent outside `Alive`, nanoseconds.
        down_ns: u64,
    },
    /// A live per-site query exceeded its per-attempt timeout budget.
    LiveQueryTimeout {
        /// Broker job id whose matchmaking issued the query.
        job: u64,
        /// Queried site.
        site: String,
        /// 1-based attempt that timed out.
        attempt: u32,
    },
    /// A failed or timed-out live query will be re-run after a bounded,
    /// jittered, per-job-seeded backoff delay.
    QueryRetry {
        /// Broker job id.
        job: u64,
        /// Queried site.
        site: String,
        /// 1-based attempt about to be re-run.
        attempt: u32,
        /// Jittered delay before the retry, nanoseconds.
        delay_ns: u64,
    },
    /// The information system was unreachable; matchmaking fell back to
    /// the last staleness-bounded `AdSnapshot` instead of failing the job.
    DegradedMatch {
        /// Broker job id matched from stale data.
        job: u64,
        /// Age of the snapshot that served the match, nanoseconds.
        staleness_ns: u64,
    },

    // ── hierarchical aggregation (GIIS) ─────────────────────────────────
    /// A leaf index's epoch delta merged into the root aggregator's
    /// snapshot — the O(changed-sites) propagation step of the two-tier
    /// hierarchy.
    GiisDelta {
        /// Leaf index within the hierarchy, in partition order.
        leaf: u32,
        /// Root snapshot epoch after the merge.
        epoch: u64,
        /// Sites the delta touched (always > 0; quiet sweeps ship
        /// nothing).
        changed: u32,
    },
    /// A windowed MDS refresh sweep closed (or the legacy walk
    /// completed): per-cycle accounting of the refresh fan-out.
    RefreshSweep {
        /// Sites whose publication arrived and was applied.
        refreshed: u32,
        /// Sites whose publish path was down at attempt time.
        missed: u32,
        /// Sites amnestied — reply in flight or unattempted at the
        /// forced close; not counted toward `Suspect`.
        amnestied: u32,
        /// Late replies merged after their sweep had closed.
        late_merges: u32,
    },

    // ── crash recovery ──────────────────────────────────────────────────
    /// A fresh broker finished replaying a journal and re-armed in-flight
    /// work. First event of a post-crash epoch.
    BrokerRecovered {
        /// Jobs restored into the job table.
        jobs: u64,
        /// Queued batch jobs put back on the broker queue.
        requeued: u64,
        /// In-flight jobs sent back through matchmaking.
        resubmitted: u64,
        /// Agents that were alive in the journal and died with the broker.
        agents_lost: u64,
    },

    // ── experiments ─────────────────────────────────────────────────────
    /// A named scalar produced by a bench binary.
    Measurement {
        /// Metric name, e.g. `table1/exclusive/response_s`.
        name: String,
        /// Metric value.
        value: f64,
    },
}

/// An [`Event`] with its position in the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// Simulation time of the event (wall-derived for real-thread events).
    pub at: SimTime,
    /// Monotonic per-log sequence number (gap-free even when the ring
    /// drops old entries).
    pub seq: u64,
    /// The event itself.
    pub event: Event,
}

impl Event {
    /// Stable variant name, used as the JSON `event` field and as the
    /// auto-counter suffix in a [`crate::MetricsRegistry`].
    pub fn kind(&self) -> &'static str {
        match self {
            Event::JobSubmitted { .. } => "JobSubmitted",
            Event::JobAd { .. } => "JobAd",
            Event::JobQueued { .. } => "JobQueued",
            Event::QueueRetry { .. } => "QueueRetry",
            Event::LeaseGranted { .. } => "LeaseGranted",
            Event::JobDispatched { .. } => "JobDispatched",
            Event::JobStarted { .. } => "JobStarted",
            Event::JobResubmitted { .. } => "JobResubmitted",
            Event::JobBackoff { .. } => "JobBackoff",
            Event::JobFinished { .. } => "JobFinished",
            Event::JobFailed { .. } => "JobFailed",
            Event::JobCancelled { .. } => "JobCancelled",
            Event::JdlDiagnostic { .. } => "JdlDiagnostic",
            Event::JdlRejected { .. } => "JdlRejected",
            Event::RankNanDiscarded { .. } => "RankNanDiscarded",
            Event::PolicyDecision { .. } => "PolicyDecision",
            Event::FairShareTick { .. } => "FairShareTick",
            Event::PriorityChanged { .. } => "PriorityChanged",
            Event::AgentDeployed { .. } => "AgentDeployed",
            Event::AgentReady { .. } => "AgentReady",
            Event::AgentDied { .. } => "AgentDied",
            Event::AgentBatchFinished { .. } => "AgentBatchFinished",
            Event::BatchYielded { .. } => "BatchYielded",
            Event::BatchRestored { .. } => "BatchRestored",
            Event::SlotStarted { .. } => "SlotStarted",
            Event::SlotPreempted { .. } => "SlotPreempted",
            Event::SlotRestored { .. } => "SlotRestored",
            Event::SlotFinished { .. } => "SlotFinished",
            Event::ConsoleConnected { .. } => "ConsoleConnected",
            Event::ConsoleRetry { .. } => "ConsoleRetry",
            Event::ConsoleReady { .. } => "ConsoleReady",
            Event::SpoolAppend { .. } => "SpoolAppend",
            Event::SpoolAck { .. } => "SpoolAck",
            Event::SpoolReplay { .. } => "SpoolReplay",
            Event::BufferFlush { .. } => "BufferFlush",
            Event::ShadowConnected { .. } => "ShadowConnected",
            Event::ShadowDisconnected { .. } => "ShadowDisconnected",
            Event::LrmsQueued { .. } => "LrmsQueued",
            Event::LrmsStarted { .. } => "LrmsStarted",
            Event::LrmsFinished { .. } => "LrmsFinished",
            Event::LrmsKilled { .. } => "LrmsKilled",
            Event::DispositionEvicted { .. } => "DispositionEvicted",
            Event::SiteSuspect { .. } => "SiteSuspect",
            Event::SiteDead { .. } => "SiteDead",
            Event::SiteRejoin { .. } => "SiteRejoin",
            Event::LiveQueryTimeout { .. } => "LiveQueryTimeout",
            Event::QueryRetry { .. } => "QueryRetry",
            Event::DegradedMatch { .. } => "DegradedMatch",
            Event::GiisDelta { .. } => "GiisDelta",
            Event::RefreshSweep { .. } => "RefreshSweep",
            Event::BrokerRecovered { .. } => "BrokerRecovered",
            Event::Measurement { .. } => "Measurement",
        }
    }

    /// Appends this variant's own fields (leading comma included) to a JSON
    /// object under construction.
    fn write_fields(&self, out: &mut String) {
        use std::fmt::Write;
        let str_field = |out: &mut String, k: &str, v: &str| {
            let _ = write!(out, ",\"{k}\":\"{}\"", json_escape(v));
        };
        match self {
            Event::JobSubmitted {
                job,
                user,
                interactive,
            } => {
                let _ = write!(out, ",\"job\":{job}");
                str_field(out, "user", user);
                let _ = write!(out, ",\"interactive\":{interactive}");
            }
            Event::JobQueued { job }
            | Event::QueueRetry { job }
            | Event::JobStarted { job }
            | Event::JobFinished { job }
            | Event::JobCancelled { job }
            | Event::ConsoleConnected { job }
            | Event::ConsoleReady { job } => {
                let _ = write!(out, ",\"job\":{job}");
            }
            Event::LeaseGranted {
                job,
                target,
                until_ns,
            } => {
                let _ = write!(out, ",\"job\":{job}");
                str_field(out, "target", target);
                let _ = write!(out, ",\"until_ns\":{until_ns}");
            }
            Event::JobDispatched { job, target } => {
                let _ = write!(out, ",\"job\":{job}");
                str_field(out, "target", target);
            }
            Event::JobAd {
                job,
                jdl,
                runtime_ns,
            } => {
                let _ = write!(out, ",\"job\":{job}");
                str_field(out, "jdl", jdl);
                let _ = write!(out, ",\"runtime_ns\":{runtime_ns}");
            }
            Event::JobResubmitted { job, attempt } => {
                let _ = write!(out, ",\"job\":{job},\"attempt\":{attempt}");
            }
            Event::JobBackoff {
                job,
                attempt,
                delay_ns,
            } => {
                let _ = write!(
                    out,
                    ",\"job\":{job},\"attempt\":{attempt},\"delay_ns\":{delay_ns}"
                );
            }
            Event::JobFailed { job, reason } => {
                let _ = write!(out, ",\"job\":{job}");
                str_field(out, "reason", reason);
            }
            Event::JdlDiagnostic {
                job,
                severity,
                code,
                message,
            } => {
                let _ = write!(out, ",\"job\":{job}");
                str_field(out, "severity", severity);
                str_field(out, "code", code);
                str_field(out, "message", message);
            }
            Event::JdlRejected { job, errors } => {
                let _ = write!(out, ",\"job\":{job},\"errors\":{errors}");
            }
            Event::RankNanDiscarded { job, site } => {
                let _ = write!(out, ",\"job\":{job}");
                str_field(out, "site", site);
            }
            Event::PolicyDecision {
                job,
                policy,
                site,
                score,
            } => {
                let _ = write!(out, ",\"job\":{job}");
                str_field(out, "policy", policy);
                str_field(out, "site", site);
                let _ = write!(out, ",\"score\":{}", json_number(*score));
            }
            Event::FairShareTick { usages } => {
                let _ = write!(out, ",\"usages\":{usages}");
            }
            Event::PriorityChanged { usage, kind } => {
                let _ = write!(out, ",\"usage\":{usage}");
                str_field(out, "kind", kind);
            }
            Event::AgentDeployed { agent, site } => {
                let _ = write!(out, ",\"agent\":{agent}");
                str_field(out, "site", site);
            }
            Event::AgentReady { agent } | Event::AgentBatchFinished { agent } => {
                let _ = write!(out, ",\"agent\":{agent}");
            }
            Event::AgentDied {
                agent,
                reason,
                voluntary,
            } => {
                let _ = write!(out, ",\"agent\":{agent}");
                str_field(out, "reason", reason);
                let _ = write!(out, ",\"voluntary\":{voluntary}");
            }
            Event::BatchYielded {
                agent,
                job,
                performance_loss,
            } => {
                let _ = write!(
                    out,
                    ",\"agent\":{agent},\"job\":{job},\"performance_loss\":{performance_loss}"
                );
            }
            Event::BatchRestored { agent, job } => {
                let _ = write!(out, ",\"agent\":{agent},\"job\":{job}");
            }
            Event::SlotStarted {
                machine,
                interactive,
            }
            | Event::SlotFinished {
                machine,
                interactive,
            } => {
                str_field(out, "machine", machine);
                let _ = write!(out, ",\"interactive\":{interactive}");
            }
            Event::SlotPreempted {
                machine,
                batch_rate_pct,
            } => {
                str_field(out, "machine", machine);
                let _ = write!(out, ",\"batch_rate_pct\":{batch_rate_pct}");
            }
            Event::SlotRestored { machine } => {
                str_field(out, "machine", machine);
            }
            Event::ConsoleRetry { job, attempt } => {
                let _ = write!(out, ",\"job\":{job},\"attempt\":{attempt}");
            }
            Event::SpoolAppend { stream, seq } | Event::SpoolAck { stream, seq } => {
                str_field(out, "stream", stream);
                let _ = write!(out, ",\"seq\":{seq}");
            }
            Event::SpoolReplay {
                stream,
                after,
                records,
            } => {
                str_field(out, "stream", stream);
                let _ = write!(out, ",\"after\":{after},\"records\":{records}");
            }
            Event::BufferFlush {
                stream,
                reason,
                bytes,
            } => {
                str_field(out, "stream", stream);
                str_field(out, "reason", reason);
                let _ = write!(out, ",\"bytes\":{bytes}");
            }
            Event::ShadowConnected { rank } | Event::ShadowDisconnected { rank } => {
                let _ = write!(out, ",\"rank\":{rank}");
            }
            Event::LrmsQueued { site, job }
            | Event::LrmsFinished { site, job }
            | Event::DispositionEvicted { site, job } => {
                str_field(out, "site", site);
                let _ = write!(out, ",\"job\":{job}");
            }
            Event::LrmsStarted { site, job, nodes } => {
                str_field(out, "site", site);
                let _ = write!(out, ",\"job\":{job},\"nodes\":{nodes}");
            }
            Event::LrmsKilled { site, job, reason } => {
                str_field(out, "site", site);
                let _ = write!(out, ",\"job\":{job}");
                str_field(out, "reason", reason);
            }
            Event::SiteSuspect {
                site,
                missed_refreshes,
                failed_queries,
            } => {
                str_field(out, "site", site);
                let _ = write!(
                    out,
                    ",\"missed_refreshes\":{missed_refreshes},\"failed_queries\":{failed_queries}"
                );
            }
            Event::SiteDead { site, in_flight } => {
                str_field(out, "site", site);
                let _ = write!(out, ",\"in_flight\":{in_flight}");
            }
            Event::SiteRejoin { site, down_ns } => {
                str_field(out, "site", site);
                let _ = write!(out, ",\"down_ns\":{down_ns}");
            }
            Event::LiveQueryTimeout { job, site, attempt } => {
                let _ = write!(out, ",\"job\":{job}");
                str_field(out, "site", site);
                let _ = write!(out, ",\"attempt\":{attempt}");
            }
            Event::QueryRetry {
                job,
                site,
                attempt,
                delay_ns,
            } => {
                let _ = write!(out, ",\"job\":{job}");
                str_field(out, "site", site);
                let _ = write!(out, ",\"attempt\":{attempt},\"delay_ns\":{delay_ns}");
            }
            Event::DegradedMatch { job, staleness_ns } => {
                let _ = write!(out, ",\"job\":{job},\"staleness_ns\":{staleness_ns}");
            }
            Event::GiisDelta {
                leaf,
                epoch,
                changed,
            } => {
                let _ = write!(
                    out,
                    ",\"leaf\":{leaf},\"epoch\":{epoch},\"changed\":{changed}"
                );
            }
            Event::RefreshSweep {
                refreshed,
                missed,
                amnestied,
                late_merges,
            } => {
                let _ = write!(
                    out,
                    ",\"refreshed\":{refreshed},\"missed\":{missed},\"amnestied\":{amnestied},\"late_merges\":{late_merges}"
                );
            }
            Event::BrokerRecovered {
                jobs,
                requeued,
                resubmitted,
                agents_lost,
            } => {
                let _ = write!(
                    out,
                    ",\"jobs\":{jobs},\"requeued\":{requeued},\"resubmitted\":{resubmitted},\"agents_lost\":{agents_lost}"
                );
            }
            Event::Measurement { name, value } => {
                str_field(out, "name", name);
                let _ = write!(out, ",\"value\":{}", json_number(*value));
            }
        }
    }
}

impl TimedEvent {
    /// Renders the event as one flat JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"at_ns\":{},\"seq\":{},\"event\":\"{}\"",
            self.at.as_nanos(),
            self.seq,
            self.event.kind()
        );
        self.event.write_fields(&mut out);
        out.push('}');
        out
    }
}

/// Escapes a string for inclusion inside JSON double quotes.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` as a valid JSON number (JSON has no NaN/Infinity).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        let mut s = format!("{x}");
        // `{}` on a whole f64 prints no decimal point; keep it a float so
        // downstream type inference stays stable.
        if !s.contains('.') && !s.contains('e') && !s.contains("inf") {
            s.push_str(".0");
        }
        s
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_quotes_and_control() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn json_number_is_always_valid_json() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "null");
    }

    #[test]
    fn every_variant_names_itself() {
        let e = Event::JobSubmitted {
            job: 1,
            user: "alice".into(),
            interactive: true,
        };
        assert_eq!(e.kind(), "JobSubmitted");
    }
}
