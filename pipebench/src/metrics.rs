//! The metric catalogue and the result line.
//!
//! Every metric the benchmark can emit is declared here once, with its unit
//! and direction; `BENCHMARK.json` lists the same names and units (a test
//! keeps the two in step).

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Stable name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics of the untraced run (`--trace 0`). Response metrics are in
/// simulated time (`sim_s`, `sim_ms`); the rest in host time or memory.
pub const END_TO_END: &[Def] = &[
    def("jobs_per_s", "jobs/s", Higher),
    def("setup_s", "s", Lower),
    def("peak_heap_mb", "MiB", Lower),
    def("job_done_ratio", "ratio", Higher),
    def("shared_resp_p50_s", "sim_s", Lower),
    def("shared_resp_tail_s", "sim_s", Lower),
    def("exclusive_resp_p50_s", "sim_s", Lower),
    def("exclusive_resp_tail_s", "sim_s", Lower),
    def("batch_resp_p50_s", "sim_s", Lower),
    def("batch_resp_tail_s", "sim_s", Lower),
    def("steer_p50_ms", "sim_ms", Lower),
    def("steer_tail_ms", "sim_ms", Lower),
];

/// Metrics of the traced run (`--trace 1`), grouped by layer.
pub const PER_LAYER: &[Def] = &[
    // cg-sim
    def("sim.events_per_job", "count/job", Lower),
    def("sim.events_per_s", "events/s", Higher),
    def("sim.host_ns_per_event_p50", "ns", Lower),
    def("sim.host_ns_per_event_tail", "ns", Lower),
    def("sim.kernel_ns_per_event", "ns", Lower),
    def("sim.kernel_cancel_ns_per_event", "ns", Lower),
    // cg-net
    def("net.msgs_per_job", "count/job", Lower),
    def("net.bytes_per_job", "B/job", Lower),
    def("net.msg_fail_ratio", "ratio", Lower),
    // cg-jdl
    def("jdl.parse_ns_p50", "ns", Lower),
    def("jdl.parse_ns_tail", "ns", Lower),
    def("jdl.analyze_ns_p50", "ns", Lower),
    def("jdl.analyze_ns_tail", "ns", Lower),
    // crossbroker submit
    def("broker.submit_ns_p50", "ns", Lower),
    def("broker.submit_ns_tail", "ns", Lower),
    def("broker.submit_share", "ratio", Lower),
    def("broker.job_fail_ratio", "ratio", Lower),
    // crossbroker matchmaking/policy
    def("match.filter_ns_p50", "ns", Lower),
    def("match.filter_ns_tail", "ns", Lower),
    def("match.filter_ns_per_site", "ns", Lower),
    def("match.filter_share", "ratio", Lower),
    def("match.live_filter_ns", "ns", Lower),
    def("match.select_ns", "ns", Lower),
    def("match.pass_ratio", "ratio", Higher),
    // crossbroker fair-share
    def("fairshare.ticks", "count", Lower),
    def("fairshare.tick_ns", "ns", Lower),
    // cg-site: mds, membership, lrms
    def("mds.refreshes", "count", Lower),
    def("mds.late_merges", "count", Lower),
    def("mds.amnestied", "count", Lower),
    def("mds.refresh_ns", "ns", Lower),
    def("membership.transitions", "count", Lower),
    def("lrms.submits_per_job", "count/job", Lower),
    // crossbroker failure paths, per submitted job
    def("broker.query_retries", "count/job", Lower),
    def("broker.query_timeouts", "count/job", Lower),
    def("broker.degraded_matches", "count/job", Lower),
    def("broker.resubmissions", "count/job", Lower),
    // cg-vm agents
    def("vm.agents_per_job", "count/job", Lower),
    def("vm.agent_deaths", "count", Lower),
    def("vm.slot_preemptions", "count", Lower),
    // cg-trace
    def("trace.events_per_job", "count/job", Lower),
    def("trace.dropped_ratio", "ratio", Lower),
    def("trace.record_ns", "ns", Lower),
    def("trace.record_plain_ns", "ns", Lower),
    def("trace.record_share", "ratio", Lower),
    def("trace.encode_ns", "ns", Lower),
    def("trace.bytes_per_event", "B/event", Lower),
    def("trace.journal_append_ns", "ns", Lower),
    def("trace.journal_bytes_per_job", "B/job", Lower),
    def("trace.invariants_ns_per_event", "ns", Lower),
    // tracing overhead: both bases
    def("overhead.untraced_jobs_per_s", "jobs/s", Higher),
    def("overhead.traced_jobs_per_s", "jobs/s", Higher),
    def("overhead.ratio", "ratio", Lower),
];

/// One benchmark invocation's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Simulated jobs submitted across every pass.
    pub attempted: u64,
    /// Of those, jobs the pipeline lost: still in flight after the drain.
    pub failed: u64,
    /// Metric values, in emission order.
    pub values: Vec<(Def, f64)>,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
    /// Correctness failures, printed before the result line.
    pub failures: Vec<String>,
}

impl Report {
    /// Sets metric `name` from `catalogue`. Panics on an undeclared name
    /// (a bug in the benchmark, caught by its tests).
    pub fn set(&mut self, catalogue: &[Def], name: &str, value: f64) {
        let def = *catalogue
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.values.retain(|(d, _)| d.name != name);
        self.values.push((def, value));
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(d, _)| d.name == name)
            .map(|(_, v)| *v)
    }

    /// Names in `catalogue` that have no value.
    pub fn missing(&self, catalogue: &[Def]) -> Vec<&'static str> {
        catalogue
            .iter()
            .filter(|d| self.get(d.name).is_none())
            .map(|d| d.name)
            .collect()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. Non-finite values (which JSON cannot carry)
    /// are written as 0 and make the report incorrect.
    pub fn to_json(&self) -> String {
        let finite = self.values.iter().all(|(_, v)| v.is_finite());
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && finite,
            self.attempted,
            self.failed
        );
        for (i, (d, v)) in self.values.iter().enumerate() {
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                d.name,
                d.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Def> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{d:?}");
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(
                all[..i].iter().all(|e| e.name != d.name),
                "duplicate {}",
                d.name
            );
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            ..Report::default()
        };
        r.set(END_TO_END, "jobs_per_s", 12.5);
        r.set(END_TO_END, "setup_s", 0.25);
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"jobs_per_s\": {\"value\": 12.5, \"unit\": \"jobs/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        r.set(END_TO_END, "setup_s", f64::NAN);
        assert!(r.to_json().starts_with("{\"correct\": false"));
    }
}
