//! Compact binary encoding of [`TimedEvent`] for the durable journal.
//!
//! The workspace's `serde` is a no-op offline shim, so — exactly like the
//! JSON rendering in [`crate::event`] — the wire format is written by hand
//! and lives next to the enum: adding an [`Event`] variant without updating
//! the codec fails to compile via the exhaustive matches below.
//!
//! Layout: `at_ns: u64 LE`, `seq: u64 LE`, `tag: u8`, then the variant's
//! fields in declaration order. Scalars are little-endian; booleans are one
//! byte (0/1); `f64` is its IEEE-754 bit pattern; strings are a `u32 LE`
//! byte length followed by UTF-8 bytes.

use crate::event::{Event, TimedEvent};
use cg_sim::SimTime;
use std::fmt;

/// A structural decode failure. Deliberately small and `'static`: the
/// journal wraps it with the file offset for context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended inside a field.
    UnexpectedEof,
    /// An unknown event tag byte.
    BadTag(u8),
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A versioned blob had an unknown version byte.
    BadVersion(u8),
    /// Decoding finished before the end of the buffer.
    TrailingBytes,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "record truncated mid-field"),
            CodecError::BadTag(t) => write!(f, "unknown event tag {t}"),
            CodecError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            CodecError::BadVersion(v) => write!(f, "unknown blob version {v}"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after record"),
        }
    }
}

impl std::error::Error for CodecError {}

// ── primitive writers ───────────────────────────────────────────────────

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, u32::try_from(s.len()).unwrap_or(u32::MAX));
    out.extend_from_slice(s.as_bytes());
}

// ── cursor-based readers ────────────────────────────────────────────────

/// A bounds-checked read cursor over a byte slice.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::UnexpectedEof)?;
        if end > self.buf.len() {
            return Err(CodecError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.u8()? != 0)
    }

    pub(crate) fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn str(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }
}

// ── event codec ─────────────────────────────────────────────────────────

/// Appends the binary encoding of `ev` to `out`.
pub fn encode_event(ev: &TimedEvent, out: &mut Vec<u8>) {
    put_u64(out, ev.at.as_nanos());
    put_u64(out, ev.seq);
    match &ev.event {
        Event::JobSubmitted {
            job,
            user,
            interactive,
        } => {
            put_u8(out, 0);
            put_u64(out, *job);
            put_str(out, user);
            put_bool(out, *interactive);
        }
        Event::JobAd {
            job,
            jdl,
            runtime_ns,
        } => {
            put_u8(out, 1);
            put_u64(out, *job);
            put_str(out, jdl);
            put_u64(out, *runtime_ns);
        }
        Event::JobQueued { job } => {
            put_u8(out, 2);
            put_u64(out, *job);
        }
        Event::QueueRetry { job } => {
            put_u8(out, 3);
            put_u64(out, *job);
        }
        Event::LeaseGranted {
            job,
            target,
            until_ns,
        } => {
            put_u8(out, 4);
            put_u64(out, *job);
            put_str(out, target);
            put_u64(out, *until_ns);
        }
        Event::JobDispatched { job, target } => {
            put_u8(out, 5);
            put_u64(out, *job);
            put_str(out, target);
        }
        Event::JobStarted { job } => {
            put_u8(out, 6);
            put_u64(out, *job);
        }
        Event::JobResubmitted { job, attempt } => {
            put_u8(out, 7);
            put_u64(out, *job);
            put_u32(out, *attempt);
        }
        Event::JobBackoff {
            job,
            attempt,
            delay_ns,
        } => {
            put_u8(out, 8);
            put_u64(out, *job);
            put_u32(out, *attempt);
            put_u64(out, *delay_ns);
        }
        Event::JobFinished { job } => {
            put_u8(out, 9);
            put_u64(out, *job);
        }
        Event::JobFailed { job, reason } => {
            put_u8(out, 10);
            put_u64(out, *job);
            put_str(out, reason);
        }
        Event::JobCancelled { job } => {
            put_u8(out, 11);
            put_u64(out, *job);
        }
        Event::JdlDiagnostic {
            job,
            severity,
            code,
            message,
        } => {
            put_u8(out, 12);
            put_u64(out, *job);
            put_str(out, severity);
            put_str(out, code);
            put_str(out, message);
        }
        Event::JdlRejected { job, errors } => {
            put_u8(out, 13);
            put_u64(out, *job);
            put_u32(out, *errors);
        }
        Event::FairShareTick { usages } => {
            put_u8(out, 14);
            put_u32(out, *usages);
        }
        Event::PriorityChanged { usage, kind } => {
            put_u8(out, 15);
            put_u64(out, *usage);
            put_str(out, kind);
        }
        Event::AgentDeployed { agent, site } => {
            put_u8(out, 16);
            put_u64(out, *agent);
            put_str(out, site);
        }
        Event::AgentReady { agent } => {
            put_u8(out, 17);
            put_u64(out, *agent);
        }
        Event::AgentDied {
            agent,
            reason,
            voluntary,
        } => {
            put_u8(out, 18);
            put_u64(out, *agent);
            put_str(out, reason);
            put_bool(out, *voluntary);
        }
        Event::AgentBatchFinished { agent } => {
            put_u8(out, 19);
            put_u64(out, *agent);
        }
        Event::BatchYielded {
            agent,
            job,
            performance_loss,
        } => {
            put_u8(out, 20);
            put_u64(out, *agent);
            put_u64(out, *job);
            put_u32(out, *performance_loss);
        }
        Event::BatchRestored { agent, job } => {
            put_u8(out, 21);
            put_u64(out, *agent);
            put_u64(out, *job);
        }
        Event::SlotStarted {
            machine,
            interactive,
        } => {
            put_u8(out, 22);
            put_str(out, machine);
            put_bool(out, *interactive);
        }
        Event::SlotPreempted {
            machine,
            batch_rate_pct,
        } => {
            put_u8(out, 23);
            put_str(out, machine);
            put_u32(out, *batch_rate_pct);
        }
        Event::SlotRestored { machine } => {
            put_u8(out, 24);
            put_str(out, machine);
        }
        Event::SlotFinished {
            machine,
            interactive,
        } => {
            put_u8(out, 25);
            put_str(out, machine);
            put_bool(out, *interactive);
        }
        Event::ConsoleConnected { job } => {
            put_u8(out, 26);
            put_u64(out, *job);
        }
        Event::ConsoleRetry { job, attempt } => {
            put_u8(out, 27);
            put_u64(out, *job);
            put_u32(out, *attempt);
        }
        Event::ConsoleReady { job } => {
            put_u8(out, 28);
            put_u64(out, *job);
        }
        Event::SpoolAppend { stream, seq } => {
            put_u8(out, 29);
            put_str(out, stream);
            put_u64(out, *seq);
        }
        Event::SpoolAck { stream, seq } => {
            put_u8(out, 30);
            put_str(out, stream);
            put_u64(out, *seq);
        }
        Event::SpoolReplay {
            stream,
            after,
            records,
        } => {
            put_u8(out, 31);
            put_str(out, stream);
            put_u64(out, *after);
            put_u32(out, *records);
        }
        Event::BufferFlush {
            stream,
            reason,
            bytes,
        } => {
            put_u8(out, 32);
            put_str(out, stream);
            put_str(out, reason);
            put_u64(out, *bytes);
        }
        Event::ShadowConnected { rank } => {
            put_u8(out, 33);
            put_u32(out, *rank);
        }
        Event::ShadowDisconnected { rank } => {
            put_u8(out, 34);
            put_u32(out, *rank);
        }
        Event::LrmsQueued { site, job } => {
            put_u8(out, 35);
            put_str(out, site);
            put_u64(out, *job);
        }
        Event::LrmsStarted { site, job, nodes } => {
            put_u8(out, 36);
            put_str(out, site);
            put_u64(out, *job);
            put_u32(out, *nodes);
        }
        Event::LrmsFinished { site, job } => {
            put_u8(out, 37);
            put_str(out, site);
            put_u64(out, *job);
        }
        Event::LrmsKilled { site, job, reason } => {
            put_u8(out, 38);
            put_str(out, site);
            put_u64(out, *job);
            put_str(out, reason);
        }
        Event::DispositionEvicted { site, job } => {
            put_u8(out, 51);
            put_str(out, site);
            put_u64(out, *job);
        }
        Event::BrokerRecovered {
            jobs,
            requeued,
            resubmitted,
            agents_lost,
        } => {
            put_u8(out, 39);
            put_u64(out, *jobs);
            put_u64(out, *requeued);
            put_u64(out, *resubmitted);
            put_u64(out, *agents_lost);
        }
        Event::Measurement { name, value } => {
            put_u8(out, 40);
            put_str(out, name);
            put_f64(out, *value);
        }
        Event::RankNanDiscarded { job, site } => {
            put_u8(out, 41);
            put_u64(out, *job);
            put_str(out, site);
        }
        Event::PolicyDecision {
            job,
            policy,
            site,
            score,
        } => {
            put_u8(out, 42);
            put_u64(out, *job);
            put_str(out, policy);
            put_str(out, site);
            put_f64(out, *score);
        }
        Event::SiteSuspect {
            site,
            missed_refreshes,
            failed_queries,
        } => {
            put_u8(out, 43);
            put_str(out, site);
            put_u32(out, *missed_refreshes);
            put_u32(out, *failed_queries);
        }
        Event::SiteDead { site, in_flight } => {
            put_u8(out, 44);
            put_str(out, site);
            put_u32(out, *in_flight);
        }
        Event::SiteRejoin { site, down_ns } => {
            put_u8(out, 45);
            put_str(out, site);
            put_u64(out, *down_ns);
        }
        Event::LiveQueryTimeout { job, site, attempt } => {
            put_u8(out, 46);
            put_u64(out, *job);
            put_str(out, site);
            put_u32(out, *attempt);
        }
        Event::QueryRetry {
            job,
            site,
            attempt,
            delay_ns,
        } => {
            put_u8(out, 47);
            put_u64(out, *job);
            put_str(out, site);
            put_u32(out, *attempt);
            put_u64(out, *delay_ns);
        }
        Event::DegradedMatch { job, staleness_ns } => {
            put_u8(out, 48);
            put_u64(out, *job);
            put_u64(out, *staleness_ns);
        }
        Event::GiisDelta {
            leaf,
            epoch,
            changed,
        } => {
            put_u8(out, 49);
            put_u32(out, *leaf);
            put_u64(out, *epoch);
            put_u32(out, *changed);
        }
        Event::RefreshSweep {
            refreshed,
            missed,
            amnestied,
            late_merges,
        } => {
            put_u8(out, 50);
            put_u32(out, *refreshed);
            put_u32(out, *missed);
            put_u32(out, *amnestied);
            put_u32(out, *late_merges);
        }
    }
}

/// Decodes one [`TimedEvent`] from an exact-length buffer.
///
/// # Errors
/// Returns a [`CodecError`] when the buffer is truncated, carries an unknown
/// tag, holds invalid UTF-8, or has bytes left over after the event.
pub fn decode_event(buf: &[u8]) -> Result<TimedEvent, CodecError> {
    let mut c = Cursor::new(buf);
    let at = SimTime::from_nanos(c.u64()?);
    let seq = c.u64()?;
    let tag = c.u8()?;
    let event = match tag {
        0 => Event::JobSubmitted {
            job: c.u64()?,
            user: c.str()?,
            interactive: c.bool()?,
        },
        1 => Event::JobAd {
            job: c.u64()?,
            jdl: c.str()?,
            runtime_ns: c.u64()?,
        },
        2 => Event::JobQueued { job: c.u64()? },
        3 => Event::QueueRetry { job: c.u64()? },
        4 => Event::LeaseGranted {
            job: c.u64()?,
            target: c.str()?,
            until_ns: c.u64()?,
        },
        5 => Event::JobDispatched {
            job: c.u64()?,
            target: c.str()?,
        },
        6 => Event::JobStarted { job: c.u64()? },
        7 => Event::JobResubmitted {
            job: c.u64()?,
            attempt: c.u32()?,
        },
        8 => Event::JobBackoff {
            job: c.u64()?,
            attempt: c.u32()?,
            delay_ns: c.u64()?,
        },
        9 => Event::JobFinished { job: c.u64()? },
        10 => Event::JobFailed {
            job: c.u64()?,
            reason: c.str()?,
        },
        11 => Event::JobCancelled { job: c.u64()? },
        12 => Event::JdlDiagnostic {
            job: c.u64()?,
            severity: c.str()?,
            code: c.str()?,
            message: c.str()?,
        },
        13 => Event::JdlRejected {
            job: c.u64()?,
            errors: c.u32()?,
        },
        14 => Event::FairShareTick { usages: c.u32()? },
        15 => Event::PriorityChanged {
            usage: c.u64()?,
            kind: c.str()?,
        },
        16 => Event::AgentDeployed {
            agent: c.u64()?,
            site: c.str()?,
        },
        17 => Event::AgentReady { agent: c.u64()? },
        18 => Event::AgentDied {
            agent: c.u64()?,
            reason: c.str()?,
            voluntary: c.bool()?,
        },
        19 => Event::AgentBatchFinished { agent: c.u64()? },
        20 => Event::BatchYielded {
            agent: c.u64()?,
            job: c.u64()?,
            performance_loss: c.u32()?,
        },
        21 => Event::BatchRestored {
            agent: c.u64()?,
            job: c.u64()?,
        },
        22 => Event::SlotStarted {
            machine: c.str()?,
            interactive: c.bool()?,
        },
        23 => Event::SlotPreempted {
            machine: c.str()?,
            batch_rate_pct: c.u32()?,
        },
        24 => Event::SlotRestored { machine: c.str()? },
        25 => Event::SlotFinished {
            machine: c.str()?,
            interactive: c.bool()?,
        },
        26 => Event::ConsoleConnected { job: c.u64()? },
        27 => Event::ConsoleRetry {
            job: c.u64()?,
            attempt: c.u32()?,
        },
        28 => Event::ConsoleReady { job: c.u64()? },
        29 => Event::SpoolAppend {
            stream: c.str()?,
            seq: c.u64()?,
        },
        30 => Event::SpoolAck {
            stream: c.str()?,
            seq: c.u64()?,
        },
        31 => Event::SpoolReplay {
            stream: c.str()?,
            after: c.u64()?,
            records: c.u32()?,
        },
        32 => Event::BufferFlush {
            stream: c.str()?,
            reason: c.str()?,
            bytes: c.u64()?,
        },
        33 => Event::ShadowConnected { rank: c.u32()? },
        34 => Event::ShadowDisconnected { rank: c.u32()? },
        35 => Event::LrmsQueued {
            site: c.str()?,
            job: c.u64()?,
        },
        36 => Event::LrmsStarted {
            site: c.str()?,
            job: c.u64()?,
            nodes: c.u32()?,
        },
        37 => Event::LrmsFinished {
            site: c.str()?,
            job: c.u64()?,
        },
        38 => Event::LrmsKilled {
            site: c.str()?,
            job: c.u64()?,
            reason: c.str()?,
        },
        51 => Event::DispositionEvicted {
            site: c.str()?,
            job: c.u64()?,
        },
        39 => Event::BrokerRecovered {
            jobs: c.u64()?,
            requeued: c.u64()?,
            resubmitted: c.u64()?,
            agents_lost: c.u64()?,
        },
        40 => Event::Measurement {
            name: c.str()?,
            value: c.f64()?,
        },
        41 => Event::RankNanDiscarded {
            job: c.u64()?,
            site: c.str()?,
        },
        42 => Event::PolicyDecision {
            job: c.u64()?,
            policy: c.str()?,
            site: c.str()?,
            score: c.f64()?,
        },
        43 => Event::SiteSuspect {
            site: c.str()?,
            missed_refreshes: c.u32()?,
            failed_queries: c.u32()?,
        },
        44 => Event::SiteDead {
            site: c.str()?,
            in_flight: c.u32()?,
        },
        45 => Event::SiteRejoin {
            site: c.str()?,
            down_ns: c.u64()?,
        },
        46 => Event::LiveQueryTimeout {
            job: c.u64()?,
            site: c.str()?,
            attempt: c.u32()?,
        },
        47 => Event::QueryRetry {
            job: c.u64()?,
            site: c.str()?,
            attempt: c.u32()?,
            delay_ns: c.u64()?,
        },
        48 => Event::DegradedMatch {
            job: c.u64()?,
            staleness_ns: c.u64()?,
        },
        49 => Event::GiisDelta {
            leaf: c.u32()?,
            epoch: c.u64()?,
            changed: c.u32()?,
        },
        50 => Event::RefreshSweep {
            refreshed: c.u32()?,
            missed: c.u32()?,
            amnestied: c.u32()?,
            late_merges: c.u32()?,
        },
        other => return Err(CodecError::BadTag(other)),
    };
    if !c.is_empty() {
        return Err(CodecError::TrailingBytes);
    }
    Ok(TimedEvent { at, seq, event })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::JobSubmitted {
                job: 7,
                user: "alice".into(),
                interactive: true,
            },
            Event::JobAd {
                job: 7,
                jdl: "[\n  Executable = \"i\";\n]".into(),
                runtime_ns: 60_000_000_000,
            },
            Event::JobQueued { job: 1 },
            Event::QueueRetry { job: 1 },
            Event::LeaseGranted {
                job: 7,
                target: "site:cesga".into(),
                until_ns: 99,
            },
            Event::JobDispatched {
                job: 7,
                target: "agent:3".into(),
            },
            Event::JobStarted { job: 7 },
            Event::JobResubmitted { job: 7, attempt: 2 },
            Event::JobBackoff {
                job: 7,
                attempt: 2,
                delay_ns: 4_000_000_000,
            },
            Event::JobFinished { job: 7 },
            Event::JobFailed {
                job: 8,
                reason: "lost \"quotes\" and\nnewlines".into(),
            },
            Event::JobCancelled { job: 9 },
            Event::JdlDiagnostic {
                job: 2,
                severity: "error".into(),
                code: "E101".into(),
                message: "boom".into(),
            },
            Event::JdlRejected { job: 2, errors: 3 },
            Event::FairShareTick { usages: 4 },
            Event::PriorityChanged {
                usage: 1,
                kind: "interactive".into(),
            },
            Event::AgentDeployed {
                agent: 3,
                site: "cesga".into(),
            },
            Event::AgentReady { agent: 3 },
            Event::AgentDied {
                agent: 3,
                reason: "maintenance".into(),
                voluntary: false,
            },
            Event::AgentBatchFinished { agent: 3 },
            Event::BatchYielded {
                agent: 3,
                job: 7,
                performance_loss: 10,
            },
            Event::BatchRestored { agent: 3, job: 7 },
            Event::SlotStarted {
                machine: "cesga/0".into(),
                interactive: false,
            },
            Event::SlotPreempted {
                machine: "cesga/0".into(),
                batch_rate_pct: 90,
            },
            Event::SlotRestored {
                machine: "cesga/0".into(),
            },
            Event::SlotFinished {
                machine: "cesga/0".into(),
                interactive: true,
            },
            Event::ConsoleConnected { job: 7 },
            Event::ConsoleRetry { job: 7, attempt: 1 },
            Event::ConsoleReady { job: 7 },
            Event::SpoolAppend {
                stream: "stdout".into(),
                seq: 12,
            },
            Event::SpoolAck {
                stream: "stdout".into(),
                seq: 12,
            },
            Event::SpoolReplay {
                stream: "stdout".into(),
                after: 4,
                records: 8,
            },
            Event::BufferFlush {
                stream: "stdout".into(),
                reason: "timeout".into(),
                bytes: 512,
            },
            Event::ShadowConnected { rank: 0 },
            Event::ShadowDisconnected { rank: 0 },
            Event::LrmsQueued {
                site: "cesga".into(),
                job: 0,
            },
            Event::LrmsStarted {
                site: "cesga".into(),
                job: 0,
                nodes: 2,
            },
            Event::LrmsFinished {
                site: "cesga".into(),
                job: 0,
            },
            Event::LrmsKilled {
                site: "cesga".into(),
                job: 0,
                reason: "walltime".into(),
            },
            Event::DispositionEvicted {
                site: "cesga".into(),
                job: 0,
            },
            Event::BrokerRecovered {
                jobs: 5,
                requeued: 1,
                resubmitted: 2,
                agents_lost: 1,
            },
            Event::Measurement {
                name: "table1/response_s".into(),
                value: 1.25,
            },
            Event::RankNanDiscarded {
                job: 7,
                site: "cesga".into(),
            },
            Event::PolicyDecision {
                job: 8,
                policy: "queue-forecast".into(),
                site: "ifca".into(),
                score: 5.75,
            },
            Event::SiteSuspect {
                site: "cesga".into(),
                missed_refreshes: 2,
                failed_queries: 1,
            },
            Event::SiteDead {
                site: "cesga".into(),
                in_flight: 3,
            },
            Event::SiteRejoin {
                site: "cesga".into(),
                down_ns: 600_000_000_000,
            },
            Event::LiveQueryTimeout {
                job: 7,
                site: "cesga".into(),
                attempt: 1,
            },
            Event::QueryRetry {
                job: 7,
                site: "cesga".into(),
                attempt: 2,
                delay_ns: 2_000_000_000,
            },
            Event::DegradedMatch {
                job: 7,
                staleness_ns: 180_000_000_000,
            },
            Event::GiisDelta {
                leaf: 3,
                epoch: 17,
                changed: 4,
            },
            Event::RefreshSweep {
                refreshed: 28,
                missed: 2,
                amnestied: 1,
                late_merges: 1,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for (i, event) in sample_events().into_iter().enumerate() {
            let te = TimedEvent {
                at: SimTime::from_nanos(1_000 + i as u64),
                seq: i as u64,
                event,
            };
            let mut buf = Vec::new();
            encode_event(&te, &mut buf);
            let back = decode_event(&buf).unwrap_or_else(|e| panic!("{}: {e}", te.event.kind()));
            assert_eq!(back, te, "{} must round-trip", te.event.kind());
        }
    }

    #[test]
    fn truncation_is_a_typed_error_at_every_length() {
        let te = TimedEvent {
            at: SimTime::from_secs(1),
            seq: 3,
            event: Event::JobFailed {
                job: 8,
                reason: "agent died".into(),
            },
        };
        let mut buf = Vec::new();
        encode_event(&te, &mut buf);
        for cut in 0..buf.len() {
            assert!(
                decode_event(&buf[..cut]).is_err(),
                "decoding a {cut}-byte prefix must fail, not panic"
            );
        }
    }

    #[test]
    fn bad_tag_and_trailing_bytes_are_rejected() {
        let te = TimedEvent {
            at: SimTime::ZERO,
            seq: 0,
            event: Event::JobStarted { job: 1 },
        };
        let mut buf = Vec::new();
        encode_event(&te, &mut buf);
        let mut bad_tag = buf.clone();
        bad_tag[16] = 0xfe;
        assert_eq!(decode_event(&bad_tag), Err(CodecError::BadTag(0xfe)));
        let mut trailing = buf;
        trailing.push(0);
        assert_eq!(decode_event(&trailing), Err(CodecError::TrailingBytes));
    }

    #[test]
    fn dispatch_record_with_a_retired_trailing_field_is_rejected() {
        // Older journals appended an execution-backend label to every
        // `JobDispatched` record; such a record must fail loudly rather
        // than be misread.
        let te = TimedEvent {
            at: SimTime::ZERO,
            seq: 0,
            event: Event::JobDispatched {
                job: 1,
                target: "site:a".into(),
            },
        };
        let mut buf = Vec::new();
        encode_event(&te, &mut buf);
        put_str(&mut buf, "sim-lrms");
        assert_eq!(decode_event(&buf), Err(CodecError::TrailingBytes));
    }
}
