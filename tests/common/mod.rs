//! Helpers shared by the integration-test binaries.
//!
//! Each binary that declares `mod common;` compiles its own copy and uses
//! a subset of these helpers, hence the file-wide dead-code allowance.
#![allow(dead_code)]

use crossgrid::broker::JobState;
use crossgrid::trace::replay::{Bucket, Phase};

/// The broker job table's coarse disposition bucket (the granularity of
/// [`Phase::bucket`]): terminal-outcome comparison across crashes, shard
/// layouts and thread counts happens here.
pub fn bucket_of(state: &JobState) -> Bucket {
    match state {
        JobState::Done => Bucket::Done,
        JobState::Failed { .. } => Bucket::Errored,
        JobState::Running { .. } => Bucket::Running,
        JobState::BrokerQueued => Bucket::Queued,
        _ => Bucket::Pending,
    }
}

/// The [`Phase`] a live job-table state projects to — used to lift a job
/// table into a [`crossgrid::trace::replay::ReplayState`] so the recovery
/// invariants can compare it against the event stream's fold.
pub fn phase_of(state: &JobState) -> Phase {
    match state {
        JobState::Submitted => Phase::Submitted,
        JobState::Matching => Phase::Matching,
        JobState::Scheduled { .. } => Phase::Dispatched,
        JobState::BrokerQueued => Phase::Queued,
        JobState::Running { .. } => Phase::Running,
        JobState::Done => Phase::Finished,
        JobState::Failed { .. } => Phase::Failed,
    }
}
