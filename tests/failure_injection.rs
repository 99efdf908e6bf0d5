//! Failure-injection integration tests: dead links, mid-pipeline outages,
//! agent death, and an information-system blackout.

use crossgrid::jdl::JobDescription;
use crossgrid::net::{FaultSchedule, Link, LinkProfile};
use crossgrid::prelude::*;
use crossgrid::site::{LocalJobId, Policy, SiteConfig};

fn one_site_broker(
    sim: &mut Sim,
    site_faults: FaultSchedule,
    mds_faults: FaultSchedule,
) -> (CrossBroker, Site) {
    let site = Site::new(SiteConfig {
        name: "only".into(),
        nodes: 2,
        policy: Policy::Fifo,
        ..SiteConfig::default()
    });
    let handles = vec![SiteHandle {
        site: site.clone(),
        broker_link: Link::with_faults(LinkProfile::campus(), site_faults.clone()),
        ui_link: Link::with_faults(LinkProfile::campus(), site_faults),
    }];
    let broker = CrossBroker::new(
        sim,
        handles,
        Link::with_faults(LinkProfile::wan_mds(), mds_faults),
        BrokerConfig::default(),
    );
    (broker, site)
}

fn exclusive_job() -> JobDescription {
    JobDescription::parse(
        r#"Executable = "i"; JobType = "interactive"; MachineAccess = "exclusive"; User = "u";"#,
    )
    .unwrap()
}

#[test]
fn mds_blackout_degrades_to_the_last_snapshot_while_fresh() {
    use crossgrid::trace::Event;

    let mut sim = Sim::new(1);
    let blackout = FaultSchedule::from_windows(vec![(SimTime::ZERO, SimTime::from_secs(3_600))]);
    let (broker, _) = one_site_broker(&mut sim, FaultSchedule::none(), blackout);
    let id = broker.submit(&mut sim, exclusive_job(), SimDuration::from_secs(60));
    sim.run_until(SimTime::from_secs(600));
    // The broker's own snapshot is fresh, so matchmaking degrades to it
    // instead of failing the job: the site link is healthy and the job
    // completes on stale-but-bounded information.
    assert!(
        matches!(broker.record(id).state, JobState::Done),
        "degraded match must carry the job: {:?}",
        broker.record(id).state
    );
    let events = broker.event_log().snapshot();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, Event::DegradedMatch { job, .. } if job == id.0)),
        "the fallback must be announced in the trace"
    );
}

#[test]
fn mds_blackout_beyond_the_staleness_bound_fails_cleanly() {
    let mut sim = Sim::new(1);
    let blackout = FaultSchedule::from_windows(vec![(SimTime::ZERO, SimTime::from_secs(3_600))]);
    let site = Site::new(SiteConfig {
        name: "only".into(),
        nodes: 2,
        policy: Policy::Fifo,
        ..SiteConfig::default()
    });
    let handles = vec![SiteHandle {
        site: site.clone(),
        broker_link: Link::new(LinkProfile::campus()),
        ui_link: Link::new(LinkProfile::campus()),
    }];
    // A snapshot older than the trust bound is no basis for matchmaking.
    let broker = CrossBroker::new(
        &mut sim,
        handles,
        Link::with_faults(LinkProfile::wan_mds(), blackout),
        BrokerConfig {
            degraded_max_staleness: SimDuration::from_secs(50),
            ..BrokerConfig::default()
        },
    );
    let broker2 = broker.clone();
    let id = std::rc::Rc::new(std::cell::RefCell::new(None));
    let id2 = std::rc::Rc::clone(&id);
    // Submit at t=100: the initial snapshot (t=0) is 100 s old, past the
    // 50 s bound, and the next index refresh has not happened yet.
    sim.schedule_at(SimTime::from_secs(100), move |sim| {
        *id2.borrow_mut() = Some(broker2.submit(sim, exclusive_job(), SimDuration::from_secs(60)));
    });
    sim.run_until(SimTime::from_secs(250));
    let id = id.borrow().unwrap();
    match broker.record(id).state {
        JobState::Failed { reason } => assert!(
            reason.contains("information system"),
            "wrong failure: {reason}"
        ),
        other => panic!("expected failure, got {other:?}"),
    }
    assert_eq!(broker.stats().failed, 1);
}

#[test]
fn site_link_outage_during_submission_fails_the_job() {
    let mut sim = Sim::new(2);
    // The site link dies 2 s in — during the GRAM pipeline — and stays dead.
    let outage =
        FaultSchedule::from_windows(vec![(SimTime::from_secs(2), SimTime::from_secs(10_000))]);
    let (broker, _) = one_site_broker(&mut sim, outage, FaultSchedule::none());
    let id = broker.submit(&mut sim, exclusive_job(), SimDuration::from_secs(60));
    sim.run_until(SimTime::from_secs(2_000));
    assert!(
        matches!(broker.record(id).state, JobState::Failed { .. }),
        "{:?}",
        broker.record(id).state
    );
}

#[test]
fn transient_outage_before_submission_does_not_break_later_jobs() {
    let mut sim = Sim::new(3);
    // Outage covers t=0–60 s; a job submitted at t=120 must work normally.
    let outage = FaultSchedule::from_windows(vec![(SimTime::ZERO, SimTime::from_secs(60))]);
    let (broker, _) = one_site_broker(&mut sim, outage, FaultSchedule::none());
    let early = broker.submit(&mut sim, exclusive_job(), SimDuration::from_secs(30));
    sim.run_until(SimTime::from_secs(120));
    let broker2 = broker.clone();
    let late_id = std::rc::Rc::new(std::cell::RefCell::new(None));
    let late_id2 = std::rc::Rc::clone(&late_id);
    sim.schedule_now(move |sim| {
        *late_id2.borrow_mut() =
            Some(broker2.submit(sim, exclusive_job(), SimDuration::from_secs(30)));
    });
    sim.run_until(SimTime::from_secs(2_000));
    let late = late_id.borrow().unwrap();
    assert!(
        matches!(broker.record(late).state, JobState::Done),
        "late job must succeed: {:?}",
        broker.record(late).state
    );
    // The early one failed (its pipeline hit the outage) — but cleanly.
    assert!(matches!(
        broker.record(early).state,
        JobState::Failed { .. } | JobState::Done
    ));
}

#[test]
fn agent_killed_by_site_is_removed_from_the_pool() {
    let mut sim = Sim::new(4);
    let (broker, site) = one_site_broker(&mut sim, FaultSchedule::none(), FaultSchedule::none());
    broker.predeploy_agent(&mut sim, 0, |_, ok| assert!(ok));
    sim.run_until(SimTime::from_secs(300));
    assert_eq!(broker.agent_count(), 1);
    assert_eq!(broker.free_interactive_slots(), 1);

    // The site drains the agent's carrier job (id 0: first submitted).
    let killed_at = sim.now();
    assert!(site.lrms().kill(&mut sim, LocalJobId(0), "maintenance"));
    sim.run_until(killed_at + SimDuration::from_secs(10));
    assert_eq!(broker.agent_count(), 0, "dead agent pruned immediately");
    assert_eq!(broker.free_interactive_slots(), 0);

    // §5.2: "new agents will be submitted when possible" — the broker
    // proactively redeploys a replacement after its redeploy delay.
    sim.run_until(killed_at + SimDuration::from_secs(300));
    assert_eq!(broker.agent_count(), 1, "replacement agent redeployed");
    assert!(broker.stats().agents_deployed >= 2);

    // A shared job arriving now uses the replacement directly.
    let shared = JobDescription::parse(
        r#"Executable = "i"; JobType = "interactive"; MachineAccess = "shared";
           PerformanceLoss = 10; User = "u";"#,
    )
    .unwrap();
    let id = broker.submit(&mut sim, shared, SimDuration::from_secs(30));
    sim.run_until(killed_at + SimDuration::from_secs(1_200));
    assert!(
        matches!(broker.record(id).state, JobState::Done),
        "{:?}",
        broker.record(id).state
    );
}

#[test]
fn agent_redeploy_breaker_stops_crash_loops() {
    let mut sim = Sim::new(6);
    let (broker, site) = one_site_broker(&mut sim, FaultSchedule::none(), FaultSchedule::none());
    broker.predeploy_agent(&mut sim, 0, |_, ok| assert!(ok));
    sim.run_until(SimTime::from_secs(300));

    // A hostile site keeps killing whatever glide-in lands on it.
    let lrms = site.lrms().clone();
    fn killer(sim: &mut Sim, lrms: crossgrid::site::Lrms, next_id: u64) {
        sim.schedule_in(SimDuration::from_secs(60), move |sim| {
            // Kill any running carrier (ids increase with each redeploy).
            for id in 0..=next_id {
                lrms.kill(sim, LocalJobId(id), "hostile site");
            }
            if next_id < 40 {
                killer(sim, lrms, next_id + 1);
            }
        });
    }
    killer(&mut sim, lrms, 0);
    sim.run_until(SimTime::from_secs(20_000));
    // The breaker (budget 3) stops the loop: deployments are bounded, not 40.
    let deployed = broker.stats().agents_deployed;
    assert!(
        (2..=6).contains(&deployed),
        "redeploy breaker must bound deployments, got {deployed}"
    );
    assert_eq!(broker.agent_count(), 0);
}

#[test]
fn reliable_streaming_model_survives_what_fast_loses() {
    // The §4 contrast at the model level: same outage, both modes.
    use crossgrid::console::{reliable_deliver, ReliableOutcome, RetryPolicy};
    use crossgrid::net::Dir;

    let outage = FaultSchedule::from_windows(vec![(SimTime::from_nanos(1), SimTime::from_secs(8))]);

    // Fast mode: a plain send during the outage is simply lost.
    let mut sim = Sim::new(5);
    let link = Link::with_faults(LinkProfile::campus(), outage.clone());
    let fast_result = std::rc::Rc::new(std::cell::RefCell::new(None));
    {
        let r = std::rc::Rc::clone(&fast_result);
        sim.schedule_at(SimTime::from_secs(1), move |sim| {
            let link2 = link.clone();
            link2.send(sim, Dir::AToB, 1_000, move |_, res| {
                *r.borrow_mut() = Some(res.is_err());
            });
        });
    }
    sim.run();
    assert_eq!(
        *fast_result.borrow(),
        Some(true),
        "fast mode loses the data"
    );

    // Reliable mode: spooled and retried until the link returns.
    let mut sim = Sim::new(5);
    let link = Link::with_faults(LinkProfile::campus(), outage);
    let outcome = std::rc::Rc::new(std::cell::RefCell::new(None));
    {
        let o = std::rc::Rc::clone(&outcome);
        sim.schedule_at(SimTime::from_secs(1), move |sim| {
            reliable_deliver(
                sim,
                link.clone(),
                Dir::AToB,
                1_000,
                RetryPolicy {
                    interval: SimDuration::from_secs(2),
                    max_retries: 30,
                },
                move |_, out| *o.borrow_mut() = Some(out),
            );
        });
    }
    sim.run();
    let got = outcome.borrow().unwrap();
    match got {
        ReliableOutcome::Delivered { retries } => assert!(retries >= 1),
        ReliableOutcome::Aborted => panic!("reliable mode must deliver, got Aborted"),
    }
}

#[test]
fn agent_death_during_dispatch_resubmits_with_backoff() {
    use crossgrid::trace::Event;

    let mut sim = Sim::new(11);
    let (broker, site) = one_site_broker(&mut sim, FaultSchedule::none(), FaultSchedule::none());
    broker.predeploy_agent(&mut sim, 0, |_, ok| assert!(ok));
    sim.run_until(SimTime::from_secs(300));
    assert_eq!(broker.agent_count(), 1);

    // Submit a shared job, then kill the agent's carrier inside the ~3.9 s
    // delegation window — the sandbox arrives at a dead agent. The broker
    // must treat that as a race (resubmit with backoff), not a job failure.
    let submitted_at = sim.now();
    let shared = JobDescription::parse(
        r#"Executable = "i"; JobType = "interactive"; MachineAccess = "shared";
           PerformanceLoss = 10; User = "u";"#,
    )
    .unwrap();
    let id = broker.submit(&mut sim, shared, SimDuration::from_secs(30));
    let lrms = site.lrms().clone();
    sim.schedule_at(submitted_at + SimDuration::from_millis(500), move |sim| {
        assert!(lrms.kill(sim, LocalJobId(0), "drained mid-dispatch"));
    });
    sim.run_until(submitted_at + SimDuration::from_secs(1_800));

    assert!(
        matches!(broker.record(id).state, JobState::Done),
        "job must survive the dispatch race: {:?}",
        broker.record(id).state
    );
    assert!(
        broker.stats().resubmissions >= 1,
        "death during dispatch must go through resubmission"
    );

    let events = broker.event_log().snapshot();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, Event::JobBackoff { job, .. } if job == id.0)),
        "resubmission must be paced by a JobBackoff event"
    );
    let violations = check_invariants(&events);
    assert!(violations.is_empty(), "{violations:?}");
}
