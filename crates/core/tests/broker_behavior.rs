//! End-to-end behavioural tests of CrossBroker on simulated grids.

use std::cell::RefCell;
use std::rc::Rc;

use cg_jdl::JobDescription;
use cg_net::{Link, LinkProfile};
use cg_sim::{Sim, SimDuration, SimTime};
use cg_site::{LocalJobSpec, Policy, Site, SiteConfig};
use crossbroker::{BrokerConfig, CrossBroker, JobState, SiteHandle};

/// Builds a broker over `n_sites` campus sites with `nodes` WNs each.
fn grid(sim: &mut Sim, n_sites: usize, nodes: usize) -> (CrossBroker, Vec<Site>) {
    let mut handles = Vec::new();
    let mut sites = Vec::new();
    for i in 0..n_sites {
        let site = Site::new(SiteConfig {
            name: format!("site{i}"),
            nodes,
            policy: Policy::Fifo,
            tags: vec!["CROSSGRID".into()],
            ..SiteConfig::default()
        });
        sites.push(site.clone());
        handles.push(SiteHandle {
            site,
            broker_link: Link::new(LinkProfile::campus()),
            ui_link: Link::new(LinkProfile::campus()),
        });
    }
    let mds = Link::new(LinkProfile::wan_mds());
    let broker = CrossBroker::new(sim, handles, mds, BrokerConfig::default());
    (broker, sites)
}

fn job(src: &str) -> JobDescription {
    JobDescription::parse(src).unwrap()
}

const EXCLUSIVE: &str = r#"
    Executable = "iapp"; JobType = "interactive";
    MachineAccess = "exclusive"; User = "alice";
"#;
const SHARED: &str = r#"
    Executable = "iapp"; JobType = "interactive";
    MachineAccess = "shared"; PerformanceLoss = 10; User = "alice";
"#;
const BATCH: &str = r#"
    Executable = "bapp"; JobType = "batch"; User = "bob";
"#;

#[test]
fn exclusive_interactive_starts_with_full_pipeline() {
    let mut sim = Sim::new(1);
    let (broker, _) = grid(&mut sim, 5, 4);
    let id = broker.submit(&mut sim, job(EXCLUSIVE), SimDuration::from_secs(120));
    sim.run_until(SimTime::from_secs(600));
    let r = broker.record(id);
    assert!(matches!(r.state, JobState::Done), "{:?}", r.state);
    // All pipeline phases measured.
    let disc = r.discovery_s().expect("discovery ran");
    let sel = r.selection_s().expect("selection ran");
    let sub = r.submission_s().expect("submission ran");
    assert!((0.1..1.5).contains(&disc), "discovery {disc}s (paper ≈0.5)");
    assert!((0.3..3.0).contains(&sel), "selection {sel}s for 5 sites");
    assert!(
        (5.0..30.0).contains(&sub),
        "Globus-path submission {sub}s (paper ≈17)"
    );
}

#[test]
fn shared_submission_with_agent_is_much_faster() {
    let mut sim = Sim::new(2);
    let (broker, _) = grid(&mut sim, 3, 4);
    // Warm the pool: first shared job deploys an agent (slow path)…
    let warm = broker.submit(&mut sim, job(SHARED), SimDuration::from_secs(30));
    sim.run_until(SimTime::from_secs(300));
    assert!(matches!(broker.record(warm).state, JobState::Done));
    assert_eq!(broker.agent_count(), 1, "agent stays in the pool");

    // …the second lands on the live agent directly.
    let fast = broker.submit(&mut sim, job(SHARED), SimDuration::from_secs(30));
    sim.run_until(SimTime::from_secs(600));
    let r = broker.record(fast);
    assert!(matches!(r.state, JobState::Done), "{:?}", r.state);
    let response = r.response_s().unwrap();
    assert!(
        response < 10.0,
        "shared-VM response {response}s must beat the Globus path (paper 6.79)"
    );
    // And the first job's path (deploy agent + run) was slower.
    let warm_response = broker.record(warm).response_s().unwrap();
    assert!(warm_response > response, "{warm_response} vs {response}");
}

#[test]
fn shared_without_resources_fails_not_queues() {
    let mut sim = Sim::new(3);
    let (broker, sites) = grid(&mut sim, 1, 2);
    // Fill both nodes with local batch work.
    for _ in 0..2 {
        sites[0].lrms().submit(
            &mut sim,
            LocalJobSpec::simple(SimDuration::from_secs(100_000)),
            |_, _, _| {},
        );
    }
    sim.run_until(SimTime::from_secs(30));
    let id = broker.submit(&mut sim, job(SHARED), SimDuration::from_secs(30));
    sim.run_until(SimTime::from_secs(120));
    let r = broker.record(id);
    assert!(
        matches!(r.state, JobState::Failed { .. }),
        "interactive submission must fail when no machines exist: {:?}",
        r.state
    );
    assert!(r.started_at.is_none());
}

#[test]
fn batch_runs_via_agent_and_agent_departs() {
    let mut sim = Sim::new(4);
    let (broker, sites) = grid(&mut sim, 1, 2);
    let id = broker.submit(&mut sim, job(BATCH), SimDuration::from_secs(300));
    sim.run_until(SimTime::from_secs(2_000));
    let r = broker.record(id);
    assert!(matches!(r.state, JobState::Done), "{:?}", r.state);
    assert!(
        r.response_s().unwrap() > 15.0,
        "job+agent path is the slowest"
    );
    // Agent left after the batch job completed: node is free again.
    assert_eq!(broker.agent_count(), 0, "agent departed");
    assert_eq!(sites[0].lrms().free_nodes(), 2, "node returned to the site");
}

#[test]
fn online_scheduling_resubmits_when_a_site_queues_the_job() {
    let mut sim = Sim::new(5);
    let (broker, sites) = grid(&mut sim, 2, 1);
    // The stale-info race the paper's on-line scheduling exists for: a local
    // user grabs the selected site's only node while the broker's submission
    // is still traversing the Globus layers, so the job queues on arrival.
    let id = broker.submit(&mut sim, job(EXCLUSIVE), SimDuration::from_secs(60));
    let broker2 = broker.clone();
    let sites2 = sites.clone();
    sim.schedule_at(SimTime::from_secs(3), move |sim| {
        // Selection has finished by now; steal exactly the chosen site.
        let chosen = match broker2.record(id).state {
            JobState::Scheduled { site } => site,
            other => panic!("expected Scheduled by t=3, got {other:?}"),
        };
        let victim = sites2.iter().find(|s| s.name() == chosen).expect("site");
        victim.lrms().submit(
            sim,
            LocalJobSpec::simple(SimDuration::from_secs(300)),
            |_, _, _| {},
        );
    });
    sim.run_until(SimTime::from_secs(1_000));
    let r = broker.record(id);
    // Whatever site it picked first, its node was stolen → Queued → the
    // broker withdraws and resubmits.
    assert!(r.resubmissions >= 1, "expected a resubmission, got {:?}", r);
    assert!(
        matches!(r.state, JobState::Done),
        "job eventually ran elsewhere: {:?}",
        r.state
    );
}

#[test]
fn interactive_never_preempts_interactive() {
    let mut sim = Sim::new(6);
    let (broker, _) = grid(&mut sim, 1, 1);
    // First shared job deploys the agent and occupies the interactive slot
    // for a long time.
    let first = broker.submit(&mut sim, job(SHARED), SimDuration::from_secs(5_000));
    sim.run_until(SimTime::from_secs(300));
    assert!(matches!(
        broker.record(first).state,
        JobState::Running { .. }
    ));
    assert_eq!(broker.free_interactive_slots(), 0);

    // Second interactive job: no free slot, no idle machine → fails; the
    // first job is untouched.
    let second = broker.submit(&mut sim, job(SHARED), SimDuration::from_secs(10));
    sim.run_until(SimTime::from_secs(600));
    assert!(
        matches!(broker.record(second).state, JobState::Failed { .. }),
        "{:?}",
        broker.record(second).state
    );
    assert!(
        matches!(broker.record(first).state, JobState::Running { .. }),
        "first interactive job must keep running"
    );
}

#[test]
fn fairshare_rejects_the_hog_under_scarcity() {
    let mut sim = Sim::new(7);
    let (broker, _) = grid(&mut sim, 1, 2);
    // The hog saturates the grid with interactive work and builds up a bad
    // priority.
    let hog_job = r#"
        Executable = "iapp"; JobType = "interactive";
        MachineAccess = "shared"; PerformanceLoss = 0; User = "hog";
    "#;
    let a = broker.submit(&mut sim, job(hog_job), SimDuration::from_secs(50_000));
    sim.run_until(SimTime::from_secs(400));
    let b = broker.submit(&mut sim, job(hog_job), SimDuration::from_secs(50_000));
    sim.run_until(SimTime::from_secs(2_000));
    // Both machines now busy (one interactive via agent, second agent or
    // denial depending on slots); let priority accumulate.
    sim.run_until(SimTime::from_secs(4_000));
    assert!(broker.priority("hog") > 0.0, "hog accumulated bad priority");

    let c = broker.submit(&mut sim, job(hog_job), SimDuration::from_secs(100));
    sim.run_until(SimTime::from_secs(5_000));
    let r = broker.record(c);
    match &r.state {
        JobState::Failed { reason } => {
            assert!(
                reason.contains("rejected") || reason.contains("no machines"),
                "hog's job denied: {reason}"
            );
        }
        other => panic!("expected failure under scarcity, got {other:?}"),
    }
    let _ = (a, b);
}

#[test]
fn mpich_g2_coallocates_across_sites() {
    let mut sim = Sim::new(8);
    let (broker, sites) = grid(&mut sim, 3, 2);
    // 5 nodes needed, 2 per site → must span at least 3 sites.
    let mpi = r#"
        Executable = "interactive_mpich-g2_app";
        JobType = {"interactive", "mpich-g2"};
        NodeNumber = 5; User = "carol";
    "#;
    let id = broker.submit(&mut sim, job(mpi), SimDuration::from_secs(200));
    sim.run_until(SimTime::from_secs(1_500));
    let r = broker.record(id);
    assert!(matches!(r.state, JobState::Done), "{:?}", r.state);
    // During the run all five nodes were taken; after, all free.
    let total_free: usize = sites.iter().map(|s| s.lrms().free_nodes()).sum();
    assert_eq!(total_free, 6);
}

#[test]
fn mpich_g2_fails_when_grid_too_small() {
    let mut sim = Sim::new(9);
    let (broker, _) = grid(&mut sim, 2, 2);
    let mpi = r#"
        Executable = "a"; JobType = {"interactive", "mpich-g2"};
        NodeNumber = 50; User = "carol";
    "#;
    let id = broker.submit(&mut sim, job(mpi), SimDuration::from_secs(10));
    sim.run_until(SimTime::from_secs(600));
    assert!(matches!(broker.record(id).state, JobState::Failed { .. }));
}

#[test]
fn batch_queues_in_broker_until_a_machine_frees() {
    let mut sim = Sim::new(10);
    let (broker, sites) = grid(&mut sim, 1, 1);
    // Saturate the site beyond its queue-admission bound (4 × nodes).
    for _ in 0..6 {
        sites[0].lrms().submit(
            &mut sim,
            LocalJobSpec::simple(SimDuration::from_secs(400)),
            |_, _, _| {},
        );
    }
    sim.run_until(SimTime::from_secs(30));
    assert!(!sites[0].lrms().accepts_queued_jobs());

    let id = broker.submit(&mut sim, job(BATCH), SimDuration::from_secs(50));
    sim.run_until(SimTime::from_secs(120));
    assert!(
        matches!(broker.record(id).state, JobState::BrokerQueued),
        "{:?}",
        broker.record(id).state
    );
    // As local jobs drain, the broker retries and the job eventually runs.
    sim.run_until(SimTime::from_secs(5_000));
    let r = broker.record(id);
    assert!(matches!(r.state, JobState::Done), "{:?}", r.state);
}

#[test]
fn leases_prevent_double_matching_then_expire() {
    let mut sim = Sim::new(11);
    let (broker, _) = grid(&mut sim, 2, 1);
    // Two exclusive jobs submitted back to back: the lease must steer them
    // to different sites even though the stale index shows both free.
    let a = broker.submit(&mut sim, job(EXCLUSIVE), SimDuration::from_secs(60));
    let b = broker.submit(&mut sim, job(EXCLUSIVE), SimDuration::from_secs(60));
    sim.run_until(SimTime::from_secs(1_000));
    let ra = broker.record(a);
    let rb = broker.record(b);
    assert!(matches!(ra.state, JobState::Done), "{:?}", ra.state);
    assert!(matches!(rb.state, JobState::Done), "{:?}", rb.state);
    // Both ran without resubmissions — no collision on one site.
    assert_eq!(ra.resubmissions + rb.resubmissions, 0);
}

#[test]
fn stats_account_for_everything() {
    let mut sim = Sim::new(12);
    let (broker, _) = grid(&mut sim, 2, 2);
    broker.submit(&mut sim, job(EXCLUSIVE), SimDuration::from_secs(30));
    broker.submit(&mut sim, job(BATCH), SimDuration::from_secs(30));
    sim.run_until(SimTime::from_secs(2_000));
    let s = broker.stats();
    assert_eq!(s.submitted, 2);
    assert_eq!(s.started, 2);
    assert_eq!(s.finished, 2);
    assert_eq!(s.failed + s.rejected, 0);
    assert!(s.agents_deployed >= 1, "batch deployed an agent");
}

#[test]
fn shared_parallel_combines_agents_and_idle_machines() {
    let mut sim = Sim::new(13);
    let (broker, sites) = grid(&mut sim, 2, 2);
    // Warm one agent (covers 1 subjob); the other 2 subjobs need idle nodes.
    broker.predeploy_agent(&mut sim, 0, |_, ok| assert!(ok));
    sim.run_until(SimTime::from_secs(300));
    assert_eq!(broker.free_interactive_slots(), 1);

    let mpi = r#"
        Executable = "steered_sim"; JobType = {"interactive", "mpich-g2"};
        NodeNumber = 3; MachineAccess = "shared"; PerformanceLoss = 10;
        User = "dora";
    "#;
    let id = broker.submit(&mut sim, job(mpi), SimDuration::from_secs(120));
    sim.run_until(SimTime::from_secs(2_000));
    let r = broker.record(id);
    assert!(matches!(r.state, JobState::Done), "{:?}", r.state);
    // Combined local step: no MDS discovery/selection cost.
    assert_eq!(r.discovery_s(), Some(0.0));
    assert_eq!(r.selection_s(), Some(0.0));
    // The job spanned the agent slot AND gatekeeper-submitted nodes.
    match broker.record(id).state {
        JobState::Done => {}
        other => panic!("{other:?}"),
    }
    // All nodes returned (agent still resident, so one node held by it).
    let free: usize = sites.iter().map(|s| s.lrms().free_nodes()).sum();
    assert_eq!(free, 3, "agent holds one node, the rest are free");
}

#[test]
fn shared_parallel_fails_when_capacity_short() {
    let mut sim = Sim::new(14);
    let (broker, _) = grid(&mut sim, 1, 2);
    let mpi = r#"
        Executable = "a"; JobType = {"interactive", "mpich-g2"};
        NodeNumber = 5; MachineAccess = "shared"; User = "dora";
    "#;
    let id = broker.submit(&mut sim, job(mpi), SimDuration::from_secs(10));
    sim.run_until(SimTime::from_secs(600));
    match broker.record(id).state {
        JobState::Failed { reason } => {
            assert!(reason.contains("machines"), "{reason}");
        }
        other => panic!("expected clean failure, got {other:?}"),
    }
}

#[test]
fn shared_parallel_all_on_agents() {
    let mut sim = Sim::new(15);
    let (broker, _) = grid(&mut sim, 2, 2);
    broker.predeploy_agent(&mut sim, 0, |_, ok| assert!(ok));
    broker.predeploy_agent(&mut sim, 1, |_, ok| assert!(ok));
    sim.run_until(SimTime::from_secs(300));
    assert_eq!(broker.free_interactive_slots(), 2);

    let mpi = r#"
        Executable = "a"; JobType = {"interactive", "mpich-p4"};
        NodeNumber = 2; MachineAccess = "shared"; PerformanceLoss = 25;
        User = "dora";
    "#;
    let t0 = sim.now();
    let id = broker.submit(&mut sim, job(mpi), SimDuration::from_secs(60));
    sim.run_until(SimTime::from_secs(2_000));
    let r = broker.record(id);
    assert!(matches!(r.state, JobState::Done), "{:?}", r.state);
    // Pure agent path: fast startup, no Globus layers.
    let response = r.started_at.unwrap().saturating_since(t0).as_secs_f64();
    assert!(response < 12.0, "all-agent MPI startup took {response}s");
}

#[test]
fn cancel_running_exclusive_job_frees_the_node() {
    let mut sim = Sim::new(16);
    let (broker, sites) = grid(&mut sim, 1, 2);
    let id = broker.submit(&mut sim, job(EXCLUSIVE), SimDuration::from_secs(10_000));
    sim.run_until(SimTime::from_secs(60));
    assert!(matches!(broker.record(id).state, JobState::Running { .. }));
    assert_eq!(sites[0].lrms().free_nodes(), 1);

    assert!(broker.cancel(&mut sim, id));
    sim.run_until(SimTime::from_secs(120));
    match broker.record(id).state {
        JobState::Failed { reason } => assert_eq!(reason, "cancelled by user"),
        other => panic!("{other:?}"),
    }
    assert_eq!(sites[0].lrms().free_nodes(), 2, "node returned");
    assert_eq!(broker.stats().cancelled, 1);
    // Idempotence: cancelling again (or after terminal) is refused.
    assert!(!broker.cancel(&mut sim, id));
}

#[test]
fn cancel_shared_job_restores_batch_priority() {
    let mut sim = Sim::new(17);
    let (broker, _) = grid(&mut sim, 1, 2);
    // Batch job brings up an agent and occupies its batch-vm.
    let batch = broker.submit(&mut sim, job(BATCH), SimDuration::from_secs(3_000));
    sim.run_until(SimTime::from_secs(120));
    assert!(matches!(
        broker.record(batch).state,
        JobState::Running { .. }
    ));

    // Interactive job lands on the same agent, throttling the batch job.
    let iv = broker.submit(&mut sim, job(SHARED), SimDuration::from_secs(10_000));
    sim.run_until(SimTime::from_secs(200));
    assert!(matches!(broker.record(iv).state, JobState::Running { .. }));

    // The user watches the output and kills the run (§1 on-line control).
    assert!(broker.cancel(&mut sim, iv));
    sim.run_until(SimTime::from_secs(5_000));
    // The batch job, sped back up, finishes normally.
    assert!(
        matches!(broker.record(batch).state, JobState::Done),
        "{:?}",
        broker.record(batch).state
    );
    // With the agent's slots both free, the agent departed.
    assert_eq!(broker.agent_count(), 0);
}

#[test]
fn cancel_broker_queued_batch_job() {
    let mut sim = Sim::new(18);
    let (broker, sites) = grid(&mut sim, 1, 1);
    for _ in 0..6 {
        sites[0].lrms().submit(
            &mut sim,
            LocalJobSpec::simple(SimDuration::from_secs(5_000)),
            |_, _, _| {},
        );
    }
    sim.run_until(SimTime::from_secs(30));
    let id = broker.submit(&mut sim, job(BATCH), SimDuration::from_secs(60));
    sim.run_until(SimTime::from_secs(90));
    assert!(matches!(broker.record(id).state, JobState::BrokerQueued));

    assert!(broker.cancel(&mut sim, id));
    sim.run_until(SimTime::from_secs(10_000));
    match broker.record(id).state {
        JobState::Failed { reason } => assert_eq!(reason, "cancelled by user"),
        other => panic!("cancelled queued job must not run later: {other:?}"),
    }
}

#[test]
fn cancel_unknown_job_is_refused() {
    let mut sim = Sim::new(19);
    let (broker, _) = grid(&mut sim, 1, 1);
    assert!(!broker.cancel(&mut sim, crossbroker::JobId(999)));
}

#[test]
fn reliable_console_survives_transient_ui_outage_fast_does_not() {
    // The UI link drops just as the console would come up (t ≈ dispatch +
    // pipeline); reliable mode retries until it heals, fast mode fails.
    let run = |mode: &str| {
        let mut sim = Sim::new(20);
        let site = Site::new(SiteConfig {
            name: "s".into(),
            nodes: 2,
            policy: Policy::Fifo,
            ..SiteConfig::default()
        });
        // Outage on the UI path from t=10 to t=60 — the exclusive pipeline
        // reaches console startup around t=17.
        let faults = cg_net::FaultSchedule::from_windows(vec![(
            SimTime::from_secs(10),
            SimTime::from_secs(60),
        )]);
        let handles = vec![SiteHandle {
            site: site.clone(),
            broker_link: Link::new(LinkProfile::campus()),
            ui_link: cg_net::Link::with_faults(LinkProfile::campus(), faults),
        }];
        let broker = CrossBroker::new(
            &mut sim,
            handles,
            Link::new(LinkProfile::wan_mds()),
            BrokerConfig::default(),
        );
        let src = format!(
            r#"Executable = "i"; JobType = "interactive"; MachineAccess = "exclusive";
               StreamingMode = "{mode}"; User = "u";"#
        );
        let id = broker.submit(&mut sim, job(&src), SimDuration::from_secs(120));
        sim.run_until(SimTime::from_secs(2_000));
        broker.record(id)
    };
    let reliable = run("reliable");
    assert!(
        matches!(reliable.state, JobState::Done),
        "reliable mode must retry through the outage: {:?}",
        reliable.state
    );
    assert!(
        reliable.started_at.unwrap() >= SimTime::from_secs(60),
        "first output only after the outage healed"
    );
    let fast = run("fast");
    assert!(
        matches!(fast.state, JobState::Failed { .. }),
        "fast mode loses the startup to the outage: {:?}",
        fast.state
    );
}

#[test]
fn declared_runtime_becomes_walltime() {
    let mut sim = Sim::new(21);
    let (broker, _) = grid(&mut sim, 1, 2);
    // The job declares a 10 s estimate but actually runs 10 000 s: the LRMS
    // kills it at the 4× walltime.
    let src = r#"Executable = "i"; JobType = "interactive"; MachineAccess = "exclusive";
                 EstimatedRuntime = 10; User = "u";"#;
    let id = broker.submit(&mut sim, job(src), SimDuration::from_secs(10_000));
    sim.run_until(SimTime::from_secs(5_000));
    match broker.record(id).state {
        JobState::Failed { reason } => {
            assert!(reason.contains("walltime"), "{reason}");
        }
        other => panic!("overrunning job must be killed by walltime: {other:?}"),
    }
}

#[test]
fn cancel_coallocated_mpi_job_frees_all_sites() {
    let mut sim = Sim::new(22);
    let (broker, sites) = grid(&mut sim, 3, 2);
    let mpi = r#"
        Executable = "a"; JobType = {"interactive", "mpich-g2"};
        NodeNumber = 5; User = "carol";
    "#;
    let id = broker.submit(&mut sim, job(mpi), SimDuration::from_secs(50_000));
    sim.run_until(SimTime::from_secs(120));
    assert!(matches!(broker.record(id).state, JobState::Running { .. }));
    let busy: usize = sites
        .iter()
        .map(|s| s.lrms().total_nodes() - s.lrms().free_nodes())
        .sum();
    assert_eq!(busy, 5);

    assert!(broker.cancel(&mut sim, id));
    sim.run_until(SimTime::from_secs(300));
    let free: usize = sites.iter().map(|s| s.lrms().free_nodes()).sum();
    assert_eq!(free, 6, "all five nodes freed across the three sites");
}

#[test]
fn leased_agent_becomes_available_after_lease_expiry() {
    let mut sim = Sim::new(23);
    let (broker, _) = grid(&mut sim, 1, 2);
    broker.predeploy_agent(&mut sim, 0, |_, ok| assert!(ok));
    sim.run_until(SimTime::from_secs(300));

    // A short shared job takes (and leases) the agent.
    let a = broker.submit(&mut sim, job(SHARED), SimDuration::from_secs(5));
    sim.run_until(SimTime::from_secs(340));
    assert!(matches!(broker.record(a).state, JobState::Done));
    // The lease (30 s from dispatch) has expired by now; a new shared job
    // reuses the same agent rather than deploying a second one.
    let deployed_before = broker.stats().agents_deployed;
    let b = broker.submit(&mut sim, job(SHARED), SimDuration::from_secs(5));
    sim.run_until(SimTime::from_secs(600));
    assert!(matches!(broker.record(b).state, JobState::Done));
    assert_eq!(
        broker.stats().agents_deployed,
        deployed_before,
        "agent reused"
    );
}

#[test]
fn back_to_back_shared_jobs_second_waits_for_no_one() {
    // Two shared jobs arrive together with one live agent: the first takes
    // the slot, the second must go deploy its own agent on the idle node
    // (it never queues behind the first).
    let mut sim = Sim::new(24);
    let (broker, _) = grid(&mut sim, 1, 2);
    broker.predeploy_agent(&mut sim, 0, |_, ok| assert!(ok));
    sim.run_until(SimTime::from_secs(300));

    let a = broker.submit(&mut sim, job(SHARED), SimDuration::from_secs(600));
    let b = broker.submit(&mut sim, job(SHARED), SimDuration::from_secs(600));
    sim.run_until(SimTime::from_secs(1_500));
    assert!(matches!(
        broker.record(a).state,
        JobState::Done | JobState::Running { .. }
    ));
    assert!(
        matches!(
            broker.record(b).state,
            JobState::Done | JobState::Running { .. }
        ),
        "{:?}",
        broker.record(b).state
    );
    // The second job's response includes an agent deployment — much slower —
    // but both got service.
    let ra = broker.record(a).response_s().unwrap();
    let rb = broker.record(b).response_s().unwrap();
    assert!(ra < 10.0, "first used the warm agent: {ra}");
    assert!(rb > ra, "second paid for its own agent: {rb}");
    assert_eq!(broker.stats().agents_deployed, 2);
}

#[test]
fn unsatisfiable_requirements_rejected_at_submit() {
    let mut sim = Sim::new(11);
    let (broker, _) = grid(&mut sim, 3, 4);
    let bad = job(r#"Executable = "bapp"; JobType = "batch"; User = "mallory";
           Requirements = other.FreeCpus > 4 && other.FreeCpus < 2;"#);
    let id = broker.submit(&mut sim, bad, SimDuration::from_secs(60));
    sim.run_until(SimTime::from_secs(600));

    // Terminal immediately, counted as a rejection, never started.
    let r = broker.record(id);
    match &r.state {
        JobState::Failed { reason } => {
            assert!(reason.contains("JDL"), "{reason}");
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    assert!(r.finished_at.is_some());
    assert_eq!(broker.stats().rejected, 1);
    assert_eq!(broker.stats().started, 0);

    // The trace shows the diagnostic and the terminal rejection, and the
    // rejected job never leased or dispatched anywhere.
    let events = broker.event_log().snapshot();
    let diag = events.iter().find_map(|e| match &e.event {
        cg_trace::Event::JdlDiagnostic {
            job,
            code,
            severity,
            ..
        } if *job == id.0 => Some((code.clone(), severity.clone())),
        _ => None,
    });
    assert_eq!(diag, Some(("E108".into(), "error".into())), "{events:?}");
    assert!(events.iter().any(|e| matches!(
        &e.event,
        cg_trace::Event::JdlRejected { job, errors } if *job == id.0 && *errors == 1
    )));
    assert!(!events.iter().any(|e| matches!(
        &e.event,
        cg_trace::Event::LeaseGranted { job, .. } | cg_trace::Event::JobDispatched { job, .. }
            if *job == id.0
    )));
    assert!(cg_trace::check_invariants(&events).is_empty());
    assert_eq!(broker.metrics().counter("events.JdlRejected"), 1);
    assert_eq!(broker.metrics().counter("events.JdlDiagnostic"), 1);
}

#[test]
fn analyzer_clean_jobs_proceed_and_warnings_do_not_reject() {
    let mut sim = Sim::new(12);
    let (broker, _) = grid(&mut sim, 3, 4);
    // W203 (always-true Requirements) is a warning: traced, not fatal.
    let warned = job(r#"Executable = "bapp"; JobType = "batch"; User = "carol";
           Requirements = true;"#);
    let id = broker.submit(&mut sim, warned, SimDuration::from_secs(30));
    sim.run_until(SimTime::from_secs(600));
    assert!(matches!(broker.record(id).state, JobState::Done));
    assert_eq!(broker.stats().rejected, 0);
    let events = broker.event_log().snapshot();
    assert!(events.iter().any(|e| matches!(
        &e.event,
        cg_trace::Event::JdlDiagnostic { job, severity, .. }
            if *job == id.0 && severity == "warning"
    )));
    assert!(cg_trace::check_invariants(&events).is_empty());
}

/// Runs one exclusive interactive job on a `n_sites` grid with the given
/// live-query fan-out, returning (record, dispatch target).
fn run_with_fanout(seed: u64, n_sites: usize, fanout: usize) -> (crossbroker::JobRecord, String) {
    let mut sim = Sim::new(seed);
    let mut handles = Vec::new();
    for i in 0..n_sites {
        let site = Site::new(SiteConfig {
            name: format!("site{i}"),
            nodes: 4,
            policy: Policy::Fifo,
            tags: vec!["CROSSGRID".into()],
            ..SiteConfig::default()
        });
        handles.push(SiteHandle {
            site,
            broker_link: Link::new(LinkProfile::campus()),
            ui_link: Link::new(LinkProfile::campus()),
        });
    }
    let mds = Link::new(LinkProfile::wan_mds());
    let config = BrokerConfig {
        live_query_fanout: fanout,
        ..BrokerConfig::default()
    };
    let broker = CrossBroker::new(&mut sim, handles, mds, config);
    let id = broker.submit(&mut sim, job(EXCLUSIVE), SimDuration::from_secs(120));
    sim.run_until(SimTime::from_secs(600));
    let events = broker.event_log().snapshot();
    let target = events
        .iter()
        .find_map(|e| match &e.event {
            cg_trace::Event::JobDispatched { job, target } if *job == id.0 => Some(target.clone()),
            _ => None,
        })
        .expect("job dispatched");
    assert!(cg_trace::check_invariants(&events).is_empty());
    (broker.record(id), target)
}

#[test]
fn live_query_fanout_shrinks_selection_without_changing_the_outcome() {
    let (seq, seq_target) = run_with_fanout(77, 12, 1);
    let (par, par_target) = run_with_fanout(77, 12, 8);
    assert!(matches!(seq.state, JobState::Done), "{:?}", seq.state);
    assert!(matches!(par.state, JobState::Done), "{:?}", par.state);
    // Same winner: the fan-out collects the same ads in the same order, so
    // selection is equivalent; only the sweep's wall-clock changes.
    assert_eq!(seq_target, par_target);
    let seq_sel = seq.selection_s().expect("selection ran");
    let par_sel = par.selection_s().expect("selection ran");
    assert!(
        par_sel < seq_sel / 2.0,
        "fan-out 8 over 12 sites should overlap the per-site RPCs: \
         sequential {seq_sel}s vs windowed {par_sel}s"
    );
}

/// Eight exclusive jobs start on one site 40 s apart (one per lease) and
/// finish while the site's links are down, so every GRAM completion
/// message is lost and all eight are still `Running` broker-side when the
/// site rejoins. Returns the event stream and the ids in submission order.
fn stranded_on_one_site(seed: u64) -> (Vec<cg_trace::TimedEvent>, Vec<crossbroker::JobId>) {
    use cg_net::FaultSchedule;
    let outage =
        || FaultSchedule::from_windows(vec![(SimTime::from_secs(400), SimTime::from_secs(1_700))]);
    let mut sim = Sim::new(seed);
    let site = Site::new(SiteConfig {
        name: "alpha".into(),
        nodes: 8,
        policy: Policy::Fifo,
        tags: vec!["CROSSGRID".into()],
        ..SiteConfig::default()
    });
    let handles = vec![SiteHandle {
        site,
        broker_link: Link::with_faults(LinkProfile::campus(), outage()),
        ui_link: Link::with_faults(LinkProfile::campus(), outage()),
    }];
    let config = BrokerConfig {
        publish_faults: vec![outage()],
        ..BrokerConfig::default()
    };
    let broker = CrossBroker::new(&mut sim, handles, Link::new(LinkProfile::wan_mds()), config);
    let ids: Rc<RefCell<Vec<crossbroker::JobId>>> = Rc::default();
    for i in 0..8 {
        let (b, ids) = (broker.clone(), Rc::clone(&ids));
        sim.schedule_at(SimTime::from_secs(40 * i), move |sim| {
            ids.borrow_mut()
                .push(b.submit(sim, job(EXCLUSIVE), SimDuration::from_secs(600)));
        });
    }
    sim.run_until(SimTime::from_secs(3_000));
    let ids = ids.borrow().clone();
    for id in &ids {
        assert!(matches!(broker.record(*id).state, JobState::Done), "{id:?}");
    }
    (broker.event_log().snapshot(), ids)
}

#[test]
fn rejoin_reconciliation_is_deterministic_and_in_job_id_order() {
    let (events, ids) = stranded_on_one_site(5);
    let rejoin = events
        .iter()
        .find(|e| matches!(e.event, cg_trace::Event::SiteRejoin { .. }))
        .expect("the site rejoins")
        .at;
    let reconciled: Vec<u64> = events
        .iter()
        .filter(|e| e.at >= rejoin)
        .filter_map(|e| match e.event {
            cg_trace::Event::JobFinished { job } => Some(job),
            _ => None,
        })
        .collect();
    let expected: Vec<u64> = ids.iter().map(|id| id.0).collect();
    assert_eq!(
        reconciled, expected,
        "reconciliation polls stranded jobs in ascending job-id order"
    );
    let (replay, _) = stranded_on_one_site(5);
    assert_eq!(events, replay, "same seed, same event stream");
}
