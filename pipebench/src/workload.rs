//! The three seeded workloads and the wiring that turns one of them into a
//! ready-to-run broker pipeline.
//!
//! Everything here goes through the library crates' public APIs: the grid
//! generators of `cg-workloads`, `CrossBroker::new`/`submit`, and the
//! benchmark's own `Sim::schedule_at` closures for the open-loop arrivals.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

use cg_jdl::{Interactivity, JobDescription, MachineAccess};
use cg_net::{FaultSchedule, Link, LinkProfile};
use cg_sim::{Sim, SimDuration, SimRng, SimTime};
use cg_site::Site;
use cg_trace::{Journal, JournalConfig};
use cg_workloads::{
    churn_faults, crossgrid_testbed, poisson_arrivals, synthetic_grid, ChurnKind, JobMix,
};
use crossbroker::{BrokerConfig, CrossBroker, JobId, SiteHandle};

use crate::heap;
use crate::run::DRAIN;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 18-site testbed under its own job mix.
    Testbed18,
    /// A 1000-site synthetic grid with windowed MDS and live-query fan-out.
    Grid1000,
    /// A 300-site grid with flapping sites and a durable journal attached.
    Churn300Journal,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::Testbed18,
        Workload::Grid1000,
        Workload::Churn300Journal,
    ];

    /// The workloads `BENCHMARK.json` lists. `churn300_journal` runs with
    /// the same command, but the current library fails its determinism
    /// gate and loses jobs on it (see the README's findings), so no run of
    /// it can pass yet.
    pub const LISTED: [Workload; 2] = [Workload::Testbed18, Workload::Grid1000];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Testbed18 => "testbed18",
            Workload::Grid1000 => "grid1000",
            Workload::Churn300Journal => "churn300_journal",
        }
    }

    /// Looks a workload up by its CLI name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The measured batch: replicas × arrival window. One replica takes
    /// half a second (`testbed18`) to three seconds (`grid1000`) of host
    /// time on a 2-core box; the replica count is fixed so the simulated
    /// results of a seed never depend on host speed.
    /// Pooling independent replicas keeps the seed-to-seed spread of the
    /// response metrics small: jobs on one replica share agents and sites,
    /// so their samples are far from independent. Only two `grid1000`
    /// replicas are timed, so each is repeated often enough in a run for
    /// its fastest slices to be steady.
    pub fn spec(self) -> Spec {
        let (hours, replicas, timed) = match self {
            Workload::Testbed18 => (120.0, 12, 12),
            Workload::Grid1000 => (3.25, 6, 2),
            Workload::Churn300Journal => (10.0, 8, 8),
        };
        Spec {
            workload: self,
            horizon: SimTime::ZERO,
            replicas,
            timed,
        }
        .with_hours(hours)
    }
}

/// A workload at a stated input size.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Arrivals are generated over `[0, horizon)` of simulated time.
    pub horizon: SimTime,
    /// Independent replicas (own arrivals, faults and sim stream, same
    /// grid) whose simulated results are pooled.
    pub replicas: u64,
    /// The first `timed` replicas are run again and again for the host
    /// metrics; the rest run once, for the simulated metrics only.
    pub timed: u64,
}

impl Spec {
    /// The same workload over a shorter or longer arrival window.
    pub fn with_hours(self, hours: f64) -> Spec {
        Spec {
            horizon: SimTime::ZERO + SimDuration::from_secs_f64(hours * 3_600.0),
            ..self
        }
    }

    /// The same workload with `replicas` replicas.
    pub fn with_replicas(self, replicas: u64) -> Spec {
        Spec {
            replicas,
            timed: self.timed.min(replicas),
            ..self
        }
    }

    /// The seed of replica `r` of workload seed `seed`; replica 0 runs on
    /// the workload seed itself.
    pub fn replica_seed(seed: u64, r: u64) -> u64 {
        seed ^ r.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// End of arrivals plus [`DRAIN`].
    pub fn end(&self) -> SimTime {
        self.horizon + DRAIN
    }
}

/// The submission path a job takes through the broker, as Table I splits
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPath {
    /// Interactive, shared machine access: straight onto an agent's VM.
    Shared,
    /// Interactive, exclusive access: matched and leased.
    Exclusive,
    /// Batch: matched, leased, submitted with a glide-in agent.
    Batch,
}

impl JobPath {
    /// Every path, in report order.
    pub const ALL: [JobPath; 3] = [JobPath::Shared, JobPath::Exclusive, JobPath::Batch];

    /// The path a job description selects.
    pub fn of(job: &JobDescription) -> JobPath {
        match (job.interactivity, job.machine_access) {
            (Interactivity::Interactive, MachineAccess::Shared) => JobPath::Shared,
            (Interactivity::Interactive, MachineAccess::Exclusive) => JobPath::Exclusive,
            (Interactivity::Batch, _) => JobPath::Batch,
        }
    }

    /// Metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            JobPath::Shared => "shared",
            JobPath::Exclusive => "exclusive",
            JobPath::Batch => "batch",
        }
    }
}

/// Called inside each arrival's sim closure instead of a bare
/// `CrossBroker::submit`; the traced run wraps the call in spans.
pub type SubmitHook = Rc<dyn Fn(&mut Sim, &CrossBroker, JobDescription, SimDuration) -> JobId>;

/// A built pipeline: simulation, broker, arrivals scheduled, nothing run.
pub struct Pipeline {
    /// The spec it was built from.
    pub spec: Spec,
    /// The simulation (arrival closures already scheduled).
    pub sim: Sim,
    /// The broker under test.
    pub broker: CrossBroker,
    /// Every link the benchmark created: broker↔site, UI↔site, broker↔MDS.
    pub links: Vec<Link>,
    /// The sites, as handed to the broker (clones share state).
    pub sites: Vec<Site>,
    /// Distinct users in the job mix.
    pub users: u32,
    /// The broker's configuration (its fair-share settings drive the
    /// standalone tick measurement).
    pub config: BrokerConfig,
    /// `(job, path)` in submission order, filled as the sim runs.
    pub submitted: Rc<RefCell<Vec<(JobId, JobPath)>>>,
    /// Arrivals scheduled.
    pub arrivals: usize,
    /// The journal file, when the workload attaches one.
    pub journal: Option<PathBuf>,
    /// Host seconds spent building all of the above.
    pub setup_s: f64,
    /// Heap bytes live when the build began; the build restarted the
    /// heap peak from there.
    pub heap_before: usize,
}

/// The grid and broker configuration of one workload, before any arrival
/// is generated.
pub struct Grid {
    /// Site handles for `CrossBroker::new`.
    pub handles: Vec<SiteHandle>,
    /// The broker↔MDS link.
    pub mds_link: Link,
    /// Broker configuration.
    pub config: BrokerConfig,
    /// The arrival mix.
    pub mix: JobMix,
    /// Poisson mean inter-arrival time.
    pub mean_interarrival: SimDuration,
}

/// Seeds the grid generators: each workload runs on one fixed grid.
pub const GRID_SEED: u64 = 0x5EED_0001;

/// Builds the workload's grid from `rng`. Deterministic in the seed.
pub fn build_grid(spec: &Spec, rng: &mut SimRng, faults_rng: &mut SimRng) -> Grid {
    match spec.workload {
        Workload::Testbed18 => {
            let scenario = crossgrid_testbed(rng, false);
            let handles = (0..scenario.sites.len())
                .map(|i| SiteHandle {
                    site: scenario.sites[i].0.clone(),
                    broker_link: scenario.broker_site_link(i),
                    ui_link: scenario.ui_site_link(i),
                })
                .collect();
            Grid {
                handles,
                mds_link: scenario.mds_link(),
                config: BrokerConfig::default(),
                mix: JobMix::default(),
                mean_interarrival: SimDuration::from_secs(120),
            }
        }
        Workload::Grid1000 => {
            let grid = synthetic_grid(rng, 1000, 32);
            let handles = grid
                .sites
                .iter()
                .zip(&grid.link_profiles)
                .map(|(site, profile)| SiteHandle {
                    site: site.clone(),
                    broker_link: Link::new(profile.clone()),
                    ui_link: Link::new(profile.clone()),
                })
                .collect();
            Grid {
                handles,
                mds_link: Link::new(LinkProfile::wan_mds()),
                config: BrokerConfig {
                    refresh_fanout: 32,
                    publish_latency: grid.publish_latency.clone(),
                    live_query_fanout: 16,
                    ..BrokerConfig::default()
                },
                mix: JobMix {
                    users: 200,
                    ..JobMix::default()
                },
                mean_interarrival: SimDuration::from_secs(30),
            }
        }
        Workload::Churn300Journal => {
            let grid = synthetic_grid(rng, 300, 32);
            let faults: Vec<FaultSchedule> =
                churn_faults(ChurnKind::FlappingSites, 300, spec.horizon, faults_rng);
            let handles = grid
                .sites
                .iter()
                .zip(&grid.link_profiles)
                .zip(&faults)
                .map(|((site, profile), f)| SiteHandle {
                    site: site.clone(),
                    broker_link: Link::with_faults(profile.clone(), f.clone()),
                    ui_link: Link::with_faults(profile.clone(), f.clone()),
                })
                .collect();
            Grid {
                handles,
                mds_link: Link::new(LinkProfile::wan_mds()),
                config: BrokerConfig {
                    publish_faults: faults,
                    ..BrokerConfig::default()
                },
                mix: JobMix {
                    interactive_fraction: 0.5,
                    users: 6,
                    ..JobMix::default()
                },
                mean_interarrival: SimDuration::from_secs(60),
            }
        }
    }
}

/// Builds the pipeline for `spec` and `seed`: grid, arrivals (JDL parsed),
/// broker, journal, and one `schedule_at` closure per arrival that submits
/// through `hook` (or straight through `CrossBroker::submit`). `scratch` is
/// where the journal goes when the workload attaches one.
pub fn build(spec: Spec, seed: u64, scratch: &Path, hook: Option<SubmitHook>) -> Pipeline {
    let started = Instant::now();
    let heap_before = heap::live_bytes();
    heap::reset_peak();
    let mut rng = SimRng::new(seed ^ 0x6772_6964);
    let grid = build_grid(&spec, &mut SimRng::new(GRID_SEED), &mut rng);
    let jobs = poisson_arrivals(&mut rng, &grid.mix, grid.mean_interarrival, spec.horizon);

    let mut sim = Sim::new(seed);
    let sites: Vec<Site> = grid.handles.iter().map(|h| h.site.clone()).collect();
    let mut links: Vec<Link> = grid
        .handles
        .iter()
        .flat_map(|h| [h.broker_link.clone(), h.ui_link.clone()])
        .collect();
    links.push(grid.mds_link.clone());
    let config = grid.config.clone();
    let broker = CrossBroker::new(&mut sim, grid.handles, grid.mds_link, grid.config);

    let journal = (spec.workload == Workload::Churn300Journal).then(|| {
        let path = scratch.join(format!("broker-{seed}.journal"));
        let journal = Journal::create(&path, JournalConfig::default())
            .expect("the benchmark's scratch directory must be writable");
        broker.event_log().set_journal(journal);
        broker.enable_periodic_snapshots(&mut sim, SimDuration::from_secs(3_600));
        path
    });

    let submitted: Rc<RefCell<Vec<(JobId, JobPath)>>> = Rc::default();
    let n = jobs.len();
    for job in jobs {
        let broker = broker.clone();
        let submitted = Rc::clone(&submitted);
        let hook = hook.clone();
        sim.schedule_at(job.at, move |sim| {
            let path = JobPath::of(&job.job);
            let id = match &hook {
                Some(hook) => hook(sim, &broker, job.job, job.runtime),
                None => broker.submit(sim, job.job, job.runtime),
            };
            submitted.borrow_mut().push((id, path));
        });
    }

    Pipeline {
        spec,
        sim,
        broker,
        links,
        sites,
        users: grid.mix.users,
        config,
        submitted,
        arrivals: n,
        journal,
        setup_s: started.elapsed().as_secs_f64(),
        heap_before,
    }
}
