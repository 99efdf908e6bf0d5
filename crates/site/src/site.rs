//! A grid site: gatekeeper + LRMS + worker nodes + the GRIS view of itself.

use cg_jdl::{Ad, Value};
use cg_sim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::gatekeeper::{Gatekeeper, GramCosts};
use crate::lrms::{Lrms, LrmsError, Policy, DEFAULT_DISPOSITION_RETENTION};
use crate::wn::NodeSpec;

/// Configuration for building a [`Site`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteConfig {
    /// Site name (e.g. `"uab"`, `"ifca"`).
    pub name: String,
    /// Worker-node count.
    pub nodes: usize,
    /// Hardware of the nodes (homogeneous per site, like the testbed pools).
    pub node_spec: NodeSpec,
    /// Local scheduler policy.
    pub policy: Policy,
    /// LRMS dispatch latency.
    pub dispatch_latency: SimDuration,
    /// Middleware costs at the gatekeeper.
    pub gram: GramCosts,
    /// Arbitrary capability tags advertised to MDS (runtime environments).
    pub tags: Vec<String>,
    /// Storage capacity advertised, GB ("most sites offer storage capacities
    /// above 600GB", §6).
    pub storage_gb: u32,
    /// Cap on retained terminal dispositions (status-poll record).
    pub disposition_retention: usize,
}

impl Default for SiteConfig {
    fn default() -> Self {
        SiteConfig {
            name: "site".into(),
            nodes: 4,
            node_spec: NodeSpec::pentium_iii(),
            policy: Policy::Fifo,
            dispatch_latency: SimDuration::from_millis(1_500),
            gram: GramCosts::globus24(),
            tags: vec!["CROSSGRID".into()],
            storage_gb: 600,
            disposition_retention: DEFAULT_DISPOSITION_RETENTION,
        }
    }
}

/// A grid site handle. Clones share the underlying LRMS/gatekeeper.
#[derive(Clone)]
pub struct Site {
    config: std::rc::Rc<SiteConfig>,
    lrms: Lrms,
    gatekeeper: Gatekeeper,
}

impl Site {
    /// Builds the site's components from configuration.
    ///
    /// # Panics
    /// Panics when the configuration is structurally invalid (zero nodes,
    /// zero disposition retention); use [`Site::try_new`] for a typed error.
    pub fn new(config: SiteConfig) -> Self {
        Site::try_new(config).expect("invalid site configuration")
    }

    /// Builds the site's components from configuration.
    ///
    /// # Errors
    /// [`LrmsError::ZeroNodes`] when `config.nodes == 0`;
    /// [`LrmsError::ZeroRetention`] when `config.disposition_retention == 0`.
    pub fn try_new(config: SiteConfig) -> Result<Self, LrmsError> {
        if config.disposition_retention == 0 {
            return Err(LrmsError::ZeroRetention);
        }
        let lrms = Lrms::try_new(config.policy, config.nodes, config.dispatch_latency)?;
        lrms.set_disposition_retention(config.disposition_retention);
        let gatekeeper = Gatekeeper::new(lrms.clone(), config.gram.clone());
        Ok(Site {
            config: std::rc::Rc::new(config),
            lrms,
            gatekeeper,
        })
    }

    /// Site name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// The site's configuration.
    pub fn config(&self) -> &SiteConfig {
        &self.config
    }

    /// The local scheduler.
    pub fn lrms(&self) -> &Lrms {
        &self.lrms
    }

    /// The GRAM front door.
    pub fn gatekeeper(&self) -> &Gatekeeper {
        &self.gatekeeper
    }

    /// The machine ad this site's GRIS publishes *right now* (live values;
    /// the index staleness is applied by [`crate::InformationIndex`]).
    pub fn machine_ad(&self) -> Ad {
        let mut ad = Ad::new();
        ad.set_str("Site", self.config.name.clone())
            .set_str("Arch", self.config.node_spec.arch.clone())
            .set_str("OpSys", self.config.node_spec.op_sys.clone())
            .set_int("TotalCpus", self.config.nodes as i64)
            .set_int("FreeCpus", self.lrms.free_nodes() as i64)
            .set_int("QueueDepth", self.lrms.queue_depth() as i64)
            .set_int("MemoryMb", self.config.node_spec.memory_mb as i64)
            .set_int("StorageGb", self.config.storage_gb as i64)
            .set_double("SpeedFactor", self.config.node_spec.speed_factor)
            .set_bool("AcceptsQueued", self.lrms.accepts_queued_jobs())
            .set(
                "Tags",
                Value::List(
                    self.config
                        .tags
                        .iter()
                        .map(|t| Value::Str(t.clone()))
                        .collect(),
                ),
            );
        ad
    }
}

/// The attribute schema of the machine ads published by [`Site::machine_ad`],
/// derived from a live ad so it can never drift from what sites actually
/// advertise. The broker's JDL analyzer checks `other.*` references in
/// `Requirements`/`Rank` against this vocabulary.
pub fn machine_schema() -> cg_jdl::analyze::Schema {
    cg_jdl::analyze::Schema::infer_from_ad(&Site::new(SiteConfig::default()).machine_ad())
}

impl std::fmt::Debug for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Site")
            .field("name", &self.config.name)
            .field("nodes", &self.config.nodes)
            .field("free", &self.lrms.free_nodes())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lrms::LocalJobSpec;
    use cg_sim::Sim;

    #[test]
    fn machine_schema_matches_analyzer_vocabulary() {
        // The analyzer ships a hand-written copy of this vocabulary so
        // cg-jdl does not depend on cg-site; this pins the two together.
        assert_eq!(machine_schema(), cg_jdl::analyze::Schema::machine());
    }

    #[test]
    fn machine_ad_reflects_live_state() {
        let mut sim = Sim::new(1);
        let site = Site::new(SiteConfig {
            name: "uab".into(),
            nodes: 3,
            tags: vec!["CROSSGRID".into(), "MPICH-G2".into()],
            ..SiteConfig::default()
        });
        let ad = site.machine_ad();
        assert_eq!(ad.get("FreeCpus").unwrap().as_i64(), Some(3));
        assert_eq!(ad.get("Site").unwrap().as_str(), Some("uab"));
        assert_eq!(ad.get("Tags").unwrap().as_list().unwrap().len(), 2);

        site.lrms().submit(
            &mut sim,
            LocalJobSpec::simple(SimDuration::from_secs(100)),
            |_, _, _| {},
        );
        sim.run_until(cg_sim::SimTime::from_secs(10));
        assert_eq!(site.machine_ad().get("FreeCpus").unwrap().as_i64(), Some(2));
    }

    #[test]
    fn matchmaking_against_the_ad_works() {
        let site = Site::new(SiteConfig {
            name: "ifca".into(),
            nodes: 8,
            ..SiteConfig::default()
        });
        let job = cg_jdl::JobDescription::parse(
            r#"
            Executable = "app";
            JobType = {"interactive", "mpich-p4"};
            NodeNumber = 4;
            Requirements = other.FreeCpus >= NodeNumber && member("CROSSGRID", other.Tags);
        "#,
        )
        .unwrap();
        let machine = site.machine_ad();
        let ctx = cg_jdl::Ctx {
            own: &job.ad,
            other: &machine,
        };
        assert!(job
            .requirements
            .as_ref()
            .unwrap()
            .eval_requirement(ctx)
            .unwrap());
    }

    #[test]
    fn zero_retention_is_a_typed_error() {
        let with_retention = |disposition_retention| {
            Site::try_new(SiteConfig {
                disposition_retention,
                ..SiteConfig::default()
            })
            .err()
        };
        assert_eq!(with_retention(0), Some(LrmsError::ZeroRetention));
        assert_eq!(with_retention(1), None);
    }

    #[test]
    fn default_config_is_sane() {
        let c = SiteConfig::default();
        assert!(c.nodes > 0);
        assert!(c.storage_gb >= 600);
    }
}
