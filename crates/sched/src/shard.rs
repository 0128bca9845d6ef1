//! Pod-sharded campaign execution.
//!
//! The experiment machines are fat trees whose background congestion is
//! scoped to the pod fabric ([`BackgroundScope::CoreOnly`] keeps the core
//! switches noise-free) and whose job streams place every job inside one
//! pod. Under those two conditions the pods never interact: no job spans a
//! core switch, no congestion source on one pod's links is visible from
//! another, and each pod's machine randomness is an independent seeded
//! stream. A full-Quartz campaign is therefore *exactly* equivalent to
//! running one [`SchedulerEngine`] per pod and concatenating the results.
//!
//! This module packages that equivalence: a campaign is a list of
//! [`ShardSpec`]s (one engine-sized slice of machine + workload each),
//! executed either serially (the reference order) or in parallel with one
//! OS thread per shard. Conservative lookahead synchronisation at the
//! core-switch boundary degenerates to a single final barrier, because the
//! lookahead window is infinite — no event ever crosses a shard boundary —
//! so the parallel schedule is trivially safe and the merged outcome is
//! byte-identical to the serial one (asserted by the differential tests).
//!
//! [`BackgroundScope::CoreOnly`]: rush_cluster::network::BackgroundScope

use crate::engine::{ScheduleResult, SchedulerConfig, SchedulerEngine};
use crate::predictor::VariabilityPredictor;
use rush_cluster::machine::{Machine, MachineConfig};
use rush_simkit::rng::RngStreams;
use rush_simkit::time::{SimDuration, SimTime};
use rush_workloads::jobgen::JobRequest;

/// Everything needed to build and run one shard's engine, self-contained
/// so the shard can be constructed on a worker thread. The predictor is a
/// *factory* function rather than a boxed instance because predictor
/// objects are not `Send`; a plain `fn` pointer is, and each shard builds
/// its own instance from it.
#[derive(Clone)]
pub struct ShardSpec {
    /// Shard label, used in reports and error messages.
    pub name: String,
    /// Engine master seed (placement / run-noise / predictor streams).
    pub seed: u64,
    /// The shard's slice of the machine (its own fat tree + seed).
    pub machine: MachineConfig,
    /// Scheduler parameters (normally identical across shards).
    pub sched: SchedulerConfig,
    /// The shard's slice of the job stream. Job ids are shard-local.
    pub requests: Vec<JobRequest>,
    /// Builds the shard's predictor instance.
    pub predictor: fn() -> Box<dyn VariabilityPredictor>,
}

impl std::fmt::Debug for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSpec")
            .field("name", &self.name)
            .field("seed", &self.seed)
            .field("nodes", &self.machine.tree.node_count())
            .field("jobs", &self.requests.len())
            .finish()
    }
}

impl ShardSpec {
    /// Builds this shard's engine. Exposed so tests can drive a single
    /// shard through snapshot/resume and compare against a campaign run.
    pub fn build_engine(&self) -> SchedulerEngine {
        SchedulerEngine::new(
            Machine::new(self.machine.clone()),
            self.sched,
            (self.predictor)(),
            self.seed,
        )
    }

    /// Runs this shard's engine to completion.
    pub fn run(&self) -> ScheduleResult {
        self.build_engine().run(&self.requests)
    }

    /// Runs this shard with panics caught and re-raised carrying the shard
    /// name and seed, so a crash deep inside one worker of a thousand-shard
    /// campaign names the exact `--seed` that reproduces it standalone.
    pub fn run_reporting_panics(&self) -> ScheduleResult {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run())) {
            Ok(result) => result,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic".to_string());
                panic!(
                    "shard '{}' (seed {:#x}, {} jobs) panicked: {msg}",
                    self.name,
                    self.seed,
                    self.requests.len()
                );
            }
        }
    }
}

/// Derives shard `index`'s engine seed from the campaign master seed, via
/// the same named-stream splitting the engine uses internally, so shard
/// seeds are decorrelated and independent of the shard count.
pub fn shard_seed(master: u64, index: usize) -> u64 {
    RngStreams::new(master).stream_seed(&format!("shard/{index}"))
}

/// How the shards of a campaign execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardExecution {
    /// One after another on the calling thread — the reference order the
    /// parallel mode must reproduce byte-for-byte.
    Serial,
    /// One OS thread per shard, joined in shard order (the final merge
    /// barrier). Each shard is an independent sealed simulation, so the
    /// thread interleaving cannot influence any result.
    Parallel,
}

/// Campaign-level aggregates, folded over shards **in shard order** so
/// every float summation order is fixed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignSummary {
    /// Jobs finished across all shards.
    pub completed: usize,
    /// Jobs that exhausted their retry budget across all shards.
    pub failed: usize,
    /// RUSH delays issued across all shards.
    pub total_skips: u64,
    /// Kill-requeues across all shards.
    pub requeues: u64,
    /// Node crashes across all shards.
    pub node_failures: u64,
    /// Earliest submission over all shards.
    pub first_submit: SimTime,
    /// Latest completion over all shards.
    pub last_end: SimTime,
}

impl CampaignSummary {
    /// Campaign makespan: earliest submission to latest completion.
    pub fn makespan(&self) -> SimDuration {
        self.last_end.since(self.first_submit)
    }
}

/// The outcome of one campaign: per-shard results in spec order plus the
/// deterministic fold over them.
#[derive(Debug)]
pub struct CampaignResult {
    /// One result per shard, in [`ShardSpec`] order regardless of execution
    /// mode.
    pub shards: Vec<ScheduleResult>,
    /// The campaign-level fold.
    pub summary: CampaignSummary,
}

/// A set of independent shards executed as one campaign.
#[derive(Debug)]
pub struct ShardedCampaign {
    specs: Vec<ShardSpec>,
}

impl ShardedCampaign {
    /// Wraps `specs`; shard order is preserved everywhere downstream.
    pub fn new(specs: Vec<ShardSpec>) -> Self {
        assert!(!specs.is_empty(), "campaign needs at least one shard");
        ShardedCampaign { specs }
    }

    /// The shard specs, in execution/merge order.
    pub fn specs(&self) -> &[ShardSpec] {
        &self.specs
    }

    /// Runs every shard and folds the summary. `Serial` and `Parallel`
    /// produce identical [`CampaignResult`]s (modulo wall-clock): each
    /// shard is a sealed deterministic simulation, and results are merged
    /// in spec order either way.
    pub fn run(&self, execution: ShardExecution) -> CampaignResult {
        let shards: Vec<ScheduleResult> = match execution {
            ShardExecution::Serial => self
                .specs
                .iter()
                .map(ShardSpec::run_reporting_panics)
                .collect(),
            ShardExecution::Parallel => std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .specs
                    .iter()
                    // The engine (predictor, RNG streams) is constructed
                    // *inside* the worker thread; only the spec crosses.
                    // Panics are caught per worker and re-raised with the
                    // shard's name and seed attached.
                    .map(|spec| scope.spawn(move || spec.run_reporting_panics()))
                    .collect();
                handles
                    .into_iter()
                    .zip(&self.specs)
                    .map(|(h, spec)| match h.join() {
                        Ok(result) => result,
                        Err(payload) => {
                            let msg = payload
                                .downcast_ref::<&str>()
                                .map(|s| s.to_string())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "panic".to_string());
                            panic!(
                                "shard '{}' (seed {:#x}) worker died: {msg}",
                                spec.name, spec.seed
                            );
                        }
                    })
                    .collect()
            }),
        };
        let summary = summarize(&shards);
        CampaignResult { shards, summary }
    }
}

/// Folds shard results in order into a [`CampaignSummary`].
fn summarize(shards: &[ScheduleResult]) -> CampaignSummary {
    let mut s = CampaignSummary {
        completed: 0,
        failed: 0,
        total_skips: 0,
        requeues: 0,
        node_failures: 0,
        first_submit: SimTime::MAX,
        last_end: SimTime::ZERO,
    };
    for r in shards {
        s.completed += r.completed.len();
        s.failed += r.failed.len();
        s.total_skips += r.total_skips;
        s.requeues += r.requeues;
        s.node_failures += r.node_failures;
        s.first_submit = s.first_submit.min(r.first_submit);
        s.last_end = s.last_end.max(r.last_end);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::NeverVaries;
    use rush_workloads::apps::AppId;
    use rush_workloads::jobgen::{generate_jobs, WorkloadSpec};

    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn never() -> Box<dyn VariabilityPredictor> {
        Box::new(NeverVaries)
    }

    fn spec(index: usize, jobs: usize) -> ShardSpec {
        let seed = shard_seed(7, index);
        let mut wl = WorkloadSpec::standard(AppId::ALL.to_vec(), jobs);
        wl.node_counts = vec![4];
        wl.submit_window = SimDuration::from_mins(5);
        let requests = generate_jobs(&wl, &mut SmallRng::seed_from_u64(seed));
        ShardSpec {
            name: format!("pod{index}"),
            seed,
            machine: MachineConfig::tiny(seed ^ 0x9E37),
            sched: SchedulerConfig::default(),
            requests,
            predictor: never,
        }
    }

    #[test]
    fn shard_seeds_are_decorrelated() {
        assert_ne!(shard_seed(7, 0), shard_seed(7, 1));
        assert_ne!(shard_seed(7, 0), shard_seed(8, 0));
        assert_eq!(shard_seed(7, 3), shard_seed(7, 3));
    }

    #[test]
    fn serial_and_parallel_agree_exactly() {
        let campaign = ShardedCampaign::new((0..3).map(|i| spec(i, 12)).collect());
        let serial = campaign.run(ShardExecution::Serial);
        let parallel = campaign.run(ShardExecution::Parallel);
        assert_eq!(serial.summary, parallel.summary);
        assert_eq!(serial.shards.len(), parallel.shards.len());
        for (a, b) in serial.shards.iter().zip(&parallel.shards) {
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.failed.len(), b.failed.len());
            assert_eq!(a.events, b.events);
            assert_eq!(a.event_queue, b.event_queue);
        }
    }

    #[test]
    fn summary_folds_all_shards() {
        let campaign = ShardedCampaign::new((0..2).map(|i| spec(i, 8)).collect());
        let out = campaign.run(ShardExecution::Serial);
        let jobs: usize = out
            .shards
            .iter()
            .map(|r| r.completed.len() + r.failed.len())
            .sum();
        assert_eq!(out.summary.completed + out.summary.failed, jobs);
        assert_eq!(out.summary.completed + out.summary.failed, 16);
        assert!(out.summary.last_end >= out.summary.first_submit);
        assert!(out.summary.makespan() > SimDuration::from_secs(0));
    }

    #[test]
    fn shard_panic_carries_name_and_seed() {
        fn exploding() -> Box<dyn VariabilityPredictor> {
            struct Exploding;
            impl VariabilityPredictor for Exploding {
                fn predict(
                    &mut self,
                    _j: &crate::job::Job,
                    _n: &[rush_cluster::topology::NodeId],
                    _c: &mut crate::predictor::PredictorCtx<'_>,
                ) -> Result<crate::predictor::VariabilityClass, crate::predictor::PredictError>
                {
                    panic!("synthetic predictor crash")
                }
                fn name(&self) -> &str {
                    "exploding"
                }
            }
            Box::new(Exploding)
        }
        // A predictor panic only fires when the engine consults it, which
        // RUSH does on every head-of-queue Start() decision.
        let mut s = spec(0, 4);
        s.predictor = exploding;
        let seed = s.seed;
        let campaign = ShardedCampaign::new(vec![s]);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            campaign.run(ShardExecution::Parallel)
        }))
        .expect_err("the shard must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("pod0"), "panic must name the shard: {msg}");
        assert!(
            msg.contains(&format!("{seed:#x}")),
            "panic must carry the repro seed: {msg}"
        );
    }

    #[test]
    fn campaign_matches_standalone_engines() {
        let campaign = ShardedCampaign::new((0..2).map(|i| spec(i, 10)).collect());
        let out = campaign.run(ShardExecution::Parallel);
        for (spec, got) in campaign.specs().iter().zip(&out.shards) {
            let solo = spec.run();
            assert_eq!(solo.completed, got.completed);
            assert_eq!(solo.events, got.events);
        }
    }
}
