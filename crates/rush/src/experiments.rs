//! The Table-II scheduling experiments.
//!
//! | id   | apps                  | jobs | nodes    | model trained on |
//! |------|-----------------------|-----:|----------|------------------|
//! | ADAA | all 7                 |  190 | 16       | all apps         |
//! | ADPA | Laghos, LBANN, PENNANT|  150 | 16       | all apps         |
//! | PDPA | Laghos, LBANN, PENNANT|  150 | 16       | AMG, Kripke, sw4lite, SWFFT |
//! | WS   | all 7                 |  190 | 8/16/32  | all apps (weak scaling)  |
//! | SS   | all 7                 |  190 | 8/16/32  | all apps (strong scaling) |
//!
//! Each experiment runs inside a 512-node pod with a noise job on 1/16 of
//! the nodes, comparing FCFS+EASY against RUSH over five trials per policy
//! (Section VI-A). Trials are paired: trial *k* of both policies uses the
//! same machine seed, so they face the same noise trajectory.

use crate::collect::CampaignData;
use crate::labels::LabelScheme;
use crate::pipeline::{build_reference, ModelCache};
use crate::predictor::{MlPredictor, OnlineMlHost};
use rayon::prelude::*;
use rush_cluster::machine::{Machine, MachineConfig};
use rush_cluster::topology::NodeId;
use rush_ml::model::ModelKind;
use rush_sched::engine::{BackfillPolicy, SchedulerConfig, SchedulerEngine};
use rush_sched::metrics::{RuntimeReference, ScheduleMetrics};
use rush_sched::policy::QueueOrder;
use rush_sched::predictor::{NeverVaries, VariabilityPredictor};
use rush_sched::service::ServiceConfig;
use rush_simkit::fault::FaultConfig;
use rush_simkit::time::{SimDuration, SimTime};
use rush_workloads::apps::AppId;
use rush_workloads::jobgen::{generate_jobs, WorkloadSpec};
use rush_workloads::scaling::ScalingMode;
use serde::{Deserialize, Serialize};

/// Fraction of the reservation the noise job occupies (Section VI-A).
pub const NOISE_FRACTION: u32 = 16;
/// Per-node injection ceiling of the noise job, GB/s.
///
/// This exceeds a single NIC's injection bandwidth on purpose: a
/// saturating all-to-all builds congestion trees that throttle victim
/// flows beyond the fluid share of the noise bytes alone, and the
/// amplification is folded into the effective rate.
pub const NOISE_MAX_GBPS: f64 = 22.0;
/// Trials per policy (Section VI-A: "five with FCFS+EASY and five with
/// RUSH").
pub const TRIALS_PER_POLICY: usize = 5;

/// The five experiments of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Experiment {
    /// All Data All Apps.
    Adaa,
    /// All Data Partial Apps.
    Adpa,
    /// Partial Data Partial Apps (the generalization test).
    Pdpa,
    /// Weak Scaling.
    Ws,
    /// Strong Scaling.
    Ss,
}

impl Experiment {
    /// All experiments, in Table-II order.
    pub const ALL: [Experiment; 5] = [
        Experiment::Adaa,
        Experiment::Adpa,
        Experiment::Pdpa,
        Experiment::Ws,
        Experiment::Ss,
    ];

    /// Table-II short code.
    pub fn code(self) -> &'static str {
        match self {
            Experiment::Adaa => "ADAA",
            Experiment::Adpa => "ADPA",
            Experiment::Pdpa => "PDPA",
            Experiment::Ws => "WS",
            Experiment::Ss => "SS",
        }
    }

    /// Table-II long name.
    pub fn name(self) -> &'static str {
        match self {
            Experiment::Adaa => "All Data All Apps",
            Experiment::Adpa => "All Data Partial Apps",
            Experiment::Pdpa => "Partial Data Partial Apps",
            Experiment::Ws => "Weak Scaling",
            Experiment::Ss => "Strong Scaling",
        }
    }

    /// Applications submitted during the experiment.
    pub fn run_apps(self) -> Vec<AppId> {
        match self {
            Experiment::Adaa | Experiment::Ws | Experiment::Ss => AppId::ALL.to_vec(),
            Experiment::Adpa | Experiment::Pdpa => AppId::PARTIAL_RUN.to_vec(),
        }
    }

    /// Applications whose campaign data trains the model (`None` = all).
    pub fn train_apps(self) -> Option<Vec<AppId>> {
        match self {
            Experiment::Pdpa => Some(AppId::PARTIAL_TRAIN.to_vec()),
            _ => None,
        }
    }

    /// Jobs in the queue (Table II).
    pub fn job_count(self) -> usize {
        match self {
            Experiment::Adpa | Experiment::Pdpa => 150,
            _ => 190,
        }
    }

    /// Node counts jobs cycle through.
    pub fn node_counts(self) -> Vec<u32> {
        match self {
            Experiment::Ws | Experiment::Ss => vec![8, 16, 32],
            _ => vec![16],
        }
    }

    /// Input-deck scaling used for non-16-node jobs.
    pub fn scaling(self) -> ScalingMode {
        match self {
            Experiment::Ws => ScalingMode::Weak,
            Experiment::Ss => ScalingMode::Strong,
            _ => ScalingMode::Reference,
        }
    }

    /// The workload spec for one trial.
    pub fn workload(self) -> WorkloadSpec {
        match self {
            Experiment::Ws | Experiment::Ss => {
                WorkloadSpec::scaled(self.run_apps(), self.job_count(), self.scaling())
            }
            _ => WorkloadSpec::standard(self.run_apps(), self.job_count()),
        }
    }
}

impl std::fmt::Display for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// The two scheduling policies compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// The FCFS+EASY control.
    FcfsEasy,
    /// RUSH: FCFS+EASY with the model-gated `Start()`.
    Rush,
}

impl PolicyKind {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::FcfsEasy => "FCFS+EASY",
            PolicyKind::Rush => "RUSH",
        }
    }
}

/// One trial's evaluated outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialOutcome {
    /// Trial index (shared across the paired policies).
    pub trial: usize,
    /// Evaluated metrics.
    pub metrics: ScheduleMetrics,
    /// Total RUSH delays issued (0 for the baseline).
    pub total_skips: u64,
    /// Jobs that exhausted their retry budget (0 without fault injection).
    pub failed_jobs: usize,
    /// Times a killed job re-entered the queue.
    pub requeues: u64,
    /// Start decisions where degraded telemetry or a predictor error made
    /// the engine fall back to plain EASY.
    pub fallback_decisions: u64,
    /// Node crashes injected during the trial.
    pub node_failures: u64,
}

/// Both policies' trials for one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentComparison {
    /// Which experiment.
    pub experiment: Experiment,
    /// Baseline trials.
    pub fcfs: Vec<TrialOutcome>,
    /// RUSH trials.
    pub rush: Vec<TrialOutcome>,
}

impl ExperimentComparison {
    /// Mean over trials of a per-trial metric.
    pub fn mean_of(outcomes: &[TrialOutcome], f: impl Fn(&TrialOutcome) -> f64) -> f64 {
        if outcomes.is_empty() {
            return 0.0;
        }
        outcomes.iter().map(f).sum::<f64>() / outcomes.len() as f64
    }

    /// Mean total variation runs per policy: `(fcfs, rush)`.
    pub fn mean_variation_runs(&self) -> (f64, f64) {
        (
            Self::mean_of(&self.fcfs, |t| t.metrics.total_variation_runs as f64),
            Self::mean_of(&self.rush, |t| t.metrics.total_variation_runs as f64),
        )
    }

    /// Mean makespan seconds per policy: `(fcfs, rush)`.
    pub fn mean_makespan(&self) -> (f64, f64) {
        (
            Self::mean_of(&self.fcfs, |t| t.metrics.makespan_secs),
            Self::mean_of(&self.rush, |t| t.metrics.makespan_secs),
        )
    }
}

/// Settings for one experiment run (machine seeds, trial counts, job
/// tuning for tests).
#[derive(Debug, Clone)]
pub struct ExperimentSettings {
    /// Trials per policy.
    pub trials: usize,
    /// Base seed; trial `k` uses `base_seed + k` for its machine.
    pub base_seed: u64,
    /// Override the job count (tests use small queues).
    pub job_count_override: Option<usize>,
    /// Model family for the deployed predictor.
    pub model_kind: ModelKind,
    /// Label scheme driving the deployed model (paper: three-class).
    pub label_scheme: LabelScheme,
    /// Counter-aggregation window for the predictor (paper: 5 minutes).
    pub predictor_window: SimDuration,
    /// RUSH skip threshold (paper: 10).
    pub skip_threshold: u32,
    /// Main queue ordering policy R1 (paper: FCFS; Section IV-B claims SJF
    /// also works).
    pub r1: QueueOrder,
    /// Node placement policy (Section V-B: RUSH is mapping-agnostic).
    pub placement: rush_cluster::placement::PlacementPolicy,
    /// Backfilling discipline (paper: EASY).
    pub backfill: BackfillPolicy,
    /// Fault-injection processes (default: inert). Trial `k` offsets the
    /// fault seed by `k` so paired policies face the *same* fault timeline
    /// while distinct trials face distinct ones.
    pub faults: FaultConfig,
    /// Runtime invariant auditor (default: off). Enabled by the CLI's
    /// `--audit` flag for long checkpointed campaigns.
    pub audit: rush_sched::audit::AuditConfig,
    /// Shared trained-model cache. Every Rush trial deploys a model
    /// trained from the same campaign with the same settings; the cache
    /// trains it once and hands out `Arc` clones. The default is a private
    /// empty cache; the orchestrator injects one cache across all
    /// artifacts. Training is deterministic, so caching never changes
    /// results.
    pub model_cache: ModelCache,
    /// Online predictor service knobs. Disabled by default
    /// (`retrain_every` zero = the paper's static deployment); the CLI's
    /// `--retrain-every` / `--drift-window` / `--shadow-decisions` flags
    /// enable and shape it for Rush trials.
    pub service: ServiceConfig,
    /// Seeded mid-campaign distribution shift: from this sim time onward
    /// the machine's congestion regime is pinned to Storm, which degrades
    /// the deployed model's labels and exercises drift → retrain → swap.
    pub shift_at: Option<SimTime>,
}

impl Default for ExperimentSettings {
    fn default() -> Self {
        ExperimentSettings {
            trials: TRIALS_PER_POLICY,
            base_seed: 0xE0,
            job_count_override: None,
            model_kind: ModelKind::AdaBoost,
            label_scheme: LabelScheme::ThreeClass,
            predictor_window: SimDuration::from_mins(5),
            skip_threshold: 10,
            r1: QueueOrder::Fcfs,
            placement: rush_cluster::placement::PlacementPolicy::LowestId,
            backfill: BackfillPolicy::Easy,
            faults: FaultConfig::none(),
            audit: rush_sched::audit::AuditConfig::default(),
            model_cache: ModelCache::new(),
            service: ServiceConfig::default(),
            shift_at: None,
        }
    }
}

/// The 512-node experiment machine for trial `k`.
fn trial_machine(seed: u64) -> Machine {
    Machine::new(MachineConfig::experiment_pod(seed))
}

/// The noise job's nodes: the top 1/16th of the pod.
fn noise_nodes(machine: &Machine) -> Vec<NodeId> {
    let total = machine.tree().node_count();
    let count = total / NOISE_FRACTION;
    (total - count..total).map(NodeId).collect()
}

/// Builds the fully-configured engine and workload for one trial of one
/// policy **without running it**. `run_trial_raw` drives the returned pair
/// to completion in one call; the CLI's checkpoint loop instead calls
/// [`SchedulerEngine::prepare`]/[`SchedulerEngine::step`] itself so it can
/// snapshot at sim-time boundaries and resume after a crash.
pub fn build_trial_engine(
    experiment: Experiment,
    policy: PolicyKind,
    campaign: &CampaignData,
    settings: &ExperimentSettings,
    trial: usize,
) -> (SchedulerEngine, Vec<rush_workloads::jobgen::JobRequest>) {
    trial_engine(experiment, policy, campaign, settings, trial, |p| p)
}

/// [`build_trial_engine`] with `adjust` applied to a RUSH trial's static
/// predictor.
fn trial_engine(
    experiment: Experiment,
    policy: PolicyKind,
    campaign: &CampaignData,
    settings: &ExperimentSettings,
    trial: usize,
    adjust: impl FnOnce(MlPredictor) -> MlPredictor,
) -> (SchedulerEngine, Vec<rush_workloads::jobgen::JobRequest>) {
    let seed = settings.base_seed + trial as u64;
    let machine = trial_machine(seed);
    let noise = noise_nodes(&machine);

    let mut workload = experiment.workload();
    if let Some(n) = settings.job_count_override {
        workload.total_jobs = n;
    }
    let mut job_rng = rush_simkit::rng::RngStreams::new(seed).stream("experiment/jobs");
    let requests = generate_jobs(&workload, &mut job_rng);

    // When the online service is enabled for a Rush trial, the same cached
    // model becomes the service's initial live artifact and the predictor
    // box is bypassed (consultations route through the service).
    let online = policy == PolicyKind::Rush && settings.service.enabled();
    let mut initial_artifact = None;
    let predictor: Box<dyn VariabilityPredictor> = match policy {
        PolicyKind::FcfsEasy => Box::new(NeverVaries),
        PolicyKind::Rush => {
            let model = settings.model_cache.train_with_scheme(
                campaign,
                experiment.train_apps().as_deref(),
                settings.model_kind,
                settings.label_scheme,
                settings.base_seed,
            );
            if online {
                initial_artifact = Some(crate::persist::encode_model(&model));
            }
            Box::new(adjust(
                MlPredictor::new((*model).clone(), settings.label_scheme, None)
                    .with_window(settings.predictor_window),
            ))
        }
    };

    let config = SchedulerConfig {
        // The baseline never reads counters; skip the sampling cost (and
        // widen the telemetry-quality gate to match, so the baseline's
        // NeverVaries calls don't all count as degradation fallbacks).
        sampling_interval: match policy {
            PolicyKind::FcfsEasy => SimDuration::from_days(365),
            PolicyKind::Rush => SimDuration::from_secs(30),
        },
        predictor_window: match policy {
            PolicyKind::FcfsEasy => SimDuration::from_days(365),
            PolicyKind::Rush => settings.predictor_window,
        },
        retention: match policy {
            PolicyKind::FcfsEasy => SimDuration::from_days(400),
            PolicyKind::Rush => SchedulerConfig::default().retention,
        },
        skip_threshold: settings.skip_threshold,
        r1: settings.r1,
        placement: settings.placement,
        backfill: settings.backfill,
        audit: settings.audit,
        faults: FaultConfig {
            seed: settings.faults.seed.wrapping_add(trial as u64),
            ..settings.faults
        },
        service: if online {
            settings.service
        } else {
            ServiceConfig::default()
        },
        ..SchedulerConfig::default()
    };
    let mut engine = SchedulerEngine::new(machine, config, predictor, seed)
        .with_noise_job(noise, NOISE_MAX_GBPS);
    if let Some(artifact) = initial_artifact {
        let host = OnlineMlHost::new(
            settings
                .model_cache
                .train_with_scheme(
                    campaign,
                    experiment.train_apps().as_deref(),
                    settings.model_kind,
                    settings.label_scheme,
                    settings.base_seed,
                )
                .as_ref()
                .clone(),
            settings.label_scheme,
            settings.model_kind,
        )
        .with_window(settings.predictor_window);
        engine = engine.with_online_predictor(Box::new(host), build_reference(campaign), artifact);
    }
    if let Some(at) = settings.shift_at {
        engine = engine.with_regime_shift(at, SimTime::MAX, rush_cluster::noise::Regime::Storm);
    }
    (engine, requests)
}

/// Runs one trial of one policy, returning the raw schedule result along
/// with the evaluated outcome (the result carries the trace and per-job
/// launch predictions for deeper analyses).
pub fn run_trial_raw(
    experiment: Experiment,
    policy: PolicyKind,
    campaign: &CampaignData,
    reference: &RuntimeReference,
    settings: &ExperimentSettings,
    trial: usize,
) -> (rush_sched::engine::ScheduleResult, TrialOutcome) {
    let (mut engine, requests) = build_trial_engine(experiment, policy, campaign, settings, trial);
    let result = engine.run(&requests);
    let metrics = ScheduleMetrics::compute(&result.completed, reference, SimTime::ZERO);
    let outcome = TrialOutcome {
        trial,
        metrics,
        total_skips: result.total_skips,
        failed_jobs: result.failed.len(),
        requeues: result.requeues,
        fallback_decisions: result.fallback_decisions,
        node_failures: result.node_failures,
    };
    (result, outcome)
}

/// Runs one trial of one policy.
pub fn run_trial(
    experiment: Experiment,
    policy: PolicyKind,
    campaign: &CampaignData,
    reference: &RuntimeReference,
    settings: &ExperimentSettings,
    trial: usize,
) -> TrialOutcome {
    run_trial_raw(experiment, policy, campaign, reference, settings, trial).1
}

/// Runs the full paired comparison for one experiment; trials run in
/// parallel.
pub fn run_comparison(
    experiment: Experiment,
    campaign: &CampaignData,
    settings: &ExperimentSettings,
) -> ExperimentComparison {
    let reference = build_reference(campaign);
    let tasks: Vec<(PolicyKind, usize)> = [PolicyKind::FcfsEasy, PolicyKind::Rush]
        .into_iter()
        .flat_map(|p| (0..settings.trials).map(move |t| (p, t)))
        .collect();
    let outcomes: Vec<(PolicyKind, TrialOutcome)> = tasks
        .into_par_iter()
        .map(|(policy, trial)| {
            (
                policy,
                run_trial(experiment, policy, campaign, &reference, settings, trial),
            )
        })
        .collect();

    let mut fcfs = Vec::new();
    let mut rush = Vec::new();
    for (policy, outcome) in outcomes {
        match policy {
            PolicyKind::FcfsEasy => fcfs.push(outcome),
            PolicyKind::Rush => rush.push(outcome),
        }
    }
    fcfs.sort_by_key(|t| t.trial);
    rush.sort_by_key(|t| t.trial);
    ExperimentComparison {
        experiment,
        fcfs,
        rush,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CampaignConfig;

    #[test]
    fn table_two_shape() {
        assert_eq!(Experiment::ALL.len(), 5);
        assert_eq!(Experiment::Adaa.job_count(), 190);
        assert_eq!(Experiment::Adpa.job_count(), 150);
        assert_eq!(Experiment::Pdpa.job_count(), 150);
        assert_eq!(Experiment::Ws.node_counts(), vec![8, 16, 32]);
        assert_eq!(Experiment::Ss.scaling(), ScalingMode::Strong);
        assert_eq!(Experiment::Adaa.run_apps().len(), 7);
        assert_eq!(Experiment::Pdpa.run_apps().len(), 3);
        assert_eq!(Experiment::Pdpa.train_apps().unwrap().len(), 4);
        assert!(Experiment::Adpa.train_apps().is_none());
        assert_eq!(Experiment::Adaa.to_string(), "ADAA");
        assert_eq!(PolicyKind::Rush.label(), "RUSH");
    }

    #[test]
    fn noise_job_takes_one_sixteenth() {
        let m = trial_machine(1);
        let nodes = noise_nodes(&m);
        assert_eq!(nodes.len(), 32); // 512 / 16
        assert_eq!(nodes[0], NodeId(480));
        assert_eq!(nodes[31], NodeId(511));
    }

    /// A smoke-sized ADAA comparison: a full campaign is too slow for unit
    /// tests, so we run a small campaign and a short queue.
    #[test]
    fn small_adaa_comparison_runs() {
        let campaign = crate::collect::run_campaign(&CampaignConfig::test_sized());
        let settings = ExperimentSettings {
            trials: 1,
            base_seed: 3,
            job_count_override: Some(12),
            model_kind: ModelKind::DecisionForest,
            ..ExperimentSettings::default()
        };
        // ADPA runs laghos/lbann/pennant; campaign lacks pennant, so use
        // ADAA restricted to the campaign apps via the workload override.
        let comparison = run_comparison(Experiment::Adpa, &campaign, &settings);
        assert_eq!(comparison.fcfs.len(), 1);
        assert_eq!(comparison.rush.len(), 1);
        for t in comparison.fcfs.iter().chain(&comparison.rush) {
            assert_eq!(t.metrics.per_app.iter().map(|a| a.count).sum::<usize>(), 12);
            assert!(t.metrics.makespan_secs > 0.0);
        }
        // Baseline never skips.
        assert_eq!(comparison.fcfs[0].total_skips, 0);
        let (f_mk, r_mk) = comparison.mean_makespan();
        assert!(f_mk > 0.0 && r_mk > 0.0);
    }

    /// The deployed predictor aggregates only the counters its model
    /// reads; on a seeded trial it gives every verdict, and so the whole
    /// schedule, that it gives when it aggregates all 90. (The test-sized
    /// campaign's AdaBoost splits on probe features only, so a forest
    /// stands in: it reads 42 of the 90 counters here.)
    #[test]
    fn model_counter_subset_gives_the_verdicts_of_all_counters() {
        let campaign = crate::collect::run_campaign(&CampaignConfig::test_sized());
        let settings = ExperimentSettings {
            trials: 1,
            base_seed: 3,
            job_count_override: Some(40),
            model_kind: ModelKind::DecisionForest,
            ..ExperimentSettings::default()
        };
        let run = |all: bool| {
            let mut counters = 0;
            let (mut engine, requests) = trial_engine(
                Experiment::Adpa,
                PolicyKind::Rush,
                &campaign,
                &settings,
                0,
                |p| {
                    let p = if all { p.with_all_counters() } else { p };
                    counters = p.counters().len();
                    p
                },
            );
            (engine.run(&requests), counters)
        };
        let (subset, read) = run(false);
        let (full, all) = run(true);
        assert!(
            0 < read && read < all,
            "the model reads {read} of {all} counters"
        );
        let verdicts = subset
            .metrics
            .counter_by_name("sched.predictor_verdicts")
            .unwrap_or(0);
        assert!(verdicts > 0, "the predictor was consulted");
        assert!(subset.total_skips > 0, "some verdicts delay a job");
        assert_eq!(subset.total_skips, full.total_skips);
        assert_eq!(subset.fallback_decisions, full.fallback_decisions);
        assert_eq!(subset.events, full.events);
        assert_eq!(
            format!("{:?}", subset.completed),
            format!("{:?}", full.completed)
        );
    }
}
