//! Gym-style episodic environment for learned scheduling policies.
//!
//! RLScheduler (arXiv 1910.08925) frames batch scheduling as an episodic
//! decision problem: observe the wait queue and cluster state, act on the
//! dispatch order, collect negative slowdown as reward. This module is
//! that framing over the real [`SchedulerEngine`] — no simplified
//! surrogate simulator — so a policy trained here is evaluated by exactly
//! the event loop, backfilling and placement the other three schemes use.
//!
//! * **Observation** ([`Observation`]): a fixed-size window of per-job
//!   features (wait so far, estimate, node request) over the head of the
//!   queue, plus cluster state (free-node fraction, running count,
//!   filesystem saturation, utilization so far).
//! * **Action** ([`Action`]): either a continuous sort-weight vector (the
//!   deep-batch-scheduler `SORTING_FACTORS` action space — retargets the
//!   engine's R1/R2 to that [`LearnedPolicy`]) or a discrete job pick
//!   (promotes one observed job to the queue head).
//! * **Reward**: the negated sum of bounded slowdowns of the jobs that
//!   completed during the step, so an episode's return is the negated
//!   total bounded slowdown — maximizing return minimizes the paper's
//!   headline service metric.
//!
//! Episodes are seeded and fully deterministic: the same
//! ([`SchedEnvConfig`], episode index, action sequence) replays the same
//! trajectory, and mid-episode engine snapshots resume byte-identically
//! (the policy spec travels in the snapshot body). [`train_policy`] wires
//! the environment to the [`rush_ml::cem`] trainer; [`head_to_head`] runs
//! the trained weights against FCFS/EASY/RUSH on the same seeded
//! workloads and renders a canonical-JSON report.

use crate::engine::{BackfillPolicy, ScheduleResult, SchedulerConfig, SchedulerEngine};
use crate::job::JobId;
use crate::policy::{LearnedPolicy, PolicySpec, SORT_FACTORS};
use crate::predictor::{CongestionOracle, NeverVaries, VariabilityPredictor};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rush_cluster::machine::{Machine, MachineConfig};
use rush_cluster::topology::FatTreeConfig;
use rush_ml::cem::PolicyArtifact;
use rush_ml::cem::{self, CemConfig, CemOutcome};
use rush_obs::json::{escape_str, fmt_f64, JsonObject};
use rush_simkit::rng::RngStreams;
use rush_simkit::time::{SimDuration, SimTime};
use rush_workloads::apps::AppId;
use rush_workloads::jobgen::{generate_jobs, JobRequest, WorkloadSpec};

/// Everything that parameterizes an environment episode. Episode `k` of a
/// config is a pure function of `(config, k)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedEnvConfig {
    /// Master seed; workload, machine and engine streams derive from it.
    pub seed: u64,
    /// Machine size; must be a positive multiple of 8 (the fixed edge
    /// width, as in [`crate::difftest::DiffScenario`]).
    pub nodes: u32,
    /// Jobs per episode.
    pub jobs: usize,
    /// Queue-window size of the observation (jobs past the window are
    /// summarized only by `queue_len`).
    pub queue_window: usize,
    /// Sim-time between decision points: each [`SchedEnv::step`] advances
    /// the engine this far (or to episode end).
    pub decision_interval: SimDuration,
}

impl Default for SchedEnvConfig {
    fn default() -> Self {
        SchedEnvConfig {
            seed: 42,
            nodes: 32,
            jobs: 120,
            queue_window: 8,
            decision_interval: SimDuration::from_secs(60),
        }
    }
}

impl SchedEnvConfig {
    fn machine_config(&self, streams: &RngStreams) -> MachineConfig {
        assert!(
            self.nodes >= 8 && self.nodes.is_multiple_of(8),
            "env nodes must be a positive multiple of 8, got {}",
            self.nodes
        );
        MachineConfig {
            tree: FatTreeConfig {
                pods: 1,
                edge_per_pod: self.nodes / 8,
                nodes_per_edge: 8,
                ..FatTreeConfig::tiny()
            },
            ..MachineConfig::tiny(streams.stream_seed("env/machine"))
        }
    }

    /// Episode `episode`'s seeded workload: jobs of 2/4/8 nodes over a
    /// 20-minute submit window. Distinct episodes draw distinct streams
    /// from the same grammar, so training generalizes across arrival
    /// patterns instead of memorizing one.
    pub fn workload(&self, episode: u64) -> Vec<JobRequest> {
        let streams = RngStreams::new(self.seed);
        let spec = WorkloadSpec {
            node_counts: vec![2, 4, 8],
            submit_window: SimDuration::from_mins(20),
            ..WorkloadSpec::standard(AppId::ALL.to_vec(), self.jobs)
        };
        let seed = streams.stream_seed("env/workload").wrapping_add(episode);
        generate_jobs(&spec, &mut SmallRng::seed_from_u64(seed))
    }
}

/// One queued job as the policy observes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobObservation {
    /// The job (stable handle for [`Action::PickJob`]).
    pub id: JobId,
    /// Seconds waited so far.
    pub wait_s: f64,
    /// User run-time estimate, seconds.
    pub est_s: f64,
    /// Requested nodes.
    pub nodes: u32,
}

/// What the policy sees at a decision point.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Sim time of the decision point.
    pub now: SimTime,
    /// The first `queue_window` waiting jobs, in current queue order.
    pub queue: Vec<JobObservation>,
    /// Full queue length (the window may truncate).
    pub queue_len: usize,
    /// Jobs currently running.
    pub running: usize,
    /// Fraction of schedulable nodes currently free.
    pub free_node_frac: f64,
    /// Shared-filesystem saturation (cluster congestion state).
    pub fs_saturation: f64,
    /// Machine utilization accumulated so far this episode.
    pub utilization_so_far: f64,
}

/// One decision: retarget the sort order, promote a specific job, or
/// leave the current policy alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Set R1/R2 to the [`LearnedPolicy`] with these weights — the
    /// continuous `SORTING_FACTORS` action space.
    SortWeights([f64; SORT_FACTORS]),
    /// Promote the job at this index of the *observed* queue window to
    /// the queue head (out-of-range indices are a no-op).
    PickJob(usize),
    /// Keep the current order.
    Hold,
}

/// The result of one environment step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// The next observation.
    pub observation: Observation,
    /// Negated bounded slowdown accrued by completions during the step.
    pub reward: f64,
    /// True once every job has settled; further steps are rejected.
    pub done: bool,
}

/// Service-quality summary of a finished episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeStats {
    /// Jobs completed.
    pub completed: u64,
    /// Jobs failed.
    pub failed: u64,
    /// First submit to last completion, seconds.
    pub makespan_s: f64,
    /// Mean response time (wait + run) over completed jobs, seconds.
    pub mean_response_s: f64,
    /// Mean queue wait, seconds.
    pub mean_wait_s: f64,
    /// Mean bounded slowdown (the training objective, negated).
    pub mean_bounded_slowdown: f64,
    /// Node-seconds over nodes × makespan.
    pub utilization: f64,
}

impl EpisodeStats {
    fn from_result(result: &ScheduleResult, nodes: u32) -> EpisodeStats {
        let makespan = result.makespan();
        let r = &result.replay;
        EpisodeStats {
            completed: r.completed,
            failed: r.failed,
            makespan_s: makespan.as_secs_f64(),
            mean_response_s: if r.completed == 0 {
                0.0
            } else {
                (r.wait_sum_secs + r.run_sum_secs) / r.completed as f64
            },
            mean_wait_s: r.mean_wait_secs(),
            mean_bounded_slowdown: r.mean_bounded_slowdown(),
            utilization: r.utilization(nodes as usize, makespan),
        }
    }
}

/// The episodic environment: one engine run driven decision point by
/// decision point.
///
/// ```
/// use rush_sched::env::{Action, SchedEnv, SchedEnvConfig};
///
/// let config = SchedEnvConfig { jobs: 24, nodes: 16, ..SchedEnvConfig::default() };
/// let mut env = SchedEnv::new(config);
/// let mut obs = env.reset(0);
/// let mut steps = 0;
/// loop {
///     let outcome = env.step(Action::SortWeights([1.0, 0.5, 0.0, 0.0, 0.0, 0.0]));
///     steps += 1;
///     obs = outcome.observation;
///     if outcome.done { break; }
/// }
/// assert!(steps > 1 && obs.queue_len == 0);
/// ```
pub struct SchedEnv {
    config: SchedEnvConfig,
    engine: SchedulerEngine,
    bsld_seen: f64,
    started: bool,
}

impl SchedEnv {
    /// Builds the environment and prepares episode 0 (call
    /// [`reset`](Self::reset) to select another episode).
    pub fn new(config: SchedEnvConfig) -> SchedEnv {
        let mut env = SchedEnv {
            config,
            engine: Self::build_engine(&config, PolicySpec::Fcfs),
            bsld_seen: 0.0,
            started: false,
        };
        env.prepare(0);
        env
    }

    /// The engine a learned episode runs on: EASY backfilling without RUSH
    /// delays, so the queue order under optimization is the only moving
    /// part relative to the EASY baseline.
    fn build_engine(config: &SchedEnvConfig, policy: PolicySpec) -> SchedulerEngine {
        let streams = RngStreams::new(config.seed);
        let sched = SchedulerConfig {
            r1: policy,
            r2: policy,
            skip_threshold: 0,
            ..SchedulerConfig::default()
        };
        SchedulerEngine::new(
            Machine::new(config.machine_config(&streams)),
            sched,
            Box::new(NeverVaries),
            streams.stream_seed("env/engine"),
        )
    }

    fn prepare(&mut self, episode: u64) {
        let requests = self.config.workload(episode);
        self.engine = Self::build_engine(&self.config, PolicySpec::Fcfs);
        self.engine.prepare(&requests);
        self.bsld_seen = 0.0;
        self.started = true;
    }

    /// Starts episode `episode` fresh and returns its initial observation.
    pub fn reset(&mut self, episode: u64) -> Observation {
        self.prepare(episode);
        self.observe()
    }

    /// The engine under the environment (snapshot/resume, inspection).
    pub fn engine(&self) -> &SchedulerEngine {
        &self.engine
    }

    /// Current observation (allocates the queue window).
    pub fn observe(&self) -> Observation {
        let capacity = self.engine.node_capacity().max(1);
        let queue = self.engine.queued_jobs();
        let now = self.engine.now();
        let window: Vec<JobObservation> = queue
            .iter()
            .take(self.config.queue_window)
            .map(|j| JobObservation {
                id: j.id,
                wait_s: now.since(j.submit_at).as_secs_f64(),
                est_s: j.est_runtime.as_secs_f64(),
                nodes: j.nodes_requested,
            })
            .collect();
        let stats = self.engine.replay_stats();
        let elapsed = now.max(SimTime::from_micros(1));
        Observation {
            now,
            queue: window,
            queue_len: queue.len(),
            running: self.engine.running_count(),
            free_node_frac: self.engine.free_node_count() as f64 / capacity as f64,
            fs_saturation: self.engine.machine().fs_saturation(),
            utilization_so_far: stats.utilization(capacity, elapsed.since(SimTime::ZERO)),
        }
    }

    /// Applies `action` and advances the engine one decision interval (or
    /// to the end of the episode, whichever comes first).
    ///
    /// # Panics
    ///
    /// Panics if called after the episode finished (`done` was returned);
    /// call [`reset`](Self::reset) first.
    pub fn step(&mut self, action: Action) -> StepOutcome {
        assert!(self.started, "step before reset");
        assert!(!self.engine.is_done(), "step on a finished episode");
        match action {
            Action::SortWeights(weights) => {
                let spec = PolicySpec::Learned(LearnedPolicy::new(weights));
                self.engine.set_queue_policy(spec, spec);
            }
            Action::PickJob(index) => {
                if let Some(job) = self.engine.queued_jobs().get(index) {
                    let id = job.id;
                    self.engine.promote_job(id);
                }
            }
            Action::Hold => {}
        }
        let target = self.engine.now() + self.config.decision_interval;
        while !self.engine.is_done() && self.engine.now() < target {
            if self.engine.step().is_none() {
                break;
            }
        }
        let bsld = self.engine.replay_stats().bounded_slowdown_sum;
        let reward = -(bsld - self.bsld_seen);
        self.bsld_seen = bsld;
        StepOutcome {
            observation: self.observe(),
            reward,
            done: self.engine.is_done(),
        }
    }

    /// Runs episode `episode` end to end under fixed sort weights and
    /// returns its service-quality stats — the CEM objective's inner loop.
    pub fn rollout(&mut self, episode: u64, weights: [f64; SORT_FACTORS]) -> EpisodeStats {
        self.reset(episode);
        let spec = PolicySpec::Learned(LearnedPolicy::new(weights));
        self.engine.set_queue_policy(spec, spec);
        while self.engine.step().is_some() {}
        let result = self.engine.finalize();
        self.started = false;
        EpisodeStats::from_result(&result, self.config.nodes)
    }
}

// ---------------------------------------------------------------------
// Training driver
// ---------------------------------------------------------------------

/// Parameters of a [`train_policy`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// The environment trained in.
    pub env: SchedEnvConfig,
    /// CEM rounds.
    pub rounds: u32,
    /// CEM population per round.
    pub population: usize,
    /// CEM elite count.
    pub elite: usize,
    /// Episodes averaged per candidate evaluation (distinct seeded
    /// workloads; more episodes = less workload overfitting).
    pub episodes: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            env: SchedEnvConfig::default(),
            rounds: 10,
            population: 24,
            elite: 6,
            episodes: 2,
        }
    }
}

/// Trains a learned policy with CEM: candidate weights are scored by the
/// negated mean bounded slowdown averaged over `episodes` seeded
/// episodes. Returns the save-ready artifact plus the full optimizer
/// history (for progress tables and training-trace events). Deterministic:
/// identical configs produce identical artifacts.
pub fn train_policy(config: &TrainConfig) -> (PolicyArtifact, CemOutcome) {
    let mut env = SchedEnv::new(config.env);
    let cem_config = CemConfig {
        dim: SORT_FACTORS,
        population: config.population,
        elite: config.elite,
        rounds: config.rounds,
        init_mean: 0.0,
        init_std: 1.0,
        min_std: 0.05,
        seed: config.env.seed,
    };
    let episodes = config.episodes.max(1);
    let outcome = cem::train(&cem_config, |w| {
        let mut weights = [0.0; SORT_FACTORS];
        weights.copy_from_slice(w);
        let mut total = 0.0;
        for episode in 0..episodes {
            total -= env.rollout(episode, weights).mean_bounded_slowdown;
        }
        total / episodes as f64
    });
    let mut weights = [0.0; SORT_FACTORS];
    weights.copy_from_slice(&outcome.best);
    let artifact = PolicyArtifact {
        weights: outcome.best.clone(),
        seed: config.env.seed,
        rounds: config.rounds,
        population: config.population as u32,
        score: outcome.best_score,
    };
    (artifact, outcome)
}

// ---------------------------------------------------------------------
// Head-to-head evaluation
// ---------------------------------------------------------------------

/// The four schemes of the head-to-head comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalScheme {
    /// Strict FCFS: no backfilling, no RUSH delays.
    Fcfs,
    /// FCFS + EASY backfilling.
    Easy,
    /// EASY + the RUSH variability-aware `Start()` under the congestion
    /// oracle.
    Rush,
    /// EASY with the trained learned queue order.
    Learned,
}

impl EvalScheme {
    /// All schemes, in report order.
    pub const ALL: [EvalScheme; 4] = [
        EvalScheme::Fcfs,
        EvalScheme::Easy,
        EvalScheme::Rush,
        EvalScheme::Learned,
    ];

    /// Stable lowercase name (report keys).
    pub fn name(self) -> &'static str {
        match self {
            EvalScheme::Fcfs => "fcfs",
            EvalScheme::Easy => "easy",
            EvalScheme::Rush => "rush",
            EvalScheme::Learned => "learned",
        }
    }

    fn predictor(self) -> Box<dyn VariabilityPredictor> {
        match self {
            EvalScheme::Rush => Box::new(CongestionOracle::default()),
            _ => Box::new(NeverVaries),
        }
    }

    fn config(self, weights: [f64; SORT_FACTORS]) -> SchedulerConfig {
        let mut config = SchedulerConfig::default();
        match self {
            EvalScheme::Fcfs => {
                config.backfill = BackfillPolicy::None;
                config.skip_threshold = 0;
            }
            EvalScheme::Easy => config.skip_threshold = 0,
            EvalScheme::Rush => {}
            EvalScheme::Learned => {
                config.skip_threshold = 0;
                let spec = PolicySpec::Learned(LearnedPolicy::new(weights));
                config.r1 = spec;
                config.r2 = spec;
            }
        }
        config
    }
}

/// Per-scheme fold over every evaluation episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchemeEval {
    /// The scheme.
    pub scheme: EvalScheme,
    /// Metric means across episodes.
    pub stats: EpisodeStats,
}

/// The head-to-head result; renders to canonical JSON
/// (`policy_report/v1`).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyEvalReport {
    /// The environment evaluated in.
    pub env: SchedEnvConfig,
    /// Episodes averaged.
    pub episodes: u64,
    /// The learned weights under test.
    pub weights: [f64; SORT_FACTORS],
    /// Per-scheme folds in [`EvalScheme::ALL`] order.
    pub schemes: Vec<SchemeEval>,
}

impl PolicyEvalReport {
    /// The named scheme's fold.
    pub fn scheme(&self, scheme: EvalScheme) -> &EpisodeStats {
        &self
            .schemes
            .iter()
            .find(|s| s.scheme == scheme)
            .expect("all schemes evaluated")
            .stats
    }

    /// The acceptance gate of the learned policy: strictly better mean
    /// bounded slowdown than strict FCFS.
    pub fn learned_beats_fcfs(&self) -> bool {
        self.scheme(EvalScheme::Learned).mean_bounded_slowdown
            < self.scheme(EvalScheme::Fcfs).mean_bounded_slowdown
    }

    /// Renders the report as canonical JSON: fixed key order, no
    /// whitespace, shortest-roundtrip floats — identical inputs yield
    /// byte-identical text (the CI double-run compare).
    pub fn to_json(&self) -> String {
        let names: Vec<String> = EvalScheme::ALL
            .iter()
            .map(|s| escape_str(s.name()))
            .collect();
        let weights: Vec<String> = self.weights.iter().map(|w| fmt_f64(*w)).collect();
        let mut results = JsonObject::new();
        for s in &self.schemes {
            results = results.raw(
                s.scheme.name(),
                &JsonObject::new()
                    .u64("completed", s.stats.completed)
                    .u64("failed", s.stats.failed)
                    .f64("makespan_s", s.stats.makespan_s)
                    .f64("mean_response_s", s.stats.mean_response_s)
                    .f64("mean_wait_s", s.stats.mean_wait_s)
                    .f64("mean_bounded_slowdown", s.stats.mean_bounded_slowdown)
                    .f64("utilization", s.stats.utilization)
                    .finish(),
            );
        }
        JsonObject::new()
            .str("schema", "policy_report/v1")
            .u64("seed", self.env.seed)
            .u64("nodes", u64::from(self.env.nodes))
            .u64("jobs", self.env.jobs as u64)
            .u64("episodes", self.episodes)
            .raw("weights", &format!("[{}]", weights.join(",")))
            .raw("schemes", &format!("[{}]", names.join(",")))
            .raw("results", &results.finish())
            .raw(
                "learned_beats_fcfs",
                if self.learned_beats_fcfs() {
                    "true"
                } else {
                    "false"
                },
            )
            .finish()
    }
}

/// Runs FCFS, EASY, RUSH and the learned policy over the same `episodes`
/// seeded workloads and folds per-scheme means. The workload sequence is
/// identical across schemes, so differences are attributable to the
/// scheme alone.
pub fn head_to_head(
    env: &SchedEnvConfig,
    weights: [f64; SORT_FACTORS],
    episodes: u64,
) -> PolicyEvalReport {
    let episodes = episodes.max(1);
    let streams = RngStreams::new(env.seed);
    let mut schemes = Vec::with_capacity(EvalScheme::ALL.len());
    for scheme in EvalScheme::ALL {
        let mut sums = [0.0f64; 5];
        let mut completed = 0u64;
        let mut failed = 0u64;
        for episode in 0..episodes {
            let requests = env.workload(episode);
            let mut engine = SchedulerEngine::new(
                Machine::new(env.machine_config(&streams)),
                scheme.config(weights),
                scheme.predictor(),
                streams.stream_seed("env/engine"),
            );
            let result = engine.run(&requests);
            let stats = EpisodeStats::from_result(&result, env.nodes);
            completed += stats.completed;
            failed += stats.failed;
            sums[0] += stats.makespan_s;
            sums[1] += stats.mean_response_s;
            sums[2] += stats.mean_wait_s;
            sums[3] += stats.mean_bounded_slowdown;
            sums[4] += stats.utilization;
        }
        let n = episodes as f64;
        schemes.push(SchemeEval {
            scheme,
            stats: EpisodeStats {
                completed,
                failed,
                makespan_s: sums[0] / n,
                mean_response_s: sums[1] / n,
                mean_wait_s: sums[2] / n,
                mean_bounded_slowdown: sums[3] / n,
                utilization: sums[4] / n,
            },
        });
    }
    PolicyEvalReport {
        env: *env,
        episodes,
        weights,
        schemes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_env() -> SchedEnvConfig {
        SchedEnvConfig {
            seed: 7,
            nodes: 16,
            jobs: 30,
            ..SchedEnvConfig::default()
        }
    }

    #[test]
    fn episode_runs_to_completion_and_reward_totals_bounded_slowdown() {
        let mut env = SchedEnv::new(small_env());
        env.reset(0);
        let mut total_reward = 0.0;
        let mut done = false;
        let mut steps = 0;
        while !done {
            let out = env.step(Action::Hold);
            total_reward += out.reward;
            done = out.done;
            steps += 1;
            assert!(steps < 100_000, "episode did not terminate");
        }
        let stats = env.engine().replay_stats();
        assert_eq!(stats.completed + stats.failed, 30);
        assert!((total_reward + stats.bounded_slowdown_sum).abs() < 1e-9);
    }

    #[test]
    fn identical_action_sequences_replay_identically() {
        let run = || {
            let mut env = SchedEnv::new(small_env());
            env.reset(1);
            let mut rewards = Vec::new();
            loop {
                let out = env.step(Action::SortWeights([0.5, -0.25, 0.0, 0.1, 0.0, 0.0]));
                rewards.push(out.reward.to_bits());
                if out.done {
                    break;
                }
            }
            rewards
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn pick_action_promotes_the_observed_job() {
        let mut env = SchedEnv::new(small_env());
        let mut obs = env.reset(2);
        // Step with Hold until at least two jobs wait, then pick the last
        // windowed job and verify it moved to the head.
        while obs.queue.len() < 2 {
            let out = env.step(Action::Hold);
            assert!(!out.done, "queue never filled");
            obs = out.observation;
        }
        let picked = obs.queue[obs.queue.len() - 1].id;
        env.step(Action::PickJob(obs.queue.len() - 1));
        // The promoted job either started immediately or now heads the
        // queue; both prove the promotion landed.
        let head = env.engine().queued_jobs().front().map(|j| j.id);
        let still_queued = env.engine().queued_jobs().iter().any(|j| j.id == picked);
        assert!(!still_queued || head == Some(picked));
    }

    #[test]
    fn rollout_is_deterministic_and_distinct_weights_differ() {
        let mut env = SchedEnv::new(small_env());
        let a = env.rollout(0, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let b = env.rollout(0, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(a, b);
        let c = env.rollout(0, [-1.0, 2.0, 0.0, 0.0, 0.0, 0.0]);
        assert_ne!(a, c, "opposite ordering should change outcomes");
    }

    #[test]
    fn head_to_head_report_is_byte_identical_across_runs() {
        let env = small_env();
        let w = [1.0, 0.25, 0.0, 0.05, 0.0, 0.0];
        let a = head_to_head(&env, w, 2).to_json();
        let b = head_to_head(&env, w, 2).to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"schema\":\"policy_report/v1\""), "{a}");
    }

    #[test]
    fn tiny_training_run_is_deterministic() {
        let config = TrainConfig {
            env: SchedEnvConfig {
                jobs: 16,
                nodes: 16,
                ..small_env()
            },
            rounds: 2,
            population: 4,
            elite: 2,
            episodes: 1,
        };
        let (a, _) = train_policy(&config);
        let (b, _) = train_policy(&config);
        assert_eq!(a, b);
        assert_eq!(a.weights.len(), SORT_FACTORS);
    }
}
