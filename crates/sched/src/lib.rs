//! # rush-sched
//!
//! The batch scheduler: FCFS/SJF queue ordering, EASY backfilling
//! (Algorithm 1 of the paper) and the RUSH variability-aware `Start()`
//! modification (Algorithm 2), driven by a discrete-event execution engine
//! over the [`rush_cluster`] machine model.
//!
//! This crate is the Flux stand-in of Section V-B. The paper implements
//! RUSH as a Flux queue-policy subclass (`queue_policy_rush_t` extending
//! `queue_policy_fcfs_t`); here the same layering appears as a
//! [`policy::QueueOrder`] for R1/R2 plus a [`predictor::VariabilityPredictor`]
//! consulted in `Start()`:
//!
//! * [`job`] — job descriptions and completion records.
//! * [`policy`] — the R1/R2 queue ordering policies (FCFS, SJF).
//! * [`easy`] — the EASY reservation/backfill computation, pure and
//!   unit-testable.
//! * [`profile`] — future node-availability profiles, the planning
//!   structure behind conservative backfilling.
//! * [`predictor`] — the `M(j, S)` abstraction: never-varies (baseline),
//!   a congestion-threshold oracle (for ablations), and — in `rush-core` —
//!   the ML predictor trained by the pipeline.
//! * [`engine`] — the discrete-event scheduler run loop with piecewise
//!   job-progress integration: contention *during* a run determines its
//!   run time, not just contention at its start.
//! * [`mod@env`] — the gym-style episodic environment for learned scheduling
//!   policies: queue/cluster observations, sort-weight or job-pick
//!   actions, negative-bounded-slowdown reward, plus the CEM training
//!   driver and the four-scheme head-to-head evaluation.
//! * [`service`] — the drift-aware online predictor service: sliding-window
//!   label store, periodic retraining, shadow evaluation, hot-swap, and
//!   post-swap regression rollback.
//! * [`retry`] — the requeue policy for jobs killed by node failures:
//!   capped exponential backoff and a bounded retry budget.
//! * [`audit`] — the runtime invariant auditor: a catalog of global
//!   consistency checks (node/job conservation, event monotonicity, skip
//!   bounds) evaluated at checkpoint boundaries or after every event.
//! * [`metrics`] — makespan, wait times, and variation counts (the
//!   quantities of Figs. 5–11).
//! * [`trace`] — queue/busy series, the event-log codec, and a text Gantt
//!   renderer.
//! * [`shard`] — pod-sharded campaign execution: full-machine runs split
//!   into independent per-pod engines, serial or one-thread-per-shard.
//! * [`source`] — streaming job sources: the engine can pull arrivals one
//!   at a time (with an out-of-order tolerance window) instead of holding
//!   the whole trace in memory.
//! * [`difftest`] — the differential equivalence harness: runs one
//!   scenario through two engine configurations and reports the first
//!   diverging log record.
//! * [`chaos`] — the seeded chaos campaign: randomized performance-fault
//!   scenarios run across FCFS/EASY/RUSH under the auditor and the
//!   differential harness, folded into a per-scheme resilience report.

pub mod audit;
pub mod chaos;
pub mod difftest;
pub mod easy;
pub mod engine;
pub mod env;
pub mod job;
pub mod metrics;
pub mod policy;
pub mod predictor;
pub mod profile;
pub mod retry;
pub mod service;
pub mod shard;
pub mod source;
pub mod trace;

pub use audit::{AuditConfig, AuditPolicy, Invariant, Violation};
pub use chaos::{run_chaos, ChaosConfig, ChaosReport, ChaosScenario, Scheme};
pub use difftest::{diff_results, DiffOutcome, DiffScenario, Divergence};
pub use engine::{
    BreakerConfig, BreakerState, ReplayStats, ScheduleResult, SchedulerConfig, SchedulerEngine,
};
pub use env::{
    head_to_head, train_policy, Action, EvalScheme, Observation, PolicyEvalReport, SchedEnv,
    SchedEnvConfig, TrainConfig,
};
pub use job::{CompletedJob, EstimateSource, FailedJob, Job, JobId};
pub use metrics::{RuntimeReference, ScheduleMetrics};
pub use policy::{LearnedPolicy, Policy, PolicySpec, QueueOrder, SORT_FACTORS};
pub use predictor::{PredictError, PredictorCtx, VariabilityClass, VariabilityPredictor};
pub use retry::RetryPolicy;
pub use service::{
    DriftDetector, LabeledSample, LoadedModel, OnlineModelHost, PredictorService, ServiceConfig,
    ServiceEvent, ServicePhase,
};
pub use shard::{
    shard_seed, CampaignResult, CampaignSummary, ShardExecution, ShardSpec, ShardedCampaign,
};
pub use source::{IterSource, JobSource, ReorderWindow, SliceSource};
pub use trace::ScheduleTrace;
