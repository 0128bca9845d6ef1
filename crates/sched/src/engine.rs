//! The discrete-event scheduler engine.
//!
//! Runs a job stream against a [`Machine`] under Algorithm 1 (queue policy
//! R1 + EASY backfill with R2) with the RUSH `Start()` of Algorithm 2. Job
//! progress is integrated piecewise: a step that changes what running jobs
//! contend for (a start, finish or kill, a performance fault, the periodic
//! tick) marks speeds dirty, and at its end one refresh re-evaluates each
//! running job's slowdown from the machine's *current* congestion and
//! filesystem saturation, converts elapsed time into completed work, and
//! reschedules its finish event. A job that runs through a congestion storm
//! therefore takes longer even if the storm began mid-run — the mechanism
//! behind the paper's variability.
//!
//! Event cancellation uses generation counters: each rescheduled finish
//! bumps the job's generation, and finish events carry the generation they
//! were scheduled under; stale events are ignored.

use crate::audit::{AuditConfig, AuditPolicy, Invariant, Violation};
use crate::easy::{backfill_allowed, compute_reservation, RunningSnapshot};
use crate::job::{CompletedJob, EstimateSource, FailedJob, Job, JobId, BOUNDED_SLOWDOWN_TAU_SECS};
use crate::policy::{PolicySpec, QueueItem};
use crate::predictor::{PredictorCtx, VariabilityClass, VariabilityPredictor};
use crate::profile::AvailabilityProfile;
use crate::retry::RetryPolicy;
use crate::service::{OnlineModelHost, PredictorService, ServiceConfig, ServiceEvent};
use crate::source::{IterSource, JobSource, SliceSource};
use crate::trace::{log_from_val, log_to_val, ScheduleTrace};
use rand::Rng;
use rush_cluster::machine::{Machine, NodeHealth, SourceId};
use rush_cluster::noise::{Regime, RegimeOverride};
use rush_cluster::placement::{NodePool, PlacementPolicy};
use rush_cluster::topology::NodeId;
use rush_obs::metrics::{CounterId, GaugeId, HistogramId};
use rush_obs::profile as obs_profile;
use rush_obs::{EventRecord, FallbackReason, MetricsRegistry, ObsEvent, ProfileScope};
use rush_simkit::event::{EventEntry, EventKey, EventQueue, QueueStats};
use rush_simkit::fault::{FaultConfig, FaultKind, FaultSchedule};
use rush_simkit::histogram::Histogram;
use rush_simkit::rng::{CountedRng, RngStreams};
use rush_simkit::snapshot::{self, Restorable, Snapshot, SnapshotError, Val};
use rush_simkit::time::{SimDuration, SimTime};
use rush_telemetry::aggregate::window_quality;
use rush_telemetry::collector::Sampler;
use rush_telemetry::store::MetricStore;
use rush_workloads::jobgen::JobRequest;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Which backfilling discipline fills holes around blocked jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackfillPolicy {
    /// No backfilling: strict queue order (head-of-line blocking).
    None,
    /// EASY: one reservation for the blocked head; anything that cannot
    /// delay it may jump (Algorithm 1).
    #[default]
    Easy,
    /// Conservative: every queued job holds a reservation; early starts can
    /// delay nothing ahead of them.
    Conservative,
}

/// Scheduler parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Main queue ordering policy (R1). Dynamic state as far as snapshots
    /// are concerned: the current spec is stored in (and restored from)
    /// the snapshot body, so an environment that retargets the policy
    /// mid-run still checkpoint/resumes byte-identically.
    pub r1: PolicySpec,
    /// Backfill ordering policy (R2).
    pub r2: PolicySpec,
    /// Backfilling discipline (paper: EASY).
    pub backfill: BackfillPolicy,
    /// RUSH skip limit per job (paper: 10). Zero disables delays entirely.
    pub skip_threshold: u32,
    /// User over-estimation factor: estimate = nominal × factor.
    pub est_factor: f64,
    /// Where the estimates backfill plans with come from: the global
    /// factor, or per-job user estimates carried on the requests (SWF
    /// field 9 / learned predictions), falling back to the factor for
    /// requests without one.
    pub estimates: EstimateSource,
    /// Progress/telemetry re-evaluation cadence.
    pub tick: SimDuration,
    /// Counter sampling cadence (drives the predictor's feature window).
    pub sampling_interval: SimDuration,
    /// Minimum time between two RUSH evaluations of the same job. A
    /// delayed job is simply passed over until the cooldown expires, so the
    /// skip budget meters *time deferred* rather than scheduler-pass count
    /// (the paper's Flux hook shells out to Python per decision, which
    /// throttles re-evaluation the same way).
    pub skip_cooldown: SimDuration,
    /// How much counter history to retain (must exceed the feature window).
    pub retention: SimDuration,
    /// Node placement policy.
    pub placement: PlacementPolicy,
    /// Retry discipline for jobs killed by node failures.
    pub retry: RetryPolicy,
    /// Fault timeline parameters (the default injects nothing).
    pub faults: FaultConfig,
    /// Telemetry window the coverage gate inspects before trusting the
    /// predictor (the paper's five-minute feature window).
    pub predictor_window: SimDuration,
    /// Minimum coverage fraction of the predictor window below which the
    /// engine skips prediction and falls back to plain EASY.
    pub min_telemetry_coverage: f64,
    /// Runtime invariant auditing (default: off).
    pub audit: AuditConfig,
    /// Online predictor service: drift detection, periodic retraining,
    /// shadow evaluation, hot-swap and rollback (default: disabled, the
    /// paper's static deployment).
    pub service: ServiceConfig,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            r1: PolicySpec::Fcfs,
            r2: PolicySpec::Fcfs,
            backfill: BackfillPolicy::Easy,
            skip_threshold: 10,
            est_factor: 1.5,
            estimates: EstimateSource::Factor,
            tick: SimDuration::from_secs(30),
            sampling_interval: SimDuration::from_secs(30),
            skip_cooldown: SimDuration::from_secs(45),
            retention: SimDuration::from_mins(10),
            placement: PlacementPolicy::LowestId,
            retry: RetryPolicy::default(),
            faults: FaultConfig::none(),
            predictor_window: SimDuration::from_mins(5),
            min_telemetry_coverage: 0.5,
            audit: AuditConfig::default(),
            service: ServiceConfig::default(),
        }
    }
}

/// Registry handles for every scheduler instrument. All names follow the
/// `sched.*` convention; registering them once up front makes updates a
/// plain `Vec` index.
#[derive(Debug, Clone, Copy)]
struct SchedCounters {
    jobs_submitted: CounterId,
    jobs_rejected: CounterId,
    jobs_started: CounterId,
    jobs_finished: CounterId,
    jobs_killed: CounterId,
    jobs_failed: CounterId,
    requeues: CounterId,
    skips: CounterId,
    predictor_verdicts: CounterId,
    fallback_telemetry_gap: CounterId,
    fallback_model_error: CounterId,
    backfill_reservations: CounterId,
    node_failures: CounterId,
    node_recoveries: CounterId,
    nodes_trusted: CounterId,
    node_degrades: CounterId,
    node_restores: CounterId,
    storms: CounterId,
    node_flaps: CounterId,
    fault_noop: CounterId,
    max_queue_len: GaugeId,
    events_delivered: GaugeId,
    event_heap_peak: GaugeId,
    event_compactions: GaugeId,
    wait_s: HistogramId,
    run_s: HistogramId,
    retry_backoff_s: HistogramId,
    audit_checks: CounterId,
    audit_violations: CounterId,
    predictor_version: GaugeId,
    predictor_drift: GaugeId,
    predictor_agreement: GaugeId,
    predictor_retrains: CounterId,
    predictor_swaps: CounterId,
    predictor_rollbacks: CounterId,
}

impl SchedCounters {
    fn register(reg: &mut MetricsRegistry) -> Self {
        SchedCounters {
            jobs_submitted: reg.register_counter("sched.jobs_submitted"),
            jobs_rejected: reg.register_counter("sched.jobs_rejected"),
            jobs_started: reg.register_counter("sched.jobs_started"),
            jobs_finished: reg.register_counter("sched.jobs_finished"),
            jobs_killed: reg.register_counter("sched.jobs_killed"),
            jobs_failed: reg.register_counter("sched.jobs_failed"),
            requeues: reg.register_counter("sched.requeues"),
            skips: reg.register_counter("sched.skips"),
            predictor_verdicts: reg.register_counter("sched.predictor_verdicts"),
            fallback_telemetry_gap: reg.register_counter("sched.fallback_telemetry_gap"),
            fallback_model_error: reg.register_counter("sched.fallback_model_error"),
            backfill_reservations: reg.register_counter("sched.backfill_reservations"),
            node_failures: reg.register_counter("sched.node_failures"),
            node_recoveries: reg.register_counter("sched.node_recoveries"),
            nodes_trusted: reg.register_counter("sched.nodes_trusted"),
            node_degrades: reg.register_counter("sched.node_degrades"),
            node_restores: reg.register_counter("sched.node_restores"),
            storms: reg.register_counter("sched.storms"),
            node_flaps: reg.register_counter("sched.node_flaps"),
            fault_noop: reg.register_counter("sched.fault_noop"),
            max_queue_len: reg.register_gauge("sched.max_queue_len"),
            events_delivered: reg.register_gauge("sched.events_delivered"),
            event_heap_peak: reg.register_gauge("sched.event_heap_peak"),
            event_compactions: reg.register_gauge("sched.event_compactions"),
            wait_s: reg.register_histogram("sched.wait_s", Histogram::for_seconds()),
            run_s: reg.register_histogram("sched.run_s", Histogram::for_seconds()),
            retry_backoff_s: reg
                .register_histogram("sched.retry_backoff_s", Histogram::for_seconds()),
            audit_checks: reg.register_counter("audit.checks"),
            audit_violations: reg.register_counter("audit.violations"),
            predictor_version: reg.register_gauge("sched.predictor.version"),
            predictor_drift: reg.register_gauge("sched.predictor.drift_score"),
            predictor_agreement: reg.register_gauge("sched.predictor.shadow_agreement"),
            predictor_retrains: reg.register_counter("sched.predictor.retrains"),
            predictor_swaps: reg.register_counter("sched.predictor.swaps"),
            predictor_rollbacks: reg.register_counter("sched.predictor.rollbacks"),
        }
    }
}

/// The single outcome of one `Start()` predictor consultation. Exactly one
/// variant is produced per decision, so a consultation can never be counted
/// both as a fallback *and* as a verdict-driven skip — the double-counting
/// bug this replaces arose from tracking `fallback` and `delay` as two
/// independent booleans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StartConsult {
    /// Skip budget exhausted: launch unconditionally, predictor untouched.
    BudgetExhausted,
    /// The predictor produced a class (which may or may not trigger delay).
    Verdict(crate::predictor::VariabilityClass),
    /// The predictor was bypassed; schedule as plain EASY.
    Fallback(FallbackReason),
}

/// A running job's execution state.
#[derive(Debug, Clone)]
struct RunningJob {
    job: Job,
    nodes: Vec<NodeId>,
    start_at: SimTime,
    launch_prediction: Option<crate::predictor::VariabilityClass>,
    /// Total nominal work, seconds at speed 1 (for phase progress).
    total_work: f64,
    /// Remaining nominal work, in seconds at speed 1.
    remaining_work: f64,
    /// Current execution speed (1 / slowdown); 0 until the refresh that
    /// ends the job's start step.
    speed: f64,
    last_update: SimTime,
    generation: u64,
    skips: u32,
    /// Cancellation handle for the currently pending finish event. `None`
    /// only between the job's start and the refresh that ends that step,
    /// which schedules the first one.
    finish_key: Option<EventKey>,
    /// When that pending finish event fires. A refresh that recomputes the
    /// identical microsecond skips rescheduling.
    finish_at: SimTime,
}

/// The fields backfilling needs from a queued job: its R2 sort keys plus
/// the admission inputs. Snapshotting these instead of cloning whole
/// [`Job`]s keeps the backfill scan allocation-light.
#[derive(Debug, Clone, Copy)]
struct BackfillCand {
    id: JobId,
    nodes_requested: u32,
    submit_at: SimTime,
    est_runtime: SimDuration,
}

impl QueueItem for BackfillCand {
    fn submit_at(&self) -> SimTime {
        self.submit_at
    }
    fn est_runtime(&self) -> SimDuration {
        self.est_runtime
    }
    fn nodes_requested(&self) -> u32 {
        self.nodes_requested
    }
    fn id(&self) -> JobId {
        self.id
    }
}

/// Events driving the run loop.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// The k-th job in arrival order arrives. Submissions are chained —
    /// handling `Submit(k)` schedules `Submit(k+1)` — so the heap holds one
    /// pending submission at a time instead of the whole job stream.
    Submit(usize),
    /// A running job's finish fires (valid only at its generation).
    Finish(JobId, u64),
    /// Periodic progress + telemetry + scheduling re-evaluation.
    Tick,
    /// An injected infrastructure fault fires.
    Fault(FaultKind),
    /// A killed job's retry backoff expires; try to schedule again.
    Retry(JobId),
    /// A repaired node's Suspect probation ends; readmit it.
    Trust(u32),
}

impl Ev {
    /// Snapshot encoding: `[tag, args...]` with stable integer tags.
    fn to_val(self) -> Val {
        Val::List(match self {
            Ev::Submit(k) => vec![Val::U64(0), Val::U64(k as u64)],
            Ev::Finish(id, gen) => vec![Val::U64(1), Val::U64(id.0), Val::U64(gen)],
            Ev::Tick => vec![Val::U64(2)],
            Ev::Fault(kind) => {
                // Codes and arg lists are part of the snapshot format; new
                // kinds append codes, existing ones are never renumbered.
                let (code, args): (u64, Vec<u64>) = match kind {
                    FaultKind::NodeDown(n) => (0, vec![u64::from(n)]),
                    FaultKind::NodeUp(n) => (1, vec![u64::from(n)]),
                    FaultKind::BlackoutStart => (2, vec![0]),
                    FaultKind::BlackoutEnd => (3, vec![0]),
                    FaultKind::CorruptionStart => (4, vec![0]),
                    FaultKind::CorruptionEnd => (5, vec![0]),
                    FaultKind::NodeDegrade { node, factor_milli } => {
                        (6, vec![u64::from(node), u64::from(factor_milli)])
                    }
                    FaultKind::NodeRestore(n) => (7, vec![u64::from(n)]),
                    FaultKind::CongestionStorm {
                        region,
                        intensity_milli,
                    } => (8, vec![u64::from(region), u64::from(intensity_milli)]),
                    FaultKind::StormEnd { region } => (9, vec![u64::from(region)]),
                    FaultKind::NodeFlap {
                        node,
                        period,
                        count,
                    } => (
                        10,
                        vec![u64::from(node), period.as_micros(), u64::from(count)],
                    ),
                };
                let mut items = vec![Val::U64(3), Val::U64(code)];
                items.extend(args.into_iter().map(Val::U64));
                items
            }
            Ev::Retry(id) => vec![Val::U64(4), Val::U64(id.0)],
            Ev::Trust(n) => vec![Val::U64(5), Val::U64(n as u64)],
        })
    }

    /// Inverse of [`Ev::to_val`].
    fn from_val(v: &Val) -> Result<Ev, SnapshotError> {
        let items = v.as_list()?;
        let arg = |i: usize| -> Result<u64, SnapshotError> {
            items
                .get(i)
                .ok_or_else(|| SnapshotError::Schema("short event".to_string()))?
                .as_u64()
        };
        let small = |i: usize| -> Result<u32, SnapshotError> {
            let x = arg(i)?;
            u32::try_from(x)
                .map_err(|_| SnapshotError::Schema(format!("event field {i} = {x} exceeds u32")))
        };
        Ok(match arg(0)? {
            0 => Ev::Submit(arg(1)? as usize),
            1 => Ev::Finish(JobId(arg(1)?), arg(2)?),
            2 => Ev::Tick,
            3 => Ev::Fault(match arg(1)? {
                0 => FaultKind::NodeDown(small(2)?),
                1 => FaultKind::NodeUp(small(2)?),
                2 => FaultKind::BlackoutStart,
                3 => FaultKind::BlackoutEnd,
                4 => FaultKind::CorruptionStart,
                5 => FaultKind::CorruptionEnd,
                6 => FaultKind::NodeDegrade {
                    node: small(2)?,
                    factor_milli: small(3)?,
                },
                7 => FaultKind::NodeRestore(small(2)?),
                8 => FaultKind::CongestionStorm {
                    region: small(2)?,
                    intensity_milli: small(3)?,
                },
                9 => FaultKind::StormEnd { region: small(2)? },
                10 => FaultKind::NodeFlap {
                    node: small(2)?,
                    period: SimDuration::from_micros(arg(3)?),
                    count: small(4)?,
                },
                other => {
                    return Err(SnapshotError::Schema(format!("bad fault code {other}")));
                }
            }),
            4 => Ev::Retry(JobId(arg(1)?)),
            5 => Ev::Trust(small(1)?),
            other => return Err(SnapshotError::Schema(format!("bad event tag {other}"))),
        })
    }
}

/// Aggregate replay outcomes, folded incrementally as jobs settle. Always
/// maintained; under [`SchedulerEngine::with_completion_folding`] it is the
/// *only* outcome record, so a million-job streaming replay reports
/// utilization and bounded slowdown without retaining per-job vectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayStats {
    /// Jobs that finished.
    pub completed: u64,
    /// Jobs that exhausted their retry budget.
    pub failed: u64,
    /// Jobs rejected at submission (request exceeds pool capacity).
    pub rejected: u64,
    /// Σ nodes × observed runtime over completed jobs, node-seconds — the
    /// numerator of machine utilization.
    pub node_seconds: f64,
    /// Σ queue wait over completed jobs, seconds.
    pub wait_sum_secs: f64,
    /// Σ observed runtime over completed jobs, seconds.
    pub run_sum_secs: f64,
    /// Σ bounded slowdown over completed jobs.
    pub bounded_slowdown_sum: f64,
    /// Worst single bounded slowdown.
    pub bounded_slowdown_max: f64,
    /// Latest completion time.
    pub last_end: SimTime,
}

impl Default for ReplayStats {
    fn default() -> Self {
        ReplayStats {
            completed: 0,
            failed: 0,
            rejected: 0,
            node_seconds: 0.0,
            wait_sum_secs: 0.0,
            run_sum_secs: 0.0,
            bounded_slowdown_sum: 0.0,
            bounded_slowdown_max: 0.0,
            last_end: SimTime::ZERO,
        }
    }
}

impl ReplayStats {
    /// Folds one completion in (same float-op order on a live run and on a
    /// resumed one rebuilding from the snapshot's completion list).
    fn observe_completion(&mut self, wait: SimDuration, run: SimDuration, nodes: usize) {
        let wait_s = wait.as_secs_f64();
        let run_s = run.as_secs_f64();
        self.completed += 1;
        self.node_seconds += nodes as f64 * run_s;
        self.wait_sum_secs += wait_s;
        self.run_sum_secs += run_s;
        let bsld = ((wait_s + run_s) / run_s.max(BOUNDED_SLOWDOWN_TAU_SECS)).max(1.0);
        self.bounded_slowdown_sum += bsld;
        self.bounded_slowdown_max = self.bounded_slowdown_max.max(bsld);
    }

    /// Jobs settled so far (completed, failed, or rejected).
    pub fn settled(&self) -> u64 {
        self.completed + self.failed + self.rejected
    }

    /// Mean queue wait across completed jobs, seconds.
    pub fn mean_wait_secs(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.wait_sum_secs / self.completed as f64
    }

    /// Mean bounded slowdown across completed jobs (≥ 1 when any
    /// completed).
    pub fn mean_bounded_slowdown(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.bounded_slowdown_sum / self.completed as f64
    }

    /// Machine utilization: completed node-seconds over `nodes` ×
    /// `makespan` (Section VI-C's denominator).
    pub fn utilization(&self, nodes: usize, makespan: SimDuration) -> f64 {
        let denom = nodes as f64 * makespan.as_secs_f64();
        if denom <= 0.0 {
            return 0.0;
        }
        self.node_seconds / denom
    }
}

/// The outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct ScheduleResult {
    /// All finished jobs.
    pub completed: Vec<CompletedJob>,
    /// Jobs killed by node failures that exhausted their retry budget.
    /// `completed.len() + failed.len()` always equals the submitted count —
    /// no job is ever lost.
    pub failed: Vec<FailedJob>,
    /// Total RUSH delays issued.
    pub total_skips: u64,
    /// Largest queue length observed.
    pub max_queue_len: usize,
    /// Name of the predictor that drove `Start()`.
    pub predictor_name: String,
    /// Earliest submission.
    pub first_submit: SimTime,
    /// Latest completion.
    pub last_end: SimTime,
    /// Start decisions where the engine bypassed the predictor (telemetry
    /// coverage below threshold or predictor error) and fell back to plain
    /// EASY.
    pub fallback_decisions: u64,
    /// Times a killed job re-entered the queue.
    pub requeues: u64,
    /// Node crashes that fired during the run.
    pub node_failures: u64,
    /// The queue-length and busy-node series, sampled at every lifecycle
    /// record of `events`. Empty under completion folding.
    pub trace: ScheduleTrace,
    /// The run's complete event log: every decision, in emission order,
    /// with `seq` equal to the index. Empty under completion folding.
    pub events: Vec<EventRecord>,
    /// Registry-backed metrics for this run (`sched.*` namespace).
    pub metrics: MetricsRegistry,
    /// Event-heap lifetime statistics (scheduled/delivered/cancelled counts,
    /// peak physical heap size, compaction sweeps).
    pub event_queue: QueueStats,
    /// Aggregate outcomes folded incrementally during the run. Under
    /// completion folding this is the only record (`completed`/`failed`
    /// come back empty).
    pub replay: ReplayStats,
}

impl ScheduleResult {
    /// Makespan: first submission to last completion (Section VI-C).
    pub fn makespan(&self) -> SimDuration {
        self.last_end.since(self.first_submit)
    }

    /// Mean queue wait across all jobs, seconds.
    pub fn mean_wait_secs(&self) -> f64 {
        if self.completed.is_empty() {
            return 0.0;
        }
        self.completed
            .iter()
            .map(|c| c.wait().as_secs_f64())
            .sum::<f64>()
            / self.completed.len() as f64
    }
}

/// The discrete-event scheduler.
pub struct SchedulerEngine {
    machine: Machine,
    pool: NodePool,
    store: MetricStore,
    sampler: Sampler,
    config: SchedulerConfig,
    predictor: Box<dyn VariabilityPredictor>,
    queue: Vec<Job>,
    /// Running jobs in id order, the order the speed refresh visits them.
    running: BTreeMap<JobId, RunningJob>,
    /// Set by whatever changes running jobs' speeds within a step; the step
    /// then ends with one [`refresh_running_speeds`](Self::refresh_running_speeds).
    /// Always clear between steps.
    speeds_dirty: bool,
    skip_table: HashMap<JobId, u32>,
    delayed_until: HashMap<JobId, SimTime>,
    /// Kill count per job (node-failure retries).
    attempts: HashMap<JobId, u32>,
    completed: Vec<CompletedJob>,
    failed: Vec<FailedJob>,
    events: EventQueue<Ev>,
    rng_place: CountedRng,
    rng_run: CountedRng,
    rng_pred: CountedRng,
    /// The master seed the RNG streams were derived from; snapshots embed
    /// it so a resume into a differently-seeded engine is rejected.
    master_seed: u64,
    /// Where arrivals come from; `None` until
    /// [`prepare_streaming`](SchedulerEngine::prepare_streaming). Jobs are a
    /// pure function of the requests and config, so snapshots reference
    /// them by id and [`resume`](SchedulerEngine::resume) rebuilds them by
    /// pulling the same requests again.
    source: Option<Box<dyn JobSource>>,
    /// The one pulled-but-not-yet-submitted arrival: the lookahead behind
    /// the single pending `Submit` event.
    next_stream_job: Option<Job>,
    /// Drop per-job completion records after folding them into `replay`
    /// (bounded-memory streaming replays).
    fold_completions: bool,
    /// Aggregate outcomes, folded as jobs settle (always maintained).
    replay: ReplayStats,
    first_submit: SimTime,
    /// Requests pulled from `source` so far.
    pulled: usize,
    /// The source's request count, when it knows it
    /// ([`JobSource::total_hint`]).
    request_total: Option<usize>,
    /// Nodes permanently held by the experiment's noise job: the audit's
    /// node-conservation bound must not count them as leaked.
    reserved_nodes: usize,
    /// The online predictor service, when enabled via
    /// [`SchedulerEngine::with_online_predictor`]. When present, predictor
    /// consultations route through it instead of `predictor`.
    service: Option<PredictorService>,
    max_queue_len: usize,
    /// Whether `queue` may be out of R1 order (`schedule_pass` re-sorts
    /// only when this is set).
    queue_dirty: bool,
    /// Globally unique finish-event generation counter. Never reused, so a
    /// stale finish event from before a kill can never match a restarted
    /// job's fresh generation.
    next_gen: u64,
    /// The append-only event log ([`ScheduleResult::events`]).
    log: Vec<EventRecord>,
    trace: ScheduleTrace,
    registry: MetricsRegistry,
    counters: SchedCounters,
}

impl SchedulerEngine {
    /// Builds an engine over `machine` with the given predictor.
    ///
    /// `seed` controls placement, run-time noise and predictor randomness
    /// independently of the machine's own seed.
    pub fn new(
        machine: Machine,
        config: SchedulerConfig,
        predictor: Box<dyn VariabilityPredictor>,
        seed: u64,
    ) -> Self {
        let node_count = machine.tree().node_count();
        let nodes_per_edge = machine.tree().config().nodes_per_edge;
        let streams = RngStreams::new(seed);
        let nodes: Vec<NodeId> = (0..node_count).map(NodeId).collect();
        let mut registry = MetricsRegistry::new();
        let counters = SchedCounters::register(&mut registry);
        SchedulerEngine {
            pool: NodePool::with_topology(node_count, nodes_per_edge, config.placement),
            store: MetricStore::new(node_count, machine.config().seed),
            sampler: Sampler::new(nodes, config.sampling_interval)
                .with_corruption_prob(config.faults.corruption_prob),
            machine,
            config,
            predictor,
            queue: Vec::new(),
            running: BTreeMap::new(),
            speeds_dirty: false,
            skip_table: HashMap::new(),
            delayed_until: HashMap::new(),
            attempts: HashMap::new(),
            completed: Vec::new(),
            failed: Vec::new(),
            events: EventQueue::new(),
            rng_place: streams.counted_stream("sched/place"),
            rng_run: streams.counted_stream("sched/run"),
            rng_pred: streams.counted_stream("sched/predict"),
            master_seed: seed,
            source: None,
            next_stream_job: None,
            fold_completions: false,
            replay: ReplayStats::default(),
            first_submit: SimTime::ZERO,
            pulled: 0,
            request_total: None,
            reserved_nodes: 0,
            service: None,
            max_queue_len: 0,
            queue_dirty: false,
            next_gen: 0,
            log: Vec::new(),
            trace: ScheduleTrace::new(),
            registry,
            counters,
        }
    }

    /// No-op: the event log is always complete. Kept only because the
    /// benchmark package still calls it; it goes with the next change to
    /// that package.
    pub fn with_tracing(self, _capacity: usize) -> Self {
        self
    }

    /// Starts the experiment's noise job on `nodes` (removed from the
    /// schedulable pool, per Section VI-A's 1/16th reservation).
    pub fn with_noise_job(mut self, nodes: Vec<NodeId>, max_gbps: f64) -> Self {
        self.reserved_nodes += nodes.len();
        self.pool.reserve_permanently(&nodes);
        self.machine.enable_noise_job(nodes, max_gbps);
        self
    }

    /// Enables the online predictor service: consultations route through a
    /// [`PredictorService`] built from `config.service`, which retrains on
    /// the completed-job label window, shadow-evaluates candidates, and
    /// hot-swaps or rolls back. `initial_artifact` is the live model's
    /// portable encoding; the service seeds retraining from the engine's
    /// master seed. No-op (keeps the plain predictor) when
    /// `config.service.retrain_every` is zero.
    pub fn with_online_predictor(
        mut self,
        host: Box<dyn OnlineModelHost>,
        reference: crate::metrics::RuntimeReference,
        initial_artifact: String,
    ) -> Self {
        if self.config.service.enabled() {
            let svc = PredictorService::new(
                self.config.service,
                host,
                reference,
                initial_artifact,
                self.master_seed,
            );
            self.registry
                .set_gauge(self.counters.predictor_version, f64::from(svc.version()));
            self.service = Some(svc);
        }
        self
    }

    /// Schedules a machine-wide congestion-regime override for
    /// `[from, to)` — the lever CI's drift scenario uses to inject a
    /// seeded mid-campaign distribution shift. Config-time, so a resumed
    /// process reconstructs the identical timeline.
    pub fn with_regime_shift(mut self, from: SimTime, to: SimTime, regime: Regime) -> Self {
        self.machine
            .add_regime_override(RegimeOverride { from, to, regime });
        self
    }

    /// Immutable access to the machine (for tests and reports).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The online predictor service, when enabled.
    pub fn service(&self) -> Option<&PredictorService> {
        self.service.as_ref()
    }

    /// Runs the whole job stream to completion and returns the result.
    ///
    /// Equivalent to [`prepare`](Self::prepare), stepping every event, then
    /// [`finalize`](Self::finalize) — the decomposed form exists so a
    /// checkpointing driver can pause between events.
    pub fn run(&mut self, requests: &[JobRequest]) -> ScheduleResult {
        self.prepare(requests);
        while self.step().is_some() {}
        self.finalize()
    }

    /// Seeds the run with `requests`: exactly
    /// [`prepare_streaming`](Self::prepare_streaming) over a
    /// [`SliceSource`], which submits them in `(submit_at, slice position)`
    /// order.
    pub fn prepare(&mut self, requests: &[JobRequest]) {
        self.prepare_streaming(Box::new(SliceSource::new(requests)));
    }

    /// Seeds the run from `source`. Must be called exactly once before
    /// [`step`](Self::step), or before [`resume`](Self::resume), which
    /// pulls the same requests again to rebuild the jobs a snapshot
    /// references by id. The engine pulls one request at a time as its
    /// chained `Submit` events fire, so memory is bounded by *live* jobs.
    ///
    /// An empty source prepares trivially (the run completes with no
    /// outcomes); a request larger than the schedulable pool is *not* an
    /// error here: it is rejected at its submission instant, with a
    /// [`ObsEvent::JobRejected`] record and the `sched.jobs_rejected`
    /// counter.
    pub fn prepare_streaming(&mut self, source: Box<dyn JobSource>) {
        assert!(self.source.is_none(), "prepare called twice");
        self.request_total = source.total_hint().map(|n| n as usize);
        self.source = Some(source);
        self.pull_next_arrival();
        self.first_submit = self
            .next_stream_job
            .as_ref()
            .map(|j| j.submit_at)
            .unwrap_or(SimTime::ZERO);
        self.seed_clock_events();
    }

    /// Runs a streaming source to completion:
    /// [`prepare_streaming`](Self::prepare_streaming), step every event,
    /// [`finalize`](Self::finalize).
    pub fn run_streaming(&mut self, source: Box<dyn JobSource>) -> ScheduleResult {
        self.prepare_streaming(source);
        while self.step().is_some() {}
        self.finalize()
    }

    /// Discards per-job completion records as they fold into the aggregate
    /// [`ReplayStats`], bounding memory on million-job replays. The
    /// result's `completed`/`failed` vectors come back empty; snapshotting
    /// is unavailable in this mode, because a snapshot restores the
    /// completion list.
    pub fn with_completion_folding(mut self) -> Self {
        self.fold_completions = true;
        self
    }

    /// The aggregate outcomes folded so far (live during a run).
    pub fn replay_stats(&self) -> &ReplayStats {
        &self.replay
    }

    /// Retargets the R1/R2 queue-ordering policies mid-run (the learned
    /// environment's continuous action). The queue is marked dirty so the
    /// next scheduling pass re-sorts it under the new order; determinism
    /// is unaffected because the call itself is part of the replayed
    /// decision sequence, and snapshots carry the live specs.
    pub fn set_queue_policy(&mut self, r1: PolicySpec, r2: PolicySpec) {
        if self.config.r1 != r1 || self.config.r2 != r2 {
            self.config.r1 = r1;
            self.config.r2 = r2;
            self.queue_dirty = true;
        }
    }

    /// Moves a waiting job to the head of the queue (the environment's
    /// discrete job-pick action). Returns false if the job is not queued.
    /// The queue is left dirty-free on purpose: the promotion must survive
    /// until the next scheduling pass consumes it, and a re-sort would
    /// undo it; subsequent incremental inserts still behave
    /// deterministically.
    pub fn promote_job(&mut self, id: JobId) -> bool {
        match self.queue.iter().position(|j| j.id == id) {
            Some(pos) => {
                let job = self.queue.remove(pos);
                self.queue.insert(0, job);
                true
            }
            None => false,
        }
    }

    /// The jobs currently waiting, in queue order (environment
    /// observations).
    pub fn queued_jobs(&self) -> &[Job] {
        &self.queue
    }

    /// Jobs currently running.
    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// Schedulable nodes currently free.
    pub fn free_node_count(&self) -> usize {
        self.pool.free_count()
    }

    /// Total schedulable nodes.
    pub fn node_capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// Schedules the clock-driven events: the first tick and the
    /// reproducible fault timeline (a pure function of
    /// (fault config, node count), so a faulty run stays a deterministic
    /// function of its seeds).
    fn seed_clock_events(&mut self) {
        self.events.schedule(SimTime::ZERO, Ev::Tick);
        let fault_schedule =
            FaultSchedule::generate(&self.config.faults, self.machine.tree().node_count());
        for fault in fault_schedule.events() {
            self.events.schedule(fault.at, Ev::Fault(fault.kind));
        }
    }

    /// Pulls the next request, builds its job, and chains its `Submit(k)`
    /// event (`k` = the arrival's pull index). The event time is clamped to
    /// the clock so a source that violates its ordering contract degrades
    /// to immediate submission instead of corrupting event monotonicity.
    fn pull_next_arrival(&mut self) {
        let req = match self
            .source
            .as_mut()
            .expect("pull_next_arrival before prepare")
            .next_request()
        {
            Some(req) => req,
            None => {
                self.next_stream_job = None;
                return;
            }
        };
        let job = self.job_of_request(&req);
        self.events.schedule(
            job.submit_at.max(self.events.now()),
            Ev::Submit(self.pulled),
        );
        self.pulled += 1;
        self.next_stream_job = Some(job);
    }

    fn job_of_request(&self, req: &JobRequest) -> Job {
        Job::from_request_with(
            req,
            self.config.est_factor,
            self.config.estimates,
            self.config.skip_threshold,
        )
    }

    /// Delivers the next event. Returns its firing time, or `None` when the
    /// run is complete (the heap is empty).
    pub fn step(&mut self) -> Option<SimTime> {
        let entry = self.events.pop()?;
        let _tick_scope = obs_profile::scope(ProfileScope::EngineTick);
        let now = entry.time;
        match entry.event {
            Ev::Submit(_) => {
                // Chain the next arrival before anything else so the heap
                // never runs dry while submissions remain.
                let job = self
                    .next_stream_job
                    .take()
                    .expect("submit without a pulled job");
                self.pull_next_arrival();
                self.advance_world(now);
                let capacity = self.pool.capacity() as u32;
                if job.nodes_requested > capacity {
                    // Can never fit: reject at the submission instant —
                    // counted, traced, and conserved — instead of wedging
                    // the queue head forever.
                    self.replay.rejected += 1;
                    self.registry.inc(self.counters.jobs_rejected);
                    self.emit(
                        now,
                        ObsEvent::JobRejected {
                            job: job.id.0,
                            nodes: job.nodes_requested,
                            capacity,
                        },
                    );
                } else {
                    self.registry.inc(self.counters.jobs_submitted);
                    self.emit(now, ObsEvent::JobSubmitted { job: job.id.0 });
                    self.enqueue_job(job);
                    self.schedule_pass(now);
                }
            }
            Ev::Finish(id, generation) => {
                let valid = self
                    .running
                    .get(&id)
                    .map(|r| r.generation == generation)
                    .unwrap_or(false);
                if valid {
                    self.advance_world(now);
                    self.finish_job(id, now);
                    self.schedule_pass(now);
                }
                // else: stale generation. Superseded finish events are
                // cancelled, so this is only a backstop.
            }
            Ev::Tick => {
                self.advance_world(now);
                if self.retention_prune_due(now) {
                    // Tick times are a pure function of the event stream, so
                    // pruning here (instead of per event) is deterministic
                    // across runs and across snapshot/resume boundaries.
                    self.store
                        .retain_from(now.saturating_sub(self.config.retention));
                }
                // Background load drifts between ticks: re-speed every
                // running job even if nothing starts or finishes.
                self.speeds_dirty = true;
                self.schedule_pass(now);
                let work_remains = !self.queue.is_empty()
                    || !self.running.is_empty()
                    || self.next_stream_job.is_some();
                if work_remains {
                    self.events.schedule(now + self.config.tick, Ev::Tick);
                }
            }
            Ev::Fault(kind) => {
                self.advance_world(now);
                self.handle_fault(kind, now);
            }
            Ev::Retry(id) => {
                // The job's backoff expired; it is already queued, so
                // one scheduling pass is all a retry needs.
                if self.queue.iter().any(|j| j.id == id) {
                    self.advance_world(now);
                    self.schedule_pass(now);
                }
            }
            Ev::Trust(node) => {
                // Probation over — unless the node crashed again while
                // suspect, in which case its next NodeUp restarts the
                // cycle and this event is stale.
                let node = NodeId(node);
                if self.machine.node_health(node) == NodeHealth::Suspect {
                    self.advance_world(now);
                    self.machine.trust_node(node);
                    self.pool.mark_up(node);
                    self.registry.inc(self.counters.nodes_trusted);
                    self.emit(now, ObsEvent::NodeTrusted { node: node.0 });
                    self.schedule_pass(now);
                }
            }
        }
        // One refresh settles every speed change of this step. Running it
        // after the pass is safe: the pass plans with estimates, never with
        // speeds.
        if self.speeds_dirty {
            self.refresh_running_speeds(now);
        }
        if self.config.audit.enabled() && self.config.audit.every_event {
            self.audit_now(now);
        }
        Some(now)
    }

    /// Simulation clock: the firing time of the last delivered event.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// True once the event heap has drained ([`step`](Self::step) would
    /// return `None`).
    pub fn is_done(&self) -> bool {
        self.events.is_empty()
    }

    /// `(jobs settled, jobs in the run)` — a cheap progress indicator for
    /// checkpointing and replay drivers. The second component is the
    /// source's [`total_hint`](JobSource::total_hint), or the requests
    /// pulled so far when the source gives none.
    pub fn progress(&self) -> (usize, usize) {
        (
            self.replay.settled() as usize,
            self.request_total.unwrap_or(self.pulled),
        )
    }

    /// Collects the run's outcome. Call only after [`step`](Self::step)
    /// returns `None`; a paused run has live jobs and must be snapshotted
    /// instead.
    pub fn finalize(&mut self) -> ScheduleResult {
        if self.config.audit.enabled() {
            self.audit_now(self.events.now());
        }
        assert!(
            self.queue.is_empty() && self.running.is_empty(),
            "run loop ended with unfinished jobs"
        );
        assert_eq!(
            self.replay.settled() as usize,
            self.pulled,
            "every submitted job must end completed, failed, or rejected"
        );
        let last_end = if self.replay.completed == 0 {
            self.first_submit
        } else {
            self.replay.last_end
        };
        self.registry
            .set_gauge(self.counters.max_queue_len, self.max_queue_len as f64);
        let queue_stats = self.events.stats();
        self.registry
            .set_gauge(self.counters.events_delivered, queue_stats.delivered as f64);
        self.registry
            .set_gauge(self.counters.event_heap_peak, queue_stats.peak_heap as f64);
        self.registry.set_gauge(
            self.counters.event_compactions,
            queue_stats.compactions as f64,
        );
        self.sampler.export_metrics(&mut self.registry);
        self.machine.export_metrics(&mut self.registry);
        // The legacy scalar fields are views over the registry now — one
        // source of truth, two access paths.
        let fallback_decisions = self.registry.counter(self.counters.fallback_telemetry_gap)
            + self.registry.counter(self.counters.fallback_model_error);
        ScheduleResult {
            completed: std::mem::take(&mut self.completed),
            failed: std::mem::take(&mut self.failed),
            total_skips: self.registry.counter(self.counters.skips),
            max_queue_len: self.max_queue_len,
            predictor_name: self.predictor.name().to_string(),
            first_submit: self.first_submit,
            last_end,
            fallback_decisions,
            requeues: self.registry.counter(self.counters.requeues),
            node_failures: self.registry.counter(self.counters.node_failures),
            trace: std::mem::take(&mut self.trace),
            events: std::mem::take(&mut self.log),
            metrics: self.registry.clone(),
            event_queue: queue_stats,
            replay: self.replay,
        }
    }

    /// Applies one injected fault at `now`.
    ///
    /// `NodeDown`/`NodeUp` are idempotent: overlapping fault processes (a
    /// flap burst racing the crash process, say) can deliver a Down for an
    /// already-quarantined node or an Up for a healthy one, and
    /// double-applying either would double-count transitions or double-release
    /// capacity. Such deliveries count `sched.fault_noop` and do nothing.
    fn handle_fault(&mut self, kind: FaultKind, now: SimTime) {
        match kind {
            FaultKind::NodeDown(n) => {
                let node = NodeId(n);
                if self.machine.node_health(node) == NodeHealth::Down {
                    // Pool and machine must agree that the node is out.
                    debug_assert!(self.pool.is_down(node), "machine/pool disagree on {node:?}");
                    self.registry.inc(self.counters.fault_noop);
                    return;
                }
                self.registry.inc(self.counters.node_failures);
                self.machine.fail_node(node);
                self.pool.mark_down(node);
                self.emit(now, ObsEvent::NodeDown { node: n });
                // Kill everything running on the crashed node.
                let victims: Vec<JobId> = self
                    .running
                    .iter()
                    .filter(|(_, r)| r.nodes.contains(&node))
                    .map(|(&id, _)| id)
                    .collect();
                for id in victims {
                    self.kill_job(id, now);
                }
                // Freed survivor-side capacity may admit queued work.
                self.schedule_pass(now);
            }
            FaultKind::NodeUp(n) => {
                let node = NodeId(n);
                if self.machine.node_health(node) != NodeHealth::Down {
                    // Already repaired (or never crashed): re-applying would
                    // re-quarantine a serving node and queue a spurious
                    // probation pass.
                    debug_assert!(
                        !self.pool.is_down(node)
                            || self.machine.node_health(node) == NodeHealth::Suspect
                    );
                    self.registry.inc(self.counters.fault_noop);
                    return;
                }
                // Repair done: telemetry resumes (Suspect), but placement
                // stays quarantined until the probation ends.
                self.machine.recover_node(node);
                self.registry.inc(self.counters.node_recoveries);
                self.emit(now, ObsEvent::NodeUp { node: n });
                self.events
                    .schedule(now + self.config.faults.suspect_probation, Ev::Trust(n));
            }
            FaultKind::NodeDegrade { node, factor_milli } => {
                let id = NodeId(node);
                self.machine.degrade_node(id, factor_milli);
                self.registry.inc(self.counters.node_degrades);
                self.emit(now, ObsEvent::NodeDegraded { node, factor_milli });
                // The straggler slows every job sharing it from this instant.
                self.speeds_dirty = true;
            }
            FaultKind::NodeRestore(node) => {
                self.machine.restore_node_speed(NodeId(node));
                self.registry.inc(self.counters.node_restores);
                self.emit(now, ObsEvent::NodeRestored { node });
                self.speeds_dirty = true;
            }
            FaultKind::CongestionStorm {
                region,
                intensity_milli,
            } => {
                self.machine.start_storm(region, intensity_milli);
                self.registry.inc(self.counters.storms);
                self.emit(
                    now,
                    ObsEvent::StormStarted {
                        region,
                        intensity_milli,
                    },
                );
                // Injected contention raises congestion for everything whose
                // links cross the stormed pod.
                self.speeds_dirty = true;
            }
            FaultKind::StormEnd { region } => {
                self.machine.end_storm(region);
                self.emit(now, ObsEvent::StormEnded { region });
                self.speeds_dirty = true;
            }
            FaultKind::NodeFlap {
                node,
                period,
                count,
            } => {
                // Expand one cycle here and chain the rest through the event
                // queue: crash now, repair half a period later, next cycle a
                // full period out. The Down/Up deliveries go through the
                // idempotent arms above, so a flap overlapping the regular
                // crash process degrades to counted no-ops instead of
                // double-releasing capacity.
                self.registry.inc(self.counters.node_flaps);
                self.emit(
                    now,
                    ObsEvent::NodeFlapped {
                        node,
                        cycles: count,
                    },
                );
                self.handle_fault(FaultKind::NodeDown(node), now);
                let half = SimDuration::from_micros(period.as_micros() / 2);
                self.events
                    .schedule(now + half, Ev::Fault(FaultKind::NodeUp(node)));
                if count > 1 {
                    self.events.schedule(
                        now + period,
                        Ev::Fault(FaultKind::NodeFlap {
                            node,
                            period,
                            count: count - 1,
                        }),
                    );
                }
            }
            FaultKind::BlackoutStart => self.sampler.set_blackout(true),
            FaultKind::BlackoutEnd => self.sampler.set_blackout(false),
            FaultKind::CorruptionStart => self.sampler.set_corruption(true),
            FaultKind::CorruptionEnd => self.sampler.set_corruption(false),
        }
    }

    /// Kills a running job after a node failure: releases its resources and
    /// either requeues it with backoff or, past the retry budget, reports
    /// it failed. Either way the job is accounted for — never lost.
    fn kill_job(&mut self, id: JobId, now: SimTime) {
        let r = self.running.remove(&id).expect("killing unknown job");
        if let Some(key) = r.finish_key {
            self.events.cancel(key);
        }
        self.machine.remove_load(SourceId(id.0));
        // The released load speeds the survivors up.
        self.speeds_dirty = true;
        // Release returns healthy nodes to the pool; the crashed node stays
        // quarantined (Down with its pending-release flag cleared).
        self.pool.release(&r.nodes);
        self.registry.inc(self.counters.jobs_killed);
        self.emit(now, ObsEvent::JobKilled { job: id.0 });
        // A killed job yields no label; its pending decision is dropped.
        if let Some(svc) = self.service.as_mut() {
            svc.observe_kill(id, now);
            self.drain_service_events(now);
        }

        let attempts = self.attempts.entry(id).or_insert(0);
        *attempts += 1;
        let attempts = *attempts;
        if self.config.retry.exhausted(attempts) {
            self.delayed_until.remove(&id);
            self.registry.inc(self.counters.jobs_failed);
            self.emit(
                now,
                ObsEvent::JobFailed {
                    job: id.0,
                    attempts,
                },
            );
            self.replay.failed += 1;
            if !self.fold_completions {
                self.failed.push(FailedJob {
                    job: r.job,
                    attempts,
                    last_killed_at: now,
                });
            }
            return;
        }
        let backoff = self.config.retry.backoff_for(attempts);
        self.registry.inc(self.counters.requeues);
        self.registry
            .record(self.counters.retry_backoff_s, backoff.as_secs_f64());
        self.emit(
            now,
            ObsEvent::JobRequeued {
                job: id.0,
                attempt: attempts,
            },
        );
        self.delayed_until.insert(id, now + backoff);
        // FCFS orders by original submit time, so the retried job regains
        // its place at the front of the queue once the backoff expires.
        self.enqueue_job(r.job);
        self.events.schedule(now + backoff, Ev::Retry(id));
    }

    /// Appends one record to the event log; a lifecycle record also
    /// samples the queue-length and busy-node series. Under completion
    /// folding nothing is kept, so a streamed replay's memory does not
    /// grow with its length.
    fn emit(&mut self, at: SimTime, event: ObsEvent) {
        if self.fold_completions {
            return;
        }
        if event.is_lifecycle() {
            self.trace
                .sample(at, self.queue.len(), self.pool.busy_count());
        }
        self.log.push(EventRecord {
            seq: self.log.len() as u64,
            at,
            event,
        });
    }

    /// Advances machine time and telemetry sampling to `now`. Retention
    /// pruning is left to tick boundaries (see
    /// [`retention_prune_due`](Self::retention_prune_due)).
    fn advance_world(&mut self, now: SimTime) {
        self.sampler
            .advance_to(now, &mut self.machine, &mut self.store);
        self.machine.advance_to(now);
    }

    /// Whether the tick firing at `now` should prune telemetry retention.
    ///
    /// Pruning scans every node's block, so it runs only on ticks that
    /// cross a `retention / 2` boundary rather than after every event. The rule is a pure
    /// function of the tick's timestamp and config constants: no mutable
    /// state, so an uninterrupted run and a snapshot/resume run prune at
    /// exactly the same ticks. Correctness is unchanged — the store merely
    /// holds up to `retention / 2` of extra history between prunes, all of
    /// it older than any window the engine queries (`predictor_window` ≤
    /// `retention`).
    fn retention_prune_due(&self, now: SimTime) -> bool {
        let period = (self.config.retention.as_micros() / 2)
            .max(self.config.tick.as_micros())
            .max(1);
        let prev = now.saturating_sub(self.config.tick).as_micros();
        now.as_micros() / period != prev / period
    }

    /// Inserts `job` into the wait queue at its R1 position (exactly where
    /// a stable sort would put it). While the queue is dirty the job is
    /// appended instead and the next `schedule_pass` re-sorts.
    fn enqueue_job(&mut self, job: Job) {
        if !self.queue_dirty {
            let at = self.config.r1.insertion_point(&self.queue, &job);
            self.queue.insert(at, job);
        } else {
            self.queue.push(job);
            self.queue_dirty = true;
        }
        self.max_queue_len = self.max_queue_len.max(self.queue.len());
    }

    /// Settles each running job's work at its previous speed over the
    /// elapsed interval, recomputes its speed from current machine state,
    /// and reschedules its finish event. [`step`](Self::step) calls this
    /// once, at the end of a step that set `speeds_dirty`, so a pass that
    /// starts k jobs among N running costs O(N + k), not O(k·N).
    ///
    /// Jobs are visited in id order: per-job refreshes are independent, but
    /// a fixed order keeps event seq numbers (and thus exact-time tie
    /// breaks) reproducible across processes. A job started this step gets
    /// its first speed and finish event here, under the step's final load.
    fn refresh_running_speeds(&mut self, now: SimTime) {
        let _scope = obs_profile::scope(ProfileScope::SpeedRefresh);
        self.speeds_dirty = false;
        // Starts, finishes and faults are done for this step, so the
        // saturation is one value for every job.
        let fs = self.machine.fs_saturation();
        for (&id, r) in self.running.iter_mut() {
            // Settle elapsed work.
            let elapsed = now.since(r.last_update).as_secs_f64();
            r.remaining_work = (r.remaining_work - elapsed * r.speed).max(0.0);
            r.last_update = now;
            // Recompute speed under current contention, at the job's
            // current phase. Straggler nodes gate the whole allocation.
            let congestion = self.machine.congestion_cached(SourceId(id.0));
            let node_factor = self.machine.allocation_speed_factor(&r.nodes);
            let progress = 1.0 - r.remaining_work / r.total_work.max(1e-9);
            let slowdown = r.job.app.descriptor().slowdown_at(progress, congestion, fs);
            r.speed = node_factor / slowdown;
            let finish_at = now + SimDuration::from_secs_f64(r.remaining_work / r.speed);
            match r.finish_key {
                // The recomputed finish lands on the identical microsecond:
                // the pending event is already correct, so skip the cancel
                // + reschedule churn entirely.
                Some(_) if finish_at == r.finish_at => continue,
                Some(key) => {
                    self.events.cancel(key);
                }
                // Started this step: its first finish event.
                None => {}
            }
            r.generation = self.next_gen;
            self.next_gen += 1;
            r.finish_key = Some(
                self.events
                    .schedule(finish_at, Ev::Finish(id, r.generation)),
            );
            r.finish_at = finish_at;
        }
    }

    /// Records a completed job and releases its resources.
    fn finish_job(&mut self, id: JobId, now: SimTime) {
        let mut r = self.running.remove(&id).expect("finishing unknown job");
        // Settle any residual work at the last speed (should be ~zero).
        let elapsed = now.since(r.last_update).as_secs_f64();
        r.remaining_work = (r.remaining_work - elapsed * r.speed).max(0.0);
        debug_assert!(
            r.remaining_work < 1e-3,
            "job {id} finished with {} nominal seconds left",
            r.remaining_work
        );
        self.machine.remove_load(SourceId(id.0));
        // The released load speeds the survivors up.
        self.speeds_dirty = true;
        self.pool.release(&r.nodes);
        self.registry.inc(self.counters.jobs_finished);
        self.registry
            .record(self.counters.run_s, now.since(r.start_at).as_secs_f64());
        self.emit(now, ObsEvent::JobFinished { job: id.0 });
        // The completed job is a labeled outcome for the online service:
        // its actual runtime grades the prediction made at launch.
        if let Some(svc) = self.service.as_mut() {
            svc.observe_completion(&r.job, now.since(r.start_at), now);
            self.drain_service_events(now);
        }
        self.replay.observe_completion(
            r.start_at.since(r.job.submit_at),
            now.since(r.start_at),
            r.nodes.len(),
        );
        self.replay.last_end = self.replay.last_end.max(now);
        if !self.fold_completions {
            self.completed.push(CompletedJob {
                base_runtime: r.job.base_runtime(),
                job: r.job,
                start_at: r.start_at,
                end_at: now,
                nodes: r.nodes,
                skips: r.skips,
                launch_prediction: r.launch_prediction,
            });
        }
    }

    /// Algorithm 1: one scheduling pass over the queue.
    fn schedule_pass(&mut self, now: SimTime) {
        let _scope = obs_profile::scope(ProfileScope::SchedulePass);
        // The queue is kept sorted at insertion; a full re-sort is needed
        // only after an out-of-order insert (RUSH delay re-queues after the
        // front). Keys are unique, so the re-sort lands on the one order
        // every sorted insert agrees with.
        if self.queue_dirty {
            let r1 = self.config.r1;
            r1.sort(&mut self.queue);
            self.queue_dirty = false;
        }
        if self.config.backfill == BackfillPolicy::Conservative {
            self.conservative_pass(now);
            return;
        }
        let mut delayed_this_pass: HashSet<JobId> = HashSet::new();

        let mut i = 0;
        while i < self.queue.len() {
            let job = &self.queue[i];
            let cooling_down = self
                .delayed_until
                .get(&job.id)
                .map(|&until| now < until)
                .unwrap_or(false);
            if delayed_this_pass.contains(&job.id) || cooling_down {
                i += 1;
                continue;
            }
            let needed = job.nodes_requested as usize;
            if self.pool.can_allocate(needed) {
                let job = self.queue.remove(i);
                if !self.try_start(job, now, &mut delayed_this_pass) {
                    // Delayed: restart the scan; the delayed set prevents
                    // re-evaluating it within this pass.
                    i = 0;
                }
            } else {
                // Head-of-line blocking: reserve and backfill (lines 7–15).
                if self.config.backfill == BackfillPolicy::Easy {
                    self.backfill(i, now, &mut delayed_this_pass);
                }
                break;
            }
        }
    }

    /// Conservative backfilling: walk the queue in R1 order, give every job
    /// a reservation on the availability profile, and start those whose
    /// reservation is *now*. A RUSH-delayed job keeps its reservation, so
    /// nothing can slide into its slot.
    fn conservative_pass(&mut self, now: SimTime) {
        // A job running past its estimate has not released its nodes, so
        // its profile release time is clamped to `now` (never the past).
        // `AvailabilityProfile::new` applies the same clamp internally;
        // clamping here too keeps the invariant visible at the call site.
        let running: Vec<(SimTime, u32)> = self
            .running
            .values()
            .map(|r| {
                (
                    (r.start_at + r.job.est_runtime).max(now),
                    r.job.nodes_requested,
                )
            })
            .collect();
        let mut profile = AvailabilityProfile::new(now, self.pool.free_count() as u32, &running);
        let mut delayed_this_pass: HashSet<JobId> = HashSet::new();

        // Walk a lightweight (id, nodes, estimate) snapshot instead of
        // cloning every queued Job.
        let snapshot: Vec<(JobId, u32, SimDuration)> = self
            .queue
            .iter()
            .map(|j| (j.id, j.nodes_requested, j.est_runtime))
            .collect();
        for (id, nodes_requested, est_runtime) in snapshot {
            if profile.never_fits(nodes_requested) {
                continue;
            }
            let start = profile.earliest_fit(nodes_requested, est_runtime);
            profile.reserve(start, est_runtime, nodes_requested);
            if start > now {
                continue;
            }
            let cooling_down = self
                .delayed_until
                .get(&id)
                .map(|&until| now < until)
                .unwrap_or(false);
            if cooling_down || delayed_this_pass.contains(&id) {
                continue; // keeps its reservation; nothing may take the slot
            }
            if !self.pool.can_allocate(nodes_requested as usize) {
                continue;
            }
            let pos = self
                .queue
                .iter()
                .position(|j| j.id == id)
                .expect("snapshot job still queued");
            let job = self.queue.remove(pos);
            self.try_start(job, now, &mut delayed_this_pass);
        }
    }

    /// EASY backfill around the blocked job at queue position `blocked_idx`.
    fn backfill(&mut self, blocked_idx: usize, now: SimTime, delayed: &mut HashSet<JobId>) {
        let blocked = &self.queue[blocked_idx];
        let snapshots: Vec<RunningSnapshot> = self
            .running
            .values()
            .map(|r| RunningSnapshot {
                est_end: r.start_at + r.job.est_runtime,
                nodes: r.job.nodes_requested,
            })
            .collect();
        let mut reservation = match compute_reservation(
            now,
            self.pool.free_count() as u32,
            blocked.nodes_requested,
            &snapshots,
        ) {
            Some(r) => r,
            None => return, // cannot ever fit; nothing to protect
        };
        let blocked_id = blocked.id;
        self.registry.inc(self.counters.backfill_reservations);
        self.emit(
            now,
            ObsEvent::BackfillReservation {
                job: blocked_id.0,
                shadow_start_us: reservation.shadow_start.as_micros(),
                extra_nodes: reservation.extra_nodes,
            },
        );

        // Candidates: everything except the blocked job, in R2 order, as
        // lightweight key snapshots rather than cloned Jobs. BackfillCand
        // implements QueueItem, so R2 sorts it exactly as it sorts Jobs.
        let mut candidates: Vec<BackfillCand> = self
            .queue
            .iter()
            .filter(|j| j.id != blocked_id)
            .map(|j| BackfillCand {
                id: j.id,
                nodes_requested: j.nodes_requested,
                submit_at: j.submit_at,
                est_runtime: j.est_runtime,
            })
            .collect();
        let r2 = self.config.r2;
        r2.sort(&mut candidates);

        for cand in candidates {
            let cooling_down = self
                .delayed_until
                .get(&cand.id)
                .map(|&until| now < until)
                .unwrap_or(false);
            if delayed.contains(&cand.id) || cooling_down {
                continue;
            }
            let needed = cand.nodes_requested as usize;
            if !self.pool.can_allocate(needed) {
                continue;
            }
            let est_end = now + cand.est_runtime;
            if !backfill_allowed(now, est_end, cand.nodes_requested, &reservation) {
                continue;
            }
            let pos = self
                .queue
                .iter()
                .position(|j| j.id == cand.id)
                .expect("candidate still queued");
            let job = self.queue.remove(pos);
            if self.try_start(job, now, delayed) && est_end > reservation.shadow_start {
                // The admitted job outlives the shadow window, so it holds
                // its nodes out of the blocked job's launch headroom: spend
                // that headroom so later candidates can't over-commit it.
                reservation.extra_nodes =
                    reservation.extra_nodes.saturating_sub(cand.nodes_requested);
            }
        }
    }

    /// Resolves one `Start()` consultation into its single outcome.
    ///
    /// The skip-budget check short-circuits the model; before consulting
    /// the model at all the telemetry window is gated on quality — a window
    /// hollowed out by blackouts/corruption (or a failing predictor) must
    /// degrade RUSH to plain EASY, not poison its decisions.
    fn consult_predictor(&mut self, job: &Job, nodes: &[NodeId], now: SimTime) -> StartConsult {
        // Advance the service's retraining clock first: a due retrain must
        // start shadowing from this very decision.
        if let Some(svc) = self.service.as_mut() {
            svc.tick(now);
            self.drain_service_events(now);
        }
        let skips = self.skip_table.get(&job.id).copied().unwrap_or(0);
        if skips >= job.skip_threshold {
            return StartConsult::BudgetExhausted;
        }
        let _scope = obs_profile::scope(ProfileScope::PredictorEval);
        let window_start = now.saturating_sub(self.config.predictor_window);
        let quality = window_quality(&self.store, nodes, window_start, now);
        if !quality.is_usable(
            self.config.min_telemetry_coverage,
            self.config.predictor_window,
        ) {
            return StartConsult::Fallback(FallbackReason::TelemetryGap);
        }
        let outcome = {
            let mut ctx = PredictorCtx {
                machine: &mut self.machine,
                store: &mut self.store,
                now,
                rng: &mut self.rng_pred,
            };
            match self.service.as_mut() {
                Some(svc) => svc.predict(job, nodes, &mut ctx),
                None => self.predictor.predict(job, nodes, &mut ctx),
            }
        };
        if self.service.is_some() {
            self.drain_service_events(now);
        }
        match outcome {
            Ok(class) => StartConsult::Verdict(class),
            Err(_) => StartConsult::Fallback(FallbackReason::ModelError),
        }
    }

    /// Surfaces the service's accumulated transitions as counters and
    /// trace events, and refreshes its gauges.
    fn drain_service_events(&mut self, now: SimTime) {
        let Some(svc) = self.service.as_mut() else {
            return;
        };
        let events = svc.drain_events();
        let version = svc.version();
        let drift = svc.drift_score();
        let agreement = svc.shadow_agreement();
        self.registry
            .set_gauge(self.counters.predictor_version, f64::from(version));
        self.registry
            .set_gauge(self.counters.predictor_drift, drift);
        self.registry
            .set_gauge(self.counters.predictor_agreement, agreement);
        for ev in events {
            match ev {
                ServiceEvent::DriftDetected { score_milli } => {
                    self.emit(now, ObsEvent::PredictorDrift { score_milli });
                }
                ServiceEvent::Retrained { version, samples } => {
                    self.registry.inc(self.counters.predictor_retrains);
                    self.emit(now, ObsEvent::PredictorRetrain { version, samples });
                }
                ServiceEvent::ShadowStarted { version, decisions } => {
                    self.emit(now, ObsEvent::PredictorShadowStart { version, decisions });
                }
                ServiceEvent::Swapped { from, to } => {
                    self.registry.inc(self.counters.predictor_swaps);
                    self.emit(
                        now,
                        ObsEvent::PredictorSwap {
                            from_version: from,
                            to_version: to,
                        },
                    );
                }
                ServiceEvent::RolledBack { from, to } => {
                    self.registry.inc(self.counters.predictor_rollbacks);
                    self.emit(
                        now,
                        ObsEvent::PredictorRollback {
                            from_version: from,
                            to_version: to,
                        },
                    );
                }
                // A discarded candidate and a failed training leave the
                // live model serving; no dedicated trace event.
                ServiceEvent::Discarded { .. } | ServiceEvent::TrainFailed => {}
            }
        }
    }

    /// Algorithm 2: the modified `Start()`. Returns `true` if the job
    /// launched, `false` if it was delayed (and re-queued after the front).
    fn try_start(&mut self, job: Job, now: SimTime, delayed: &mut HashSet<JobId>) -> bool {
        let needed = job.nodes_requested as usize;
        // Callers check can_allocate first, so this only fails if that
        // invariant breaks; requeue rather than crash the whole run.
        let nodes = match self.pool.allocate(needed, &mut self.rng_place) {
            Some(nodes) => nodes,
            None => {
                debug_assert!(false, "caller checked availability");
                self.queue.insert(0, job);
                self.queue_dirty = true;
                return false;
            }
        };

        // Line 1: `SkipTable[j] < j.skip_threshold and M(j, S) ∈ variation
        // labels` — resolved into exactly one `StartConsult` outcome, so
        // every decision is counted exactly once (a fallback launch can
        // never also record a skip, and vice versa).
        let consult = self.consult_predictor(&job, &nodes, now);
        let mut launch_prediction = None;
        match consult {
            StartConsult::BudgetExhausted => {}
            StartConsult::Verdict(class) => {
                launch_prediction = Some(class);
                self.registry.inc(self.counters.predictor_verdicts);
                self.emit(
                    now,
                    ObsEvent::PredictorVerdict {
                        job: job.id.0,
                        class: class.index(),
                    },
                );
            }
            StartConsult::Fallback(reason) => {
                let counter = match reason {
                    FallbackReason::TelemetryGap => self.counters.fallback_telemetry_gap,
                    FallbackReason::ModelError => self.counters.fallback_model_error,
                };
                self.registry.inc(counter);
                self.emit(
                    now,
                    ObsEvent::PredictorFallback {
                        job: job.id.0,
                        reason,
                    },
                );
            }
        }

        if matches!(consult, StartConsult::Verdict(class) if class.triggers_delay()) {
            // Lines 2–3: increment the skip count and push after the front.
            self.pool.release(&nodes);
            *self.skip_table.entry(job.id).or_insert(0) += 1;
            let skips = self.skip_table[&job.id];
            self.registry.inc(self.counters.skips);
            self.emit(
                now,
                ObsEvent::JobSkipped {
                    job: job.id.0,
                    skips,
                },
            );
            self.delayed_until
                .insert(job.id, now + self.config.skip_cooldown);
            delayed.insert(job.id);
            let pos = 1.min(self.queue.len());
            self.queue.insert(pos, job);
            // Deliberately out of R1 order ("push after the front"): the
            // next pass starts with a full re-sort.
            self.queue_dirty = true;
            return false;
        }

        // Line 5: launch.
        let app = job.app.descriptor();
        self.machine
            .register_load(SourceId(job.id.0), nodes.clone(), app.intensity());

        // Per-run static factor: OS noise × intrinsic application noise.
        let os = self.machine.draw_os_noise();
        let intrinsic = {
            let z: f64 =
                self.rng_run.gen::<f64>() + self.rng_run.gen::<f64>() + self.rng_run.gen::<f64>()
                    - 1.5;
            (app.intrinsic_noise * 2.0 * z).exp()
        };
        let base = job.base_runtime().as_secs_f64();
        let work = base * os * intrinsic;

        let id = job.id;
        let skips = self.skip_table.get(&id).copied().unwrap_or(0);
        self.registry.inc(self.counters.jobs_started);
        self.registry
            .record(self.counters.wait_s, now.since(job.submit_at).as_secs_f64());
        self.emit(
            now,
            ObsEvent::JobStarted {
                job: id.0,
                nodes: job.nodes_requested,
                skips,
            },
        );
        self.running.insert(
            id,
            RunningJob {
                job,
                nodes,
                start_at: now,
                launch_prediction,
                total_work: work,
                remaining_work: work,
                speed: 0.0,
                last_update: now,
                generation: 0,
                skips: self.skip_table.get(&id).copied().unwrap_or(0),
                finish_key: None,
                finish_at: now,
            },
        );
        // The step's refresh gives this job its speed and finish event, and
        // re-speeds everyone else under the load it adds.
        self.speeds_dirty = true;
        true
    }

    // ------------------------------------------------------------------
    // Checkpoint / resume
    // ------------------------------------------------------------------

    /// Configuration fingerprint embedded in snapshots. Covers everything
    /// that shapes the deterministic trajectory: the scheduler config, the
    /// machine topology, the schedulable pool size and the source's request
    /// count (when it knows it).
    ///
    /// The R1/R2 policy specs are normalized out: they are *dynamic* state
    /// (an environment may retarget them mid-run via
    /// [`set_queue_policy`](Self::set_queue_policy)), carried in the
    /// snapshot body instead and restored on resume — fingerprinting the
    /// live values would reject every mid-episode checkpoint taken after a
    /// policy change.
    fn fingerprint(&self) -> u64 {
        let mut config = self.config;
        config.r1 = PolicySpec::default();
        config.r2 = PolicySpec::default();
        snapshot::fingerprint_str(&format!(
            "{:?}|{:?}|{}|{:?}",
            config,
            self.machine.tree().config(),
            self.pool.capacity(),
            self.request_total
        ))
    }

    /// Captures the complete dynamic state as a versioned, CRC-protected
    /// snapshot. The engine must be [`prepare`](Self::prepare)d; jobs are
    /// referenced by id and the stream position by the number of arrivals
    /// pulled (jobs are a pure function of the requests), RNG streams by
    /// their draw counts (they are a pure function of the master seed), so
    /// a resumed engine replays the remaining trajectory byte-identically
    /// to an uninterrupted one.
    pub fn snapshot(&self) -> Vec<u8> {
        assert!(self.source.is_some(), "snapshot before prepare");
        assert!(
            !self.fold_completions,
            "snapshot with completion folding would lose per-job records"
        );
        let t = |at: SimTime| Val::U64(at.as_micros());
        let nodes_val =
            |nodes: &[NodeId]| Val::List(nodes.iter().map(|n| Val::U64(n.0 as u64)).collect());
        let class_val =
            |c: Option<VariabilityClass>| Val::I64(c.map(|c| c.index() as i64).unwrap_or(-1));

        let running: Vec<Val> = self
            .running
            .values()
            .map(|r| {
                Val::List(vec![
                    Val::U64(r.job.id.0),
                    nodes_val(&r.nodes),
                    t(r.start_at),
                    class_val(r.launch_prediction),
                    Val::from_f64(r.total_work),
                    Val::from_f64(r.remaining_work),
                    Val::from_f64(r.speed),
                    t(r.last_update),
                    Val::U64(r.generation),
                    Val::U64(r.skips as u64),
                    Val::U64(
                        r.finish_key
                            .expect("every step ends with finish events scheduled")
                            .raw(),
                    ),
                    t(r.finish_at),
                ])
            })
            .collect();

        let sorted_pairs = |m: &HashMap<JobId, u32>| {
            let mut kv: Vec<(u64, u32)> = m.iter().map(|(k, &v)| (k.0, v)).collect();
            kv.sort_unstable();
            Val::List(
                kv.into_iter()
                    .map(|(k, v)| Val::List(vec![Val::U64(k), Val::U64(v as u64)]))
                    .collect(),
            )
        };
        let delayed = {
            let mut kv: Vec<(u64, u64)> = self
                .delayed_until
                .iter()
                .map(|(k, v)| (k.0, v.as_micros()))
                .collect();
            kv.sort_unstable();
            Val::List(
                kv.into_iter()
                    .map(|(k, v)| Val::List(vec![Val::U64(k), Val::U64(v)]))
                    .collect(),
            )
        };

        let completed: Vec<Val> = self
            .completed
            .iter()
            .map(|c| {
                Val::List(vec![
                    Val::U64(c.job.id.0),
                    t(c.start_at),
                    t(c.end_at),
                    nodes_val(&c.nodes),
                    Val::U64(c.skips as u64),
                    class_val(c.launch_prediction),
                ])
            })
            .collect();
        let failed: Vec<Val> = self
            .failed
            .iter()
            .map(|f| {
                Val::List(vec![
                    Val::U64(f.job.id.0),
                    Val::U64(f.attempts as u64),
                    t(f.last_killed_at),
                ])
            })
            .collect();

        // Physical heap entries sorted by insertion seq: (time, seq) is a
        // total order, so the restored heap pops identically regardless of
        // the captured layout — sorting just makes the bytes canonical.
        let mut entries: Vec<&EventEntry<Ev>> = self.events.entries().collect();
        entries.sort_unstable_by_key(|e| e.seq);
        let stats = self.events.stats();
        let events_val = Val::map()
            .with(
                "entries",
                Val::List(
                    entries
                        .iter()
                        .map(|e| {
                            Val::List(vec![
                                Val::U64(e.time.as_micros()),
                                Val::U64(e.seq),
                                e.event.to_val(),
                            ])
                        })
                        .collect(),
                ),
            )
            .with(
                "dead",
                Val::List(self.events.dead_seqs().into_iter().map(Val::U64).collect()),
            )
            .with("next_seq", Val::U64(stats.scheduled))
            .with("delivered", Val::U64(stats.delivered))
            .with("cancelled", Val::U64(stats.cancelled))
            .with("peak_heap", Val::U64(stats.peak_heap as u64))
            .with("compactions", Val::U64(stats.compactions));

        let mut body = Val::map()
            .with(
                "queue",
                Val::List(self.queue.iter().map(|j| Val::U64(j.id.0)).collect()),
            )
            .with("running", Val::List(running))
            .with("skip_table", sorted_pairs(&self.skip_table))
            .with("delayed_until", delayed)
            .with("attempts", sorted_pairs(&self.attempts))
            .with("completed", Val::List(completed))
            .with("failed", Val::List(failed))
            .with("events", events_val)
            .with("rng_place", Val::U64(self.rng_place.draws()))
            .with("rng_run", Val::U64(self.rng_run.draws()))
            .with("rng_pred", Val::U64(self.rng_pred.draws()))
            .with("max_queue_len", Val::U64(self.max_queue_len as u64))
            .with("rejected", Val::U64(self.replay.rejected))
            .with("pulled", Val::U64(self.pulled as u64))
            .with("queue_dirty", Val::U64(u64::from(self.queue_dirty)))
            .with(
                "policy",
                Val::List(vec![self.config.r1.to_val(), self.config.r2.to_val()]),
            )
            .with("next_gen", Val::U64(self.next_gen))
            .with("machine", self.machine.snapshot_state())
            .with("pool", self.pool.snapshot_state())
            .with("store", self.store.to_val())
            .with("sampler", self.sampler.snapshot_state())
            .with("registry", self.registry.to_val())
            .with("log", log_to_val(&self.log, &self.trace));
        if let Some(svc) = &self.service {
            body = body.with("service", svc.to_val());
        }

        snapshot::encode(
            self.master_seed,
            self.events.now().as_micros(),
            self.fingerprint(),
            &body,
        )
    }

    /// Restores the engine to a snapshotted state. The engine must be
    /// freshly prepared over the *same* requests: resume pulls the
    /// snapshot's arrivals from that source again to rebuild the jobs it
    /// references by id. A mismatched seed, config, topology or request
    /// count, or a source that ends before the snapshot's arrival count,
    /// is rejected with [`SnapshotError::ConfigMismatch`]; a snapshot that
    /// names a job the source did not yield, with
    /// [`SnapshotError::Schema`]. On any error the engine is left
    /// untouched: parse first, commit last, and requests pulled for the
    /// lookup go back in front of the source.
    pub fn resume(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        assert!(
            self.source.is_some(),
            "resume before prepare: call prepare(requests) first"
        );
        assert_eq!(
            self.events.stats().delivered,
            0,
            "resume into an engine that has already stepped"
        );
        let env = snapshot::decode(bytes)?;
        if env.master_seed != self.master_seed || env.fingerprint != self.fingerprint() {
            return Err(SnapshotError::ConfigMismatch);
        }
        let pulled = env.body.u("pulled")? as usize;
        if pulled < self.pulled {
            return Err(SnapshotError::ConfigMismatch);
        }
        // The prepared engine holds the first arrival as its lookahead;
        // pull the rest of the snapshot's arrivals after it.
        let mut jobs: Vec<Job> = self.next_stream_job.iter().cloned().collect();
        let mut taken = Vec::new();
        while self.pulled + taken.len() < pulled {
            let source = self.source.as_mut().expect("checked above");
            let Some(req) = source.next_request() else {
                self.unpull(taken);
                return Err(SnapshotError::ConfigMismatch);
            };
            jobs.push(self.job_of_request(&req));
            taken.push(req);
        }
        let now = SimTime::from_micros(env.sim_clock_us);
        let restored = self.restore(&env.body, now, &jobs, pulled);
        if restored.is_err() {
            self.unpull(taken);
        }
        restored
    }

    /// Puts `taken` back in front of the source, so a failed resume leaves
    /// the stream where `prepare` left it.
    fn unpull(&mut self, taken: Vec<JobRequest>) {
        if taken.is_empty() {
            return;
        }
        let mut rest = self.source.take().expect("prepared");
        self.source = Some(Box::new(IterSource::new(
            taken
                .into_iter()
                .chain(std::iter::from_fn(move || rest.next_request())),
        )));
    }

    /// Restores the body `b` of a snapshot taken at `now` after `pulled`
    /// arrivals, whose jobs are `jobs` in arrival order.
    fn restore(
        &mut self,
        b: &Val,
        now: SimTime,
        jobs: &[Job],
        pulled: usize,
    ) -> Result<(), SnapshotError> {
        let by_id: HashMap<JobId, &Job> = jobs.iter().map(|j| (j.id, j)).collect();
        let job_of = |id: u64| -> Result<Job, SnapshotError> {
            by_id
                .get(&JobId(id))
                .map(|&j| j.clone())
                .ok_or_else(|| SnapshotError::Schema(format!("unknown job id {id}")))
        };
        let nodes_of = |v: &Val| -> Result<Vec<NodeId>, SnapshotError> {
            v.as_list()?
                .iter()
                .map(|n| Ok(NodeId(n.as_u64()? as u32)))
                .collect()
        };
        let class_of = |v: &Val| -> Result<Option<VariabilityClass>, SnapshotError> {
            let i = v.as_i64()?;
            Ok(if i < 0 {
                None
            } else {
                Some(VariabilityClass::from_index(i as u32))
            })
        };
        let item = |l: &[Val], i: usize| -> Result<Val, SnapshotError> {
            l.get(i)
                .cloned()
                .ok_or_else(|| SnapshotError::Schema("short record".to_string()))
        };

        // Parse everything into locals first so a malformed body can never
        // leave the engine half-restored.
        let mut queue = Vec::new();
        for id in b.l("queue")? {
            queue.push(job_of(id.as_u64()?)?);
        }

        let mut running = BTreeMap::new();
        for rv in b.l("running")? {
            let l = rv.as_list()?;
            if l.len() != 12 {
                return Err(SnapshotError::Schema("running record".to_string()));
            }
            let job = job_of(l[0].as_u64()?)?;
            let id = job.id;
            running.insert(
                id,
                RunningJob {
                    job,
                    nodes: nodes_of(&l[1])?,
                    start_at: SimTime::from_micros(l[2].as_u64()?),
                    launch_prediction: class_of(&l[3])?,
                    total_work: l[4].as_f64()?,
                    remaining_work: l[5].as_f64()?,
                    speed: l[6].as_f64()?,
                    last_update: SimTime::from_micros(l[7].as_u64()?),
                    generation: l[8].as_u64()?,
                    skips: l[9].as_u64()? as u32,
                    finish_key: Some(EventKey::from_raw(l[10].as_u64()?)),
                    finish_at: SimTime::from_micros(l[11].as_u64()?),
                },
            );
        }

        let pairs_of = |v: &[Val]| -> Result<Vec<(u64, u64)>, SnapshotError> {
            v.iter()
                .map(|p| {
                    let l = p.as_list()?;
                    Ok((item(l, 0)?.as_u64()?, item(l, 1)?.as_u64()?))
                })
                .collect()
        };
        let skip_table: HashMap<JobId, u32> = pairs_of(b.l("skip_table")?)?
            .into_iter()
            .map(|(k, v)| (JobId(k), v as u32))
            .collect();
        let delayed_until: HashMap<JobId, SimTime> = pairs_of(b.l("delayed_until")?)?
            .into_iter()
            .map(|(k, v)| (JobId(k), SimTime::from_micros(v)))
            .collect();
        let attempts: HashMap<JobId, u32> = pairs_of(b.l("attempts")?)?
            .into_iter()
            .map(|(k, v)| (JobId(k), v as u32))
            .collect();

        let mut completed = Vec::new();
        for cv in b.l("completed")? {
            let l = cv.as_list()?;
            if l.len() != 6 {
                return Err(SnapshotError::Schema("completed record".to_string()));
            }
            let job = job_of(l[0].as_u64()?)?;
            completed.push(CompletedJob {
                base_runtime: job.base_runtime(),
                job,
                start_at: SimTime::from_micros(l[1].as_u64()?),
                end_at: SimTime::from_micros(l[2].as_u64()?),
                nodes: nodes_of(&l[3])?,
                skips: l[4].as_u64()? as u32,
                launch_prediction: class_of(&l[5])?,
            });
        }
        let mut failed = Vec::new();
        for fv in b.l("failed")? {
            let l = fv.as_list()?;
            if l.len() != 3 {
                return Err(SnapshotError::Schema("failed record".to_string()));
            }
            failed.push(FailedJob {
                job: job_of(l[0].as_u64()?)?,
                attempts: l[1].as_u64()? as u32,
                last_killed_at: SimTime::from_micros(l[2].as_u64()?),
            });
        }

        let ev = b.get("events")?;
        let mut entries: Vec<EventEntry<Ev>> = Vec::new();
        for e in ev.l("entries")? {
            let l = e.as_list()?;
            if l.len() != 3 {
                return Err(SnapshotError::Schema("event entry".to_string()));
            }
            entries.push(EventEntry {
                time: SimTime::from_micros(l[0].as_u64()?),
                seq: l[1].as_u64()?,
                event: Ev::from_val(&l[2])?,
            });
        }
        let dead: Vec<u64> = ev
            .l("dead")?
            .iter()
            .map(|d| d.as_u64())
            .collect::<Result<_, _>>()?;
        // A pending `Submit` is the last pulled arrival's; it becomes the
        // lookahead again.
        let next_stream_job = match entries.iter().find_map(|e| match e.event {
            Ev::Submit(k) => Some(k),
            _ => None,
        }) {
            None => None,
            Some(k) if k + 1 == pulled => jobs.last().cloned(),
            Some(k) => {
                return Err(SnapshotError::Schema(format!(
                    "pending submit {k} after {pulled} arrivals"
                )));
            }
        };
        let events = EventQueue::restore(
            entries,
            dead,
            ev.u("next_seq")?,
            now,
            ev.u("delivered")?,
            ev.u("cancelled")?,
            ev.u("peak_heap")? as usize,
            ev.u("compactions")?,
        );

        // The R1/R2 policy is dynamic state (see `fingerprint`): decode
        // the snapshot's specs — an unknown tag is a typed schema error,
        // never a panic — and restore them at commit.
        let pl = b.l("policy")?;
        if pl.len() != 2 {
            return Err(SnapshotError::Schema(format!(
                "policy record expects [r1, r2], got {} entries",
                pl.len()
            )));
        }
        let r1 = PolicySpec::from_val(&pl[0])?;
        let r2 = PolicySpec::from_val(&pl[1])?;

        let store = MetricStore::from_val(b.get("store")?)?;
        if store.machine_seed() != self.machine.config().seed
            || store.node_count() != self.store.node_count()
        {
            return Err(SnapshotError::ConfigMismatch);
        }
        let registry = MetricsRegistry::from_val(b.get("registry")?)?;
        let (log, trace) = log_from_val(b.get("log")?)?;

        // The snapshot's online-service state and the engine's wiring must
        // agree: a service snapshot can only restore into an engine built
        // with `with_online_predictor`, and vice versa.
        let service_val = match b.get("service") {
            Ok(v) => Some(v.clone()),
            Err(_) => None,
        };
        match (&self.service, &service_val) {
            (Some(_), None) => {
                return Err(SnapshotError::Schema(
                    "engine has an online predictor service but the snapshot has none".to_string(),
                ));
            }
            (None, Some(_)) => {
                return Err(SnapshotError::Schema(
                    "snapshot has online predictor service state but the engine has none"
                        .to_string(),
                ));
            }
            _ => {}
        }

        // Components that restore in place validate their own shape; they
        // run after all pure parsing so their mutations are the commit.
        if let (Some(svc), Some(v)) = (self.service.as_mut(), &service_val) {
            svc.restore(v)?;
        }
        self.machine.restore_state(b.get("machine")?)?;
        self.pool.restore_state(b.get("pool")?)?;
        self.sampler.restore_state(b.get("sampler")?)?;

        let streams = RngStreams::new(self.master_seed);
        self.rng_place = CountedRng::restore(streams.stream_seed("sched/place"), b.u("rng_place")?);
        self.rng_run = CountedRng::restore(streams.stream_seed("sched/run"), b.u("rng_run")?);
        self.rng_pred = CountedRng::restore(streams.stream_seed("sched/predict"), b.u("rng_pred")?);

        // Rebuild the folded aggregates from the restored completion list
        // in its recorded (completion) order, so every float accumulation
        // replays in the same order as the uninterrupted run's.
        let mut replay = ReplayStats::default();
        for c in &completed {
            replay.observe_completion(c.wait(), c.runtime(), c.nodes.len());
            replay.last_end = replay.last_end.max(c.end_at);
        }
        replay.failed = failed.len() as u64;
        replay.rejected = b.u("rejected").unwrap_or(0);

        self.queue = queue;
        self.running = running;
        self.skip_table = skip_table;
        self.delayed_until = delayed_until;
        self.attempts = attempts;
        self.completed = completed;
        self.failed = failed;
        self.replay = replay;
        self.events = events;
        self.max_queue_len = b.u("max_queue_len")? as usize;
        self.next_stream_job = next_stream_job;
        self.pulled = pulled;
        self.queue_dirty = b.u("queue_dirty")? != 0;
        self.config.r1 = r1;
        self.config.r2 = r2;
        self.next_gen = b.u("next_gen")?;
        self.store = store;
        self.registry = registry;
        self.log = log;
        self.trace = trace;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Invariant auditing
    // ------------------------------------------------------------------

    /// Runs the full invariant catalog now, applying the configured
    /// [`AuditPolicy`] to anything found. Called automatically after every
    /// event under [`AuditConfig::every_event`]; checkpointing drivers call
    /// it at snapshot boundaries. Returns the violations (before repair)
    /// so callers can report them.
    pub fn audit_now(&mut self, now: SimTime) -> Vec<Violation> {
        if !self.config.audit.enabled() {
            return Vec::new();
        }
        self.registry
            .add(self.counters.audit_checks, Invariant::COUNT);
        let violations = self.check_invariants();
        if violations.is_empty() {
            return violations;
        }
        for v in &violations {
            self.registry.inc(self.counters.audit_violations);
            self.emit(
                now,
                ObsEvent::AuditViolation {
                    invariant: v.invariant.index(),
                    detail: v.detail,
                },
            );
        }
        match self.config.audit.policy {
            AuditPolicy::Off => {}
            AuditPolicy::Log => {
                for v in &violations {
                    eprintln!("audit[{now}]: {v}");
                }
            }
            AuditPolicy::FailFast => panic!("audit failure at {now}: {}", violations[0]),
            AuditPolicy::Repair => self.repair(&violations, now),
        }
        violations
    }

    /// Evaluates every invariant against live state, reporting all failures
    /// (never stopping at the first: a corruption's *pattern* is the
    /// diagnostic).
    fn check_invariants(&mut self) -> Vec<Violation> {
        let mut out = Vec::new();

        // I0: pool slots partition the machine; running jobs' nodes are
        // disjoint, healthy, and (with the permanent noise reservation)
        // account for every busy slot.
        let capacity = self.pool.capacity();
        let free = self.pool.free_count();
        let busy = self.pool.busy_count();
        let down = (0..capacity as u32)
            .filter(|&n| self.pool.is_down(NodeId(n)))
            .count();
        if free + busy + down != capacity {
            out.push(Violation::new(
                Invariant::NodeConservation,
                capacity as u64,
                format!("free {free} + busy {busy} + down {down} != capacity {capacity}"),
            ));
        }
        let mut held: HashSet<NodeId> = HashSet::new();
        for r in self.running.values() {
            for &n in &r.nodes {
                if !held.insert(n) {
                    out.push(Violation::new(
                        Invariant::NodeConservation,
                        n.0 as u64,
                        format!("node {} held by two running jobs", n.0),
                    ));
                }
                if self.pool.is_down(n) {
                    out.push(Violation::new(
                        Invariant::NodeConservation,
                        n.0 as u64,
                        format!("job {} runs on quarantined node {}", r.job.id, n.0),
                    ));
                }
            }
        }
        // Crashed noise nodes move from busy to down, so the reservation is
        // an upper bound on busy slots beyond the running jobs', not exact.
        if busy < held.len() || busy > held.len() + self.reserved_nodes {
            out.push(Violation::new(
                Invariant::NodeConservation,
                busy as u64,
                format!(
                    "busy count {busy} outside [{}, {}] (running nodes + noise reservation)",
                    held.len(),
                    held.len() + self.reserved_nodes
                ),
            ));
        }

        // I1: every job is in exactly one lifecycle state.
        let mut seen: HashSet<JobId> = HashSet::new();
        for j in &self.queue {
            if !seen.insert(j.id) {
                out.push(Violation::new(
                    Invariant::JobConservation,
                    j.id.0,
                    format!("job {} queued twice", j.id),
                ));
            }
            if self.running.contains_key(&j.id) {
                out.push(Violation::new(
                    Invariant::JobConservation,
                    j.id.0,
                    format!("job {} simultaneously queued and running", j.id),
                ));
            }
        }
        if self.pulled > 0 {
            // A pulled request is always the pending lookahead, queued,
            // running, or settled.
            let total = usize::from(self.next_stream_job.is_some())
                + self.queue.len()
                + self.running.len()
                + self.replay.settled() as usize;
            if total != self.pulled {
                out.push(Violation::new(
                    Invariant::JobConservation,
                    total as u64,
                    format!(
                        "{total} jobs across all states != {} submitted",
                        self.pulled
                    ),
                ));
            }
        }

        // I2: the next live event never fires before the clock.
        let clock = self.events.now();
        if let Some(next) = self.events.peek_time() {
            if next < clock {
                out.push(Violation::new(
                    Invariant::EventMonotonicity,
                    next.as_micros(),
                    format!("next event at {next} is before the clock {clock}"),
                ));
            }
        }

        // I3: skip counts respect the starvation threshold.
        for (&id, &skips) in &self.skip_table {
            if skips > self.config.skip_threshold {
                out.push(Violation::new(
                    Invariant::SkipBound,
                    id.0,
                    format!(
                        "job {id} skipped {skips} > threshold {}",
                        self.config.skip_threshold
                    ),
                ));
            }
        }

        // I4: running-job progress state is numerically sane.
        for r in self.running.values() {
            let bad = !r.remaining_work.is_finite()
                || r.remaining_work < 0.0
                || !r.speed.is_finite()
                || r.speed <= 0.0
                || r.finish_at < r.last_update;
            if bad {
                out.push(Violation::new(
                    Invariant::RunningSanity,
                    r.job.id.0,
                    format!(
                        "job {}: remaining {} speed {} finish {} last-update {}",
                        r.job.id, r.remaining_work, r.speed, r.finish_at, r.last_update
                    ),
                ));
            }
        }

        out
    }

    /// Applies the safe repairs: clamp runaway skip counts, drop duplicate
    /// or already-running queue entries. Everything else is logged.
    fn repair(&mut self, violations: &[Violation], now: SimTime) {
        for v in violations {
            match v.invariant {
                Invariant::SkipBound => {
                    let threshold = self.config.skip_threshold;
                    if let Some(s) = self.skip_table.get_mut(&JobId(v.detail)) {
                        *s = (*s).min(threshold);
                    }
                    eprintln!("audit[{now}]: repaired {v}");
                }
                Invariant::JobConservation => {
                    let running: HashSet<JobId> = self.running.keys().copied().collect();
                    let mut seen: HashSet<JobId> = HashSet::new();
                    self.queue
                        .retain(|j| !running.contains(&j.id) && seen.insert(j.id));
                    eprintln!("audit[{now}]: repaired {v}");
                }
                _ => eprintln!("audit[{now}]: unrepairable {v}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{NeverVaries, Scripted, VariabilityClass};
    use rush_cluster::machine::MachineConfig;
    use rush_workloads::apps::AppId;
    use rush_workloads::scaling::ScalingMode;

    fn requests(n: u64, nodes: u32) -> Vec<JobRequest> {
        (0..n)
            .map(|i| JobRequest {
                id: i,
                app: AppId::Amg,
                nodes,
                submit_at: SimTime::from_secs(i),
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            })
            .collect()
    }

    /// The log records of one `ObsEvent::kind`.
    fn records_of<'a>(
        r: &'a ScheduleResult,
        kind: &'a str,
    ) -> impl Iterator<Item = &'a EventRecord> + 'a {
        r.events.iter().filter(move |rec| rec.event.kind() == kind)
    }

    fn engine(predictor: Box<dyn VariabilityPredictor>) -> SchedulerEngine {
        let machine = Machine::new(MachineConfig::tiny(7));
        SchedulerEngine::new(machine, SchedulerConfig::default(), predictor, 42)
    }

    #[test]
    fn runs_all_jobs_to_completion() {
        let mut eng = engine(Box::new(NeverVaries));
        let result = eng.run(&requests(6, 4));
        assert_eq!(result.completed.len(), 6);
        assert_eq!(result.total_skips, 0);
        assert!(result.makespan() > SimDuration::ZERO);
        // amg base runtime 180s: everything well over that
        for c in &result.completed {
            assert!(c.runtime().as_secs_f64() >= 170.0, "{}", c.runtime());
        }
    }

    #[test]
    fn respects_capacity() {
        // tiny machine has 16 nodes; 4-node jobs -> at most 4 concurrent.
        let mut eng = engine(Box::new(NeverVaries));
        let result = eng.run(&requests(8, 4));
        // Check no overlap exceeds capacity: scan start/end ordering.
        let mut points: Vec<(SimTime, i32)> = Vec::new();
        for c in &result.completed {
            points.push((c.start_at, 4));
            points.push((c.end_at, -4));
        }
        points.sort_by_key(|&(t, delta)| (t, delta)); // ends before starts at same instant
        let mut used = 0;
        for (_, delta) in points {
            used += delta;
            assert!(used <= 16, "capacity exceeded: {used}");
        }
    }

    #[test]
    fn fcfs_order_preserved_for_equal_jobs() {
        let mut eng = engine(Box::new(NeverVaries));
        let result = eng.run(&requests(8, 16)); // full-machine jobs serialize
        let mut by_start = result.completed.clone();
        by_start.sort_by_key(|c| c.start_at);
        let ids: Vec<u64> = by_start.iter().map(|c| c.job.id.0).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>(), "FCFS must preserve order");
    }

    #[test]
    fn delayed_job_eventually_runs() {
        // Predict variation for the first 3 evaluations, then calm.
        let script = Scripted::new(vec![
            VariabilityClass::Variation,
            VariabilityClass::Variation,
            VariabilityClass::Variation,
        ]);
        let mut eng = engine(Box::new(script));
        let result = eng.run(&requests(2, 4));
        assert_eq!(result.completed.len(), 2);
        assert!(result.total_skips >= 1, "the scripted delays must fire");
        let delayed = result
            .completed
            .iter()
            .find(|c| c.skips > 0)
            .expect("some job was delayed");
        assert!(delayed.wait() > SimDuration::ZERO);
    }

    #[test]
    fn skip_threshold_bounds_delays() {
        // A predictor that always says variation: every job must still run,
        // each skipped exactly `skip_threshold` times.
        struct AlwaysVaries;
        impl VariabilityPredictor for AlwaysVaries {
            fn predict(
                &mut self,
                _j: &Job,
                _n: &[NodeId],
                _c: &mut PredictorCtx<'_>,
            ) -> Result<VariabilityClass, crate::predictor::PredictError> {
                Ok(VariabilityClass::Variation)
            }
            fn name(&self) -> &str {
                "always-varies"
            }
        }
        let machine = Machine::new(MachineConfig::tiny(7));
        let config = SchedulerConfig {
            skip_threshold: 3,
            ..SchedulerConfig::default()
        };
        let mut eng = SchedulerEngine::new(machine, config, Box::new(AlwaysVaries), 42);
        let result = eng.run(&requests(4, 4));
        assert_eq!(result.completed.len(), 4, "starvation bound must hold");
        for c in &result.completed {
            assert_eq!(c.skips, 3, "each job skipped to its threshold");
        }
    }

    #[test]
    fn backfill_lets_small_jobs_jump() {
        // Job 0 takes 12 of 16 nodes; job 1 (submitted next) wants the
        // whole machine -> blocked, reserved. Job 2 is small and short:
        // backfills into the 4 free nodes.
        let reqs = vec![
            JobRequest {
                id: 0,
                app: AppId::Amg,
                nodes: 12,
                submit_at: SimTime::ZERO,
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            },
            JobRequest {
                id: 1,
                app: AppId::Amg,
                nodes: 16,
                submit_at: SimTime::from_secs(1),
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            },
            JobRequest {
                id: 2,
                app: AppId::Swfft, // 150s base < amg's remaining time
                nodes: 4,
                submit_at: SimTime::from_secs(2),
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            },
        ];
        let mut eng = engine(Box::new(NeverVaries));
        let result = eng.run(&reqs);
        let start = |id: u64| {
            result
                .completed
                .iter()
                .find(|c| c.job.id.0 == id)
                .unwrap()
                .start_at
        };
        assert!(
            start(2) < start(1),
            "small job should backfill ahead of the blocked one"
        );
    }

    #[test]
    fn no_backfill_is_strict_fcfs() {
        // Same shape as the backfill test, but with backfilling off the
        // small job must NOT jump the blocked 16-node job.
        let reqs = vec![
            JobRequest {
                id: 0,
                app: AppId::Amg,
                nodes: 12,
                submit_at: SimTime::ZERO,
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            },
            JobRequest {
                id: 1,
                app: AppId::Amg,
                nodes: 16,
                submit_at: SimTime::from_secs(1),
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            },
            JobRequest {
                id: 2,
                app: AppId::Swfft,
                nodes: 4,
                submit_at: SimTime::from_secs(2),
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            },
        ];
        let machine = Machine::new(MachineConfig::tiny(7));
        let config = SchedulerConfig {
            backfill: BackfillPolicy::None,
            ..SchedulerConfig::default()
        };
        let mut eng = SchedulerEngine::new(machine, config, Box::new(NeverVaries), 42);
        let result = eng.run(&reqs);
        let find = |id: u64| result.completed.iter().find(|c| c.job.id.0 == id).unwrap();
        assert!(
            find(2).start_at >= find(1).start_at,
            "strict FCFS must not let job 2 jump job 1"
        );
    }

    #[test]
    fn conservative_backfill_allows_harmless_jumps() {
        // Head job on 12 nodes; 16-node job blocked; short 4-node job can
        // run beside the head without delaying anyone's reservation.
        let reqs = vec![
            JobRequest {
                id: 0,
                app: AppId::Amg,
                nodes: 12,
                submit_at: SimTime::ZERO,
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            },
            JobRequest {
                id: 1,
                app: AppId::Amg,
                nodes: 16,
                submit_at: SimTime::from_secs(1),
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            },
            JobRequest {
                id: 2,
                app: AppId::Swfft, // 150s est*1.5=225 < amg remaining
                nodes: 4,
                submit_at: SimTime::from_secs(2),
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            },
        ];
        let machine = Machine::new(MachineConfig::tiny(7));
        let config = SchedulerConfig {
            backfill: BackfillPolicy::Conservative,
            ..SchedulerConfig::default()
        };
        let mut eng = SchedulerEngine::new(machine, config, Box::new(NeverVaries), 42);
        let result = eng.run(&reqs);
        let find = |id: u64| result.completed.iter().find(|c| c.job.id.0 == id).unwrap();
        assert!(
            find(2).start_at < find(1).start_at,
            "harmless short job should backfill conservatively"
        );
        assert_eq!(result.completed.len(), 3);
    }

    #[test]
    fn conservative_blocks_delaying_jumps() {
        // The long 4-node job would push back the blocked 16-node job's
        // reservation; conservative must hold it.
        let reqs = vec![
            JobRequest {
                id: 0,
                app: AppId::Swfft, // short head: ends soon
                nodes: 12,
                submit_at: SimTime::ZERO,
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            },
            JobRequest {
                id: 1,
                app: AppId::Amg,
                nodes: 16,
                submit_at: SimTime::from_secs(1),
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            },
            JobRequest {
                id: 2,
                app: AppId::Lbann, // long
                nodes: 4,
                submit_at: SimTime::from_secs(2),
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            },
        ];
        let machine = Machine::new(MachineConfig::tiny(7));
        let config = SchedulerConfig {
            backfill: BackfillPolicy::Conservative,
            ..SchedulerConfig::default()
        };
        let mut eng = SchedulerEngine::new(machine, config, Box::new(NeverVaries), 42);
        let result = eng.run(&reqs);
        let find = |id: u64| result.completed.iter().find(|c| c.job.id.0 == id).unwrap();
        assert!(
            find(2).start_at >= find(0).end_at,
            "delaying jump must be blocked under conservative backfill"
        );
    }

    #[test]
    fn backfill_never_delays_the_reservation() {
        // Same setup, but the small job is *long* (lbann 360s > the head
        // job's remaining estimate) and would delay the blocked 16-node
        // job: no backfill.
        let reqs = vec![
            JobRequest {
                id: 0,
                app: AppId::Swfft, // short head job: 150s
                nodes: 12,
                submit_at: SimTime::ZERO,
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            },
            JobRequest {
                id: 1,
                app: AppId::Amg,
                nodes: 16,
                submit_at: SimTime::from_secs(1),
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            },
            JobRequest {
                id: 2,
                app: AppId::Lbann, // long: 360s
                nodes: 4,
                submit_at: SimTime::from_secs(2),
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            },
        ];
        let mut eng = engine(Box::new(NeverVaries));
        let result = eng.run(&reqs);
        let find = |id: u64| result.completed.iter().find(|c| c.job.id.0 == id).unwrap();
        assert!(
            find(2).start_at >= find(0).end_at,
            "long job must not backfill ahead of the reservation"
        );
        assert!(find(1).start_at >= find(0).end_at);
    }

    /// A 16-node single-pod tree with an oversubscribed aggregation fabric:
    /// two 8-node jobs each span two edge switches and meet in the pod
    /// fabric, which one job alone cannot push past the congestion knee.
    fn oversubscribed_single_pod(seed: u64) -> MachineConfig {
        let mut cfg = MachineConfig::tiny(seed);
        cfg.tree = rush_cluster::topology::FatTreeConfig {
            pods: 1,
            edge_per_pod: 4,
            nodes_per_edge: 4,
            cores_per_node: 4,
            access_gbps: 10.0,
            edge_uplink_gbps: 20.0,
            pod_fabric_gbps: 12.0,
            pod_uplink_gbps: 40.0,
        };
        cfg
    }

    #[test]
    fn contention_slows_concurrent_network_jobs() {
        // Run two network-heavy jobs on overlapping fabric vs one alone;
        // the pair's shared pod fabric crosses the congestion knee, so the
        // pair should take longer than solo. (`tiny` puts 8-node jobs in
        // disjoint pods, so this needs the oversubscribed single-pod tree.)
        let machine = Machine::new(oversubscribed_single_pod(3));
        let mut solo_eng = SchedulerEngine::new(
            machine,
            SchedulerConfig::default(),
            Box::new(NeverVaries),
            1,
        );
        let solo = solo_eng.run(&[JobRequest {
            id: 0,
            app: AppId::Laghos,
            nodes: 8,
            submit_at: SimTime::ZERO,
            scaling: ScalingMode::Reference,
            user_est_secs: None,
        }]);

        let machine2 = Machine::new(oversubscribed_single_pod(3));
        let mut pair_eng = SchedulerEngine::new(
            machine2,
            SchedulerConfig::default(),
            Box::new(NeverVaries),
            1,
        );
        let pair = pair_eng.run(&[
            JobRequest {
                id: 0,
                app: AppId::Laghos,
                nodes: 8,
                submit_at: SimTime::ZERO,
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            },
            JobRequest {
                id: 1,
                app: AppId::Laghos,
                nodes: 8,
                submit_at: SimTime::ZERO,
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            },
        ]);
        let solo_rt = solo.completed[0].runtime().as_secs_f64();
        let pair_rt = pair
            .completed
            .iter()
            .map(|c| c.runtime().as_secs_f64())
            .fold(0.0, f64::max);
        assert!(
            pair_rt > solo_rt,
            "contention must slow the pair: solo {solo_rt}, pair {pair_rt}"
        );
    }

    #[test]
    fn noise_job_shrinks_the_pool() {
        let machine = Machine::new(MachineConfig::tiny(5));
        let noise_nodes: Vec<NodeId> = (0..1).map(NodeId).collect();
        let mut eng = SchedulerEngine::new(
            machine,
            SchedulerConfig::default(),
            Box::new(NeverVaries),
            9,
        )
        .with_noise_job(noise_nodes, 6.0);
        // 15 schedulable nodes now; a 16-node job must panic.
        let result = eng.run(&requests(2, 15));
        assert_eq!(result.completed.len(), 2);
    }

    #[test]
    fn oversized_job_rejected() {
        // 16-node machine: a 17-node request can never fit. It must be
        // rejected at its submission instant — counted and traced, never
        // a panic or a wedged queue head.
        let mut eng = engine(Box::new(NeverVaries));
        let result = eng.run(&requests(1, 17));
        assert!(result.completed.is_empty() && result.failed.is_empty());
        assert_eq!(result.replay.rejected, 1);
        assert!(records_of(&result, "job_rejected").any(|r| r.event.job() == Some(0)));
    }

    #[test]
    fn oversized_job_does_not_block_the_rest() {
        // One impossible request among feasible ones: the rest of the
        // stream schedules normally around the rejection.
        let mut reqs = requests(3, 4);
        reqs[1].nodes = 64;
        let mut eng = engine(Box::new(NeverVaries));
        let result = eng.run(&reqs);
        assert_eq!(result.completed.len(), 2);
        assert_eq!(result.replay.rejected, 1);
        assert_eq!(result.replay.completed, 2);
    }

    #[test]
    fn empty_request_set_completes_trivially() {
        let mut eng = engine(Box::new(NeverVaries));
        let result = eng.run(&[]);
        assert!(result.completed.is_empty() && result.failed.is_empty());
        assert_eq!(result.replay.settled(), 0);
        assert_eq!(result.makespan(), SimDuration::ZERO);
    }

    #[test]
    fn completion_folding_preserves_aggregates() {
        let reqs = requests(8, 4);
        let mut full = engine(Box::new(NeverVaries));
        let ra = full.run(&reqs);
        let mut folded = engine(Box::new(NeverVaries)).with_completion_folding();
        let rb = folded.run_streaming(Box::new(crate::source::SliceSource::new(&reqs)));
        assert!(rb.completed.is_empty() && rb.failed.is_empty());
        assert_eq!(ra.replay, rb.replay);
        assert_eq!(ra.makespan(), rb.makespan());
        assert!(rb.replay.utilization(16, rb.makespan()) > 0.0);
    }

    #[test]
    fn deterministic_given_seeds() {
        let run = || {
            let machine = Machine::new(MachineConfig::tiny(11));
            let mut eng = SchedulerEngine::new(
                machine,
                SchedulerConfig::default(),
                Box::new(NeverVaries),
                5,
            );
            let r = eng.run(&requests(6, 4));
            r.completed
                .iter()
                .map(|c| (c.job.id, c.start_at, c.end_at))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn wait_times_accumulate_under_load() {
        let mut eng = engine(Box::new(NeverVaries));
        let result = eng.run(&requests(8, 16));
        // serialized: later jobs wait longer
        let mut by_id = result.completed.clone();
        by_id.sort_by_key(|c| c.job.id);
        assert!(by_id[7].wait() > by_id[1].wait());
        assert!(result.mean_wait_secs() > 0.0);
    }

    /// Node crashes aggressive enough that some running job dies.
    fn crashy_config(seed: u64) -> SchedulerConfig {
        SchedulerConfig {
            faults: FaultConfig {
                seed,
                horizon: SimDuration::from_hours(2),
                node_mtbf: Some(SimDuration::from_mins(20)),
                node_mttr: SimDuration::from_mins(3),
                ..FaultConfig::default()
            },
            ..SchedulerConfig::default()
        }
    }

    #[test]
    fn node_failures_kill_requeue_and_still_finish_everything() {
        let machine = Machine::new(MachineConfig::tiny(7));
        let mut eng = SchedulerEngine::new(machine, crashy_config(13), Box::new(NeverVaries), 42);
        let result = eng.run(&requests(8, 4));
        assert!(result.node_failures > 0, "the crash process must fire");
        assert!(
            result.requeues > 0,
            "some running job must have been killed"
        );
        assert_eq!(
            result.completed.len() + result.failed.len(),
            8,
            "no job may be lost to a fault"
        );
        // Every kill is followed by either a requeue or a failure record.
        let kills = records_of(&result, "job_killed").count();
        let requeues = records_of(&result, "job_requeued").count();
        let fails = records_of(&result, "job_failed").count();
        assert_eq!(kills, requeues + fails);
    }

    #[test]
    fn requeued_job_restarts_after_backoff() {
        let machine = Machine::new(MachineConfig::tiny(7));
        let mut eng = SchedulerEngine::new(machine, crashy_config(13), Box::new(NeverVaries), 42);
        let result = eng.run(&requests(8, 4));
        // Find a job that was killed and later completed: its restart must
        // come no earlier than kill time + the first backoff step.
        let backoff = RetryPolicy::default().base_backoff;
        let mut checked = 0;
        for c in &result.completed {
            let of_job =
                |kind| records_of(&result, kind).filter(|r| r.event.job() == Some(c.job.id.0));
            let Some(killed_at) = of_job("job_killed").map(|r| r.at).next() else {
                continue;
            };
            let restart = of_job("job_started")
                .map(|r| r.at)
                .filter(|&at| at > killed_at)
                .min()
                .expect("killed-then-completed job must restart");
            assert!(
                restart >= killed_at + backoff,
                "restart at {restart} before backoff from kill at {killed_at}"
            );
            checked += 1;
        }
        assert!(checked > 0, "at least one killed job must complete");
    }

    #[test]
    fn exhausted_retry_budget_reports_failed_jobs() {
        let machine = Machine::new(MachineConfig::tiny(7));
        let config = SchedulerConfig {
            retry: RetryPolicy {
                max_retries: 0, // first kill is final
                ..RetryPolicy::default()
            },
            faults: FaultConfig {
                seed: 13,
                horizon: SimDuration::from_hours(2),
                node_mtbf: Some(SimDuration::from_mins(20)),
                node_mttr: SimDuration::from_mins(3),
                ..FaultConfig::default()
            },
            ..SchedulerConfig::default()
        };
        let mut eng = SchedulerEngine::new(machine, config, Box::new(NeverVaries), 42);
        let result = eng.run(&requests(8, 4));
        assert!(result.requeues == 0, "zero budget never requeues");
        assert!(!result.failed.is_empty(), "some kill must become a failure");
        assert_eq!(result.completed.len() + result.failed.len(), 8);
        for f in &result.failed {
            assert_eq!(f.attempts, 1, "failed on the first kill");
        }
    }

    #[test]
    fn same_fault_seed_same_result() {
        let run = || {
            let machine = Machine::new(MachineConfig::tiny(7));
            let mut eng =
                SchedulerEngine::new(machine, crashy_config(13), Box::new(NeverVaries), 42);
            let r = eng.run(&requests(8, 4));
            (
                r.completed
                    .iter()
                    .map(|c| (c.job.id, c.start_at, c.end_at, c.nodes.clone()))
                    .collect::<Vec<_>>(),
                r.failed
                    .iter()
                    .map(|f| (f.job.id, f.attempts, f.last_killed_at))
                    .collect::<Vec<_>>(),
                r.requeues,
                r.node_failures,
                r.fallback_decisions,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn blackout_degrades_rush_to_plain_easy() {
        // A near-permanent machine-wide blackout: by the time jobs arrive
        // the predictor window is hollow, so every Start() decision must
        // bypass the predictor and count as a fallback.
        let machine = Machine::new(MachineConfig::tiny(7));
        let config = SchedulerConfig {
            faults: FaultConfig {
                seed: 3,
                horizon: SimDuration::from_hours(2),
                blackout_mtbf: Some(SimDuration::from_mins(1)),
                blackout_duration: SimDuration::from_hours(2),
                ..FaultConfig::default()
            },
            ..SchedulerConfig::default()
        };
        let mut eng = SchedulerEngine::new(machine, config, Box::new(NeverVaries), 42);
        let reqs: Vec<JobRequest> = (0..4)
            .map(|i| JobRequest {
                id: i,
                app: AppId::Amg,
                nodes: 4,
                // Arrive well after the blackout started.
                submit_at: SimTime::from_mins(20) + SimDuration::from_secs(i),
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            })
            .collect();
        let result = eng.run(&reqs);
        assert_eq!(result.completed.len(), 4);
        assert!(
            result.fallback_decisions >= 4,
            "every launch under blackout must fall back (got {})",
            result.fallback_decisions
        );
        assert_eq!(result.total_skips, 0, "plain EASY issues no RUSH delays");
    }

    #[test]
    fn predictor_error_falls_back_instead_of_crashing() {
        let mut eng = engine(Box::new(crate::predictor::AlwaysFails));
        let result = eng.run(&requests(4, 4));
        assert_eq!(result.completed.len(), 4);
        assert!(result.fallback_decisions >= 4);
        assert_eq!(result.total_skips, 0);
        for c in &result.completed {
            assert_eq!(c.launch_prediction, None, "no prediction on fallback");
        }
    }

    /// Bugfix regression: a survivor's speed must be refreshed when its
    /// neighbor finishes, not only at the next tick. Two 8-node jobs share
    /// the oversubscribed pod fabric; when the short one (swfft) finishes,
    /// the long one (laghos) decongests and must speed up *at that event*.
    /// With `CoreOnly` background, single-pod jobs see congestion changes
    /// only at job start/finish, so a run with a tick far longer than the
    /// makespan must agree with a fine-tick run — unless the finish-time
    /// refresh is missing, in which case the coarse run's survivor coasts
    /// at its contended speed to the end and lands minutes late.
    #[test]
    fn finish_refreshes_surviving_speeds() {
        let run = |tick: SimDuration| {
            let mut cfg = oversubscribed_single_pod(3);
            cfg.background_scope = rush_cluster::network::BackgroundScope::CoreOnly;
            let machine = Machine::new(cfg);
            let config = SchedulerConfig {
                tick,
                ..SchedulerConfig::default()
            };
            let mut eng = SchedulerEngine::new(machine, config, Box::new(NeverVaries), 1);
            let result = eng.run(&[
                JobRequest {
                    id: 0,
                    app: AppId::Swfft,
                    nodes: 8,
                    submit_at: SimTime::ZERO,
                    scaling: ScalingMode::Reference,
                    user_est_secs: None,
                },
                JobRequest {
                    id: 1,
                    app: AppId::Laghos,
                    nodes: 8,
                    submit_at: SimTime::ZERO,
                    scaling: ScalingMode::Reference,
                    user_est_secs: None,
                },
            ]);
            result
                .completed
                .iter()
                .find(|c| c.job.id.0 == 1)
                .expect("laghos completes")
                .end_at
        };
        let fine = run(SimDuration::from_secs(1));
        let coarse = run(SimDuration::from_hours(12));
        let gap = fine.max(coarse).since(fine.min(coarse)).as_secs_f64();
        assert!(
            gap < 30.0,
            "survivor must speed up at its neighbor's finish: \
             fine-tick end {fine}, coarse-tick end {coarse} ({gap:.1}s apart)"
        );
    }

    fn request(id: u64, app: AppId, nodes: u32, submit_us: u64) -> JobRequest {
        JobRequest {
            id,
            app,
            nodes,
            submit_at: SimTime::from_micros(submit_us),
            scaling: ScalingMode::Reference,
            user_est_secs: None,
        }
    }

    /// Cost shape of the once-per-step refresh: a pass that starts k jobs
    /// among N running schedules at most N + k finish events, one per job
    /// at most. Refreshing everyone after each start costs about k·N.
    #[test]
    fn a_pass_starting_k_jobs_schedules_at_most_n_plus_k_finish_events() {
        // Six long one-node jobs and a 10-node blocker fill the 16 nodes;
        // four 2-node jobs queue behind them and all start in the pass at
        // the blocker's finish.
        let mut reqs: Vec<JobRequest> = (0..6)
            .map(|i| request(i, AppId::Lbann, 1, i * 1_000_000))
            .collect();
        reqs.push(request(6, AppId::Swfft, 10, 6_000_000));
        reqs.extend((7..11).map(|i| request(i, AppId::Amg, 2, i * 1_000_000)));
        let mut eng = engine(Box::new(NeverVaries));
        eng.prepare(&reqs);
        let started = |e: &SchedulerEngine| e.registry.counter(e.counters.jobs_started);
        loop {
            let (scheduled_before, started_before) = (eng.events.stats().scheduled, started(&eng));
            eng.step().expect("the burst comes before the run ends");
            let k = started(&eng) - started_before;
            if k < 2 {
                continue;
            }
            let n = eng.running.len() as u64 - k;
            assert_eq!((n, k), (6, 4), "the blocker's finish starts the queue");
            let scheduled = eng.events.stats().scheduled - scheduled_before;
            assert!(
                scheduled <= n + k,
                "{scheduled} events scheduled for {k} starts among {n} running jobs"
            );
            break;
        }
    }

    /// A step that starts, finishes, kills and degrades nothing moves no
    /// running job's speed, so it must not settle any job's work either:
    /// settling at an extra instant re-rounds `remaining_work`.
    #[test]
    fn steps_that_change_no_load_settle_no_work() {
        // Three 4-node jobs run; a 16-node job cannot start beside them.
        let mut reqs: Vec<JobRequest> = (0..3)
            .map(|i| request(i, AppId::Lbann, 4, i * 1_000_000))
            .collect();
        reqs.push(request(3, AppId::Amg, 16, 3_500_000));
        let mut eng = engine(Box::new(NeverVaries));
        eng.prepare(&reqs);
        // Delivers the one event at `at` (off the 30 s tick grid) and
        // checks it left every running job's `last_update` alone.
        let deliver = |eng: &mut SchedulerEngine, at_us: u64| {
            let at = SimTime::from_micros(at_us);
            while eng.events.peek_time().expect("event pending") < at {
                eng.step();
            }
            let updates = |e: &SchedulerEngine| -> Vec<(JobId, SimTime)> {
                e.running
                    .iter()
                    .map(|(&id, r)| (id, r.last_update))
                    .collect()
            };
            let before = updates(eng);
            assert_eq!(eng.step(), Some(at));
            assert!(eng.events.peek_time().is_some_and(|t| t > at));
            assert_eq!(before.len(), 3, "all three jobs still run at {at}");
            assert_eq!(updates(eng), before, "the step at {at} settled work");
        };
        // A submit that cannot start.
        deliver(&mut eng, 3_500_000);
        assert_eq!(eng.queue.len(), 1);
        // An idle node crashes, is repaired, and crashes again while on
        // probation, so its trust event finds it down and does nothing.
        let idle = (0..16)
            .map(NodeId)
            .find(|n| eng.running.values().all(|r| !r.nodes.contains(n)))
            .expect("four nodes are idle");
        for (at_us, fault) in [
            (10_250_000, FaultKind::NodeDown(idle.0)),
            (20_250_000, FaultKind::NodeUp(idle.0)),
            (25_250_000, FaultKind::NodeDown(idle.0)),
        ] {
            eng.events
                .schedule(SimTime::from_micros(at_us), Ev::Fault(fault));
        }
        deliver(&mut eng, 10_250_000);
        deliver(&mut eng, 20_250_000);
        assert_eq!(eng.machine().node_health(idle), NodeHealth::Suspect);
        deliver(&mut eng, 25_250_000);
        let probation = SchedulerConfig::default().faults.suspect_probation;
        deliver(&mut eng, 20_250_000 + probation.as_micros());
        assert_eq!(eng.machine().node_health(idle), NodeHealth::Down);
    }

    /// Bugfix regression: one EASY backfill pass must debit the
    /// reservation's spare-node headroom as it admits jobs. Two long
    /// 4-node jobs face `extra_nodes: 4`; only one may jump the blocked
    /// 12-node head, or the head's reservation start is pushed back.
    #[test]
    fn backfill_decrements_reservation_extra_nodes() {
        // t=0: amg(8n, est 270s) + swfft(8n, est 225s) fill the machine.
        // Both lbann jobs are queued before swfft finishes (~150s), so a
        // single backfill pass at that finish sees both candidates with a
        // reservation of shadow ≈ 270s (amg's est end), extra_nodes = 4.
        // Each lbann (est 540s) runs far past the shadow, so admitting one
        // must spend the whole headroom and block the other.
        let reqs = vec![
            JobRequest {
                id: 0,
                app: AppId::Amg,
                nodes: 8,
                submit_at: SimTime::ZERO,
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            },
            JobRequest {
                id: 1,
                app: AppId::Swfft,
                nodes: 8,
                submit_at: SimTime::ZERO,
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            },
            JobRequest {
                id: 2,
                app: AppId::Amg,
                nodes: 12,
                submit_at: SimTime::from_secs(1),
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            },
            JobRequest {
                id: 3,
                app: AppId::Lbann,
                nodes: 4,
                submit_at: SimTime::from_secs(2),
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            },
            JobRequest {
                id: 4,
                app: AppId::Lbann,
                nodes: 4,
                submit_at: SimTime::from_secs(3),
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            },
        ];
        let mut eng = engine(Box::new(NeverVaries));
        let result = eng.run(&reqs);
        assert_eq!(result.completed.len(), 5);
        let start = |id: u64| {
            result
                .completed
                .iter()
                .find(|c| c.job.id.0 == id)
                .unwrap()
                .start_at
        };
        let jumped = [3u64, 4].iter().filter(|&&id| start(id) < start(2)).count();
        assert_eq!(
            jumped,
            1,
            "exactly one long 4-node job may backfill into extra_nodes=4 \
             (starts: head={}, lbann3={}, lbann4={})",
            start(2),
            start(3),
            start(4)
        );
    }

    /// Conservative backfilling with jobs running past their estimates:
    /// the availability profile must treat an overrun job's nodes as
    /// releasing *now*, never in the past. `AvailabilityProfile::new`
    /// clamps internally and `conservative_pass` clamps at the call site;
    /// this test pins the behavior — every job completes and the overrun
    /// head never deadlocks the queue.
    #[test]
    fn conservative_clamps_overrunning_estimates() {
        let machine = Machine::new(MachineConfig::tiny(7));
        let config = SchedulerConfig {
            backfill: BackfillPolicy::Conservative,
            // est = 0.5 × nominal: every job overruns its estimate.
            est_factor: 0.5,
            ..SchedulerConfig::default()
        };
        let mut eng = SchedulerEngine::new(machine, config, Box::new(NeverVaries), 42);
        let result = eng.run(&requests(6, 12));
        assert_eq!(
            result.completed.len(),
            6,
            "overrunning estimates must not wedge the conservative pass"
        );
        // 12-node jobs on 16 nodes serialize; starts must stay FCFS.
        let mut by_start = result.completed.clone();
        by_start.sort_by_key(|c| c.start_at);
        let ids: Vec<u64> = by_start.iter().map(|c| c.job.id.0).collect();
        assert_eq!(ids, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn quarantined_nodes_host_no_jobs() {
        let machine = Machine::new(MachineConfig::tiny(7));
        let mut eng = SchedulerEngine::new(machine, crashy_config(13), Box::new(NeverVaries), 42);
        let result = eng.run(&requests(8, 4));
        // Replay the trace: between NodeDown(n) and the Trust readmission
        // (which is not traced, but NodeUp + probation bounds it from
        // below), no job may *start* on node n.
        let mut down_since: HashMap<u32, SimTime> = HashMap::new();
        let mut up_at: HashMap<u32, SimTime> = HashMap::new();
        for r in &result.events {
            match r.event {
                ObsEvent::NodeDown { node: n } => {
                    down_since.insert(n, r.at);
                    up_at.remove(&n);
                }
                ObsEvent::NodeUp { node: n } => {
                    up_at.insert(n, r.at);
                }
                _ => {}
            }
        }
        let probation = crashy_config(13).faults.suspect_probation;
        for c in &result.completed {
            for node in &c.nodes {
                if let Some(&down) = down_since.get(&(node.0)) {
                    if c.start_at >= down {
                        // Started after the crash: must be after repair and
                        // the full probation.
                        let up = up_at.get(&(node.0)).copied();
                        assert!(
                            up.is_some_and(|u| c.start_at >= u + probation),
                            "{} started on quarantined node {node:?}",
                            c.job.id
                        );
                    }
                }
            }
        }
    }

    // ----- checkpoint / resume ------------------------------------------

    /// Everything observable about a finished run, flattened to text so two
    /// runs can be compared byte for byte: completion records, failure
    /// records, counters, the encoded event log and load series, and the
    /// full metrics dump.
    fn run_fingerprint(r: &ScheduleResult) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for c in &r.completed {
            writeln!(
                s,
                "C {} {} {} {:?} {} {:?}",
                c.job.id, c.start_at, c.end_at, c.nodes, c.skips, c.launch_prediction
            )
            .unwrap();
        }
        for f in &r.failed {
            writeln!(s, "F {} {} {}", f.job.id, f.attempts, f.last_killed_at).unwrap();
        }
        writeln!(
            s,
            "skips={} maxq={} fb={} rq={} nf={}",
            r.total_skips, r.max_queue_len, r.fallback_decisions, r.requeues, r.node_failures
        )
        .unwrap();
        s.push_str(&log_to_val(&r.events, &r.trace).render());
        s.push_str(&r.metrics.to_json());
        s
    }

    fn crashy_engine() -> SchedulerEngine {
        let machine = Machine::new(MachineConfig::tiny(7));
        SchedulerEngine::new(machine, crashy_config(13), Box::new(NeverVaries), 42)
    }

    #[test]
    fn snapshot_resume_matches_uninterrupted_run() {
        let reqs = requests(8, 4);

        // Uninterrupted baseline, with kills and requeues in play.
        let mut base = crashy_engine();
        base.prepare(&reqs);
        while base.step().is_some() {}
        let baseline = base.finalize();
        assert!(
            baseline.requeues > 0,
            "fixture must exercise the fault path"
        );

        // Interrupted run: stop at the midpoint, snapshot, throw the
        // engine away (the "crash").
        let cut = SimTime::from_micros(
            (baseline.first_submit.as_micros() + baseline.last_end.as_micros()) / 2,
        );
        let mut victim = crashy_engine();
        victim.prepare(&reqs);
        while victim.now() < cut && victim.step().is_some() {}
        assert!(!victim.is_done(), "the cut must land mid-run");
        let bytes = victim.snapshot();
        drop(victim);

        // Fresh-process stand-in: a brand-new engine, same inputs, resume
        // from the snapshot and run to the end.
        let mut fresh = crashy_engine();
        fresh.prepare(&reqs);
        fresh.resume(&bytes).expect("snapshot must restore");
        while fresh.step().is_some() {}
        let restored = fresh.finalize();

        assert_eq!(
            run_fingerprint(&baseline),
            run_fingerprint(&restored),
            "a resumed run must be indistinguishable from an uninterrupted one"
        );
    }

    /// Regression (robustness satellite): a job that was killed by a node
    /// failure and requeued carries its accumulated RUSH skip count; a
    /// checkpoint taken after the requeue must preserve that count, or the
    /// resumed run re-delays the job and the timeline diverges.
    #[test]
    fn requeue_after_kill_preserves_skips_across_checkpoint_resume() {
        struct AlwaysVaries;
        impl VariabilityPredictor for AlwaysVaries {
            fn predict(
                &mut self,
                _j: &Job,
                _n: &[NodeId],
                _c: &mut PredictorCtx<'_>,
            ) -> Result<VariabilityClass, crate::predictor::PredictError> {
                Ok(VariabilityClass::Variation)
            }
            fn name(&self) -> &str {
                "always-varies"
            }
        }
        let reqs = requests(8, 4);
        let build = || {
            let machine = Machine::new(MachineConfig::tiny(7));
            SchedulerEngine::new(machine, crashy_config(13), Box::new(AlwaysVaries), 42)
        };

        let mut base = build();
        base.prepare(&reqs);
        while base.step().is_some() {}
        let baseline = base.finalize();
        assert!(baseline.requeues > 0, "fixture must requeue");
        assert!(
            baseline.completed.iter().any(|c| {
                c.skips > 0
                    && records_of(&baseline, "job_killed")
                        .any(|r| r.event.job() == Some(c.job.id.0))
            }),
            "fixture must complete a job that was both delayed and killed"
        );

        // Checkpoint just after the first requeue, so the snapshot carries
        // a killed job's skip history.
        let first_requeue = records_of(&baseline, "job_requeued").next().unwrap().at;
        let cut = first_requeue + SimDuration::from_secs(1);
        let mut victim = build();
        victim.prepare(&reqs);
        while victim.now() < cut && victim.step().is_some() {}
        assert!(!victim.is_done());
        let bytes = victim.snapshot();
        drop(victim);

        let mut fresh = build();
        fresh.prepare(&reqs);
        fresh.resume(&bytes).expect("snapshot must restore");
        while fresh.step().is_some() {}
        let restored = fresh.finalize();

        assert_eq!(run_fingerprint(&baseline), run_fingerprint(&restored));
    }

    /// An ML-style predictor: pools the five-minute counter window over
    /// the candidate nodes with `aggregate_counters`, as `MlPredictor` does,
    /// and lets every bit of every aggregate decide the verdict: flipping
    /// any one bit of any aggregate flips the hash's parity, and with it
    /// the verdict.
    struct CounterHash;

    impl VariabilityPredictor for CounterHash {
        fn predict(
            &mut self,
            _job: &Job,
            nodes: &[NodeId],
            ctx: &mut PredictorCtx<'_>,
        ) -> Result<VariabilityClass, crate::predictor::PredictError> {
            let from = ctx.now.saturating_sub(SimDuration::from_mins(5));
            let aggs =
                rush_telemetry::aggregate::aggregate_counters(ctx.store, nodes, from, ctx.now);
            let hash = aggs.iter().fold(0u64, |h, a| {
                (h ^ a.min.to_bits() ^ a.max.to_bits().rotate_left(21) ^ a.mean.to_bits())
                    .rotate_left(7)
            });
            Ok(if hash.count_ones() % 2 == 0 {
                VariabilityClass::Variation
            } else {
                VariabilityClass::NoVariation
            })
        }
        fn name(&self) -> &str {
            "counter-hash"
        }
    }

    /// A snapshot taken while the store holds rows no read has covered
    /// yet (sampled since the last counter read), after rows were pruned
    /// before any read, resumes to the uninterrupted schedule. The counter
    /// memo is not in the snapshot; the resumed run refills it with the
    /// same bits.
    #[test]
    fn resume_with_pending_and_skipped_telemetry_rows_matches_uninterrupted_run() {
        // Jobs 30 minutes apart: every start reads the counters, and the
        // 10-minute retention prunes rows sampled since the last read
        // before the next one.
        let reqs: Vec<JobRequest> = (0..5)
            .map(|i| request(i, AppId::Laghos, 4, i * 1_800_000_000))
            .collect();
        let build = || {
            let machine = Machine::new(MachineConfig::tiny(7));
            SchedulerEngine::new(
                machine,
                SchedulerConfig::default(),
                Box::new(CounterHash),
                42,
            )
        };
        let mut base = build();
        base.prepare(&reqs);
        while base.step().is_some() {}
        let baseline = base.finalize();
        // Delay verdicts skip a job; go verdicts launch it.
        assert!(baseline.completed.iter().any(|c| c.skips == 0));
        assert!(baseline.total_skips > 0, "fixture must delay a job");

        let mut victim = build();
        victim.prepare(&reqs);
        while victim.now() < SimTime::from_mins(55) && victim.step().is_some() {}
        let bytes = victim.snapshot();
        drop(victim);
        let body = snapshot::decode(&bytes).unwrap().body;
        let store = MetricStore::from_val(body.get("store").unwrap()).unwrap();
        assert!(store.node_count() > 0 && store.gap_count() == 0);
        let blocks = body.get("store").unwrap().l("blocks").unwrap();
        let rows: usize = blocks.iter().map(|b| b.l("t").unwrap().len()).sum();
        assert!(rows > 0, "the cut holds rows");
        for block in blocks {
            let Val::Map(entries) = block else {
                panic!("block is a map")
            };
            let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["t", "o"], "no memo in the snapshot");
        }

        let mut fresh = build();
        fresh.prepare(&reqs);
        fresh.resume(&bytes).expect("snapshot must restore");
        while fresh.step().is_some() {}
        assert_eq!(
            run_fingerprint(&baseline),
            run_fingerprint(&fresh.finalize())
        );
    }

    #[test]
    fn resume_rejects_mismatched_seed_or_config() {
        let reqs = requests(4, 4);
        let mut eng = engine(Box::new(NeverVaries));
        eng.prepare(&reqs);
        for _ in 0..20 {
            eng.step();
        }
        let bytes = eng.snapshot();

        // Different master seed.
        let machine = Machine::new(MachineConfig::tiny(7));
        let mut other = SchedulerEngine::new(
            machine,
            SchedulerConfig::default(),
            Box::new(NeverVaries),
            43,
        );
        other.prepare(&reqs);
        assert!(matches!(
            other.resume(&bytes),
            Err(SnapshotError::ConfigMismatch)
        ));

        // Different scheduler configuration.
        let machine = Machine::new(MachineConfig::tiny(7));
        let config = SchedulerConfig {
            skip_threshold: 9,
            ..SchedulerConfig::default()
        };
        let mut other = SchedulerEngine::new(machine, config, Box::new(NeverVaries), 42);
        other.prepare(&reqs);
        assert!(matches!(
            other.resume(&bytes),
            Err(SnapshotError::ConfigMismatch)
        ));
    }

    #[test]
    fn resume_rejects_corrupted_or_truncated_snapshots() {
        let reqs = requests(4, 4);
        let mut eng = engine(Box::new(NeverVaries));
        eng.prepare(&reqs);
        for _ in 0..20 {
            eng.step();
        }
        let bytes = eng.snapshot();
        let fresh = || {
            let mut e = engine(Box::new(NeverVaries));
            e.prepare(&reqs);
            e
        };

        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(matches!(
            fresh().resume(&flipped),
            Err(SnapshotError::CrcMismatch)
        ));

        assert!(matches!(
            fresh().resume(&bytes[..bytes.len() - 9]),
            Err(SnapshotError::Truncated)
        ));

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert!(matches!(
            fresh().resume(&bad_magic),
            Err(SnapshotError::BadMagic)
        ));

        // The pristine bytes still restore.
        fresh().resume(&bytes).expect("pristine snapshot restores");
    }

    /// Resume pulls the snapshot's arrivals from the source the engine was
    /// prepared with. A request list of another length, a job id the
    /// snapshot does not know, or a hint-less stream that ends before the
    /// snapshot's arrival count is a typed error, and the engine still runs
    /// its own requests as if resume had never been called.
    #[test]
    fn resume_rejects_other_requests_and_leaves_the_engine_untouched() {
        fn slice(reqs: &[JobRequest]) -> Box<dyn JobSource> {
            Box::new(SliceSource::new(reqs))
        }
        fn unhinted(reqs: &[JobRequest]) -> Box<dyn JobSource> {
            let owned: Vec<JobRequest> = reqs.to_vec();
            Box::new(IterSource::new(owned.into_iter()))
        }
        fn prepared(source: Box<dyn JobSource>) -> SchedulerEngine {
            let mut eng = engine(Box::new(NeverVaries));
            eng.prepare_streaming(source);
            eng
        }
        fn stepped_to(mut eng: SchedulerEngine, until: SimTime) -> SchedulerEngine {
            while eng.now() < until && eng.step().is_some() {}
            eng
        }
        // One arrival a minute; the cut at 150 s has pulled four, the
        // fourth still pending.
        let reqs: Vec<JobRequest> = (0..8)
            .map(|i| request(i, AppId::Amg, 4, i * 60_000_000))
            .collect();
        let cut = SimTime::from_secs(150);
        let sliced = stepped_to(prepared(slice(&reqs)), cut).snapshot();
        let body = snapshot::decode(&sliced).unwrap().body;
        assert_eq!(body.u("pulled").unwrap(), 4);
        let streamed = stepped_to(prepared(unhinted(&reqs)), cut).snapshot();

        let shorter = reqs[..7].to_vec();
        let mut longer = reqs.clone();
        longer.push(request(8, AppId::Amg, 4, 480_000_000));
        // The second arrival runs at the cut; resume pulls it itself.
        let mut renamed = reqs.clone();
        renamed[1].id = 99;
        let early_end = reqs[..3].to_vec();

        type Source = fn(&[JobRequest]) -> Box<dyn JobSource>;
        let cases: [(&str, &[u8], Vec<JobRequest>, Source); 4] = [
            ("one shorter", &sliced, shorter, slice),
            ("one longer", &sliced, longer, slice),
            ("changed id", &sliced, renamed, slice),
            ("stream ends early", &streamed, early_end, unhinted),
        ];
        for (label, bytes, reqs, source) in cases {
            let mut eng = prepared(source(&reqs));
            let err = eng.resume(bytes).expect_err(label);
            match label {
                "changed id" => assert!(
                    matches!(&err, SnapshotError::Schema(m) if m.contains("unknown job id 1")),
                    "{label}: {err:?}"
                ),
                _ => assert!(
                    matches!(err, SnapshotError::ConfigMismatch),
                    "{label}: {err:?}"
                ),
            }
            while eng.step().is_some() {}
            let untouched = stepped_to(prepared(source(&reqs)), SimTime::MAX).finalize();
            assert_eq!(
                run_fingerprint(&eng.finalize()),
                run_fingerprint(&untouched),
                "{label}: a failed resume must leave the engine as prepared"
            );
        }
    }

    /// A store body recorded on another machine (seed or node count)
    /// would synthesize another machine's counters: resume refuses it.
    #[test]
    fn resume_rejects_a_store_from_another_machine() {
        let reqs = requests(4, 4);
        let mut eng = engine(Box::new(NeverVaries));
        eng.prepare(&reqs);
        for _ in 0..20 {
            eng.step();
        }
        let env = snapshot::decode(&eng.snapshot()).unwrap();
        let seed = MachineConfig::tiny(7).seed;
        let other = MetricStore::new(16, seed.wrapping_add(1));
        let fewer = MetricStore::new(8, seed);
        for store in [other, fewer] {
            let Val::Map(mut body) = env.body.clone() else {
                panic!("snapshot body is a map")
            };
            for (key, val) in &mut body {
                if key == "store" {
                    *val = store.to_val();
                }
            }
            let bytes = snapshot::encode(
                env.master_seed,
                env.sim_clock_us,
                env.fingerprint,
                &Val::Map(body),
            );
            let mut fresh = engine(Box::new(NeverVaries));
            fresh.prepare(&reqs);
            assert!(matches!(
                fresh.resume(&bytes),
                Err(SnapshotError::ConfigMismatch)
            ));
        }
    }

    #[test]
    fn resume_rejects_old_trace_keys_and_malformed_log_records() {
        let reqs = requests(4, 4);
        let mut eng = engine(Box::new(NeverVaries));
        eng.prepare(&reqs);
        for _ in 0..20 {
            eng.step();
        }
        let env = snapshot::decode(&eng.snapshot()).unwrap();
        let Val::Map(entries) = &env.body else {
            panic!("snapshot body is a map")
        };
        let resume = |body: Vec<(String, Val)>| {
            let bytes = snapshot::encode(
                env.master_seed,
                env.sim_clock_us,
                env.fingerprint,
                &Val::Map(body),
            );
            let mut fresh = engine(Box::new(NeverVaries));
            fresh.prepare(&reqs);
            fresh.resume(&bytes)
        };
        fn records_mut(body: &mut [(String, Val)]) -> &mut Vec<Val> {
            let Some((_, Val::Map(log))) = body.iter_mut().find(|(k, _)| k == "log") else {
                panic!("the body has a log map")
            };
            let Some((_, Val::List(records))) = log.iter_mut().find(|(k, _)| k == "records") else {
                panic!("the log has a records list")
            };
            records
        }

        // A body from before the one log: `trace` plus `tracer`, no `log`.
        let mut old_keys = entries.clone();
        let (_, log) = old_keys.iter().find(|(k, _)| k == "log").unwrap().clone();
        old_keys.retain(|(k, _)| k != "log");
        old_keys.push(("trace".to_string(), log));
        old_keys.push(("tracer".to_string(), Val::map()));
        assert_eq!(
            resume(old_keys),
            Err(SnapshotError::Schema("missing key 'log'".to_string()))
        );

        // Malformed records: not a pair, an unknown event tag, a u32 field
        // out of range, an event with a trailing field.
        let malformed = [
            Val::List(vec![Val::U64(0)]),
            Val::List(vec![
                Val::U64(0),
                Val::List(vec![Val::U64(99), Val::U64(0)]),
            ]),
            Val::List(vec![
                Val::U64(0),
                Val::List(vec![Val::U64(10), Val::U64(1 << 40)]),
            ]),
            Val::List(vec![
                Val::U64(0),
                Val::List(vec![Val::U64(0), Val::U64(1), Val::U64(2)]),
            ]),
        ];
        for bad in malformed {
            let mut body = entries.clone();
            records_mut(&mut body)[0] = bad.clone();
            let got = resume(body);
            assert!(
                matches!(got, Err(SnapshotError::Schema(_))),
                "{bad:?} must be a schema error, got {got:?}"
            );
        }

        // A pending node-down event for node 2^32 + 1 once resumed as
        // node 1; it is a schema error now.
        let mut body = entries.clone();
        let Some((_, Val::Map(events))) = body.iter_mut().find(|(k, _)| k == "events") else {
            panic!("the body has an events map")
        };
        let Some((_, Val::List(pending))) = events.iter_mut().find(|(k, _)| k == "entries") else {
            panic!("the events map has an entries list")
        };
        pending.push(Val::List(vec![
            Val::U64(0),
            Val::U64(u64::MAX),
            Val::List(vec![Val::U64(3), Val::U64(0), Val::U64((1 << 32) + 1)]),
        ]));
        assert_eq!(
            resume(body),
            Err(SnapshotError::Schema(
                "event field 2 = 4294967297 exceeds u32".to_string()
            ))
        );

        // The untouched body still restores.
        resume(entries.clone()).expect("pristine body restores");
    }

    #[test]
    fn folded_run_keeps_no_log_or_series() {
        let reqs = requests(8, 4);
        let mut eng = engine(Box::new(NeverVaries)).with_completion_folding();
        let result = eng.run(&reqs);
        assert_eq!(result.replay.completed, 8);
        assert!(result.events.is_empty());
        assert!(result.trace.queue_len_series().is_empty());
        assert!(result.trace.busy_nodes_series().is_empty());

        // The same run unfolded logs every lifecycle record.
        let full = engine(Box::new(NeverVaries)).run(&reqs);
        assert_eq!(records_of(&full, "job_finished").count(), 8);
        assert_eq!(
            full.trace.queue_len_series().len(),
            full.events
                .iter()
                .filter(|r| r.event.is_lifecycle())
                .count()
        );
    }

    // ----- invariant auditor --------------------------------------------

    #[test]
    fn audit_fail_fast_every_event_stays_clean_on_faulted_run() {
        let machine = Machine::new(MachineConfig::tiny(7));
        let config = SchedulerConfig {
            audit: AuditConfig {
                policy: AuditPolicy::FailFast,
                every_event: true,
            },
            ..crashy_config(13)
        };
        let mut eng = SchedulerEngine::new(machine, config, Box::new(NeverVaries), 42);
        let result = eng.run(&requests(8, 4));
        assert_eq!(result.completed.len() + result.failed.len(), 8);
        let checks = result.metrics.counter_by_name("audit.checks").unwrap();
        assert!(checks >= Invariant::COUNT, "auditor must actually run");
        assert_eq!(result.metrics.counter_by_name("audit.violations"), Some(0));
    }

    #[test]
    fn audit_repairs_a_corrupted_skip_table() {
        let machine = Machine::new(MachineConfig::tiny(7));
        let config = SchedulerConfig {
            audit: AuditConfig {
                policy: AuditPolicy::Repair,
                every_event: false,
            },
            ..SchedulerConfig::default()
        };
        let mut eng = SchedulerEngine::new(machine, config, Box::new(NeverVaries), 42);
        eng.prepare(&requests(2, 4));
        // Corrupt: a skip count past the starvation bound.
        let bad = eng.config.skip_threshold + 7;
        eng.skip_table.insert(JobId(0), bad);
        let now = eng.now();
        let violations = eng.audit_now(now);
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == Invariant::SkipBound),
            "{violations:?}"
        );
        // Repair clamped the count; a second pass is clean.
        assert!(eng.audit_now(now).is_empty());
        assert_eq!(eng.skip_table[&JobId(0)], eng.config.skip_threshold);
        // The run still finishes normally afterwards.
        while eng.step().is_some() {}
        assert_eq!(eng.finalize().completed.len(), 2);
    }

    #[test]
    #[should_panic(expected = "audit failure")]
    fn audit_fail_fast_panics_on_corrupted_state() {
        let machine = Machine::new(MachineConfig::tiny(7));
        let config = SchedulerConfig {
            audit: AuditConfig {
                policy: AuditPolicy::FailFast,
                every_event: false,
            },
            ..SchedulerConfig::default()
        };
        let mut eng = SchedulerEngine::new(machine, config, Box::new(NeverVaries), 42);
        eng.prepare(&requests(2, 4));
        eng.skip_table.insert(JobId(0), u32::MAX);
        let now = eng.now();
        eng.audit_now(now);
    }

    // ----- online predictor service -------------------------------------

    /// Engine-level fake of the ML stack: artifacts are threshold strings,
    /// rows are a single zero, so a "9.9" model always says NoVariation.
    /// Training always returns the same artifact as the live model —
    /// candidate and incumbent tie on every label, and ties promote.
    struct TieHost;

    struct Threshold {
        cut: f64,
    }

    impl crate::service::LoadedModel for Threshold {
        fn classify(&self, row: &[f64]) -> VariabilityClass {
            if row.first().copied().unwrap_or(0.0) >= self.cut {
                VariabilityClass::Variation
            } else {
                VariabilityClass::NoVariation
            }
        }
    }

    impl OnlineModelHost for TieHost {
        fn assemble(
            &mut self,
            _job: &Job,
            _nodes: &[NodeId],
            _ctx: &mut PredictorCtx<'_>,
        ) -> Result<Vec<f64>, crate::predictor::PredictError> {
            Ok(vec![0.0])
        }

        fn train(
            &mut self,
            _samples: &[crate::service::LabeledSample],
            _seed: u64,
        ) -> Result<String, String> {
            Ok("9.9".to_string())
        }

        fn load(&self, artifact: &str) -> Result<Box<dyn crate::service::LoadedModel>, String> {
            let cut: f64 = artifact.parse().map_err(|_| "bad artifact".to_string())?;
            Ok(Box::new(Threshold { cut }))
        }

        fn name(&self) -> &str {
            "tie-host"
        }
    }

    fn online_engine() -> SchedulerEngine {
        let config = SchedulerConfig {
            service: ServiceConfig {
                retrain_every: SimDuration::from_secs(60),
                drift_window: 4,
                shadow_decisions: 2,
                shadow_quorum: 1,
                min_train_samples: 2,
                watch_samples: 2,
                ..ServiceConfig::default()
            },
            ..SchedulerConfig::default()
        };
        let mut reference = crate::metrics::RuntimeReference::new();
        reference.insert(AppId::Amg, 4, ScalingMode::Reference, 185.0, 20.0);
        SchedulerEngine::new(
            Machine::new(MachineConfig::tiny(7)),
            config,
            Box::new(NeverVaries),
            42,
        )
        .with_online_predictor(Box::new(TieHost), reference, "9.9".to_string())
    }

    #[test]
    fn online_service_retrains_shadows_and_swaps() {
        let mut eng = online_engine();
        let result = eng.run(&requests(12, 4));
        assert_eq!(result.completed.len(), 12);
        let svc = eng.service().expect("service enabled");
        assert!(svc.retrains() >= 1, "the retrain period must fire");
        assert!(svc.swaps() >= 1, "a tying candidate must promote");
        assert!(svc.version() >= 2);
        assert_eq!(svc.rollbacks(), 0, "the identical model cannot regress");
        assert!(
            result
                .metrics
                .counter_by_name("sched.predictor.retrains")
                .unwrap()
                >= 1
        );
        assert!(
            result
                .metrics
                .counter_by_name("sched.predictor.swaps")
                .unwrap()
                >= 1
        );
        assert!(
            result
                .metrics
                .gauge_by_name("sched.predictor.version")
                .unwrap()
                >= 2.0
        );
        for kind in [
            "predictor_retrain",
            "predictor_shadow_start",
            "predictor_swap",
        ] {
            assert!(
                result.events.iter().any(|r| r.event.kind() == kind),
                "trace must contain a {kind} event"
            );
        }
    }

    /// The tentpole's crash-safety obligation: a checkpoint taken *inside a
    /// shadow phase* (candidate in flight, pending decisions unresolved)
    /// must resume to the identical trajectory, swap included.
    #[test]
    fn online_service_mid_shadow_resume_matches_uninterrupted_run() {
        use crate::service::ServicePhase;
        let reqs = requests(12, 4);

        let mut base = online_engine();
        base.prepare(&reqs);
        while base.step().is_some() {}
        let baseline = base.finalize();
        assert!(
            base.service().unwrap().swaps() >= 1,
            "fixture must exercise a swap"
        );

        let mut victim = online_engine();
        victim.prepare(&reqs);
        while victim.service().unwrap().phase() == ServicePhase::Live && victim.step().is_some() {}
        assert!(
            matches!(
                victim.service().unwrap().phase(),
                ServicePhase::Shadow | ServicePhase::Deciding
            ),
            "the cut must land inside the shadow trial, got {:?}",
            victim.service().unwrap().phase()
        );
        assert!(!victim.is_done());
        let bytes = victim.snapshot();
        drop(victim);

        let mut fresh = online_engine();
        fresh.prepare(&reqs);
        fresh.resume(&bytes).expect("snapshot must restore");
        assert!(matches!(
            fresh.service().unwrap().phase(),
            ServicePhase::Shadow | ServicePhase::Deciding
        ));
        while fresh.step().is_some() {}
        let restored = fresh.finalize();
        assert!(fresh.service().unwrap().swaps() >= 1);

        assert_eq!(
            run_fingerprint(&baseline),
            run_fingerprint(&restored),
            "a mid-shadow resume must be indistinguishable from an uninterrupted run"
        );
    }

    /// The engine's service wiring and the snapshot's service state must
    /// agree — a service snapshot silently restoring into a plain engine
    /// (or vice versa) would drop the whole online trajectory.
    #[test]
    fn resume_rejects_online_service_mismatch() {
        let reqs = requests(12, 4);
        let mut eng = online_engine();
        eng.prepare(&reqs);
        for _ in 0..64 {
            if eng.step().is_none() {
                break;
            }
        }
        let with_service = eng.snapshot();

        // Identical config, but built without `with_online_predictor`.
        let mut plain = SchedulerEngine::new(
            Machine::new(MachineConfig::tiny(7)),
            SchedulerConfig {
                service: ServiceConfig {
                    retrain_every: SimDuration::from_secs(60),
                    drift_window: 4,
                    shadow_decisions: 2,
                    shadow_quorum: 1,
                    min_train_samples: 2,
                    watch_samples: 2,
                    ..ServiceConfig::default()
                },
                ..SchedulerConfig::default()
            },
            Box::new(NeverVaries),
            42,
        );
        plain.prepare(&reqs);
        assert!(
            plain.resume(&with_service).is_err(),
            "service snapshot must not restore into a service-less engine"
        );

        let plain_snapshot = plain.snapshot();
        let mut serviced = online_engine();
        serviced.prepare(&reqs);
        assert!(
            serviced.resume(&plain_snapshot).is_err(),
            "service-less snapshot must not restore into a serviced engine"
        );
    }

    // ---- performance faults: codec round-trips, mid-storm resume,
    //      idempotent flap deliveries ----

    use proptest::prelude::*;

    /// Every [`FaultKind`] variant, old and new, with payloads spanning
    /// the full encodable range.
    fn any_fault_kind() -> impl Strategy<Value = FaultKind> {
        prop_oneof![
            any::<u32>().prop_map(FaultKind::NodeDown),
            any::<u32>().prop_map(FaultKind::NodeUp),
            Just(FaultKind::BlackoutStart),
            Just(FaultKind::BlackoutEnd),
            Just(FaultKind::CorruptionStart),
            Just(FaultKind::CorruptionEnd),
            (any::<u32>(), 1..=1000u32)
                .prop_map(|(node, factor_milli)| FaultKind::NodeDegrade { node, factor_milli }),
            any::<u32>().prop_map(FaultKind::NodeRestore),
            (any::<u32>(), any::<u32>()).prop_map(|(region, intensity_milli)| {
                FaultKind::CongestionStorm {
                    region,
                    intensity_milli,
                }
            }),
            any::<u32>().prop_map(|region| FaultKind::StormEnd { region }),
            (any::<u32>(), 1u64..86_400_000_000, 1..=64u32).prop_map(|(node, us, count)| {
                FaultKind::NodeFlap {
                    node,
                    period: SimDuration::from_micros(us),
                    count,
                }
            }),
        ]
    }

    proptest! {
        /// Satellite: every fault kind survives the snapshot event codec
        /// byte-identically — decode(encode(x)) == x and the re-encoded
        /// tree equals the original encoding.
        #[test]
        fn every_fault_kind_round_trips_the_snapshot_codec(kind in any_fault_kind()) {
            let val = Ev::Fault(kind).to_val();
            let decoded = Ev::from_val(&val).expect("fault event must decode");
            let Ev::Fault(back) = decoded else {
                panic!("decoded to non-fault {decoded:?}");
            };
            prop_assert_eq!(back, kind);
            prop_assert_eq!(Ev::Fault(back).to_val(), val.clone());
            // And through the full byte codec, not just the Val tree.
            let bytes = rush_simkit::snapshot::encode(0, 0, 0, &val);
            let envelope = rush_simkit::snapshot::decode(&bytes).expect("bytes must decode");
            prop_assert_eq!(envelope.body, val);
        }
    }

    /// A fault process heavy on performance faults: degradations, storms
    /// and flaps all fire within the first simulated hour.
    fn perf_fault_config(seed: u64) -> SchedulerConfig {
        SchedulerConfig {
            faults: FaultConfig {
                seed,
                horizon: SimDuration::from_hours(2),
                degrade_mtbf: Some(SimDuration::from_mins(15)),
                degrade_duration: SimDuration::from_mins(5),
                degrade_factor_milli: 400,
                storm_mtbf: Some(SimDuration::from_mins(8)),
                storm_duration: SimDuration::from_mins(5),
                storm_intensity_milli: 700,
                flap_mtbf: Some(SimDuration::from_mins(25)),
                ..FaultConfig::default()
            },
            ..SchedulerConfig::default()
        }
    }

    fn perf_faulty_engine() -> SchedulerEngine {
        let machine = Machine::new(MachineConfig::tiny(7));
        SchedulerEngine::new(machine, perf_fault_config(13), Box::new(NeverVaries), 42)
    }

    #[test]
    fn performance_faults_slow_jobs_but_lose_none() {
        let mut eng = perf_faulty_engine();
        let result = eng.run(&requests(8, 4));
        assert_eq!(
            result.completed.len() + result.failed.len(),
            8,
            "no job may be lost to a performance fault"
        );
        let counter = |name: &str| result.metrics.counter_by_name(name).unwrap_or(0);
        assert!(
            counter("sched.node_degrades") > 0,
            "degrade process must fire"
        );
        assert!(counter("sched.storms") > 0, "storm process must fire");
        assert!(counter("sched.node_flaps") > 0, "flap process must fire");

        // The same workload without faults finishes sooner: stragglers and
        // storms only ever slow execution down.
        let machine = Machine::new(MachineConfig::tiny(7));
        let mut clean = SchedulerEngine::new(
            machine,
            SchedulerConfig::default(),
            Box::new(NeverVaries),
            42,
        );
        let baseline = clean.run(&requests(8, 4));
        assert!(
            result.last_end > baseline.last_end,
            "perf faults must stretch the makespan: faulty {} vs clean {}",
            result.last_end,
            baseline.last_end
        );
    }

    #[test]
    fn flap_cycles_are_idempotent_against_the_crash_process() {
        // Flaps race the regular crash process on the same nodes; the
        // idempotent Down/Up arms must absorb the overlap as counted
        // no-ops rather than double-releasing capacity.
        let config = SchedulerConfig {
            faults: FaultConfig {
                seed: 13,
                horizon: SimDuration::from_hours(2),
                node_mtbf: Some(SimDuration::from_mins(12)),
                node_mttr: SimDuration::from_mins(4),
                flap_mtbf: Some(SimDuration::from_mins(10)),
                flap_period: SimDuration::from_mins(2),
                flap_count: 3,
                ..FaultConfig::default()
            },
            ..SchedulerConfig::default()
        };
        let machine = Machine::new(MachineConfig::tiny(7));
        let mut eng = SchedulerEngine::new(machine, config, Box::new(NeverVaries), 42);
        let result = eng.run(&requests(8, 4));
        assert_eq!(result.completed.len() + result.failed.len(), 8);
        let counter = |name: &str| result.metrics.counter_by_name(name).unwrap_or(0);
        assert!(counter("sched.node_flaps") > 0, "flap process must fire");
        assert!(
            counter("sched.fault_noop") > 0,
            "overlapping down/up deliveries must be counted no-ops"
        );
        // Transition bookkeeping stays balanced: every counted failure has
        // a matching recovery or is still down at the end of the run.
        let failures = counter("sched.node_failures");
        let recoveries = counter("sched.node_recoveries");
        assert!(
            recoveries <= failures,
            "recoveries ({recoveries}) cannot exceed failures ({failures})"
        );
    }

    #[test]
    fn redundant_fault_deliveries_are_counted_noops() {
        let mut eng = engine(Box::new(NeverVaries));
        eng.prepare(&requests(1, 4));
        let now = SimTime::ZERO;

        // NodeUp for a node that never went down: no-op.
        eng.handle_fault(FaultKind::NodeUp(3), now);
        assert_eq!(eng.registry.counter(eng.counters.fault_noop), 1);
        assert_eq!(eng.registry.counter(eng.counters.node_recoveries), 0);

        // First NodeDown applies; the second is absorbed.
        eng.handle_fault(FaultKind::NodeDown(3), now);
        eng.handle_fault(FaultKind::NodeDown(3), now);
        assert_eq!(eng.registry.counter(eng.counters.node_failures), 1);
        assert_eq!(eng.registry.counter(eng.counters.fault_noop), 2);
        assert_eq!(eng.pool.down_count(), 1, "capacity released exactly once");

        // First NodeUp repairs; the second is absorbed.
        eng.handle_fault(FaultKind::NodeUp(3), now);
        eng.handle_fault(FaultKind::NodeUp(3), now);
        assert_eq!(eng.registry.counter(eng.counters.node_recoveries), 1);
        assert_eq!(eng.registry.counter(eng.counters.fault_noop), 3);
    }

    /// Acceptance criterion: a checkpoint taken mid-`CongestionStorm`
    /// resumes byte-identically — storm state, degraded node speeds and
    /// pending StormEnd/NodeRestore events all survive the codec.
    #[test]
    fn snapshot_resume_mid_storm_matches_uninterrupted_run() {
        let reqs = requests(8, 4);

        let mut base = perf_faulty_engine();
        base.prepare(&reqs);
        while base.step().is_some() {}
        let baseline = base.finalize();

        // Step the victim until a storm is actually raging, then cut.
        let mut victim = perf_faulty_engine();
        victim.prepare(&reqs);
        while victim.machine().active_storm_count() == 0 && victim.step().is_some() {}
        assert!(
            victim.machine().active_storm_count() > 0,
            "the cut must land mid-storm"
        );
        assert!(!victim.is_done(), "the cut must land mid-run");
        let bytes = victim.snapshot();
        drop(victim);

        let mut fresh = perf_faulty_engine();
        fresh.prepare(&reqs);
        fresh
            .resume(&bytes)
            .expect("mid-storm snapshot must restore");
        assert!(
            fresh.machine().active_storm_count() > 0,
            "restored engine must still be mid-storm"
        );
        while fresh.step().is_some() {}
        let restored = fresh.finalize();

        assert_eq!(
            run_fingerprint(&baseline),
            run_fingerprint(&restored),
            "a mid-storm resume must be indistinguishable from an uninterrupted run"
        );
    }
}
