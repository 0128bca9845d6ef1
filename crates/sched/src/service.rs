//! The online predictor service: drift detection, shadow evaluation,
//! hot-swap and rollback.
//!
//! The paper trains `M(j, S)` once and deploys it statically, but
//! production monitoring relationships drift (Costello & Bhatele,
//! arXiv:2007.03451): a model trained before a congestion-regime shift
//! keeps mislabeling jobs long after the machine has changed underneath
//! it. [`PredictorService`] converts the frozen artifact into a supervised
//! online subsystem:
//!
//! * **Label store** — every completed job is z-scored against the
//!   [`RuntimeReference`] and paired with the feature row assembled at its
//!   launch decision, feeding a bounded sliding window of labeled samples.
//! * **Drift detector** — [`DriftDetector`] compares the live model's
//!   rolling accuracy over the last `drift_window` labels against the
//!   reference accuracy established right after the model's activation and
//!   fires when the degradation exceeds a threshold.
//! * **Retraining** — on a sim-time period (`retrain_every`) or a drift
//!   firing, the window is handed to the [`OnlineModelHost`], which trains
//!   a candidate deterministically and returns a portable artifact string.
//! * **Shadow evaluation** — the candidate classifies the same feature row
//!   as the live model for `shadow_decisions` decisions without ever
//!   influencing scheduling; labeled outcomes of those decisions score
//!   both models.
//! * **Hot-swap / rollback** — the candidate is atomically promoted only
//!   if it scores at least as well as the incumbent on the shadow labels;
//!   a post-swap watch window rolls back to the previous artifact when the
//!   new version regresses.
//!
//! Every transition is reported to the engine as a [`ServiceEvent`] (the
//! engine owns metrics and tracing), and the complete mutable state —
//! window, pending decisions, detector, phase, version history and model
//! *artifacts* — round-trips through the snapshot codec so a resumed run
//! replays byte-identically even mid-shadow.

use crate::job::{Job, JobId};
use crate::metrics::RuntimeReference;
use crate::predictor::{PredictError, PredictorCtx, VariabilityClass};
use rush_cluster::topology::NodeId;
use rush_simkit::snapshot::{SnapshotError, Val};
use rush_simkit::time::{SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};

/// Online predictor service parameters. Embedded in
/// [`crate::engine::SchedulerConfig`], so it must stay `Copy` and its
/// `Debug` form is part of the snapshot fingerprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Sim-time period between scheduled retrains. Zero disables the
    /// online service entirely (the paper's static deployment).
    pub retrain_every: SimDuration,
    /// Rolling window of labeled decisions the drift detector compares
    /// against its post-activation reference.
    pub drift_window: u32,
    /// Accuracy degradation (reference − rolling) that triggers an
    /// off-schedule retrain.
    pub drift_threshold: f64,
    /// Decisions a candidate shadows before the swap gate is evaluated.
    pub shadow_decisions: u32,
    /// Labeled shadow outcomes required to judge the candidate (fewer only
    /// suffices when every shadow decision has already resolved).
    pub shadow_quorum: u32,
    /// Labeled samples required in the window before any retrain.
    pub min_train_samples: u32,
    /// Sliding-window label store capacity.
    pub window_capacity: u32,
    /// Labeled post-swap outcomes watched for regression before the new
    /// version is considered settled. Zero disables rollback.
    pub watch_samples: u32,
    /// Accuracy drop below the incumbent's rolling accuracy at swap time
    /// that triggers rollback during the watch.
    pub regression_margin: f64,
    /// z-score at or above which a run counts as "little variation"
    /// (Section IV-A: 1.2 σ).
    pub little_sigma: f64,
    /// z-score at or above which a run counts as "variation" (1.5 σ).
    pub variation_sigma: f64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            retrain_every: SimDuration::ZERO,
            drift_window: 64,
            drift_threshold: 0.15,
            shadow_decisions: 32,
            shadow_quorum: 8,
            min_train_samples: 32,
            window_capacity: 256,
            watch_samples: 24,
            regression_margin: 0.10,
            little_sigma: 1.2,
            variation_sigma: 1.5,
        }
    }
}

impl ServiceConfig {
    /// Whether the online service is active.
    pub fn enabled(&self) -> bool {
        self.retrain_every > SimDuration::ZERO
    }

    /// Maps a z-score to its variability class under the σ thresholds.
    pub fn classify_z(&self, z: f64) -> VariabilityClass {
        if z >= self.variation_sigma {
            VariabilityClass::Variation
        } else if z >= self.little_sigma {
            VariabilityClass::LittleVariation
        } else {
            VariabilityClass::NoVariation
        }
    }
}

/// One labeled outcome in the sliding window: the feature row assembled at
/// the job's launch decision, the class its actual runtime earned, and the
/// application index (the grouping key for leave-one-app-out training).
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledSample {
    /// Feature row, as assembled by the host at decision time.
    pub row: Vec<f64>,
    /// Actual class index (0/1/2) from the z-scored runtime.
    pub label: u32,
    /// Application index of the job.
    pub app: u32,
}

/// A model instance the service can classify rows with. Implementations
/// must be pure: the same row always yields the same class, so live and
/// candidate predictions never perturb the simulation's RNG streams.
pub trait LoadedModel: Send {
    /// Classifies one assembled feature row.
    fn classify(&self, row: &[f64]) -> VariabilityClass;
}

/// The service's bridge to the ML stack. `rush-core` implements this over
/// the Table-I feature schema, `rush-ml` training and the model codec; the
/// engine crate only sees feature rows and opaque artifact strings, which
/// is what lets the service state snapshot without serializing models
/// structurally.
pub trait OnlineModelHost: Send {
    /// Assembles the feature row for one decision. May probe the machine
    /// and consume predictor RNG — call exactly once per decision.
    fn assemble(
        &mut self,
        job: &Job,
        nodes: &[NodeId],
        ctx: &mut PredictorCtx<'_>,
    ) -> Result<Vec<f64>, PredictError>;

    /// Deterministically trains a model on the window, returning a
    /// portable artifact string (the `rush-ml` codec text).
    fn train(&mut self, samples: &[LabeledSample], seed: u64) -> Result<String, String>;

    /// Instantiates a model from an artifact produced by [`Self::train`]
    /// (or restored from a snapshot).
    fn load(&self, artifact: &str) -> Result<Box<dyn LoadedModel>, String>;

    /// Stable host name, surfaced as the predictor name.
    fn name(&self) -> &str;
}

/// Detects concept drift as accuracy degradation: the rolling accuracy
/// over the last `window` labeled outcomes is compared against a reference
/// accuracy established over the *first* `window` outcomes after the
/// current model's activation. The detector [`fires`](DriftDetector::observe)
/// when `reference − rolling > threshold` with both windows full.
///
/// On an evenly-mixed stationary stream the rolling accuracy never strays
/// more than `1/window` from the reference, so any `threshold` above that
/// quantization noise provably never fires — and after a distribution flip
/// that degrades accuracy by more than `threshold + 2/window`, it provably
/// fires within `window` samples (the properties pinned by
/// `tests/drift_properties.rs`).
#[derive(Debug, Clone)]
pub struct DriftDetector {
    window: usize,
    threshold: f64,
    /// Hit/miss outcomes of the last `window` labeled decisions.
    ring: VecDeque<bool>,
    hits_in_ring: u32,
    /// Outcomes seen toward the reference window since the last reset.
    ref_seen: u32,
    ref_hits: u32,
}

impl DriftDetector {
    /// A detector over `window` labeled outcomes firing above `threshold`.
    pub fn new(window: u32, threshold: f64) -> Self {
        DriftDetector {
            window: window.max(1) as usize,
            threshold,
            ring: VecDeque::new(),
            hits_in_ring: 0,
            ref_seen: 0,
            ref_hits: 0,
        }
    }

    /// Re-baselines the detector (called on every model activation).
    pub fn reset(&mut self) {
        self.ring.clear();
        self.hits_in_ring = 0;
        self.ref_seen = 0;
        self.ref_hits = 0;
    }

    /// Records one labeled outcome; returns `true` when drift fires.
    pub fn observe(&mut self, hit: bool) -> bool {
        if (self.ref_seen as usize) < self.window {
            self.ref_seen += 1;
            self.ref_hits += u32::from(hit);
        }
        self.ring.push_back(hit);
        self.hits_in_ring += u32::from(hit);
        if self.ring.len() > self.window {
            let evicted = self.ring.pop_front().expect("non-empty ring");
            self.hits_in_ring -= u32::from(evicted);
        }
        self.is_full() && self.score() > self.threshold
    }

    /// Whether both the reference and rolling windows are established.
    pub fn is_full(&self) -> bool {
        self.ring.len() == self.window && self.ref_seen as usize == self.window
    }

    /// Rolling accuracy over the last `window` outcomes (1.0 when empty).
    pub fn rolling_accuracy(&self) -> f64 {
        if self.ring.is_empty() {
            return 1.0;
        }
        f64::from(self.hits_in_ring) / self.ring.len() as f64
    }

    /// Reference accuracy over the first post-activation window.
    pub fn reference_accuracy(&self) -> f64 {
        if self.ref_seen == 0 {
            return 1.0;
        }
        f64::from(self.ref_hits) / f64::from(self.ref_seen)
    }

    /// Current drift score: `max(0, reference − rolling)`.
    pub fn score(&self) -> f64 {
        (self.reference_accuracy() - self.rolling_accuracy()).max(0.0)
    }

    fn to_val(&self) -> Val {
        Val::map()
            .with(
                "ring",
                Val::List(self.ring.iter().map(|&h| Val::U64(u64::from(h))).collect()),
            )
            .with("ref_seen", Val::U64(u64::from(self.ref_seen)))
            .with("ref_hits", Val::U64(u64::from(self.ref_hits)))
    }

    fn restore(&mut self, v: &Val) -> Result<(), SnapshotError> {
        let mut ring = VecDeque::new();
        let mut hits = 0u32;
        for b in v.l("ring")? {
            let h = b.as_u64()? != 0;
            hits += u32::from(h);
            ring.push_back(h);
        }
        if ring.len() > self.window {
            return Err(SnapshotError::Schema(
                "drift ring overflows window".to_string(),
            ));
        }
        self.ring = ring;
        self.hits_in_ring = hits;
        self.ref_seen = v.u("ref_seen")? as u32;
        self.ref_hits = v.u("ref_hits")? as u32;
        Ok(())
    }
}

/// Why a version entered service (the version-history record).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationCause {
    /// The initial deployment.
    Initial,
    /// Promoted from shadow after beating the incumbent.
    Swap,
    /// Restored after a post-swap regression.
    Rollback,
}

impl ActivationCause {
    fn tag(self) -> u64 {
        match self {
            ActivationCause::Initial => 0,
            ActivationCause::Swap => 1,
            ActivationCause::Rollback => 2,
        }
    }

    fn from_tag(t: u64) -> Result<Self, SnapshotError> {
        Ok(match t {
            0 => ActivationCause::Initial,
            1 => ActivationCause::Swap,
            2 => ActivationCause::Rollback,
            other => return Err(SnapshotError::Schema(format!("bad cause {other}"))),
        })
    }
}

/// One entry of the service's version history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionRecord {
    /// Version number (monotone; rollbacks take a fresh number).
    pub version: u32,
    /// Sim time the version entered service.
    pub activated_at: SimTime,
    /// Why it entered service.
    pub cause: ActivationCause,
}

/// The service's lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServicePhase {
    /// Serving the live model; no candidate exists.
    Live,
    /// A candidate is classifying alongside the live model.
    Shadow,
    /// The shadow decision budget is spent; waiting for enough labeled
    /// shadow outcomes to judge the candidate.
    Deciding,
    /// A freshly swapped version is being watched for regression.
    Watch,
}

impl ServicePhase {
    fn tag(self) -> u64 {
        match self {
            ServicePhase::Live => 0,
            ServicePhase::Shadow => 1,
            ServicePhase::Deciding => 2,
            ServicePhase::Watch => 3,
        }
    }

    fn from_tag(t: u64) -> Result<Self, SnapshotError> {
        Ok(match t {
            0 => ServicePhase::Live,
            1 => ServicePhase::Shadow,
            2 => ServicePhase::Deciding,
            3 => ServicePhase::Watch,
            other => return Err(SnapshotError::Schema(format!("bad phase {other}"))),
        })
    }
}

/// A state transition the engine must surface as metrics + trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceEvent {
    /// The drift detector fired (score in milli-units).
    DriftDetected {
        /// `score() * 1000`, saturating.
        score_milli: u32,
    },
    /// A candidate was trained on `samples` window labels.
    Retrained {
        /// Version the candidate will take if promoted.
        version: u32,
        /// Training-set size.
        samples: u32,
    },
    /// The candidate entered shadow evaluation.
    ShadowStarted {
        /// Candidate version.
        version: u32,
        /// Shadow decision budget.
        decisions: u32,
    },
    /// The candidate was promoted.
    Swapped {
        /// Previous live version.
        from: u32,
        /// New live version.
        to: u32,
    },
    /// The candidate lost the shadow comparison and was discarded.
    Discarded {
        /// The rejected candidate's would-be version.
        version: u32,
    },
    /// A post-swap regression restored the previous artifact.
    RolledBack {
        /// The regressed version.
        from: u32,
        /// The fresh version serving the restored artifact.
        to: u32,
    },
    /// Training failed; the service stays on the live model and waits for
    /// the next period.
    TrainFailed,
}

/// The feature row and predictions recorded for a not-yet-completed job.
#[derive(Debug, Clone)]
struct PendingDecision {
    row: Vec<f64>,
    live_pred: u32,
    /// Candidate's prediction when the decision fell inside a shadow phase.
    cand_pred: Option<u32>,
}

/// Shadow-trial bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct ShadowStats {
    /// Decisions the candidate has shadowed.
    decisions: u32,
    /// Decisions where candidate and live agreed.
    agree: u32,
    /// Labeled shadow outcomes seen so far.
    labeled: u32,
    live_hits: u32,
    cand_hits: u32,
    /// Shadow-tagged pending decisions not yet resolved.
    outstanding: u32,
}

/// Post-swap watch bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct WatchStats {
    seen: u32,
    hits: u32,
    /// Accuracy the new version must clear: the incumbent's rolling
    /// accuracy at swap time minus the regression margin.
    bar: f64,
}

/// The long-lived, versioned predictor service. See the module docs.
pub struct PredictorService {
    config: ServiceConfig,
    host: Box<dyn OnlineModelHost>,
    reference: RuntimeReference,
    version: u32,
    live_artifact: String,
    live: Box<dyn LoadedModel>,
    /// Rollback target while a swap is under watch.
    previous_artifact: Option<String>,
    candidate_artifact: Option<String>,
    candidate: Option<Box<dyn LoadedModel>>,
    phase: ServicePhase,
    window: VecDeque<LabeledSample>,
    pending: HashMap<JobId, PendingDecision>,
    detector: DriftDetector,
    next_retrain: SimTime,
    shadow: ShadowStats,
    watch: WatchStats,
    history: Vec<VersionRecord>,
    /// Completed trainings (also salts each training seed).
    trains: u64,
    swaps: u64,
    rollbacks: u64,
    train_seed: u64,
    /// Transitions not yet drained by the engine.
    events: Vec<ServiceEvent>,
}

impl PredictorService {
    /// Builds the service around an initial live artifact.
    ///
    /// `train_seed` salts every retraining (the engine passes its master
    /// seed, keeping the whole trajectory a function of one seed). Panics
    /// if the initial artifact fails to load — a construction-time error,
    /// not a runtime failure mode.
    pub fn new(
        config: ServiceConfig,
        host: Box<dyn OnlineModelHost>,
        reference: RuntimeReference,
        initial_artifact: String,
        train_seed: u64,
    ) -> Self {
        let live = host
            .load(&initial_artifact)
            .expect("initial predictor artifact must load");
        let detector = DriftDetector::new(config.drift_window, config.drift_threshold);
        PredictorService {
            next_retrain: SimTime::ZERO + config.retrain_every,
            config,
            host,
            reference,
            version: 1,
            live_artifact: initial_artifact,
            live,
            previous_artifact: None,
            candidate_artifact: None,
            candidate: None,
            phase: ServicePhase::Live,
            window: VecDeque::new(),
            pending: HashMap::new(),
            detector,
            shadow: ShadowStats::default(),
            watch: WatchStats::default(),
            history: vec![VersionRecord {
                version: 1,
                activated_at: SimTime::ZERO,
                cause: ActivationCause::Initial,
            }],
            trains: 0,
            swaps: 0,
            rollbacks: 0,
            train_seed,
            events: Vec::new(),
        }
    }

    /// Stable service name (the host's).
    pub fn name(&self) -> &str {
        self.host.name()
    }

    /// Current live version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> ServicePhase {
        self.phase
    }

    /// Completed trainings.
    pub fn retrains(&self) -> u64 {
        self.trains
    }

    /// Promotions so far.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// Rollbacks so far.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }

    /// Labeled samples currently in the window.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// The version history, oldest first.
    pub fn history(&self) -> &[VersionRecord] {
        &self.history
    }

    /// Current drift score.
    pub fn drift_score(&self) -> f64 {
        self.detector.score()
    }

    /// Candidate/live agreement over the current or last shadow phase
    /// (1.0 before any shadow decision).
    pub fn shadow_agreement(&self) -> f64 {
        if self.shadow.decisions == 0 {
            return 1.0;
        }
        f64::from(self.shadow.agree) / f64::from(self.shadow.decisions)
    }

    /// Drains the transitions accumulated since the last call.
    pub fn drain_events(&mut self) -> Vec<ServiceEvent> {
        std::mem::take(&mut self.events)
    }

    /// Advances the retraining clock. Called at every consultation; when
    /// the period elapses (and no trial is in flight) the window is
    /// retrained and a shadow phase begins.
    pub fn tick(&mut self, now: SimTime) {
        if self.phase == ServicePhase::Live && now >= self.next_retrain {
            if self.window.len() >= self.config.min_train_samples as usize {
                self.retrain(now);
            } else {
                // Not enough labels yet: wait a full period for more.
                self.next_retrain = now + self.config.retrain_every;
            }
        }
    }

    /// One online prediction: assembles the feature row (probes, RNG),
    /// classifies it with the live model, lets a shadowing candidate
    /// classify the same row, and records the decision for label pairing.
    pub fn predict(
        &mut self,
        job: &Job,
        nodes: &[NodeId],
        ctx: &mut PredictorCtx<'_>,
    ) -> Result<VariabilityClass, PredictError> {
        let row = self.host.assemble(job, nodes, ctx)?;
        let live_class = self.live.classify(&row);
        let mut cand_pred = None;
        if self.phase == ServicePhase::Shadow {
            let cand = self.candidate.as_ref().expect("shadow phase has candidate");
            let cand_class = cand.classify(&row);
            cand_pred = Some(cand_class.index());
            self.shadow.decisions += 1;
            self.shadow.agree += u32::from(cand_class == live_class);
            self.shadow.outstanding += 1;
            if self.shadow.decisions >= self.config.shadow_decisions {
                self.phase = ServicePhase::Deciding;
            }
        }
        self.pending.insert(
            job.id,
            PendingDecision {
                row,
                live_pred: live_class.index(),
                cand_pred,
            },
        );
        Ok(live_class)
    }

    /// Labels a completed job and advances the state machine. `runtime`
    /// is the job's actual execution time.
    pub fn observe_completion(&mut self, job: &Job, runtime: SimDuration, now: SimTime) {
        let Some(pending) = self.pending.remove(&job.id) else {
            return; // decided under fallback/budget-exhaustion; no row
        };
        let Some((mean, std)) = self
            .reference
            .get(job.app, job.nodes_requested, job.scaling)
        else {
            return; // no ground truth for this shape; can't label
        };
        let z = if std <= f64::EPSILON {
            0.0
        } else {
            (runtime.as_secs_f64() - mean) / std
        };
        let label = self.config.classify_z(z).index();

        self.window.push_back(LabeledSample {
            row: pending.row,
            label,
            app: job.app.index() as u32,
        });
        while self.window.len() > self.config.window_capacity as usize {
            self.window.pop_front();
        }

        let live_hit = pending.live_pred == label;
        if let Some(cand_pred) = pending.cand_pred {
            self.shadow.labeled += 1;
            self.shadow.live_hits += u32::from(live_hit);
            self.shadow.cand_hits += u32::from(cand_pred == label);
            self.shadow.outstanding = self.shadow.outstanding.saturating_sub(1);
        }

        match self.phase {
            ServicePhase::Watch => {
                self.watch.seen += 1;
                self.watch.hits += u32::from(live_hit);
                self.check_watch(now);
            }
            ServicePhase::Live | ServicePhase::Shadow | ServicePhase::Deciding => {
                let fired = self.detector.observe(live_hit);
                if fired && self.phase == ServicePhase::Live {
                    let score_milli = (self.detector.score() * 1000.0).round() as u32;
                    self.events
                        .push(ServiceEvent::DriftDetected { score_milli });
                    if self.window.len() >= self.config.min_train_samples as usize {
                        self.retrain(now);
                    } else {
                        // Too few labels to act on the drift; re-baseline so
                        // the same degradation doesn't re-fire every label.
                        self.detector.reset();
                    }
                }
                if self.phase == ServicePhase::Deciding {
                    self.maybe_decide(now);
                }
            }
        }
    }

    /// Drops the pending decision of a job killed before completion.
    pub fn observe_kill(&mut self, id: JobId, now: SimTime) {
        if let Some(p) = self.pending.remove(&id) {
            if p.cand_pred.is_some() {
                self.shadow.outstanding = self.shadow.outstanding.saturating_sub(1);
                if self.phase == ServicePhase::Deciding {
                    self.maybe_decide(now);
                }
            }
        }
    }

    /// Trains a candidate on the window and opens the shadow phase.
    fn retrain(&mut self, now: SimTime) {
        let samples: Vec<LabeledSample> = self.window.iter().cloned().collect();
        let seed = self.train_seed.wrapping_add(self.trains);
        let candidate_version = self.version + 1;
        match self
            .host
            .train(&samples, seed)
            .and_then(|artifact| self.host.load(&artifact).map(|model| (artifact, model)))
        {
            Ok((artifact, model)) => {
                self.trains += 1;
                self.candidate_artifact = Some(artifact);
                self.candidate = Some(model);
                self.phase = ServicePhase::Shadow;
                self.shadow = ShadowStats::default();
                self.events.push(ServiceEvent::Retrained {
                    version: candidate_version,
                    samples: samples.len() as u32,
                });
                self.events.push(ServiceEvent::ShadowStarted {
                    version: candidate_version,
                    decisions: self.config.shadow_decisions,
                });
                if self.config.shadow_decisions == 0 {
                    // Degenerate budget: judge on outstanding == 0 at once.
                    self.phase = ServicePhase::Deciding;
                    self.maybe_decide(now);
                }
            }
            Err(_) => {
                self.events.push(ServiceEvent::TrainFailed);
                self.next_retrain = now + self.config.retrain_every;
            }
        }
    }

    /// Judges the candidate once enough shadow labels (or all of them)
    /// have arrived.
    fn maybe_decide(&mut self, now: SimTime) {
        let quorum = self.shadow.labeled >= self.config.shadow_quorum;
        let drained = self.shadow.outstanding == 0;
        if !quorum && !drained {
            return;
        }
        let candidate_version = self.version + 1;
        let promote = self.shadow.labeled > 0 && self.shadow.cand_hits >= self.shadow.live_hits;
        if promote {
            self.swap(now);
        } else {
            self.candidate = None;
            self.candidate_artifact = None;
            self.phase = ServicePhase::Live;
            self.next_retrain = now + self.config.retrain_every;
            // Re-baseline: if accuracy keeps degrading from here, drift
            // fires again and another candidate gets its chance.
            self.detector.reset();
            self.events.push(ServiceEvent::Discarded {
                version: candidate_version,
            });
        }
    }

    /// Atomically promotes the candidate.
    fn swap(&mut self, now: SimTime) {
        let from = self.version;
        let incumbent_rolling = self.detector.rolling_accuracy();
        self.previous_artifact = Some(std::mem::replace(
            &mut self.live_artifact,
            self.candidate_artifact.take().expect("candidate artifact"),
        ));
        self.live = self.candidate.take().expect("candidate model");
        self.version += 1;
        self.swaps += 1;
        self.history.push(VersionRecord {
            version: self.version,
            activated_at: now,
            cause: ActivationCause::Swap,
        });
        self.detector.reset();
        self.next_retrain = now + self.config.retrain_every;
        self.events.push(ServiceEvent::Swapped {
            from,
            to: self.version,
        });
        if self.config.watch_samples > 0 {
            self.phase = ServicePhase::Watch;
            self.watch = WatchStats {
                seen: 0,
                hits: 0,
                bar: (incumbent_rolling - self.config.regression_margin).max(0.0),
            };
        } else {
            self.phase = ServicePhase::Live;
            self.previous_artifact = None;
        }
    }

    /// Evaluates the post-swap watch: rolls back as soon as the new
    /// version provably cannot clear the bar, settles when the watch
    /// window completes above it.
    fn check_watch(&mut self, now: SimTime) {
        let total = self.config.watch_samples;
        let remaining = total - self.watch.seen;
        // Best achievable accuracy if every remaining outcome is a hit.
        let best = f64::from(self.watch.hits + remaining) / f64::from(total);
        if best < self.watch.bar {
            self.rollback(now);
            return;
        }
        if self.watch.seen >= total {
            // Settled: the watched accuracy cleared the bar.
            self.phase = ServicePhase::Live;
            self.previous_artifact = None;
            self.next_retrain = now + self.config.retrain_every;
        }
    }

    /// Restores the previous artifact under a fresh version number.
    fn rollback(&mut self, now: SimTime) {
        let from = self.version;
        let artifact = self
            .previous_artifact
            .take()
            .expect("watch phase has rollback target");
        // The artifact loaded before (it served as live), so a load failure
        // here is a host bug, not an input error.
        self.live = self
            .host
            .load(&artifact)
            .expect("previously served artifact must load");
        self.live_artifact = artifact;
        self.version += 1;
        self.rollbacks += 1;
        self.history.push(VersionRecord {
            version: self.version,
            activated_at: now,
            cause: ActivationCause::Rollback,
        });
        self.detector.reset();
        self.phase = ServicePhase::Live;
        self.next_retrain = now + self.config.retrain_every;
        self.events.push(ServiceEvent::RolledBack {
            from,
            to: self.version,
        });
    }

    // ------------------------------------------------------------------
    // Snapshot
    // ------------------------------------------------------------------

    /// Serializes the complete mutable state (models as artifact strings).
    pub fn to_val(&self) -> Val {
        let opt_str = |s: &Option<String>| match s {
            Some(s) => Val::List(vec![Val::Str(s.clone())]),
            None => Val::List(vec![]),
        };
        let row_val = |row: &[f64]| Val::List(row.iter().map(|&x| Val::from_f64(x)).collect());
        let window: Vec<Val> = self
            .window
            .iter()
            .map(|s| {
                Val::List(vec![
                    row_val(&s.row),
                    Val::U64(u64::from(s.label)),
                    Val::U64(u64::from(s.app)),
                ])
            })
            .collect();
        let mut pend: Vec<(u64, &PendingDecision)> =
            self.pending.iter().map(|(k, v)| (k.0, v)).collect();
        pend.sort_unstable_by_key(|&(k, _)| k);
        let pending: Vec<Val> = pend
            .into_iter()
            .map(|(id, p)| {
                Val::List(vec![
                    Val::U64(id),
                    row_val(&p.row),
                    Val::U64(u64::from(p.live_pred)),
                    Val::I64(p.cand_pred.map(i64::from).unwrap_or(-1)),
                ])
            })
            .collect();
        let history: Vec<Val> = self
            .history
            .iter()
            .map(|r| {
                Val::List(vec![
                    Val::U64(u64::from(r.version)),
                    Val::U64(r.activated_at.as_micros()),
                    Val::U64(r.cause.tag()),
                ])
            })
            .collect();
        Val::map()
            .with("version", Val::U64(u64::from(self.version)))
            .with("live", Val::Str(self.live_artifact.clone()))
            .with("previous", opt_str(&self.previous_artifact))
            .with("candidate", opt_str(&self.candidate_artifact))
            .with("phase", Val::U64(self.phase.tag()))
            .with("window", Val::List(window))
            .with("pending", Val::List(pending))
            .with("detector", self.detector.to_val())
            .with("next_retrain", Val::U64(self.next_retrain.as_micros()))
            .with(
                "shadow",
                Val::List(
                    [
                        self.shadow.decisions,
                        self.shadow.agree,
                        self.shadow.labeled,
                        self.shadow.live_hits,
                        self.shadow.cand_hits,
                        self.shadow.outstanding,
                    ]
                    .iter()
                    .map(|&x| Val::U64(u64::from(x)))
                    .collect(),
                ),
            )
            .with(
                "watch",
                Val::List(vec![
                    Val::U64(u64::from(self.watch.seen)),
                    Val::U64(u64::from(self.watch.hits)),
                    Val::from_f64(self.watch.bar),
                ]),
            )
            .with("history", Val::List(history))
            .with("trains", Val::U64(self.trains))
            .with("swaps", Val::U64(self.swaps))
            .with("rollbacks", Val::U64(self.rollbacks))
    }

    /// Restores [`Self::to_val`] state, reloading models through the host.
    /// Parses (and loads) everything before committing, so a malformed
    /// body leaves the service untouched.
    pub fn restore(&mut self, v: &Val) -> Result<(), SnapshotError> {
        let opt_str = |v: &Val| -> Result<Option<String>, SnapshotError> {
            let l = v.as_list()?;
            Ok(match l.first() {
                Some(s) => Some(s.as_str()?.to_string()),
                None => None,
            })
        };
        let row_of = |v: &Val| -> Result<Vec<f64>, SnapshotError> {
            v.as_list()?.iter().map(|x| x.as_f64()).collect()
        };
        let load_err =
            |e: String| SnapshotError::Schema(format!("service artifact failed to load: {e}"));

        let version = v.u("version")? as u32;
        let live_artifact = v.s("live")?.to_string();
        let previous_artifact = opt_str(v.get("previous")?)?;
        let candidate_artifact = opt_str(v.get("candidate")?)?;
        let phase = ServicePhase::from_tag(v.u("phase")?)?;
        let live = self.host.load(&live_artifact).map_err(load_err)?;
        let candidate = match &candidate_artifact {
            Some(a) => Some(self.host.load(a).map_err(load_err)?),
            None => None,
        };

        let mut window = VecDeque::new();
        for s in v.l("window")? {
            let l = s.as_list()?;
            if l.len() != 3 {
                return Err(SnapshotError::Schema("window sample".to_string()));
            }
            window.push_back(LabeledSample {
                row: row_of(&l[0])?,
                label: l[1].as_u64()? as u32,
                app: l[2].as_u64()? as u32,
            });
        }
        let mut pending = HashMap::new();
        for p in v.l("pending")? {
            let l = p.as_list()?;
            if l.len() != 4 {
                return Err(SnapshotError::Schema("pending decision".to_string()));
            }
            let cand = l[3].as_i64()?;
            pending.insert(
                JobId(l[0].as_u64()?),
                PendingDecision {
                    row: row_of(&l[1])?,
                    live_pred: l[2].as_u64()? as u32,
                    cand_pred: if cand < 0 { None } else { Some(cand as u32) },
                },
            );
        }
        let mut detector =
            DriftDetector::new(self.config.drift_window, self.config.drift_threshold);
        detector.restore(v.get("detector")?)?;
        let sh = v.l("shadow")?;
        if sh.len() != 6 {
            return Err(SnapshotError::Schema("shadow stats".to_string()));
        }
        let shadow = ShadowStats {
            decisions: sh[0].as_u64()? as u32,
            agree: sh[1].as_u64()? as u32,
            labeled: sh[2].as_u64()? as u32,
            live_hits: sh[3].as_u64()? as u32,
            cand_hits: sh[4].as_u64()? as u32,
            outstanding: sh[5].as_u64()? as u32,
        };
        let w = v.l("watch")?;
        if w.len() != 3 {
            return Err(SnapshotError::Schema("watch stats".to_string()));
        }
        let watch = WatchStats {
            seen: w[0].as_u64()? as u32,
            hits: w[1].as_u64()? as u32,
            bar: w[2].as_f64()?,
        };
        let mut history = Vec::new();
        for h in v.l("history")? {
            let l = h.as_list()?;
            if l.len() != 3 {
                return Err(SnapshotError::Schema("history record".to_string()));
            }
            history.push(VersionRecord {
                version: l[0].as_u64()? as u32,
                activated_at: SimTime::from_micros(l[1].as_u64()?),
                cause: ActivationCause::from_tag(l[2].as_u64()?)?,
            });
        }
        if matches!(phase, ServicePhase::Shadow | ServicePhase::Deciding) && candidate.is_none() {
            return Err(SnapshotError::Schema(
                "shadow phase without candidate".to_string(),
            ));
        }
        if phase == ServicePhase::Watch && previous_artifact.is_none() {
            return Err(SnapshotError::Schema(
                "watch phase without rollback target".to_string(),
            ));
        }

        self.version = version;
        self.live_artifact = live_artifact;
        self.live = live;
        self.previous_artifact = previous_artifact;
        self.candidate_artifact = candidate_artifact;
        self.candidate = candidate;
        self.phase = phase;
        self.window = window;
        self.pending = pending;
        self.detector = detector;
        self.next_retrain = SimTime::from_micros(v.u("next_retrain")?);
        self.shadow = shadow;
        self.watch = watch;
        self.history = history;
        self.trains = v.u("trains")?;
        self.swaps = v.u("swaps")?;
        self.rollbacks = v.u("rollbacks")?;
        self.events.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rush_cluster::machine::{Machine, MachineConfig};
    use rush_simkit::rng::CountedRng;
    use rush_telemetry::store::MetricStore;
    use rush_workloads::apps::AppId;
    use rush_workloads::scaling::ScalingMode;

    fn job(app: AppId) -> Job {
        Job {
            id: JobId(1),
            app,
            nodes_requested: 4,
            submit_at: SimTime::ZERO,
            scaling: ScalingMode::Reference,
            est_runtime: SimDuration::from_secs(100),
            skip_threshold: 10,
        }
    }

    fn ctx_parts() -> (Machine, MetricStore, CountedRng) {
        let machine = Machine::new(MachineConfig::tiny(1));
        let store = MetricStore::new(machine.tree().node_count(), machine.config().seed);
        (machine, store, CountedRng::seeded(4))
    }

    /// A model that classifies by thresholding the first feature —
    /// deterministic and cheap, so trials are easy to script.
    struct ThresholdModel {
        cut: f64,
    }

    impl LoadedModel for ThresholdModel {
        fn classify(&self, row: &[f64]) -> VariabilityClass {
            if row.first().copied().unwrap_or(0.0) >= self.cut {
                VariabilityClass::Variation
            } else {
                VariabilityClass::NoVariation
            }
        }
    }

    /// Host whose artifacts are just threshold strings; training produces
    /// a scripted sequence of artifacts.
    struct ScriptHost {
        /// Artifacts handed out by successive `train` calls (last repeats).
        trained: Vec<String>,
        calls: usize,
    }

    impl OnlineModelHost for ScriptHost {
        fn assemble(
            &mut self,
            _job: &Job,
            _nodes: &[NodeId],
            _ctx: &mut PredictorCtx<'_>,
        ) -> Result<Vec<f64>, PredictError> {
            Ok(vec![0.0])
        }

        fn train(&mut self, _samples: &[LabeledSample], _seed: u64) -> Result<String, String> {
            let i = self.calls.min(self.trained.len().saturating_sub(1));
            self.calls += 1;
            self.trained
                .get(i)
                .cloned()
                .ok_or_else(|| "no scripted artifact".to_string())
        }

        fn load(&self, artifact: &str) -> Result<Box<dyn LoadedModel>, String> {
            let cut: f64 = artifact.parse().map_err(|_| "bad artifact".to_string())?;
            Ok(Box::new(ThresholdModel { cut }))
        }

        fn name(&self) -> &str {
            "script-host"
        }
    }

    fn reference() -> RuntimeReference {
        let mut r = RuntimeReference::default();
        for app in rush_workloads::apps::AppId::ALL {
            r.insert(app, 4, ScalingMode::Reference, 100.0, 10.0);
        }
        r
    }

    fn config() -> ServiceConfig {
        ServiceConfig {
            retrain_every: SimDuration::from_secs(100),
            drift_window: 4,
            drift_threshold: 0.3,
            shadow_decisions: 3,
            shadow_quorum: 2,
            min_train_samples: 2,
            window_capacity: 16,
            watch_samples: 3,
            regression_margin: 0.1,
            ..ServiceConfig::default()
        }
    }

    fn service(trained: Vec<&str>) -> PredictorService {
        PredictorService::new(
            config(),
            Box::new(ScriptHost {
                trained: trained.into_iter().map(String::from).collect(),
                calls: 0,
            }),
            reference(),
            // Live threshold 0.5: rows of [0.0] classify NoVariation.
            "0.5".to_string(),
            7,
        )
    }

    /// Runs one decision + completion for `job_id`, with `runtime` secs.
    fn decide_and_complete(svc: &mut PredictorService, job_id: u64, runtime: f64, now: SimTime) {
        let mut j = job(rush_workloads::apps::AppId::Amg);
        j.id = JobId(job_id);
        j.nodes_requested = 4;
        let (mut machine, mut store, mut rng) = ctx_parts();
        let mut ctx = PredictorCtx {
            machine: &mut machine,
            store: &mut store,
            now,
            rng: &mut rng,
        };
        svc.predict(&j, &[NodeId(0)], &mut ctx).unwrap();
        svc.observe_completion(&j, SimDuration::from_secs_f64(runtime), now);
    }

    #[test]
    fn detector_fires_only_after_windows_fill() {
        let mut d = DriftDetector::new(4, 0.3);
        // Reference window: all hits.
        for _ in 0..4 {
            assert!(!d.observe(true));
        }
        assert!(d.is_full());
        assert!((d.score() - 0.0).abs() < 1e-12);
        // One miss: rolling 3/4, reference 1.0 → score 0.25 ≤ 0.3.
        assert!(!d.observe(false));
        // Second miss: rolling 2/4 → score 0.5 > 0.3: drift.
        assert!(d.observe(false));
    }

    #[test]
    fn detector_reset_rebaselines() {
        let mut d = DriftDetector::new(2, 0.4);
        d.observe(true);
        d.observe(true);
        d.observe(false);
        d.reset();
        assert!(!d.is_full());
        assert_eq!(d.score(), 0.0);
        // New baseline is all-miss; staying all-miss is not drift.
        assert!(!d.observe(false));
        assert!(!d.observe(false));
        assert!(!d.observe(false));
    }

    #[test]
    fn periodic_retrain_shadows_then_swaps_on_tie_or_better() {
        // Candidate threshold -1.0: classifies every row Variation.
        let mut svc = service(vec!["-1.0"]);
        let t0 = SimTime::from_secs(0);
        // Runtime 140 s → z = 4 → label Variation. The live model (says
        // NoVariation) misses every sample; the candidate hits them all.
        for i in 0..2 {
            decide_and_complete(&mut svc, i, 140.0, t0);
        }
        assert_eq!(svc.phase(), ServicePhase::Live);
        // Past the retrain period with ≥ min samples: retrain + shadow.
        svc.tick(SimTime::from_secs(101));
        assert_eq!(svc.phase(), ServicePhase::Shadow);
        let events = svc.drain_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, ServiceEvent::Retrained { version: 2, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, ServiceEvent::ShadowStarted { version: 2, .. })));
        // Three shadow decisions, labeled as they complete: candidate wins.
        for i in 10..13 {
            decide_and_complete(&mut svc, i, 140.0, SimTime::from_secs(110 + i));
        }
        assert_eq!(svc.version(), 2);
        assert_eq!(svc.swaps(), 1);
        assert_eq!(svc.phase(), ServicePhase::Watch);
        assert!(svc
            .drain_events()
            .iter()
            .any(|e| matches!(e, ServiceEvent::Swapped { from: 1, to: 2 })));
        // Watch passes: the new model keeps hitting (label Variation).
        for i in 20..23 {
            decide_and_complete(&mut svc, i, 140.0, SimTime::from_secs(200 + i));
        }
        assert_eq!(svc.phase(), ServicePhase::Live);
        assert_eq!(svc.rollbacks(), 0);
    }

    #[test]
    fn losing_candidate_is_discarded() {
        // Live threshold 0.5 → NoVariation; candidate -1.0 → Variation.
        // Runtimes of 100 s → z = 0 → label NoVariation: live wins.
        let mut svc = service(vec!["-1.0"]);
        for i in 0..2 {
            decide_and_complete(&mut svc, i, 100.0, SimTime::from_secs(1));
        }
        svc.tick(SimTime::from_secs(101));
        assert_eq!(svc.phase(), ServicePhase::Shadow);
        for i in 10..13 {
            decide_and_complete(&mut svc, i, 100.0, SimTime::from_secs(110 + i));
        }
        assert_eq!(svc.version(), 1);
        assert_eq!(svc.swaps(), 0);
        assert_eq!(svc.phase(), ServicePhase::Live);
        assert!(svc
            .drain_events()
            .iter()
            .any(|e| matches!(e, ServiceEvent::Discarded { version: 2 })));
    }

    #[test]
    fn post_swap_regression_rolls_back() {
        let mut svc = service(vec!["-1.0"]);
        // Establish a solid incumbent baseline: label NoVariation, live
        // hits everything (rolling accuracy 1.0 → watch bar 0.9).
        for i in 0..4 {
            decide_and_complete(&mut svc, i, 100.0, SimTime::from_secs(1));
        }
        svc.tick(SimTime::from_secs(101));
        // Shadow: runtimes flip to 140 s → label Variation; the candidate
        // (always Variation) wins the shadow comparison and swaps in.
        for i in 10..13 {
            decide_and_complete(&mut svc, i, 140.0, SimTime::from_secs(110 + i));
        }
        assert_eq!(svc.version(), 2);
        assert_eq!(svc.phase(), ServicePhase::Watch);
        // Watch: runtimes flip back to 100 s → label NoVariation; the new
        // live model (always Variation) misses everything and cannot clear
        // the 0.9 bar → rollback to the original artifact.
        for i in 20..24 {
            decide_and_complete(&mut svc, i, 100.0, SimTime::from_secs(200 + i));
            if svc.rollbacks() > 0 {
                break;
            }
        }
        assert_eq!(svc.rollbacks(), 1);
        assert_eq!(svc.version(), 3);
        assert_eq!(svc.phase(), ServicePhase::Live);
        let events = svc.drain_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, ServiceEvent::RolledBack { from: 2, to: 3 })));
        // The restored model is the original threshold-0.5 artifact:
        // a [0.0] row classifies NoVariation again.
        decide_and_complete(&mut svc, 99, 100.0, SimTime::from_secs(300));
        assert_eq!(
            svc.history().last().unwrap().cause,
            ActivationCause::Rollback
        );
    }

    #[test]
    fn snapshot_round_trips_mid_shadow() {
        let mut svc = service(vec!["-1.0"]);
        for i in 0..2 {
            decide_and_complete(&mut svc, i, 140.0, SimTime::from_secs(1));
        }
        svc.tick(SimTime::from_secs(101));
        // One shadow decision in flight (not yet labeled).
        let mut j = job(rush_workloads::apps::AppId::Amg);
        j.id = JobId(50);
        j.nodes_requested = 4;
        let (mut machine, mut store, mut rng) = ctx_parts();
        let mut ctx = PredictorCtx {
            machine: &mut machine,
            store: &mut store,
            now: SimTime::from_secs(110),
            rng: &mut rng,
        };
        svc.predict(&j, &[NodeId(0)], &mut ctx).unwrap();
        svc.drain_events();
        assert_eq!(svc.phase(), ServicePhase::Shadow);

        let val = svc.to_val();
        let mut restored = service(vec!["-1.0"]);
        restored.restore(&val).unwrap();
        assert_eq!(restored.phase(), ServicePhase::Shadow);
        assert_eq!(restored.version(), svc.version());
        assert_eq!(restored.window_len(), svc.window_len());
        assert_eq!(restored.retrains(), svc.retrains());
        // Byte-identical re-serialization is the real invariant.
        assert_eq!(restored.to_val().render(), val.render());
    }

    #[test]
    fn restore_rejects_inconsistent_phase() {
        let svc = service(vec!["-1.0"]);
        let mut val = svc.to_val();
        // Claim a shadow phase without any candidate artifact.
        if let Val::Map(ref mut entries) = val {
            for (k, v) in entries.iter_mut() {
                if k == "phase" {
                    *v = Val::U64(1);
                }
            }
        }
        let mut fresh = service(vec!["-1.0"]);
        assert!(fresh.restore(&val).is_err());
    }
}
