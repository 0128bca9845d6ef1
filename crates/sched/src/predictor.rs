//! The `M(j, S)` abstraction of Algorithm 2.
//!
//! A [`VariabilityPredictor`] is consulted just before a job launches, with
//! the machine, the telemetry store, and the job's prospective nodes — the
//! same inputs the paper's Python hook reads (Section V-B: "a Python script
//! … reads the collected counter data, runs the ML models, and provides its
//! prediction"). Three implementations live here; the ML-backed one lives
//! in `rush-core` next to the feature pipeline it shares with training.

use crate::job::Job;
use rush_cluster::machine::Machine;
use rush_cluster::topology::NodeId;
use rush_simkit::rng::CountedRng;
use rush_simkit::time::SimTime;
use rush_telemetry::store::MetricStore;
use serde::{Deserialize, Serialize};

/// The three output classes of the deployed model (Section IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VariabilityClass {
    /// Run time expected within 1.2 σ of the application mean.
    NoVariation,
    /// Between 1.2 σ and 1.5 σ.
    LittleVariation,
    /// Beyond 1.5 σ — the class that triggers a delay.
    Variation,
}

impl VariabilityClass {
    /// Whether this class is in Algorithm 2's "variation labels", i.e.
    /// causes the job to be pushed back.
    pub fn triggers_delay(self) -> bool {
        matches!(self, VariabilityClass::Variation)
    }

    /// Class index used when mapping to/from ML labels (0/1/2).
    pub fn index(self) -> u32 {
        match self {
            VariabilityClass::NoVariation => 0,
            VariabilityClass::LittleVariation => 1,
            VariabilityClass::Variation => 2,
        }
    }

    /// Inverse of [`VariabilityClass::index`]; out-of-range maps to
    /// `Variation` (conservative).
    pub fn from_index(i: u32) -> VariabilityClass {
        match i {
            0 => VariabilityClass::NoVariation,
            1 => VariabilityClass::LittleVariation,
            _ => VariabilityClass::Variation,
        }
    }
}

/// Why a predictor could not produce a class.
///
/// Errors are not fatal to scheduling: the engine falls back to plain EASY
/// backfill (no RUSH delay) and counts the fallback, so a broken model
/// degrades the schedule's quality but never its liveness.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictError {
    /// The telemetry window is too sparse or stale to trust; carries the
    /// observed coverage fraction.
    InsufficientTelemetry {
        /// Fraction of scheduled samples actually present in the window.
        coverage: f64,
    },
    /// The model itself failed (missing weights, feature mismatch, …).
    ModelFailure(String),
}

// Eq is fine here: the coverage f64 comes from a ratio of counts and is
// only compared against values produced the same way.
impl Eq for PredictError {}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::InsufficientTelemetry { coverage } => {
                write!(f, "insufficient telemetry (coverage {coverage:.2})")
            }
            PredictError::ModelFailure(why) => write!(f, "model failure: {why}"),
        }
    }
}

impl std::error::Error for PredictError {}

/// Everything a predictor may inspect at decision time.
pub struct PredictorCtx<'a> {
    /// The machine (mutable: probes inject traffic and consume RNG).
    pub machine: &'a mut Machine,
    /// The telemetry store with counter history. Mutable because the
    /// first read of a (row, counter) pair synthesizes it into the store's
    /// memo ([`MetricStore::columns`]).
    pub store: &'a mut MetricStore,
    /// Current time.
    pub now: SimTime,
    /// Decision-local randomness. Draw-counted so checkpoint/resume can
    /// reconstruct the stream position exactly.
    pub rng: &'a mut CountedRng,
}

/// A variability oracle consulted in `Start()`.
///
/// `Send` so an engine, which owns its predictor, can move to another
/// thread.
pub trait VariabilityPredictor: Send {
    /// Predicts the variability class of launching `job` on `nodes` now.
    ///
    /// An `Err` tells the engine the prediction cannot be trusted; the
    /// engine then schedules the job as plain EASY would (graceful
    /// degradation) instead of delaying it.
    fn predict(
        &mut self,
        job: &Job,
        nodes: &[NodeId],
        ctx: &mut PredictorCtx<'_>,
    ) -> Result<VariabilityClass, PredictError>;

    /// Short name for reports.
    fn name(&self) -> &str;
}

/// The baseline predictor: never predicts variation, reducing RUSH to
/// plain FCFS+EASY.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeverVaries;

impl VariabilityPredictor for NeverVaries {
    fn predict(
        &mut self,
        _job: &Job,
        _nodes: &[NodeId],
        _ctx: &mut PredictorCtx<'_>,
    ) -> Result<VariabilityClass, PredictError> {
        Ok(VariabilityClass::NoVariation)
    }

    fn name(&self) -> &str {
        "never-varies"
    }
}

/// A predictor that always errors — exercises the engine's graceful
/// degradation path (tests and fault-injection demos).
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysFails;

impl VariabilityPredictor for AlwaysFails {
    fn predict(
        &mut self,
        _job: &Job,
        _nodes: &[NodeId],
        _ctx: &mut PredictorCtx<'_>,
    ) -> Result<VariabilityClass, PredictError> {
        Err(PredictError::ModelFailure("scripted failure".into()))
    }

    fn name(&self) -> &str {
        "always-fails"
    }
}

/// An oracle that reads the *true* machine congestion — an upper bound on
/// what any counter-based model can do, used for ablations and tests.
#[derive(Debug, Clone, Copy)]
pub struct CongestionOracle {
    /// Congestion index above which `Variation` is predicted.
    pub variation_threshold: f64,
    /// Congestion index above which `LittleVariation` is predicted.
    pub little_threshold: f64,
}

impl Default for CongestionOracle {
    fn default() -> Self {
        CongestionOracle {
            variation_threshold: 0.75,
            little_threshold: 0.55,
        }
    }
}

impl VariabilityPredictor for CongestionOracle {
    fn predict(
        &mut self,
        job: &Job,
        nodes: &[NodeId],
        ctx: &mut PredictorCtx<'_>,
    ) -> Result<VariabilityClass, PredictError> {
        let congestion = ctx.machine.congestion(nodes);
        let fs = ctx.machine.fs_saturation();
        // Weight the signals by what the application is sensitive to.
        let app = job.app.descriptor();
        let effective = congestion * app.network.max(0.2) + (fs - 0.75).max(0.0) * app.io;
        Ok(if effective >= self.variation_threshold {
            VariabilityClass::Variation
        } else if effective >= self.little_threshold {
            VariabilityClass::LittleVariation
        } else {
            VariabilityClass::NoVariation
        })
    }

    fn name(&self) -> &str {
        "congestion-oracle"
    }
}

/// A scripted predictor returning a fixed sequence (testing aid).
#[derive(Debug, Clone)]
pub struct Scripted {
    sequence: Vec<VariabilityClass>,
    cursor: usize,
}

impl Scripted {
    /// Returns each class in `sequence` once, then `NoVariation` forever.
    pub fn new(sequence: Vec<VariabilityClass>) -> Self {
        Scripted {
            sequence,
            cursor: 0,
        }
    }

    /// Number of predictions served so far.
    pub fn calls(&self) -> usize {
        self.cursor
    }
}

impl VariabilityPredictor for Scripted {
    fn predict(
        &mut self,
        _job: &Job,
        _nodes: &[NodeId],
        _ctx: &mut PredictorCtx<'_>,
    ) -> Result<VariabilityClass, PredictError> {
        let class = self
            .sequence
            .get(self.cursor)
            .copied()
            .unwrap_or(VariabilityClass::NoVariation);
        self.cursor += 1;
        Ok(class)
    }

    fn name(&self) -> &str {
        "scripted"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use rush_cluster::machine::{MachineConfig, SourceId, WorkloadIntensity};
    use rush_simkit::time::SimDuration;
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

    #[test]
    fn class_properties() {
        assert!(VariabilityClass::Variation.triggers_delay());
        assert!(!VariabilityClass::LittleVariation.triggers_delay());
        assert!(!VariabilityClass::NoVariation.triggers_delay());
        for c in [
            VariabilityClass::NoVariation,
            VariabilityClass::LittleVariation,
            VariabilityClass::Variation,
        ] {
            assert_eq!(VariabilityClass::from_index(c.index()), c);
        }
        assert_eq!(
            VariabilityClass::from_index(99),
            VariabilityClass::Variation
        );
    }

    #[test]
    fn never_varies_is_constant() {
        let (mut m, mut store, mut rng) = ctx_parts();
        let mut ctx = PredictorCtx {
            machine: &mut m,
            store: &mut store,
            now: SimTime::ZERO,
            rng: &mut rng,
        };
        let mut p = NeverVaries;
        let nodes = vec![NodeId(0), NodeId(1)];
        assert_eq!(
            p.predict(&job(AppId::Laghos), &nodes, &mut ctx),
            Ok(VariabilityClass::NoVariation)
        );
        assert_eq!(p.name(), "never-varies");
    }

    #[test]
    fn always_fails_errors_every_call() {
        let (mut m, mut store, mut rng) = ctx_parts();
        let mut ctx = PredictorCtx {
            machine: &mut m,
            store: &mut store,
            now: SimTime::ZERO,
            rng: &mut rng,
        };
        let mut p = AlwaysFails;
        let err = p
            .predict(&job(AppId::Amg), &[NodeId(0)], &mut ctx)
            .unwrap_err();
        assert!(matches!(err, PredictError::ModelFailure(_)));
        assert!(err.to_string().contains("model failure"));
        assert_eq!(p.name(), "always-fails");
    }

    #[test]
    fn predict_error_displays_coverage() {
        let err = PredictError::InsufficientTelemetry { coverage: 0.25 };
        assert_eq!(err.to_string(), "insufficient telemetry (coverage 0.25)");
    }

    #[test]
    fn oracle_reacts_to_congestion() {
        let (mut m, mut store, mut rng) = ctx_parts();
        let nodes: Vec<NodeId> = (0..8).map(NodeId).collect();
        let mut p = CongestionOracle::default();
        {
            let mut ctx = PredictorCtx {
                machine: &mut m,
                store: &mut store,
                now: SimTime::ZERO,
                rng: &mut rng,
            };
            assert_eq!(
                p.predict(&job(AppId::Laghos), &nodes, &mut ctx),
                Ok(VariabilityClass::NoVariation)
            );
        }
        // Saturate the fabric: two machine-spanning all-to-all loads push
        // the edge uplinks near full utilization.
        let all_nodes: Vec<NodeId> = (0..16).map(NodeId).collect();
        for id in 9..13 {
            m.register_load(
                SourceId(id),
                all_nodes.clone(),
                WorkloadIntensity::new(0.0, 1.0, 0.0),
            );
        }
        let mut ctx = PredictorCtx {
            machine: &mut m,
            store: &mut store,
            now: SimTime::ZERO,
            rng: &mut rng,
        };
        assert_eq!(
            p.predict(&job(AppId::Laghos), &nodes, &mut ctx),
            Ok(VariabilityClass::Variation)
        );
    }

    #[test]
    fn scripted_replays_then_defaults() {
        let (mut m, mut store, mut rng) = ctx_parts();
        let mut ctx = PredictorCtx {
            machine: &mut m,
            store: &mut store,
            now: SimTime::ZERO,
            rng: &mut rng,
        };
        let mut p = Scripted::new(vec![
            VariabilityClass::Variation,
            VariabilityClass::LittleVariation,
        ]);
        let j = job(AppId::Amg);
        let nodes = vec![NodeId(0)];
        assert_eq!(
            p.predict(&j, &nodes, &mut ctx),
            Ok(VariabilityClass::Variation)
        );
        assert_eq!(
            p.predict(&j, &nodes, &mut ctx),
            Ok(VariabilityClass::LittleVariation)
        );
        assert_eq!(
            p.predict(&j, &nodes, &mut ctx),
            Ok(VariabilityClass::NoVariation)
        );
        assert_eq!(p.calls(), 3);
    }
}
