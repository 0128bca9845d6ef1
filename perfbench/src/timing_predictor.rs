//! A [`VariabilityPredictor`] that makes the same public calls as
//! `rush_core::predictor::MlPredictor`, in the same order and with the same
//! arguments, and times each one. The traced `rush-adaa` run deploys it in
//! place of `MlPredictor`; the benchmark checks that both give the same
//! schedule, so the times it reports belong to the real predictor path.

use crate::measure::{elapsed_ns, timed, Samples};
use rush_cluster::topology::NodeId;
use rush_ml::model::{Classifier, TrainedModel};
use rush_sched::job::Job;
use rush_sched::predictor::{PredictError, PredictorCtx, VariabilityClass, VariabilityPredictor};
use rush_simkit::time::SimDuration;
use rush_telemetry::aggregate::{aggregate_counters, flatten_features};
use rush_telemetry::schema::FeatureSchema;
use rush_workloads::probes::{run_probes, ProbeConfig};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-layer samples gathered by [`TimingPredictor`].
#[derive(Debug, Default)]
pub struct PredictorLayers {
    /// `aggregate_counters` + `flatten_features`.
    pub window: Samples,
    /// `run_probes`.
    pub probes: Samples,
    /// `Classifier::predict`.
    pub predict: Samples,
    /// The whole `predict` call as the engine sees it.
    pub total: Samples,
    /// Verdicts that trigger a RUSH delay.
    pub delay_verdicts: u64,
}

/// Three-class AdaBoost predictor with per-layer timers (see the module
/// docs). The engine owns the predictor, so the samples live behind a
/// shared handle the benchmark reads after the run.
pub struct TimingPredictor {
    model: TrainedModel,
    schema: FeatureSchema,
    window: SimDuration,
    probe_config: ProbeConfig,
    layers: Arc<Mutex<PredictorLayers>>,
}

impl TimingPredictor {
    /// Mirrors `MlPredictor::new(model, LabelScheme::ThreeClass, None)
    /// .with_window(window)`.
    pub fn new(model: TrainedModel, window: SimDuration) -> (Self, Arc<Mutex<PredictorLayers>>) {
        let layers = Arc::new(Mutex::new(PredictorLayers::default()));
        let predictor = TimingPredictor {
            model,
            schema: FeatureSchema::table_one(),
            window,
            probe_config: ProbeConfig::default(),
            layers: Arc::clone(&layers),
        };
        (predictor, layers)
    }
}

impl VariabilityPredictor for TimingPredictor {
    fn predict(
        &mut self,
        job: &Job,
        nodes: &[NodeId],
        ctx: &mut PredictorCtx<'_>,
    ) -> Result<VariabilityClass, PredictError> {
        let start = Instant::now();
        let mut layers = self.layers.lock().expect("predictor timers poisoned");
        let from = ctx.now.saturating_sub(self.window);
        let counter_features = timed(&mut layers.window, || {
            flatten_features(&aggregate_counters(ctx.store, nodes, from, ctx.now))
        });
        let probes = timed(&mut layers.probes, || {
            run_probes(ctx.machine, nodes, &self.probe_config, ctx.rng)
        });
        let one_hot = job.app.descriptor().one_hot();
        let row = self
            .schema
            .assemble(&counter_features, &probes.features(), &one_hot);
        if let Some(bad) = row.iter().position(|v| !v.is_finite()) {
            layers.total.push(elapsed_ns(start));
            return Err(PredictError::ModelFailure(format!(
                "non-finite feature at column {bad}"
            )));
        }
        let label = timed(&mut layers.predict, || self.model.predict(&row));
        let class = VariabilityClass::from_index(label);
        if class.triggers_delay() {
            layers.delay_verdicts += 1;
        }
        layers.total.push(elapsed_ns(start));
        Ok(class)
    }

    fn name(&self) -> &str {
        "rush-ml"
    }
}
