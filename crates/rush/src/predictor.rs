//! The ML-backed variability predictor (the paper's Python hook).
//!
//! Section V-B: when a job is about to run, "a Python script is first
//! executed that runs the ML model with the next job as input. This Python
//! script then reads the collected counter data, runs the ML models, and
//! provides its prediction." [`MlPredictor`] is that hook: it aggregates
//! the last five minutes of counters over the job's prospective nodes,
//! times the MPI probes against the current fabric, assembles the Table-I
//! feature vector, and asks the exported model for a class.
//!
//! Only the counters the model reads are aggregated
//! ([`TrainedModel::read_features`]), so the telemetry store synthesizes
//! only those; the other counter columns of the row hold 0, and the model
//! never looks at them.

use crate::labels::LabelScheme;
use rush_cluster::counters::COUNTER_COUNT;
use rush_cluster::topology::NodeId;
use rush_ml::model::{Classifier, ModelKind, TrainedModel};
use rush_obs::profile as obs_profile;
use rush_obs::ProfileScope;
use rush_sched::job::Job;
use rush_sched::predictor::{PredictError, PredictorCtx, VariabilityClass, VariabilityPredictor};
use rush_simkit::time::SimDuration;
use rush_telemetry::aggregate::aggregate_counter_subset;
use rush_telemetry::schema::FeatureSchema;
use rush_workloads::probes::{run_probes, ProbeConfig};

/// A trained model wired into the scheduler's `Start()` decision.
pub struct MlPredictor {
    model: TrainedModel,
    scheme: LabelScheme,
    schema: FeatureSchema,
    /// RFE-selected feature columns, if feature selection ran.
    kept: Option<Vec<usize>>,
    /// The counters whose aggregates the model reads, ascending.
    counters: Vec<usize>,
    /// Counter aggregation window (paper: 5 minutes).
    window: SimDuration,
    probe_config: ProbeConfig,
    calls: u64,
}

impl MlPredictor {
    /// Wraps a trained model. `kept` must match the feature set the model
    /// was trained on (`None` = all 282 features).
    pub fn new(model: TrainedModel, scheme: LabelScheme, kept: Option<Vec<usize>>) -> Self {
        let schema = FeatureSchema::table_one();
        let expected = kept.as_ref().map(Vec::len).unwrap_or(schema.len());
        assert_eq!(
            model.n_features(),
            expected,
            "model expects {} features but the predictor will assemble {expected}",
            model.n_features()
        );
        let counters = read_counters(&model, kept.as_deref(), schema.counter_range());
        MlPredictor {
            model,
            scheme,
            schema,
            kept,
            counters,
            window: SimDuration::from_mins(5),
            probe_config: ProbeConfig::default(),
            calls: 0,
        }
    }

    /// Overrides the aggregation window (ablation studies).
    pub fn with_window(mut self, window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        self.window = window;
        self
    }

    /// Aggregates all [`COUNTER_COUNT`] counters, not only those the model
    /// reads, so every column of an assembled row holds its value.
    pub fn with_all_counters(mut self) -> Self {
        self.counters = (0..COUNTER_COUNT).collect();
        self
    }

    /// The counters whose aggregates feed the model, ascending.
    pub fn counters(&self) -> &[usize] {
        &self.counters
    }

    /// Number of predictions served.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Assembles the feature row for a decision (public for tests and the
    /// bench harness). The features of counters outside
    /// [`counters`](Self::counters) are 0.
    pub fn assemble_features(
        &self,
        job: &Job,
        nodes: &[NodeId],
        ctx: &mut PredictorCtx<'_>,
    ) -> Vec<f64> {
        let _scope = obs_profile::scope(ProfileScope::Featurize);
        let from = ctx.now.saturating_sub(self.window);
        let aggs = aggregate_counter_subset(ctx.store, nodes, from, ctx.now, &self.counters);
        let mut counter_features = vec![0.0; self.schema.counter_range().len()];
        for (&c, agg) in self.counters.iter().zip(&aggs) {
            counter_features[3 * c..3 * c + 3].copy_from_slice(&agg.features());
        }
        let probes = run_probes(ctx.machine, nodes, &self.probe_config, ctx.rng);
        let one_hot = job.app.descriptor().one_hot();
        let row = self
            .schema
            .assemble(&counter_features, &probes.features(), &one_hot);
        match &self.kept {
            Some(kept) => kept.iter().map(|&i| row[i]).collect(),
            None => row,
        }
    }
}

/// The counters behind the row columns `model` reads: column `f` of the
/// model is row column `kept[f]` (or `f` without selection), and row column
/// `3c + k` of `counter_columns` is aggregate `k` of counter `c`.
fn read_counters(
    model: &TrainedModel,
    kept: Option<&[usize]>,
    counter_columns: std::ops::Range<usize>,
) -> Vec<usize> {
    let mut counters: Vec<usize> = model
        .read_features()
        .into_iter()
        .map(|f| kept.map_or(f, |kept| kept[f]))
        .filter(|col| counter_columns.contains(col))
        .map(|col| col / 3)
        .collect();
    counters.sort_unstable();
    counters.dedup();
    counters
}

/// The scheduler service's bridge to the real ML stack: Table-I feature
/// assembly through [`MlPredictor`], window retraining through
/// [`rush_ml::online::retrain_window`], and the `rush-model/2` document
/// ([`crate::persist`]) as the portable artifact format. The scheduler engine only ever sees
/// feature rows and artifact strings, which is what lets the service's
/// snapshot carry its models as plain text.
pub struct OnlineMlHost {
    /// Used solely for feature assembly (its embedded model never predicts
    /// here; live/candidate classification goes through loaded artifacts).
    assembler: MlPredictor,
    scheme: LabelScheme,
    kind: ModelKind,
    names: Vec<String>,
}

impl OnlineMlHost {
    /// Builds a host that retrains `kind` models under `scheme`.
    /// `assembly_model` only anchors the feature-width assertion — pass the
    /// initial live model.
    pub fn new(assembly_model: TrainedModel, scheme: LabelScheme, kind: ModelKind) -> Self {
        let names = FeatureSchema::table_one().names().to_vec();
        OnlineMlHost {
            // Retraining may pick any column, so rows carry every counter.
            assembler: MlPredictor::new(assembly_model, scheme, None).with_all_counters(),
            scheme,
            kind,
            names,
        }
    }

    /// Overrides the counter-aggregation window (must match the predictor's).
    pub fn with_window(mut self, window: SimDuration) -> Self {
        self.assembler = self.assembler.with_window(window);
        self
    }
}

/// A decoded artifact wrapped for the service: pure row classification
/// under the host's label scheme.
struct OnlineLoadedModel {
    model: TrainedModel,
    scheme: LabelScheme,
}

impl rush_sched::service::LoadedModel for OnlineLoadedModel {
    fn classify(&self, row: &[f64]) -> VariabilityClass {
        let label = self.model.predict(row);
        match self.scheme {
            LabelScheme::Binary => {
                if label == 1 {
                    VariabilityClass::Variation
                } else {
                    VariabilityClass::NoVariation
                }
            }
            LabelScheme::ThreeClass => VariabilityClass::from_index(label),
        }
    }
}

impl rush_sched::service::OnlineModelHost for OnlineMlHost {
    fn assemble(
        &mut self,
        job: &Job,
        nodes: &[NodeId],
        ctx: &mut PredictorCtx<'_>,
    ) -> Result<Vec<f64>, PredictError> {
        let row = self.assembler.assemble_features(job, nodes, ctx);
        if let Some(bad) = row.iter().position(|v| !v.is_finite()) {
            return Err(PredictError::ModelFailure(format!(
                "non-finite feature at column {bad}"
            )));
        }
        Ok(row)
    }

    fn train(
        &mut self,
        samples: &[rush_sched::service::LabeledSample],
        seed: u64,
    ) -> Result<String, String> {
        let rows: Vec<Vec<f64>> = samples.iter().map(|s| s.row.clone()).collect();
        // Window labels are three-class; binary models collapse them the
        // same way the offline pipeline does (≥ variation ⇒ 1).
        let labels: Vec<u32> = samples
            .iter()
            .map(|s| match self.scheme {
                LabelScheme::Binary => u32::from(s.label >= 2),
                LabelScheme::ThreeClass => s.label,
            })
            .collect();
        let groups: Vec<u32> = samples.iter().map(|s| s.app).collect();
        let model =
            rush_ml::online::retrain_window(&self.names, &rows, &labels, &groups, self.kind, seed)?;
        Ok(crate::persist::encode_model(&model))
    }

    fn load(&self, artifact: &str) -> Result<Box<dyn rush_sched::service::LoadedModel>, String> {
        let model = crate::persist::decode_model(artifact).map_err(|e| e.to_string())?;
        Ok(Box::new(OnlineLoadedModel {
            model,
            scheme: self.scheme,
        }))
    }

    fn name(&self) -> &str {
        "rush-ml-online"
    }
}

impl VariabilityPredictor for MlPredictor {
    fn predict(
        &mut self,
        job: &Job,
        nodes: &[NodeId],
        ctx: &mut PredictorCtx<'_>,
    ) -> Result<VariabilityClass, PredictError> {
        self.calls += 1;
        let row = self.assemble_features(job, nodes, ctx);
        // Corrupted or hollow telemetry windows surface as non-finite
        // aggregates; refuse to classify garbage rather than emitting an
        // arbitrary class. The engine falls back to plain EASY.
        if let Some(bad) = row.iter().position(|v| !v.is_finite()) {
            return Err(PredictError::ModelFailure(format!(
                "non-finite feature at column {bad}"
            )));
        }
        let label = self.model.predict(&row);
        Ok(match self.scheme {
            LabelScheme::Binary => {
                if label == 1 {
                    VariabilityClass::Variation
                } else {
                    VariabilityClass::NoVariation
                }
            }
            LabelScheme::ThreeClass => VariabilityClass::from_index(label),
        })
    }

    fn name(&self) -> &str {
        "rush-ml"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rush_cluster::machine::{Machine, MachineConfig};
    use rush_ml::dataset::Dataset;
    use rush_ml::model::ModelKind;
    use rush_sched::job::JobId;
    use rush_simkit::rng::CountedRng;
    use rush_simkit::time::SimTime;
    use rush_telemetry::store::MetricStore;
    use rush_workloads::apps::AppId;
    use rush_workloads::scaling::ScalingMode;

    /// Trains a trivial 282-feature model whose decision follows feature 0.
    fn toy_model(n_classes: u32) -> TrainedModel {
        let schema = FeatureSchema::table_one();
        let mut d = Dataset::new(schema.names().to_vec());
        for i in 0..60 {
            let mut row = vec![0.0; 282];
            row[0] = i as f64;
            let label = (i / (60 / n_classes as usize)) as u32;
            d.push(row, label.min(n_classes - 1), 0);
        }
        ModelKind::DecisionForest.train(&d, 3)
    }

    fn job() -> Job {
        Job {
            id: JobId(0),
            app: AppId::Laghos,
            nodes_requested: 4,
            submit_at: SimTime::ZERO,
            scaling: ScalingMode::Reference,
            est_runtime: SimDuration::from_secs(100),
            skip_threshold: 10,
        }
    }

    #[test]
    fn assembles_282_features() {
        let model = toy_model(2);
        let predictor = MlPredictor::new(model, LabelScheme::Binary, None);
        let mut machine = Machine::new(MachineConfig::tiny(1));
        let mut store = MetricStore::new(16, 1);
        let mut rng = CountedRng::seeded(1);
        let mut ctx = PredictorCtx {
            machine: &mut machine,
            store: &mut store,
            now: SimTime::from_mins(10),
            rng: &mut rng,
        };
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let row = predictor.assemble_features(&job(), &nodes, &mut ctx);
        assert_eq!(row.len(), 282);
        // one-hot for laghos = network intensive
        assert_eq!(&row[279..282], &[0.0, 1.0, 0.0]);
        // probe features are positive
        assert!(row[270..279].iter().all(|&v| v > 0.0));
    }

    #[test]
    fn predicts_and_counts_calls() {
        let model = toy_model(2);
        let mut predictor = MlPredictor::new(model, LabelScheme::Binary, None);
        let mut machine = Machine::new(MachineConfig::tiny(2));
        let mut store = MetricStore::new(16, 1);
        let mut rng = CountedRng::seeded(2);
        let mut ctx = PredictorCtx {
            machine: &mut machine,
            store: &mut store,
            now: SimTime::from_mins(10),
            rng: &mut rng,
        };
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let class = predictor.predict(&job(), &nodes, &mut ctx);
        // idle machine, feature 0 ~ 0 -> class 0 -> no variation
        assert_eq!(class, Ok(VariabilityClass::NoVariation));
        assert_eq!(predictor.calls(), 1);
        assert_eq!(predictor.name(), "rush-ml");
    }

    #[test]
    fn three_class_scheme_maps_directly() {
        let model = toy_model(3);
        let mut predictor = MlPredictor::new(model, LabelScheme::ThreeClass, None);
        let mut machine = Machine::new(MachineConfig::tiny(3));
        let mut store = MetricStore::new(16, 1);
        let mut rng = CountedRng::seeded(3);
        let mut ctx = PredictorCtx {
            machine: &mut machine,
            store: &mut store,
            now: SimTime::from_mins(10),
            rng: &mut rng,
        };
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        // feature 0 near zero -> class 0
        assert_eq!(
            predictor.predict(&job(), &nodes, &mut ctx),
            Ok(VariabilityClass::NoVariation)
        );
    }

    #[test]
    fn kept_features_subset_the_row() {
        // model trained on 2 features; predictor selects columns 0 and 281
        let mut d = Dataset::new(vec!["a".into(), "b".into()]);
        for i in 0..20 {
            d.push(vec![i as f64, 0.0], u32::from(i >= 10), 0);
        }
        let model = ModelKind::DecisionForest.train(&d, 1);
        let predictor = MlPredictor::new(model, LabelScheme::Binary, Some(vec![0, 281]));
        let mut machine = Machine::new(MachineConfig::tiny(4));
        let mut store = MetricStore::new(16, 1);
        let mut rng = CountedRng::seeded(4);
        let mut ctx = PredictorCtx {
            machine: &mut machine,
            store: &mut store,
            now: SimTime::from_mins(10),
            rng: &mut rng,
        };
        let nodes = vec![NodeId(0)];
        let row = predictor.assemble_features(&job(), &nodes, &mut ctx);
        assert_eq!(row.len(), 2);
    }

    /// An AdaBoost of one depth-1 stump per entry of `features`, each
    /// splitting on that feature, over `width` features.
    fn stumps(features: &[usize], width: usize) -> TrainedModel {
        use rush_ml::adaboost::{AdaBoost, AdaBoostConfig};
        use rush_ml::tree::{DecisionTree, Node};
        let leaf = |class: usize| Node::Leaf {
            probs: (0..2).map(|c| f64::from(u8::from(c == class))).collect(),
        };
        let learners: Vec<DecisionTree> = features
            .iter()
            .map(|&feature| {
                let split = Node::Split {
                    feature,
                    threshold: 0.5,
                    left: 1,
                    right: 2,
                };
                DecisionTree::from_parts(vec![split, leaf(0), leaf(1)], 2, width, vec![0.0; width])
                    .unwrap()
            })
            .collect();
        let alphas = vec![1.0; learners.len()];
        TrainedModel::AdaBoost(
            AdaBoost::from_parts(learners, alphas, AdaBoostConfig::default(), 2, width).unwrap(),
        )
    }

    #[test]
    fn stump_model_reads_exactly_its_split_counters() {
        // Features 4 (max of counter 1), 100 and 101 (min and max of
        // counter 33) and 275 (a probe feature).
        let model = stumps(&[100, 4, 275, 101], 282);
        assert_eq!(model.read_features(), vec![4, 100, 101, 275]);
        let predictor = MlPredictor::new(model, LabelScheme::Binary, None);
        assert_eq!(predictor.counters(), &[1, 33]);
        // Under feature selection, model column 1 is row column 31: the
        // max of counter 10; column 2 is a one-hot.
        let kept = MlPredictor::new(
            stumps(&[1, 2], 3),
            LabelScheme::Binary,
            Some(vec![280, 31, 281]),
        );
        assert_eq!(kept.counters(), &[10]);
        // A model without trees reads every column.
        let mut d = Dataset::new(FeatureSchema::table_one().names().to_vec());
        for i in 0..10 {
            d.push(vec![i as f64; 282], u32::from(i >= 5), 0);
        }
        let knn = MlPredictor::new(ModelKind::Knn.train(&d, 1), LabelScheme::Binary, None);
        assert_eq!(knn.counters().len(), COUNTER_COUNT);
    }

    #[test]
    fn unread_counters_assemble_as_zero_and_read_ones_as_in_the_full_row() {
        use rush_telemetry::collector::Sampler;
        let mut machine = Machine::new(MachineConfig::tiny(5));
        machine.enable_noise_job((8..16).map(NodeId).collect(), 8.0);
        let mut store = MetricStore::new(16, machine.config().seed);
        let all: Vec<NodeId> = (0..16).map(NodeId).collect();
        let mut sampler = Sampler::new(all, SimDuration::from_secs(30));
        sampler.advance_to(SimTime::from_mins(10), &mut machine, &mut store);
        let nodes: Vec<NodeId> = (6..10).map(NodeId).collect();
        let row_of = |predictor: &MlPredictor, machine: &mut Machine, store: &mut MetricStore| {
            let mut rng = CountedRng::seeded(9);
            let mut ctx = PredictorCtx {
                machine,
                store,
                now: SimTime::from_mins(10),
                rng: &mut rng,
            };
            predictor.assemble_features(&job(), &nodes, &mut ctx)
        };
        let subset = MlPredictor::new(stumps(&[100, 4], 282), LabelScheme::Binary, None);
        let full =
            MlPredictor::new(stumps(&[100, 4], 282), LabelScheme::Binary, None).with_all_counters();
        let some = row_of(&subset, &mut machine, &mut store);
        let every = row_of(&full, &mut machine, &mut store);
        for col in 0..270 {
            let c = col / 3;
            if c == 1 || c == 33 {
                assert_eq!(some[col].to_bits(), every[col].to_bits(), "column {col}");
            } else {
                assert_eq!(some[col], 0.0, "column {col}");
            }
        }
        assert!(some[4] > 0.0, "the noise job's nodes receive traffic");
    }

    #[test]
    #[should_panic(expected = "features")]
    fn width_mismatch_rejected() {
        // 2-feature model with no kept subset: must panic at construction.
        let mut d = Dataset::new(vec!["a".into(), "b".into()]);
        for i in 0..10 {
            d.push(vec![i as f64, 0.0], u32::from(i >= 5), 0);
        }
        let model = ModelKind::Knn.train(&d, 1);
        MlPredictor::new(model, LabelScheme::Binary, None);
    }
}
