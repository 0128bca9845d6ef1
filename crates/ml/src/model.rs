//! The classifier abstraction and the exportable trained-model type.
//!
//! The paper trains four model families, picks the best by cross-validated
//! F1, and pickles the winner for the scheduler to load (Section V-A). Here
//! [`Classifier`] is the common interface, [`ModelKind`] names the four
//! families, and [`TrainedModel`] is the owned artifact the scheduler
//! consumes. This crate keeps no file format: `rush_core::persist` writes
//! models as documents and rebuilds them through the families' checked
//! `from_parts`.

use crate::adaboost::{AdaBoost, AdaBoostConfig};
use crate::dataset::Dataset;
use crate::forest::{Forest, ForestConfig};
use crate::knn::{Knn, KnnConfig};
use crate::logistic::{Logistic, LogisticConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A fitted classifier.
pub trait Classifier {
    /// Predicted class for one feature row.
    fn predict(&self, row: &[f64]) -> u32;

    /// Predicted classes for many rows.
    fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<u32> {
        rows.iter().map(|r| self.predict(r)).collect()
    }

    /// Number of feature columns the model expects.
    fn n_features(&self) -> usize;

    /// Number of classes the model emits.
    fn n_classes(&self) -> usize;
}

/// The four model families compared in Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// Extremely randomized trees.
    ExtraTrees,
    /// Bagged decision forest (the paper's "Decision Forest").
    DecisionForest,
    /// K-nearest neighbors.
    Knn,
    /// SAMME AdaBoost over shallow trees — the paper's winner.
    AdaBoost,
    /// L2-regularized multinomial logistic regression — a linear baseline
    /// beyond the paper's four families.
    Logistic,
}

impl ModelKind {
    /// The paper's four families, in Fig.-3 order.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::ExtraTrees,
        ModelKind::DecisionForest,
        ModelKind::Knn,
        ModelKind::AdaBoost,
    ];

    /// The paper's four plus the linear baseline.
    pub const EXTENDED: [ModelKind; 5] = [
        ModelKind::ExtraTrees,
        ModelKind::DecisionForest,
        ModelKind::Knn,
        ModelKind::AdaBoost,
        ModelKind::Logistic,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::ExtraTrees => "extra-trees",
            ModelKind::DecisionForest => "decision-forest",
            ModelKind::Knn => "knn",
            ModelKind::AdaBoost => "adaboost",
            ModelKind::Logistic => "logistic",
        }
    }

    /// Parses a display name.
    pub fn from_name(name: &str) -> Option<ModelKind> {
        ModelKind::EXTENDED.into_iter().find(|k| k.name() == name)
    }

    /// Trains this family on `data` with default hyperparameters and the
    /// given seed.
    pub fn train(self, data: &Dataset, seed: u64) -> TrainedModel {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n_classes = data.n_classes().max(2);
        match self {
            ModelKind::ExtraTrees => TrainedModel::Forest(Forest::fit(
                &data.features,
                &data.labels,
                n_classes,
                &ForestConfig::extra_trees(),
                &mut rng,
            )),
            ModelKind::DecisionForest => TrainedModel::Forest(Forest::fit(
                &data.features,
                &data.labels,
                n_classes,
                &ForestConfig::decision_forest(),
                &mut rng,
            )),
            ModelKind::Knn => TrainedModel::Knn(Knn::fit(
                &data.features,
                &data.labels,
                n_classes,
                &KnnConfig::default(),
            )),
            ModelKind::AdaBoost => TrainedModel::AdaBoost(AdaBoost::fit(
                &data.features,
                &data.labels,
                n_classes,
                &AdaBoostConfig::default(),
                &mut rng,
            )),
            ModelKind::Logistic => TrainedModel::Logistic(Logistic::fit(
                &data.features,
                &data.labels,
                n_classes,
                &LogisticConfig::default(),
            )),
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An owned fitted model of any family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrainedModel {
    /// Extra Trees or Decision Forest.
    Forest(Forest),
    /// K-nearest neighbors.
    Knn(Knn),
    /// AdaBoost.
    AdaBoost(AdaBoost),
    /// Logistic regression.
    Logistic(Logistic),
}

impl TrainedModel {
    /// Which family this model belongs to. Forests report their sub-family
    /// from their configuration.
    pub fn kind(&self) -> ModelKind {
        match self {
            TrainedModel::Forest(f) => {
                if f.is_extra_trees() {
                    ModelKind::ExtraTrees
                } else {
                    ModelKind::DecisionForest
                }
            }
            TrainedModel::Knn(_) => ModelKind::Knn,
            TrainedModel::AdaBoost(_) => ModelKind::AdaBoost,
            TrainedModel::Logistic(_) => ModelKind::Logistic,
        }
    }

    /// Mean feature importances where the family defines them (forests and
    /// AdaBoost); `None` for KNN — mirroring the paper's note that RFE uses
    /// model importances only "for the Extra Trees and Decision Forest
    /// models, which have metrics for feature importance".
    pub fn feature_importances(&self) -> Option<Vec<f64>> {
        match self {
            TrainedModel::Forest(f) => Some(f.feature_importances()),
            TrainedModel::AdaBoost(a) => Some(a.feature_importances()),
            TrainedModel::Logistic(l) => Some(l.coefficient_magnitudes()),
            TrainedModel::Knn(_) => None,
        }
    }
}

impl Classifier for TrainedModel {
    fn predict(&self, row: &[f64]) -> u32 {
        match self {
            TrainedModel::Forest(f) => f.predict(row),
            TrainedModel::Knn(k) => k.predict(row),
            TrainedModel::AdaBoost(a) => a.predict(row),
            TrainedModel::Logistic(l) => l.predict(row),
        }
    }

    fn n_features(&self) -> usize {
        match self {
            TrainedModel::Forest(f) => f.n_features(),
            TrainedModel::Knn(k) => k.n_features(),
            TrainedModel::AdaBoost(a) => a.n_features(),
            TrainedModel::Logistic(l) => l.n_features(),
        }
    }

    fn n_classes(&self) -> usize {
        match self {
            TrainedModel::Forest(f) => f.n_classes(),
            TrainedModel::Knn(k) => k.n_classes(),
            TrainedModel::AdaBoost(a) => a.n_classes(),
            TrainedModel::Logistic(l) => l.n_classes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_dataset() -> Dataset {
        let mut d = Dataset::new(vec!["x".into(), "y".into()]);
        for i in 0..40 {
            let x = i as f64;
            d.push(vec![x, -x], u32::from(i >= 20), (i % 4) as u32);
        }
        d
    }

    #[test]
    fn every_kind_trains_and_predicts() {
        let data = toy_dataset();
        for kind in ModelKind::ALL {
            let model = kind.train(&data, 42);
            assert_eq!(model.kind(), kind, "kind should round-trip");
            assert_eq!(model.n_features(), 2);
            assert!(model.n_classes() >= 2);
            let preds = model.predict_batch(&data.features);
            let correct = preds
                .iter()
                .zip(&data.labels)
                .filter(|(p, l)| p == l)
                .count();
            assert!(correct >= 36, "{kind} got {correct}/40 on training data");
        }
    }

    #[test]
    fn importances_defined_for_all_but_knn() {
        let data = toy_dataset();
        assert!(ModelKind::ExtraTrees
            .train(&data, 1)
            .feature_importances()
            .is_some());
        assert!(ModelKind::DecisionForest
            .train(&data, 1)
            .feature_importances()
            .is_some());
        assert!(ModelKind::AdaBoost
            .train(&data, 1)
            .feature_importances()
            .is_some());
        assert!(ModelKind::Logistic
            .train(&data, 1)
            .feature_importances()
            .is_some());
        assert!(ModelKind::Knn
            .train(&data, 1)
            .feature_importances()
            .is_none());
    }

    #[test]
    fn names_round_trip() {
        for kind in ModelKind::EXTENDED {
            assert_eq!(ModelKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(ModelKind::from_name("nope"), None);
        assert_eq!(ModelKind::AdaBoost.to_string(), "adaboost");
        assert_eq!(ModelKind::Logistic.to_string(), "logistic");
    }

    #[test]
    fn logistic_trains_and_predicts() {
        let data = toy_dataset();
        let model = ModelKind::Logistic.train(&data, 1);
        assert_eq!(model.kind(), ModelKind::Logistic);
        let correct = model
            .predict_batch(&data.features)
            .iter()
            .zip(&data.labels)
            .filter(|(p, l)| p == l)
            .count();
        assert!(correct >= 36, "{correct}/40");
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let data = toy_dataset();
        let a = ModelKind::DecisionForest.train(&data, 9);
        let b = ModelKind::DecisionForest.train(&data, 9);
        assert_eq!(a, b);
    }
}
