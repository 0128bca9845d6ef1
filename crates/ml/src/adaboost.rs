//! SAMME AdaBoost over shallow trees — the paper's winning classifier
//! ("the AdaBoost classifier outperforms the others", Section VII-A).
//!
//! Multi-class SAMME (Zhu et al. 2009): each round fits a weak learner on
//! the current sample weights, computes its weighted error `err`, gives it
//! the vote `α = ln((1 − err)/err) + ln(K − 1)`, and multiplies the weights
//! of misclassified samples by `e^α`. Prediction sums `α` votes per class.

use crate::tree::{DecisionTree, MaxFeatures, SplitMode, TreeConfig};
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};

/// Boosting parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaBoostConfig {
    /// Number of boosting rounds (upper bound; boosting stops early on a
    /// perfect or degenerate learner).
    pub n_estimators: usize,
    /// Depth of each weak learner (1 = stumps; the default 2 handles the
    /// mildly conjunctive structure of congestion features).
    pub max_depth: usize,
    /// Learning rate shrinking each α.
    pub learning_rate: f64,
}

impl Default for AdaBoostConfig {
    fn default() -> Self {
        AdaBoostConfig {
            n_estimators: 100,
            max_depth: 3,
            learning_rate: 0.5,
        }
    }
}

/// A fitted AdaBoost ensemble.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaBoost {
    learners: Vec<DecisionTree>,
    alphas: Vec<f64>,
    config: AdaBoostConfig,
    n_classes: usize,
    n_features: usize,
}

impl AdaBoost {
    /// Fits the boosted ensemble.
    ///
    /// # Panics
    /// Panics on empty input or fewer than two classes.
    pub fn fit(
        features: &[Vec<f64>],
        labels: &[u32],
        n_classes: usize,
        config: &AdaBoostConfig,
        rng: &mut SmallRng,
    ) -> Self {
        assert!(!features.is_empty(), "cannot boost on no samples");
        assert!(n_classes >= 2, "boosting needs at least two classes");
        let n = labels.len();
        let k = n_classes as f64;
        let tree_config = TreeConfig {
            max_depth: config.max_depth,
            min_samples_leaf: 1,
            min_samples_split: 2,
            max_features: MaxFeatures::All,
            split_mode: SplitMode::Best,
        };

        let mut weights = vec![1.0 / n as f64; n];
        let mut learners = Vec::new();
        let mut alphas = Vec::new();

        for _round in 0..config.n_estimators {
            let tree = DecisionTree::fit(
                features,
                labels,
                Some(&weights),
                n_classes,
                &tree_config,
                rng,
            );
            let predictions: Vec<u32> = features.iter().map(|r| tree.predict(r)).collect();
            let err: f64 = predictions
                .iter()
                .zip(labels)
                .zip(&weights)
                .filter(|((p, l), _)| p != l)
                .map(|(_, &w)| w)
                .sum();

            if err <= 1e-12 {
                // Perfect learner: give it a large but finite vote and stop.
                learners.push(tree);
                alphas.push(10.0 + (k - 1.0).ln());
                break;
            }
            // SAMME requires better-than-random: err < 1 - 1/K.
            if err >= 1.0 - 1.0 / k {
                break;
            }
            let alpha = config.learning_rate * (((1.0 - err) / err).ln() + (k - 1.0).ln());
            for ((w, p), &l) in weights.iter_mut().zip(&predictions).zip(labels) {
                if *p != l {
                    *w *= alpha.exp();
                }
            }
            let total: f64 = weights.iter().sum();
            for w in &mut weights {
                *w /= total;
            }
            learners.push(tree);
            alphas.push(alpha);
        }

        assert!(
            !learners.is_empty(),
            "boosting produced no usable learner (degenerate data)"
        );
        AdaBoost {
            learners,
            alphas,
            config: *config,
            n_classes,
            n_features: features[0].len(),
        }
    }

    /// α-weighted vote shares per class (normalized).
    pub fn decision_scores(&self, row: &[f64]) -> Vec<f64> {
        let mut scores = vec![0.0; self.n_classes];
        for (tree, &alpha) in self.learners.iter().zip(&self.alphas) {
            scores[tree.predict(row) as usize] += alpha;
        }
        let total: f64 = scores.iter().sum();
        if total > 0.0 {
            for s in &mut scores {
                *s /= total;
            }
        }
        scores
    }

    /// Predicted class.
    pub fn predict(&self, row: &[f64]) -> u32 {
        crate::tree::argmax(&self.decision_scores(row))
    }

    /// Number of boosting rounds actually used.
    pub fn n_learners(&self) -> usize {
        self.learners.len()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Expected feature width.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// α-weighted mean of the weak learners' gini importances.
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut acc = vec![0.0; self.n_features];
        let alpha_total: f64 = self.alphas.iter().sum();
        if alpha_total <= 0.0 {
            return acc;
        }
        for (tree, &alpha) in self.learners.iter().zip(&self.alphas) {
            for (a, v) in acc.iter_mut().zip(tree.feature_importances()) {
                *a += alpha * v;
            }
        }
        for a in &mut acc {
            *a /= alpha_total;
        }
        acc
    }

    /// The weak learners and their votes.
    pub fn parts(&self) -> (&[DecisionTree], &[f64]) {
        (&self.learners, &self.alphas)
    }

    /// The configuration.
    pub fn config(&self) -> &AdaBoostConfig {
        &self.config
    }

    /// Rebuilds an ensemble from its parts: at least one learner, one vote
    /// per learner, every learner of width `n_classes` × `n_features`.
    pub fn from_parts(
        learners: Vec<DecisionTree>,
        alphas: Vec<f64>,
        config: AdaBoostConfig,
        n_classes: usize,
        n_features: usize,
    ) -> Result<Self, String> {
        if learners.is_empty() || learners.len() != alphas.len() {
            return Err(format!(
                "{} learners but {} votes",
                learners.len(),
                alphas.len()
            ));
        }
        crate::forest::check_members(&learners, n_classes, n_features)?;
        Ok(AdaBoost {
            learners,
            alphas,
            config,
            n_classes,
            n_features,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(77)
    }

    /// A problem stumps cannot solve alone (interval class) — boosting must
    /// combine learners.
    fn interval_problem() -> (Vec<Vec<f64>>, Vec<u32>) {
        let features: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64]).collect();
        let labels: Vec<u32> = (0..60).map(|i| u32::from((20..40).contains(&i))).collect();
        (features, labels)
    }

    #[test]
    fn boosting_solves_interval_problem() {
        let (x, y) = interval_problem();
        let cfg = AdaBoostConfig {
            max_depth: 1, // stumps: individually too weak
            ..AdaBoostConfig::default()
        };
        let model = AdaBoost::fit(&x, &y, 2, &cfg, &mut rng());
        let correct = x
            .iter()
            .zip(&y)
            .filter(|(r, &l)| model.predict(r) == l)
            .count();
        assert!(correct >= 57, "boosted stumps got {correct}/60");
        assert!(model.n_learners() > 1, "needs more than one stump");
    }

    #[test]
    fn perfect_learner_short_circuits() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<u32> = (0..20).map(|i| u32::from(i >= 10)).collect();
        let model = AdaBoost::fit(&x, &y, 2, &AdaBoostConfig::default(), &mut rng());
        // depth-2 tree nails it in round one
        assert_eq!(model.n_learners(), 1);
        assert!(x.iter().zip(&y).all(|(r, &l)| model.predict(r) == l));
    }

    #[test]
    fn decision_scores_normalized() {
        let (x, y) = interval_problem();
        let model = AdaBoost::fit(&x, &y, 2, &AdaBoostConfig::default(), &mut rng());
        let s = model.decision_scores(&[25.0]);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn three_class_samme() {
        let x: Vec<Vec<f64>> = (0..90).map(|i| vec![i as f64, (i % 5) as f64]).collect();
        let y: Vec<u32> = (0..90).map(|i| (i / 30) as u32).collect();
        let model = AdaBoost::fit(&x, &y, 3, &AdaBoostConfig::default(), &mut rng());
        assert_eq!(model.predict(&[10.0, 0.0]), 0);
        assert_eq!(model.predict(&[45.0, 0.0]), 1);
        assert_eq!(model.predict(&[80.0, 0.0]), 2);
    }

    #[test]
    fn importances_concentrate_on_signal() {
        let (x0, y) = interval_problem();
        // add a noise feature
        let x: Vec<Vec<f64>> = x0
            .iter()
            .enumerate()
            .map(|(i, r)| vec![r[0], ((i * 37) % 11) as f64])
            .collect();
        let model = AdaBoost::fit(&x, &y, 2, &AdaBoostConfig::default(), &mut rng());
        let imp = model.feature_importances();
        assert!(imp[0] > imp[1] * 3.0, "{imp:?}");
    }

    #[test]
    fn learning_rate_shrinks_alphas() {
        let (x, y) = interval_problem();
        let full = AdaBoost::fit(
            &x,
            &y,
            2,
            &AdaBoostConfig {
                max_depth: 1,
                learning_rate: 1.0,
                n_estimators: 5,
            },
            &mut rng(),
        );
        let slow = AdaBoost::fit(
            &x,
            &y,
            2,
            &AdaBoostConfig {
                max_depth: 1,
                learning_rate: 0.1,
                n_estimators: 5,
            },
            &mut rng(),
        );
        let (_, fa) = full.parts();
        let (_, sa) = slow.parts();
        assert!(sa[0] < fa[0]);
    }

    #[test]
    #[should_panic(expected = "two classes")]
    fn single_class_rejected() {
        let x = vec![vec![1.0]];
        let y = vec![0];
        AdaBoost::fit(&x, &y, 1, &AdaBoostConfig::default(), &mut rng());
    }
}
