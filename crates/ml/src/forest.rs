//! Tree ensembles: Decision Forest (bagging) and Extra Trees.
//!
//! Both families from Fig. 3 share one implementation differing only in
//! configuration, exactly as in scikit-learn:
//!
//! * **Decision Forest** — each tree trains on a bootstrap resample and
//!   searches the best threshold over a `sqrt(d)` feature subset per split.
//! * **Extra Trees** — each tree trains on the full sample and draws one
//!   *random* threshold per candidate feature.
//!
//! Trees are independent, so training fans out through rayon's
//! `par_iter` with per-tree seeds derived up front. Note the vendored
//! rayon (see `vendor/README.md`) is a sequential stub, so today this is
//! a determinism-safe parallelism *seam*, not a speedup; the real rayon
//! drops in without code changes.

use crate::tree::{DecisionTree, MaxFeatures, SplitMode, TreeConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Ensemble parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Bootstrap-resample each tree's training set.
    pub bootstrap: bool,
    /// Per-tree growth parameters.
    pub tree: TreeConfig,
}

impl ForestConfig {
    /// The paper's "Decision Forest": bagged best-split trees.
    pub fn decision_forest() -> Self {
        ForestConfig {
            n_trees: 100,
            bootstrap: true,
            tree: TreeConfig {
                max_features: MaxFeatures::Sqrt,
                split_mode: SplitMode::Best,
                ..TreeConfig::default()
            },
        }
    }

    /// Extra Trees: full-sample, random-threshold trees.
    pub fn extra_trees() -> Self {
        ForestConfig {
            n_trees: 100,
            bootstrap: false,
            tree: TreeConfig {
                max_features: MaxFeatures::Sqrt,
                split_mode: SplitMode::RandomThreshold,
                ..TreeConfig::default()
            },
        }
    }
}

/// A fitted tree ensemble.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Forest {
    trees: Vec<DecisionTree>,
    config: ForestConfig,
    n_classes: usize,
    n_features: usize,
}

impl Forest {
    /// Fits `config.n_trees` trees (fanned out via rayon).
    ///
    /// # Panics
    /// Panics on empty input or zero trees.
    pub fn fit(
        features: &[Vec<f64>],
        labels: &[u32],
        n_classes: usize,
        config: &ForestConfig,
        rng: &mut SmallRng,
    ) -> Self {
        assert!(!features.is_empty(), "cannot fit a forest on no samples");
        assert!(config.n_trees > 0, "forest needs at least one tree");
        let n = labels.len();
        // Derive one seed per tree up front so parallel training is
        // deterministic regardless of thread scheduling.
        let seeds: Vec<u64> = (0..config.n_trees).map(|_| rng.gen()).collect();

        let trees: Vec<DecisionTree> = seeds
            .into_par_iter()
            .map(|seed| {
                let mut tree_rng = SmallRng::seed_from_u64(seed);
                if config.bootstrap {
                    let idx: Vec<usize> = (0..n).map(|_| tree_rng.gen_range(0..n)).collect();
                    let bx: Vec<Vec<f64>> = idx.iter().map(|&i| features[i].clone()).collect();
                    let by: Vec<u32> = idx.iter().map(|&i| labels[i]).collect();
                    DecisionTree::fit(&bx, &by, None, n_classes, &config.tree, &mut tree_rng)
                } else {
                    DecisionTree::fit(
                        features,
                        labels,
                        None,
                        n_classes,
                        &config.tree,
                        &mut tree_rng,
                    )
                }
            })
            .collect();

        Forest {
            trees,
            config: *config,
            n_classes,
            n_features: features[0].len(),
        }
    }

    /// Mean class-probability vector across trees.
    pub fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        let mut acc = vec![0.0; self.n_classes];
        for tree in &self.trees {
            for (a, &p) in acc.iter_mut().zip(tree.predict_proba(row)) {
                *a += p;
            }
        }
        let n = self.trees.len() as f64;
        for a in &mut acc {
            *a /= n;
        }
        acc
    }

    /// Predicted class (argmax of mean probabilities).
    pub fn predict(&self, row: &[f64]) -> u32 {
        crate::tree::argmax(&self.predict_proba(row))
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Expected feature width.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// True if configured as Extra Trees (random thresholds, no bootstrap).
    pub fn is_extra_trees(&self) -> bool {
        self.config.tree.split_mode == SplitMode::RandomThreshold && !self.config.bootstrap
    }

    /// Mean normalized gini importance across trees.
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut acc = vec![0.0; self.n_features];
        for tree in &self.trees {
            for (a, v) in acc.iter_mut().zip(tree.feature_importances()) {
                *a += v;
            }
        }
        let n = self.trees.len() as f64;
        for a in &mut acc {
            *a /= n;
        }
        acc
    }

    /// The underlying trees.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// The configuration.
    pub fn config(&self) -> &ForestConfig {
        &self.config
    }

    /// Rebuilds a forest from its parts: at least one tree,
    /// `config.n_trees` of them, each of width `n_classes` × `n_features`.
    pub fn from_parts(
        trees: Vec<DecisionTree>,
        config: ForestConfig,
        n_classes: usize,
        n_features: usize,
    ) -> Result<Self, String> {
        if trees.is_empty() || trees.len() != config.n_trees {
            return Err(format!(
                "forest holds {} trees, config says {}",
                trees.len(),
                config.n_trees
            ));
        }
        check_members(&trees, n_classes, n_features)?;
        Ok(Forest {
            trees,
            config,
            n_classes,
            n_features,
        })
    }
}

/// Checks that every ensemble member has the ensemble's width.
pub(crate) fn check_members(
    trees: &[DecisionTree],
    n_classes: usize,
    n_features: usize,
) -> Result<(), String> {
    match trees
        .iter()
        .position(|t| t.n_classes() != n_classes || t.n_features() != n_features)
    {
        Some(i) => Err(format!(
            "tree {i} is {} classes x {} features, ensemble is {n_classes} x {n_features}",
            trees[i].n_classes(),
            trees[i].n_features()
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(21)
    }

    /// Noisy two-cluster problem.
    fn clusters() -> (Vec<Vec<f64>>, Vec<u32>) {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let cls = u32::from(i >= 30);
            let center = if cls == 0 { 0.0 } else { 5.0 };
            let jitter = ((i * 31 % 17) as f64 - 8.0) / 8.0;
            features.push(vec![center + jitter, (i % 7) as f64]);
            labels.push(cls);
        }
        (features, labels)
    }

    #[test]
    fn decision_forest_learns_clusters() {
        let (x, y) = clusters();
        let f = Forest::fit(&x, &y, 2, &ForestConfig::decision_forest(), &mut rng());
        assert!(!f.is_extra_trees());
        assert_eq!(f.n_trees(), 100);
        let correct = x.iter().zip(&y).filter(|(r, &l)| f.predict(r) == l).count();
        assert!(correct >= 58, "{correct}/60");
    }

    #[test]
    fn extra_trees_learns_clusters() {
        let (x, y) = clusters();
        let f = Forest::fit(&x, &y, 2, &ForestConfig::extra_trees(), &mut rng());
        assert!(f.is_extra_trees());
        let correct = x.iter().zip(&y).filter(|(r, &l)| f.predict(r) == l).count();
        assert!(correct >= 56, "{correct}/60");
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (x, y) = clusters();
        let f = Forest::fit(&x, &y, 2, &ForestConfig::decision_forest(), &mut rng());
        let p = f.predict_proba(&x[0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn parallel_training_is_deterministic() {
        let (x, y) = clusters();
        let cfg = ForestConfig {
            n_trees: 16,
            ..ForestConfig::decision_forest()
        };
        let a = Forest::fit(&x, &y, 2, &cfg, &mut rng());
        let b = Forest::fit(&x, &y, 2, &cfg, &mut rng());
        assert_eq!(a, b, "same seed must give identical forests");
    }

    #[test]
    fn importances_average_and_point_at_signal() {
        let (x, y) = clusters();
        let f = Forest::fit(&x, &y, 2, &ForestConfig::decision_forest(), &mut rng());
        let imp = f.feature_importances();
        assert_eq!(imp.len(), 2);
        assert!(imp[0] > imp[1], "feature 0 is the signal: {imp:?}");
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_rejected() {
        let (x, y) = clusters();
        let cfg = ForestConfig {
            n_trees: 0,
            ..ForestConfig::decision_forest()
        };
        Forest::fit(&x, &y, 2, &cfg, &mut rng());
    }
}
