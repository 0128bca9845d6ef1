//! K-nearest neighbors with internal standardization.
//!
//! One of the four families of Fig. 3. Distances are Euclidean over
//! z-scored features (see [`crate::scale`]) so the ~1e9-scale byte counters
//! don't drown the ~1-scale utilization features. Prediction is a majority
//! vote among the `k` nearest training samples, ties broken toward the
//! nearer neighbor's class.

use crate::scale::Standardizer;
use serde::{Deserialize, Serialize};

/// KNN parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KnnConfig {
    /// Neighbors consulted per query.
    pub k: usize,
}

impl Default for KnnConfig {
    fn default() -> Self {
        KnnConfig { k: 5 }
    }
}

/// A fitted KNN model (stores the standardized training set).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Knn {
    scaler: Standardizer,
    train: Vec<Vec<f64>>,
    labels: Vec<u32>,
    config: KnnConfig,
    n_classes: usize,
}

impl Knn {
    /// Fits (standardizes and memorizes) the training set.
    ///
    /// # Panics
    /// Panics on empty input or `k == 0`.
    pub fn fit(
        features: &[Vec<f64>],
        labels: &[u32],
        n_classes: usize,
        config: &KnnConfig,
    ) -> Self {
        assert!(!features.is_empty(), "cannot fit KNN on no samples");
        assert!(config.k > 0, "k must be positive");
        assert_eq!(features.len(), labels.len(), "features/labels mismatch");
        let scaler = Standardizer::fit(features);
        Knn {
            train: scaler.transform_all(features),
            labels: labels.to_vec(),
            scaler,
            config: *config,
            n_classes: n_classes.max(2),
        }
    }

    /// Predicted class for one row.
    pub fn predict(&self, row: &[f64]) -> u32 {
        let q = self.scaler.transform(row);
        let k = self.config.k.min(self.train.len());

        // Partial selection of the k nearest: for our dataset sizes a full
        // sort is unnecessary; select_nth is O(n).
        let mut dists: Vec<(f64, u32)> = self
            .train
            .iter()
            .zip(&self.labels)
            .map(|(t, &l)| (sq_dist(&q, t), l))
            .collect();
        dists.select_nth_unstable_by(k - 1, |a, b| {
            a.0.partial_cmp(&b.0).expect("finite distances")
        });
        let nearest = &mut dists[..k];
        nearest.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));

        // Majority vote; ties resolved toward the class of the nearest
        // member among the tied classes. Only classes among the k nearest
        // can win, so they are the only ones counted.
        let votes = |class: u32| nearest.iter().filter(|&&(_, l)| l == class).count();
        let best_count = nearest
            .iter()
            .map(|&(_, l)| votes(l))
            .max()
            .expect("at least one neighbor");
        nearest
            .iter()
            .find(|&&(_, l)| votes(l) == best_count)
            .map(|&(_, l)| l)
            .expect("at least one neighbor")
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Expected feature width.
    pub fn n_features(&self) -> usize {
        self.scaler.n_features()
    }

    /// Training-set size.
    pub fn n_samples(&self) -> usize {
        self.train.len()
    }

    /// The configuration.
    pub fn config(&self) -> &KnnConfig {
        &self.config
    }

    /// The parts: `(scaler, standardized rows, labels)`.
    pub fn parts(&self) -> (&Standardizer, &[Vec<f64>], &[u32]) {
        (&self.scaler, &self.train, &self.labels)
    }

    /// Rebuilds a model from its parts: `k ≥ 1`, at least one training
    /// row, one label `< n_classes` per row, and finite rows as wide as the
    /// scaler (so every query distance is comparable).
    pub fn from_parts(
        scaler: Standardizer,
        train: Vec<Vec<f64>>,
        labels: Vec<u32>,
        config: KnnConfig,
        n_classes: usize,
    ) -> Result<Self, String> {
        if config.k == 0 {
            return Err("k must be positive".into());
        }
        if train.is_empty() || train.len() != labels.len() {
            return Err(format!(
                "{} training rows with {} labels",
                train.len(),
                labels.len()
            ));
        }
        if let Some(l) = labels.iter().find(|&&l| l as usize >= n_classes) {
            return Err(format!("label {l} of {n_classes} classes"));
        }
        let width = scaler.n_features();
        if let Some(i) = train
            .iter()
            .position(|r| r.len() != width || r.iter().any(|v| !v.is_finite()))
        {
            return Err(format!("training row {i} is not {width} finite values"));
        }
        Ok(Knn {
            scaler,
            train,
            labels,
            config,
            n_classes,
        })
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clusters() -> (Vec<Vec<f64>>, Vec<u32>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..10 {
            x.push(vec![i as f64 * 0.1, 0.0]);
            y.push(0);
            x.push(vec![5.0 + i as f64 * 0.1, 0.0]);
            y.push(1);
        }
        (x, y)
    }

    #[test]
    fn classifies_clusters() {
        let (x, y) = clusters();
        let knn = Knn::fit(&x, &y, 2, &KnnConfig::default());
        assert_eq!(knn.predict(&[0.3, 0.0]), 0);
        assert_eq!(knn.predict(&[5.3, 0.0]), 1);
        assert_eq!(knn.n_samples(), 20);
        assert_eq!(knn.n_features(), 2);
    }

    #[test]
    fn standardization_prevents_scale_domination() {
        // Feature 1 is pure huge-scale noise; feature 0 carries the signal.
        let x = vec![
            vec![0.0, 1.0e9],
            vec![0.1, -2.0e9],
            vec![0.2, 3.0e9],
            vec![5.0, -1.0e9],
            vec![5.1, 2.0e9],
            vec![5.2, -3.0e9],
        ];
        let y = vec![0, 0, 0, 1, 1, 1];
        let knn = Knn::fit(&x, &y, 2, &KnnConfig { k: 3 });
        assert_eq!(knn.predict(&[0.05, 0.0]), 0);
        assert_eq!(knn.predict(&[5.05, 0.0]), 1);
    }

    #[test]
    fn k_one_memorizes() {
        let (x, y) = clusters();
        let knn = Knn::fit(&x, &y, 2, &KnnConfig { k: 1 });
        for (row, &label) in x.iter().zip(&y) {
            assert_eq!(knn.predict(row), label);
        }
    }

    #[test]
    fn k_larger_than_dataset_clamps() {
        let x = vec![vec![0.0], vec![1.0], vec![10.0]];
        let y = vec![0, 0, 1];
        let knn = Knn::fit(&x, &y, 2, &KnnConfig { k: 100 });
        // all 3 neighbors vote: majority class 0
        assert_eq!(knn.predict(&[20.0]), 0);
    }

    #[test]
    fn tie_breaks_toward_nearest() {
        let x = vec![vec![0.0], vec![10.0]];
        let y = vec![0, 1];
        let knn = Knn::fit(&x, &y, 2, &KnnConfig { k: 2 });
        // query nearer to class 1
        assert_eq!(knn.predict(&[9.0]), 1);
        // query nearer to class 0
        assert_eq!(knn.predict(&[1.0]), 0);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        Knn::fit(&[vec![1.0]], &[0], 2, &KnnConfig { k: 0 });
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_fit_rejected() {
        Knn::fit(&[], &[], 2, &KnnConfig::default());
    }

    #[test]
    fn from_parts_rejects_broken_models() {
        let scaler = || Standardizer::from_parts(vec![0.0], vec![1.0]).unwrap();
        let build = |rows: Vec<Vec<f64>>, labels: Vec<u32>, k| {
            Knn::from_parts(scaler(), rows, labels, KnnConfig { k }, 2)
        };
        assert!(build(vec![vec![1.0]], vec![1], 3).is_ok());
        assert!(build(vec![vec![1.0]], vec![1], 0).is_err());
        assert!(build(vec![], vec![], 1).is_err());
        assert!(build(vec![vec![1.0]], vec![2], 1).is_err());
        assert!(build(vec![vec![1.0, 2.0]], vec![0], 1).is_err());
        assert!(build(vec![vec![f64::NAN]], vec![0], 1).is_err());
        assert!(build(vec![vec![1.0]], vec![0, 1], 1).is_err());
    }
}
