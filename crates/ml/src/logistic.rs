//! L2-regularized multinomial logistic regression — a linear baseline
//! beyond the paper's four families.
//!
//! The paper compares tree ensembles and KNN (Fig. 3); a linear model is
//! the natural null hypothesis against which their nonlinearity earns its
//! keep. Training is full-batch gradient descent on the softmax
//! cross-entropy over standardized features; deterministic (no sampling),
//! so identical inputs give identical models.

use crate::scale::Standardizer;
use serde::{Deserialize, Serialize};

/// Training parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogisticConfig {
    /// Gradient-descent iterations.
    pub iterations: usize,
    /// Step size.
    pub learning_rate: f64,
    /// L2 penalty on the weights (not the biases).
    pub l2: f64,
}

impl Default for LogisticConfig {
    fn default() -> Self {
        LogisticConfig {
            iterations: 300,
            learning_rate: 0.5,
            l2: 1e-3,
        }
    }
}

/// A fitted multinomial logistic model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Logistic {
    scaler: Standardizer,
    /// `weights[class][feature]`.
    weights: Vec<Vec<f64>>,
    /// One bias per class.
    biases: Vec<f64>,
    config: LogisticConfig,
}

impl Logistic {
    /// Fits by full-batch gradient descent.
    ///
    /// # Panics
    /// Panics on empty input or fewer than two classes.
    pub fn fit(
        features: &[Vec<f64>],
        labels: &[u32],
        n_classes: usize,
        config: &LogisticConfig,
    ) -> Self {
        assert!(!features.is_empty(), "cannot fit logistic on no samples");
        assert!(n_classes >= 2, "logistic needs at least two classes");
        assert_eq!(features.len(), labels.len(), "features/labels mismatch");
        let scaler = Standardizer::fit(features);
        let x = scaler.transform_all(features);
        let n = x.len() as f64;
        let d = x[0].len();

        let mut weights = vec![vec![0.0; d]; n_classes];
        let mut biases = vec![0.0; n_classes];

        for _ in 0..config.iterations {
            let mut grad_w = vec![vec![0.0; d]; n_classes];
            let mut grad_b = vec![0.0; n_classes];
            for (row, &label) in x.iter().zip(labels) {
                let probs = softmax_scores(&weights, &biases, row);
                for (class, &p) in probs.iter().enumerate() {
                    let indicator = f64::from(label as usize == class);
                    let delta = p - indicator;
                    grad_b[class] += delta;
                    for (g, &v) in grad_w[class].iter_mut().zip(row) {
                        *g += delta * v;
                    }
                }
            }
            for class in 0..n_classes {
                biases[class] -= config.learning_rate * grad_b[class] / n;
                for (w, g) in weights[class].iter_mut().zip(&grad_w[class]) {
                    *w -= config.learning_rate * (g / n + config.l2 * *w);
                }
            }
        }

        Logistic {
            scaler,
            weights,
            biases,
            config: *config,
        }
    }

    /// Class probabilities for one row.
    pub fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        let z = self.scaler.transform(row);
        softmax_scores(&self.weights, &self.biases, &z)
    }

    /// Predicted class.
    pub fn predict(&self, row: &[f64]) -> u32 {
        crate::tree::argmax(&self.predict_proba(row))
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.weights.len()
    }

    /// Expected feature width.
    pub fn n_features(&self) -> usize {
        self.scaler.n_features()
    }

    /// |weight| per feature, summed over classes — a linear-model
    /// importance usable by RFE.
    pub fn coefficient_magnitudes(&self) -> Vec<f64> {
        let d = self.n_features();
        let mut out = vec![0.0; d];
        for class_weights in &self.weights {
            for (o, w) in out.iter_mut().zip(class_weights) {
                *o += w.abs();
            }
        }
        out
    }

    /// The parts: `(scaler, weights, biases, config)`.
    pub fn parts(&self) -> (&Standardizer, &[Vec<f64>], &[f64], &LogisticConfig) {
        (&self.scaler, &self.weights, &self.biases, &self.config)
    }

    /// Rebuilds a model from its parts: at least one class, one bias per
    /// class, and one weight row as wide as the scaler per class.
    pub fn from_parts(
        scaler: Standardizer,
        weights: Vec<Vec<f64>>,
        biases: Vec<f64>,
        config: LogisticConfig,
    ) -> Result<Self, String> {
        if weights.is_empty() || weights.len() != biases.len() {
            return Err(format!(
                "{} weight rows with {} biases",
                weights.len(),
                biases.len()
            ));
        }
        let width = scaler.n_features();
        if let Some(i) = weights.iter().position(|w| w.len() != width) {
            return Err(format!("weight row {i} is not {width} wide"));
        }
        Ok(Logistic {
            scaler,
            weights,
            biases,
            config,
        })
    }
}

fn softmax_scores(weights: &[Vec<f64>], biases: &[f64], row: &[f64]) -> Vec<f64> {
    let mut logits: Vec<f64> = weights
        .iter()
        .zip(biases)
        .map(|(w, &b)| b + w.iter().zip(row).map(|(wi, xi)| wi * xi).sum::<f64>())
        .collect();
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for l in &mut logits {
        *l = (*l - max).exp();
    }
    let total: f64 = logits.iter().sum();
    for l in &mut logits {
        *l /= total;
    }
    logits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable() -> (Vec<Vec<f64>>, Vec<u32>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let cls = u32::from(i >= 20);
            x.push(vec![
                cls as f64 * 4.0 + (i % 5) as f64 * 0.2,
                (i % 3) as f64,
            ]);
            y.push(cls);
        }
        (x, y)
    }

    #[test]
    fn learns_separable_data() {
        let (x, y) = separable();
        let model = Logistic::fit(&x, &y, 2, &LogisticConfig::default());
        let correct = x
            .iter()
            .zip(&y)
            .filter(|(r, &l)| model.predict(r) == l)
            .count();
        assert!(correct >= 38, "{correct}/40");
        assert_eq!(model.n_classes(), 2);
        assert_eq!(model.n_features(), 2);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (x, y) = separable();
        let model = Logistic::fit(&x, &y, 2, &LogisticConfig::default());
        let p = model.predict_proba(&x[0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn three_class_softmax() {
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64]).collect();
        let y: Vec<u32> = (0..60).map(|i| (i / 20) as u32).collect();
        let model = Logistic::fit(&x, &y, 3, &LogisticConfig::default());
        assert_eq!(model.predict(&[5.0]), 0);
        assert_eq!(model.predict(&[30.0]), 1);
        assert_eq!(model.predict(&[55.0]), 2);
    }

    #[test]
    fn coefficients_identify_the_signal() {
        let (x0, y) = separable();
        // add a pure-noise column
        let x: Vec<Vec<f64>> = x0
            .iter()
            .enumerate()
            .map(|(i, r)| vec![r[0], ((i * 7) % 13) as f64])
            .collect();
        let model = Logistic::fit(&x, &y, 2, &LogisticConfig::default());
        let mags = model.coefficient_magnitudes();
        assert!(mags[0] > mags[1] * 2.0, "{mags:?}");
    }

    #[test]
    fn training_is_deterministic() {
        let (x, y) = separable();
        let a = Logistic::fit(&x, &y, 2, &LogisticConfig::default());
        let b = Logistic::fit(&x, &y, 2, &LogisticConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "two classes")]
    fn single_class_rejected() {
        Logistic::fit(&[vec![1.0]], &[0], 1, &LogisticConfig::default());
    }
}
