//! Feature standardization (z-scoring), required by distance-based models.
//!
//! Tree ensembles are scale-invariant, but KNN is not: without
//! standardization the byte-count counters (~1e9) would drown the
//! utilization features (~1). The [`Standardizer`] is fit on training data
//! only and applied to queries, as usual.

use serde::{Deserialize, Serialize};

/// Per-column mean/std transform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Fits on rows (column means and population stds). Constant columns
    /// get `std = 1` so they transform to zero instead of NaN.
    ///
    /// # Panics
    /// Panics on an empty matrix.
    pub fn fit(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "cannot fit a standardizer on no rows");
        let d = rows[0].len();
        let n = rows.len() as f64;
        let mut means = vec![0.0; d];
        for row in rows {
            debug_assert_eq!(row.len(), d, "ragged feature matrix");
            for (m, &v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut stds = vec![0.0; d];
        for row in rows {
            for ((s, &v), &m) in stds.iter_mut().zip(row).zip(&means) {
                let dlt = v - m;
                *s += dlt * dlt;
            }
        }
        for s in &mut stds {
            *s = (*s / n).sqrt();
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        Standardizer { means, stds }
    }

    /// Rebuilds a standardizer from stored statistics: one finite mean and
    /// one finite, positive std per column, so a finite query never
    /// transforms to NaN.
    pub fn from_parts(means: Vec<f64>, stds: Vec<f64>) -> Result<Self, String> {
        if means.len() != stds.len() {
            return Err(format!("{} means but {} stds", means.len(), stds.len()));
        }
        if means.iter().any(|m| !m.is_finite()) || stds.iter().any(|s| !(s.is_finite() && *s > 0.0))
        {
            return Err("standardizer statistics must be finite, stds positive".into());
        }
        Ok(Standardizer { means, stds })
    }

    /// Number of columns the transform expects.
    pub fn n_features(&self) -> usize {
        self.means.len()
    }

    /// Column means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Column standard deviations (constant columns report 1).
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Transforms one row in place.
    pub fn transform_into(&self, row: &mut [f64]) {
        assert_eq!(row.len(), self.means.len(), "row width mismatch");
        for ((v, &m), &s) in row.iter_mut().zip(&self.means).zip(&self.stds) {
            *v = (*v - m) / s;
        }
    }

    /// Transforms one row, returning a new vector.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        let mut out = row.to_vec();
        self.transform_into(&mut out);
        out
    }

    /// Transforms many rows.
    pub fn transform_all(&self, rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        rows.iter().map(|r| self.transform(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizes_to_zero_mean_unit_var() {
        let rows = vec![vec![1.0, 100.0], vec![3.0, 300.0], vec![5.0, 500.0]];
        let s = Standardizer::fit(&rows);
        let t = s.transform_all(&rows);
        for col in 0..2 {
            let mean: f64 = t.iter().map(|r| r[col]).sum::<f64>() / 3.0;
            let var: f64 = t.iter().map(|r| r[col] * r[col]).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_columns_map_to_zero() {
        let rows = vec![vec![7.0], vec![7.0], vec![7.0]];
        let s = Standardizer::fit(&rows);
        assert_eq!(s.transform(&[7.0]), vec![0.0]);
        assert_eq!(s.stds()[0], 1.0);
    }

    #[test]
    fn transform_uses_training_statistics() {
        let rows = vec![vec![0.0], vec![10.0]];
        let s = Standardizer::fit(&rows);
        // mean 5, std 5 -> 20 maps to 3
        assert!((s.transform(&[20.0])[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn n_features_matches() {
        let s = Standardizer::fit(&[vec![1.0, 2.0, 3.0]]);
        assert_eq!(s.n_features(), 3);
        assert_eq!(s.means().len(), 3);
    }

    #[test]
    #[should_panic(expected = "no rows")]
    fn empty_fit_rejected() {
        Standardizer::fit(&[]);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_transform_rejected() {
        let s = Standardizer::fit(&[vec![1.0, 2.0]]);
        s.transform(&[1.0]);
    }

    #[test]
    fn from_parts_rejects_unusable_statistics() {
        assert!(Standardizer::from_parts(vec![0.0], vec![2.0]).is_ok());
        assert!(Standardizer::from_parts(vec![0.0, 1.0], vec![2.0]).is_err());
        assert!(Standardizer::from_parts(vec![f64::INFINITY], vec![1.0]).is_err());
        assert!(Standardizer::from_parts(vec![0.0], vec![0.0]).is_err());
        assert!(Standardizer::from_parts(vec![0.0], vec![f64::NAN]).is_err());
    }
}
