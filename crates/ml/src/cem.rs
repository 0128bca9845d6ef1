//! From-scratch cross-entropy method (CEM) policy search.
//!
//! The learned scheduling policy of `rush-sched::env` is a weight vector
//! scoring queued jobs (the RLScheduler / deep-batch-scheduler
//! `SORTING_FACTORS` continuous action space). CEM is the simplest
//! optimizer that reliably trains such a vector without gradients, new
//! dependencies, or nondeterminism:
//!
//! 1. sample a population of candidate vectors from a diagonal Gaussian;
//! 2. evaluate each candidate's episodic return through a caller-supplied
//!    objective;
//! 3. refit the Gaussian to the elite fraction (highest return), with a
//!    floor on the standard deviation so the search cannot collapse
//!    prematurely;
//! 4. repeat for a fixed number of rounds.
//!
//! Everything is seeded: sampling uses a counted [`SmallRng`] stream with
//! Box–Muller Gaussians, elite selection breaks score ties by population
//! index, and the objective itself is expected to be deterministic — so a
//! training run is a pure function of `(CemConfig, objective)` and the CI
//! `policy-smoke` lane can byte-compare two runs.
//!
//! ```
//! use rush_ml::cem::{train, CemConfig};
//!
//! // Maximize -(x - 3)² in one dimension: the optimum is x = 3.
//! let config = CemConfig { dim: 1, rounds: 30, ..CemConfig::default() };
//! let outcome = train(&config, |w| -(w[0] - 3.0) * (w[0] - 3.0));
//! assert!((outcome.best[0] - 3.0).abs() < 0.2, "{:?}", outcome.best);
//! // Deterministic: a second run reproduces the result bit for bit.
//! let again = train(&config, |w| -(w[0] - 3.0) * (w[0] - 3.0));
//! assert_eq!(outcome.best, again.best);
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Everything that parameterizes a training run. The outcome is a pure
/// function of this struct plus the (deterministic) objective.
#[derive(Debug, Clone, PartialEq)]
pub struct CemConfig {
    /// Dimensionality of the weight vector being searched.
    pub dim: usize,
    /// Candidates sampled per round.
    pub population: usize,
    /// Elite candidates refitting the Gaussian (must be ≤ population).
    pub elite: usize,
    /// Sampling rounds.
    pub rounds: u32,
    /// Initial per-dimension mean.
    pub init_mean: f64,
    /// Initial per-dimension standard deviation.
    pub init_std: f64,
    /// Floor on the refit standard deviation (keeps exploring).
    pub min_std: f64,
    /// Master seed for the sampling stream.
    pub seed: u64,
}

impl Default for CemConfig {
    fn default() -> Self {
        CemConfig {
            dim: 1,
            population: 32,
            elite: 8,
            rounds: 12,
            init_mean: 0.0,
            init_std: 1.0,
            min_std: 0.05,
            seed: 0,
        }
    }
}

/// One round's summary, for progress tables and the training trace.
#[derive(Debug, Clone, PartialEq)]
pub struct CemRound {
    /// Round index, from 0.
    pub round: u32,
    /// Best score in this round's population.
    pub best_score: f64,
    /// Population mean score.
    pub mean_score: f64,
    /// Mean score of the elite set.
    pub elite_score: f64,
}

/// The result of [`train`]: the best candidate ever evaluated (not merely
/// the final mean) plus the per-round history.
#[derive(Debug, Clone, PartialEq)]
pub struct CemOutcome {
    /// Highest-scoring weight vector observed across all rounds.
    pub best: Vec<f64>,
    /// Its score.
    pub best_score: f64,
    /// Final Gaussian mean (the distilled policy).
    pub mean: Vec<f64>,
    /// Per-round summaries in order.
    pub rounds: Vec<CemRound>,
    /// Total objective evaluations performed.
    pub evaluations: u64,
}

/// One standard Gaussian draw via Box–Muller. Only the first of the pair
/// is used: draws stay a fixed two-uniforms each, keeping the stream
/// layout independent of prior draws.
fn gaussian(rng: &mut SmallRng) -> f64 {
    // gen_range excludes the upper bound; shifting to (0, 1] keeps ln()
    // finite.
    let u1: f64 = 1.0 - rng.gen_range(0.0..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Runs CEM and returns the best candidate. `objective` maps a weight
/// vector to a score to *maximize* (for scheduling: the negated mean
/// bounded slowdown of a seeded episode).
///
/// # Panics
///
/// Panics if `dim` or `population` is zero, or `elite` is zero or
/// exceeds `population` — configuration errors, not data errors.
pub fn train<F: FnMut(&[f64]) -> f64>(config: &CemConfig, mut objective: F) -> CemOutcome {
    assert!(config.dim > 0, "cem: dim must be positive");
    assert!(config.population > 0, "cem: population must be positive");
    assert!(
        config.elite > 0 && config.elite <= config.population,
        "cem: elite must be in 1..=population, got {} of {}",
        config.elite,
        config.population
    );
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut mean = vec![config.init_mean; config.dim];
    let mut std = vec![config.init_std.max(config.min_std); config.dim];
    let mut best: Vec<f64> = mean.clone();
    let mut best_score = f64::NEG_INFINITY;
    let mut rounds = Vec::with_capacity(config.rounds as usize);
    let mut evaluations = 0u64;

    for round in 0..config.rounds {
        // Sample and score the population.
        let mut scored: Vec<(usize, Vec<f64>, f64)> = Vec::with_capacity(config.population);
        for i in 0..config.population {
            let candidate: Vec<f64> = (0..config.dim)
                .map(|d| mean[d] + std[d] * gaussian(&mut rng))
                .collect();
            let score = objective(&candidate);
            evaluations += 1;
            scored.push((i, candidate, score));
        }
        // Elite selection: score descending, sample index ascending on
        // exact ties — a total order, so the elite set is deterministic.
        scored.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
        if scored[0].2 > best_score {
            best_score = scored[0].2;
            best = scored[0].1.clone();
        }
        let elite = &scored[..config.elite];
        let mean_score = scored.iter().map(|s| s.2).sum::<f64>() / scored.len() as f64;
        let elite_score = elite.iter().map(|s| s.2).sum::<f64>() / elite.len() as f64;
        rounds.push(CemRound {
            round,
            best_score: scored[0].2,
            mean_score,
            elite_score,
        });
        // Refit the Gaussian to the elite set.
        for d in 0..config.dim {
            let m = elite.iter().map(|s| s.1[d]).sum::<f64>() / elite.len() as f64;
            let var = elite
                .iter()
                .map(|s| (s.1[d] - m) * (s.1[d] - m))
                .sum::<f64>()
                / elite.len() as f64;
            mean[d] = m;
            std[d] = var.sqrt().max(config.min_std);
        }
    }

    CemOutcome {
        best,
        best_score,
        mean,
        rounds,
        evaluations,
    }
}

/// A trained scheduling-policy artifact: the CEM-optimized sort-weight
/// vector plus the provenance needed to reproduce the training run.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyArtifact {
    /// The trained sort weights (`rush-sched`'s learned R1/R2 order).
    pub weights: Vec<f64>,
    /// Master seed of the training run.
    pub seed: u64,
    /// CEM rounds trained.
    pub rounds: u32,
    /// CEM population per round.
    pub population: u32,
    /// The best objective score observed (negated mean bounded slowdown).
    pub score: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere(target: &[f64]) -> impl FnMut(&[f64]) -> f64 + '_ {
        move |w| {
            -w.iter()
                .zip(target)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
        }
    }

    #[test]
    fn converges_on_a_quadratic() {
        let target = [1.5, -2.0, 0.5];
        let config = CemConfig {
            dim: 3,
            rounds: 20,
            seed: 7,
            ..CemConfig::default()
        };
        let outcome = train(&config, sphere(&target));
        for (b, t) in outcome.best.iter().zip(&target) {
            assert!((b - t).abs() < 0.25, "{:?} vs {target:?}", outcome.best);
        }
        assert_eq!(
            outcome.evaluations,
            u64::from(config.rounds) * config.population as u64
        );
    }

    #[test]
    fn identical_configs_reproduce_bit_for_bit() {
        let config = CemConfig {
            dim: 4,
            seed: 42,
            ..CemConfig::default()
        };
        let a = train(&config, sphere(&[0.1, 0.2, 0.3, 0.4]));
        let b = train(&config, sphere(&[0.1, 0.2, 0.3, 0.4]));
        assert_eq!(a.best, b.best);
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn distinct_seeds_explore_differently() {
        let base = CemConfig {
            dim: 2,
            rounds: 1,
            ..CemConfig::default()
        };
        let a = train(&base, |w| w[0]);
        let b = train(&CemConfig { seed: 1, ..base }, |w| w[0]);
        assert_ne!(a.best, b.best);
    }

    #[test]
    fn best_ever_survives_a_later_regression() {
        // An objective that punishes every vector after the first round's
        // population: the reported best must still be the early one.
        let mut calls = 0u32;
        let config = CemConfig {
            dim: 1,
            population: 4,
            elite: 2,
            rounds: 3,
            seed: 3,
            ..CemConfig::default()
        };
        let outcome = train(&config, |w| {
            calls += 1;
            if calls <= 4 {
                10.0 + w[0].abs()
            } else {
                -1.0
            }
        });
        assert!(outcome.best_score >= 10.0, "{}", outcome.best_score);
    }

    #[test]
    fn std_floor_keeps_sampling_spread() {
        // A constant objective makes every candidate elite-equal; the
        // refit variance is tiny but the floor must keep it at min_std.
        let config = CemConfig {
            dim: 1,
            rounds: 6,
            min_std: 0.25,
            seed: 9,
            ..CemConfig::default()
        };
        let outcome = train(&config, |_| 0.0);
        // With a floored std the final round's population still varies, so
        // the best score ties at 0 and the mean stays finite.
        assert_eq!(outcome.best_score, 0.0);
        assert!(outcome.mean[0].is_finite());
    }
}
