//! Weighted CART decision trees.
//!
//! The building block of three of the paper's four model families: the
//! Decision Forest and Extra Trees ensembles ([`crate::forest`]) and the
//! AdaBoost booster ([`crate::adaboost`]). Trees are grown greedily on the
//! gini criterion with optional per-sample weights (needed by AdaBoost),
//! per-node feature subsampling (needed by the forests), and either
//! exhaustive best-threshold search or Extra-Trees-style random thresholds.
//!
//! Gini feature importances are accumulated during growth; recursive
//! feature elimination ([`crate::rfe`]) ranks features with them, as the
//! paper does for its tree models (Section IV-A).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How many features to consider at each split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MaxFeatures {
    /// All features (classic CART).
    All,
    /// `ceil(sqrt(d))` features (forest default).
    Sqrt,
    /// Exactly `n` features.
    Exact(usize),
}

impl MaxFeatures {
    fn resolve(self, d: usize) -> usize {
        match self {
            MaxFeatures::All => d,
            MaxFeatures::Sqrt => (d as f64).sqrt().ceil() as usize,
            MaxFeatures::Exact(n) => n.clamp(1, d),
        }
        .max(1)
    }
}

/// Threshold search strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SplitMode {
    /// Scan all candidate thresholds for the best gini decrease.
    Best,
    /// Draw one uniform threshold per candidate feature (Extra Trees).
    RandomThreshold,
}

/// Tree growth parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required in each child of a split.
    pub min_samples_leaf: usize,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    /// Features tried per split.
    pub max_features: MaxFeatures,
    /// Threshold strategy.
    pub split_mode: SplitMode,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 16,
            min_samples_leaf: 1,
            min_samples_split: 2,
            max_features: MaxFeatures::All,
            split_mode: SplitMode::Best,
        }
    }
}

/// A tree node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Node {
    /// Terminal node holding class probabilities.
    Leaf {
        /// Weighted class distribution, normalized.
        probs: Vec<f64>,
    },
    /// Internal test: `x[feature] <= threshold` goes left.
    Split {
        /// Feature column tested.
        feature: usize,
        /// Decision threshold.
        threshold: f64,
        /// Index of the left child in the node arena.
        left: usize,
        /// Index of the right child in the node arena.
        right: usize,
    },
}

/// A fitted decision tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_classes: usize,
    n_features: usize,
    importances: Vec<f64>,
}

impl DecisionTree {
    /// Fits a tree.
    ///
    /// * `weights` — per-sample weights; uniform when `None`.
    /// * `n_classes` — label space size (labels must be `< n_classes`).
    ///
    /// # Panics
    /// Panics on empty input or mismatched lengths.
    pub fn fit(
        features: &[Vec<f64>],
        labels: &[u32],
        weights: Option<&[f64]>,
        n_classes: usize,
        config: &TreeConfig,
        rng: &mut SmallRng,
    ) -> Self {
        assert!(!features.is_empty(), "cannot fit a tree on no samples");
        assert_eq!(
            features.len(),
            labels.len(),
            "features/labels length mismatch"
        );
        if let Some(w) = weights {
            assert_eq!(w.len(), labels.len(), "weights length mismatch");
        }
        assert!(n_classes >= 1, "need at least one class");
        debug_assert!(
            labels.iter().all(|&l| (l as usize) < n_classes),
            "label out of range"
        );

        let d = features[0].len();
        let uniform = vec![1.0; labels.len()];
        let w = weights.unwrap_or(&uniform);
        let total_weight: f64 = w.iter().sum();

        let mut builder = Builder {
            features,
            labels,
            weights: w,
            n_classes,
            config,
            total_weight,
            nodes: Vec::new(),
            importances: vec![0.0; d],
        };
        let indices: Vec<usize> = (0..labels.len()).collect();
        builder.grow(indices, 0, rng);
        DecisionTree {
            nodes: builder.nodes,
            n_classes,
            n_features: d,
            importances: builder.importances,
        }
    }

    /// Class-probability vector for one row.
    pub fn predict_proba(&self, row: &[f64]) -> &[f64] {
        debug_assert_eq!(row.len(), self.n_features, "query width mismatch");
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { probs } => return probs,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Predicted class for one row (argmax probability, lowest class wins
    /// ties).
    pub fn predict(&self, row: &[f64]) -> u32 {
        argmax(self.predict_proba(row))
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of feature columns expected.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Node count (leaves + splits).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Tree depth (0 for a single leaf).
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], idx: usize) -> usize {
            match &nodes[idx] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, *left).max(depth_of(nodes, *right))
                }
            }
        }
        depth_of(&self.nodes, 0)
    }

    /// Gini importances, normalized to sum to 1 (all zeros for a stump-less
    /// tree).
    pub fn feature_importances(&self) -> Vec<f64> {
        let sum: f64 = self.importances.iter().sum();
        if sum <= 0.0 {
            return self.importances.clone();
        }
        self.importances.iter().map(|&v| v / sum).collect()
    }

    /// Raw node arena, in preorder: every split's children come after it.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Unnormalized gini importances, as accumulated during growth.
    pub fn raw_importances(&self) -> &[f64] {
        &self.importances
    }

    /// Rebuilds a tree from its parts, checking every invariant
    /// [`DecisionTree::predict`] relies on: a non-empty preorder arena whose
    /// splits point forward (`i < left, right < nodes.len()`, so traversal
    /// ends), split features `< n_features`, leaves of width `n_classes`
    /// (at least one), and `n_features` importances.
    pub fn from_parts(
        nodes: Vec<Node>,
        n_classes: usize,
        n_features: usize,
        importances: Vec<f64>,
    ) -> Result<Self, String> {
        if nodes.is_empty() {
            return Err("tree has no nodes".into());
        }
        if n_classes == 0 {
            return Err("tree has no classes".into());
        }
        if importances.len() != n_features {
            return Err(format!(
                "tree has {} importances for {n_features} features",
                importances.len()
            ));
        }
        for (i, node) in nodes.iter().enumerate() {
            match node {
                Node::Leaf { probs } if probs.len() != n_classes => {
                    return Err(format!(
                        "leaf {i} has {} probabilities for {n_classes} classes",
                        probs.len()
                    ));
                }
                Node::Leaf { .. } => {}
                Node::Split { feature, .. } if *feature >= n_features => {
                    return Err(format!("split {i} tests feature {feature} of {n_features}"));
                }
                Node::Split { left, right, .. } => {
                    for child in [*left, *right] {
                        if child <= i || child >= nodes.len() {
                            return Err(format!(
                                "split {i} points to node {child} (want {i} < child < {})",
                                nodes.len()
                            ));
                        }
                    }
                }
            }
        }
        Ok(DecisionTree {
            nodes,
            n_classes,
            n_features,
            importances,
        })
    }
}

/// Index of the largest value (first on ties).
pub(crate) fn argmax(values: &[f64]) -> u32 {
    let mut best = 0usize;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    best as u32
}

struct Builder<'a> {
    features: &'a [Vec<f64>],
    labels: &'a [u32],
    weights: &'a [f64],
    n_classes: usize,
    config: &'a TreeConfig,
    total_weight: f64,
    nodes: Vec<Node>,
    importances: Vec<f64>,
}

struct BestSplit {
    feature: usize,
    threshold: f64,
    impurity_decrease: f64,
    left: Vec<usize>,
    right: Vec<usize>,
}

impl<'a> Builder<'a> {
    /// Grows the subtree over `indices`; returns its node index.
    fn grow(&mut self, indices: Vec<usize>, depth: usize, rng: &mut SmallRng) -> usize {
        let dist = self.class_weights(&indices);
        let node_weight: f64 = dist.iter().sum();
        let gini = gini_of(&dist, node_weight);

        let stop = depth >= self.config.max_depth
            || indices.len() < self.config.min_samples_split
            || gini <= 1e-12;
        if !stop {
            if let Some(split) = self.find_split(&indices, &dist, node_weight, gini, rng) {
                self.importances[split.feature] +=
                    split.impurity_decrease * node_weight / self.total_weight;
                let node_idx = self.nodes.len();
                // Reserve the slot so children indices are stable.
                self.nodes.push(Node::Leaf { probs: Vec::new() });
                let left = self.grow(split.left, depth + 1, rng);
                let right = self.grow(split.right, depth + 1, rng);
                self.nodes[node_idx] = Node::Split {
                    feature: split.feature,
                    threshold: split.threshold,
                    left,
                    right,
                };
                return node_idx;
            }
        }
        let probs = normalize(dist, node_weight);
        let idx = self.nodes.len();
        self.nodes.push(Node::Leaf { probs });
        idx
    }

    fn class_weights(&self, indices: &[usize]) -> Vec<f64> {
        let mut dist = vec![0.0; self.n_classes];
        for &i in indices {
            dist[self.labels[i] as usize] += self.weights[i];
        }
        dist
    }

    fn find_split(
        &self,
        indices: &[usize],
        dist: &[f64],
        node_weight: f64,
        node_gini: f64,
        rng: &mut SmallRng,
    ) -> Option<BestSplit> {
        let d = self.features[0].len();
        let k = self.config.max_features.resolve(d);
        let mut candidates: Vec<usize> = (0..d).collect();
        candidates.shuffle(rng);
        candidates.truncate(k);

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, decrease)
        for &f in &candidates {
            let proposal = match self.config.split_mode {
                SplitMode::Best => self.best_threshold(indices, f, dist, node_weight, node_gini),
                SplitMode::RandomThreshold => {
                    self.random_threshold(indices, f, dist, node_weight, node_gini, rng)
                }
            };
            if let Some((thr, dec)) = proposal {
                if best.map(|(_, _, b)| dec > b).unwrap_or(true) {
                    best = Some((f, thr, dec));
                }
            }
        }
        let (feature, threshold, impurity_decrease) = best?;
        let (left, right): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| self.features[i][feature] <= threshold);
        if left.len() < self.config.min_samples_leaf || right.len() < self.config.min_samples_leaf {
            return None;
        }
        Some(BestSplit {
            feature,
            threshold,
            impurity_decrease,
            left,
            right,
        })
    }

    /// Exhaustive threshold scan on one feature.
    fn best_threshold(
        &self,
        indices: &[usize],
        feature: usize,
        dist: &[f64],
        node_weight: f64,
        node_gini: f64,
    ) -> Option<(f64, f64)> {
        let mut order: Vec<usize> = indices.to_vec();
        order.sort_by(|&a, &b| {
            self.features[a][feature]
                .partial_cmp(&self.features[b][feature])
                .expect("finite features")
        });

        let mut left_dist = vec![0.0; self.n_classes];
        let mut left_weight = 0.0;
        let mut left_count = 0usize;
        let mut best: Option<(f64, f64)> = None;
        let min_leaf = self.config.min_samples_leaf;

        for w in 0..order.len() - 1 {
            let i = order[w];
            left_dist[self.labels[i] as usize] += self.weights[i];
            left_weight += self.weights[i];
            left_count += 1;

            let v = self.features[i][feature];
            let v_next = self.features[order[w + 1]][feature];
            if v == v_next {
                continue; // can't split between equal values
            }
            if left_count < min_leaf || order.len() - left_count < min_leaf {
                continue;
            }
            let right_weight = node_weight - left_weight;
            if left_weight <= 0.0 || right_weight <= 0.0 {
                continue;
            }
            let mut right_dist_gini_acc = 0.0;
            let mut left_gini_acc = 0.0;
            for (&total_c, &lw) in dist.iter().zip(&left_dist) {
                let l = lw / left_weight;
                left_gini_acc += l * l;
                let rw = (total_c - lw).max(0.0);
                let r = rw / right_weight;
                right_dist_gini_acc += r * r;
            }
            let gini_left = 1.0 - left_gini_acc;
            let gini_right = 1.0 - right_dist_gini_acc;
            let weighted = (left_weight * gini_left + right_weight * gini_right) / node_weight;
            let decrease = node_gini - weighted;
            let threshold = 0.5 * (v + v_next);
            if best.map(|(_, b)| decrease > b).unwrap_or(true) {
                best = Some((threshold, decrease));
            }
        }
        best.filter(|&(_, dec)| dec > 1e-12)
    }

    /// Extra-Trees style: single uniform threshold in the feature's range.
    fn random_threshold(
        &self,
        indices: &[usize],
        feature: usize,
        dist: &[f64],
        node_weight: f64,
        node_gini: f64,
        rng: &mut SmallRng,
    ) -> Option<(f64, f64)> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &i in indices {
            let v = self.features[i][feature];
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if hi <= lo {
            return None;
        }
        let threshold = rng.gen_range(lo..hi);
        let mut left_dist = vec![0.0; self.n_classes];
        let mut left_weight = 0.0;
        for &i in indices {
            if self.features[i][feature] <= threshold {
                left_dist[self.labels[i] as usize] += self.weights[i];
                left_weight += self.weights[i];
            }
        }
        let right_weight = node_weight - left_weight;
        if left_weight <= 0.0 || right_weight <= 0.0 {
            return None;
        }
        let gini_left = gini_of(&left_dist, left_weight);
        let right_dist: Vec<f64> = dist
            .iter()
            .zip(&left_dist)
            .map(|(&t, &l)| (t - l).max(0.0))
            .collect();
        let gini_right = gini_of(&right_dist, right_weight);
        let weighted = (left_weight * gini_left + right_weight * gini_right) / node_weight;
        let decrease = node_gini - weighted;
        (decrease > 1e-12).then_some((threshold, decrease))
    }
}

fn gini_of(dist: &[f64], total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let mut acc = 0.0;
    for &w in dist {
        let p = w / total;
        acc += p * p;
    }
    1.0 - acc
}

fn normalize(mut dist: Vec<f64>, total: f64) -> Vec<f64> {
    if total > 0.0 {
        for v in &mut dist {
            *v /= total;
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(13)
    }

    /// A linearly separable 2-class problem on one feature.
    fn separable() -> (Vec<Vec<f64>>, Vec<u32>) {
        let features: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64, (i * 7 % 5) as f64])
            .collect();
        let labels: Vec<u32> = (0..20).map(|i| u32::from(i >= 10)).collect();
        (features, labels)
    }

    #[test]
    fn learns_a_separable_problem() {
        let (x, y) = separable();
        let tree = DecisionTree::fit(&x, &y, None, 2, &TreeConfig::default(), &mut rng());
        for (row, &label) in x.iter().zip(&y) {
            assert_eq!(tree.predict(row), label);
        }
        // One split suffices.
        assert!(tree.depth() >= 1);
        assert_eq!(tree.n_classes(), 2);
    }

    #[test]
    fn importances_identify_the_informative_feature() {
        let (x, y) = separable();
        let tree = DecisionTree::fit(&x, &y, None, 2, &TreeConfig::default(), &mut rng());
        let imp = tree.feature_importances();
        assert!(imp[0] > 0.9, "feature 0 carries the signal: {imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pure_node_is_a_leaf() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![1, 1, 1];
        let tree = DecisionTree::fit(&x, &y, None, 2, &TreeConfig::default(), &mut rng());
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.predict(&[9.0]), 1);
        assert_eq!(tree.predict_proba(&[9.0]), &[0.0, 1.0]);
    }

    #[test]
    fn max_depth_limits_growth() {
        let (x, y) = separable();
        // xor-ish labels force depth if allowed
        let y2: Vec<u32> = x
            .iter()
            .map(|r| u32::from((r[0] as i64) % 2 == 0))
            .collect();
        let cfg = TreeConfig {
            max_depth: 1,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&x, &y2, None, 2, &cfg, &mut rng());
        assert!(tree.depth() <= 1);
        let _ = y;
    }

    #[test]
    fn min_samples_leaf_respected() {
        let (x, y) = separable();
        let cfg = TreeConfig {
            min_samples_leaf: 8,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&x, &y, None, 2, &cfg, &mut rng());
        // With 20 samples and min leaf 8 only one balanced-ish split fits.
        assert!(tree.depth() <= 2);
    }

    #[test]
    fn weights_steer_the_split() {
        // Two features; labels follow feature 0 for light samples, feature 1
        // for the heavy ones. Heavy weights should win.
        let x = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let y = vec![0, 1, 0, 1]; // labels follow feature 1 exactly
        let w = vec![1.0, 100.0, 1.0, 100.0];
        let tree = DecisionTree::fit(&x, &y, Some(&w), 2, &TreeConfig::default(), &mut rng());
        assert_eq!(tree.predict(&[0.0, 1.0]), 1);
        assert_eq!(tree.predict(&[1.0, 0.0]), 0);
    }

    #[test]
    fn random_threshold_mode_still_learns() {
        let (x, y) = separable();
        let cfg = TreeConfig {
            split_mode: SplitMode::RandomThreshold,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&x, &y, None, 2, &cfg, &mut rng());
        let correct = x
            .iter()
            .zip(&y)
            .filter(|(row, &l)| tree.predict(row) == l)
            .count();
        assert!(correct >= 18, "extra-trees split got {correct}/20");
    }

    #[test]
    fn three_class_problem() {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let y: Vec<u32> = (0..30).map(|i| (i / 10) as u32).collect();
        let tree = DecisionTree::fit(&x, &y, None, 3, &TreeConfig::default(), &mut rng());
        assert_eq!(tree.predict(&[5.0]), 0);
        assert_eq!(tree.predict(&[15.0]), 1);
        assert_eq!(tree.predict(&[25.0]), 2);
    }

    #[test]
    fn duplicate_feature_values_never_split_between_equals() {
        let x = vec![vec![1.0], vec![1.0], vec![1.0], vec![2.0]];
        let y = vec![0, 1, 0, 1];
        let tree = DecisionTree::fit(&x, &y, None, 2, &TreeConfig::default(), &mut rng());
        // The only legal threshold is between 1 and 2.
        assert_eq!(tree.predict(&[2.0]), 1);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let (x, y) = separable();
        let t1 = DecisionTree::fit(&x, &y, None, 2, &TreeConfig::default(), &mut rng());
        let t2 = DecisionTree::fit(&x, &y, None, 2, &TreeConfig::default(), &mut rng());
        assert_eq!(t1, t2);
    }

    #[test]
    fn from_parts_rejects_broken_trees() {
        let leaf = || Node::Leaf {
            probs: vec![1.0, 0.0],
        };
        let split = |feature, left, right| Node::Split {
            feature,
            threshold: 0.5,
            left,
            right,
        };
        let build = |nodes| DecisionTree::from_parts(nodes, 2, 1, vec![0.0]);
        assert!(build(vec![split(0, 1, 2), leaf(), leaf()]).is_ok());
        for broken in [
            vec![],
            vec![split(0, 0, 0)],                   // points at itself
            vec![leaf(), split(0, 0, 2), leaf()],   // points backward
            vec![split(0, 1, 7), leaf()],           // past the arena
            vec![split(999, 1, 2), leaf(), leaf()], // feature out of range
            vec![Node::Leaf { probs: vec![1.0] }],  // leaf too narrow
        ] {
            assert!(build(broken.clone()).is_err(), "{broken:?}");
        }
        assert!(DecisionTree::from_parts(vec![leaf()], 2, 2, vec![0.0]).is_err());
        let no_classes = Node::Leaf { probs: vec![] };
        assert!(DecisionTree::from_parts(vec![no_classes], 0, 1, vec![0.0]).is_err());
    }

    #[test]
    fn argmax_ties_go_low() {
        assert_eq!(argmax(&[0.5, 0.5]), 0);
        assert_eq!(argmax(&[0.1, 0.8, 0.1]), 1);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_fit_rejected() {
        DecisionTree::fit(&[], &[], None, 2, &TreeConfig::default(), &mut rng());
    }
}
