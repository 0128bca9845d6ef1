//! # rush-ml
//!
//! From-scratch machine learning for the RUSH variability predictor — the
//! scikit-learn stand-in of Section IV-A / V-A.
//!
//! The paper compares four classifiers by cross-validated F1 score — Extra
//! Trees, Decision Forest, K-Nearest Neighbors and AdaBoost — using
//! stratified and leave-one-application-out cross-validation, then applies
//! recursive feature elimination and exports the winning model for the
//! scheduler. This crate implements all of it:
//!
//! * [`dataset`] — row-major feature matrix with labels and per-sample
//!   groups (the application each sample came from).
//! * [`tree`] — weighted CART decision trees (gini), with best-split and
//!   random-threshold modes and gini feature importances.
//! * [`forest`] — bagged Decision Forests and Extra Trees ensembles
//!   (per-tree training fans out via rayon).
//! * [`adaboost`] — SAMME AdaBoost over shallow trees.
//! * [`knn`] — standardized-Euclidean K-Nearest Neighbors.
//! * [`metrics`] — confusion matrices, precision/recall, and the paper's
//!   F1 measure `tp / (tp + ½(fp + fn))`.
//! * [`cv`] — stratified k-fold and leave-one-group-out cross-validation.
//! * [`importance`] — model-agnostic permutation feature importance (for
//!   families without built-in importances, e.g. KNN).
//! * [`rfe`] — recursive feature elimination keeping the best-F1 subset.
//! * [`select`] — the model-selection driver comparing all four families.
//! * [`tune`] — within-family hyperparameter grid search under CV.
//! * [`model`] — the [`model::Classifier`] trait and the
//!   [`model::TrainedModel`] enum. Each family rebuilds from its parts
//!   through a checked `from_parts`; the file format (the pickle stand-in)
//!   lives in `rush_core::persist`.
//! * [`cem`] — from-scratch seeded cross-entropy method policy search
//!   (trains the learned scheduling policy's sort-weight vector, kept as a
//!   [`cem::PolicyArtifact`]).
//! * [`online`] — incremental window retraining for the scheduler's
//!   drift-aware online predictor service.
//! * [`runtime`] — variance-reduction regression tree predicting job run
//!   times from submit-time metadata (learned backfill estimates for
//!   trace replay).

pub mod adaboost;
pub mod cem;
pub mod cv;
pub mod dataset;
pub mod forest;
pub mod importance;
pub mod knn;
pub mod logistic;
pub mod metrics;
pub mod model;
pub mod online;
pub mod rfe;
pub mod runtime;
pub mod scale;
pub mod select;
pub mod tree;
pub mod tune;

pub use dataset::Dataset;
pub use metrics::{f1_binary, ConfusionMatrix};
pub use model::{Classifier, ModelKind, TrainedModel};
pub use runtime::{submit_features, RuntimeModel, RuntimeModelConfig};
