//! The end-to-end variability-predictor pipeline (Fig. 2, left column).
//!
//! `collect → label → select model → (optional RFE) → train 3-class final
//! model → export`. The model/feature selection stage works on *binary*
//! labels (Section IV-A); the exported model is retrained with the
//! three-class labels the scheduler consumes.

use crate::collect::{run_campaign, CampaignData};
use crate::config::CampaignConfig;
use crate::labels::{build_dataset, LabelScheme, NodeScope};
use rush_ml::model::{ModelKind, TrainedModel};
use rush_ml::rfe::{rfe, RfeConfig};
use rush_ml::select::{compare_models, select_best, ModelScore};
use rush_sched::metrics::RuntimeReference;
use rush_workloads::apps::AppId;
use rush_workloads::scaling::ScalingMode;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Pipeline parameters.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// Campaign to collect (or reuse — see [`Pipeline::run_on`]).
    pub campaign: CampaignConfig,
    /// Run recursive feature elimination after model selection.
    pub feature_selection: Option<RfeConfig>,
    /// Master seed for training.
    pub seed: u64,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline {
            campaign: CampaignConfig::default(),
            feature_selection: None,
            seed: 7,
        }
    }
}

/// Everything the pipeline produces.
pub struct PipelineOutput {
    /// The collected campaign.
    pub campaign: CampaignData,
    /// Fig.-3 scores, all-nodes aggregation scope.
    pub scores_all_nodes: Vec<ModelScore>,
    /// Fig.-3 scores, job-exclusive aggregation scope.
    pub scores_job_nodes: Vec<ModelScore>,
    /// The selected family (best job-scope F1).
    pub best_kind: ModelKind,
    /// RFE-selected feature columns (`None` when feature selection off).
    pub kept_features: Option<Vec<usize>>,
    /// The final three-class model (job-node scope, all campaign data).
    pub final_model: TrainedModel,
    /// The exported model document (the pickle stand-in; see
    /// [`crate::persist`]).
    pub exported: String,
    /// Per-application run-time reference for variation accounting.
    pub reference: RuntimeReference,
}

impl Pipeline {
    /// Collects a fresh campaign and runs the full pipeline.
    pub fn run(&self) -> PipelineOutput {
        let campaign = run_campaign(&self.campaign);
        self.run_on(campaign)
    }

    /// Runs the pipeline on an already-collected campaign.
    pub fn run_on(&self, campaign: CampaignData) -> PipelineOutput {
        // Model selection on binary labels, both aggregation scopes.
        let binary_all = build_dataset(&campaign, NodeScope::AllNodes, LabelScheme::Binary);
        let binary_job = build_dataset(&campaign, NodeScope::JobNodes, LabelScheme::Binary);
        let scores_all_nodes = compare_models(&binary_all, self.seed);
        let scores_job_nodes = compare_models(&binary_job, self.seed);
        let best_kind = select_best(&scores_job_nodes);

        // Optional recursive feature elimination (binary labels, job scope).
        let kept_features = self
            .feature_selection
            .as_ref()
            .map(|cfg| rfe(best_kind, &binary_job, cfg).kept);

        // Final three-class model on the full job-scope dataset.
        let final_model = train_final(
            &campaign,
            None,
            best_kind,
            kept_features.as_deref(),
            self.seed,
        );
        let exported = crate::persist::encode_model(&final_model);
        let reference = build_reference(&campaign);

        PipelineOutput {
            campaign,
            scores_all_nodes,
            scores_job_nodes,
            best_kind,
            kept_features,
            final_model,
            exported,
            reference,
        }
    }
}

/// What distinguishes one trained model from another: the campaign it was
/// trained on (by config fingerprint — `run_campaign` is deterministic),
/// the training-app restriction, the family, the label scheme, the seed.
type ModelKey = (u64, Option<Vec<u8>>, ModelKind, LabelScheme, u64);

/// A shared, thread-safe cache of trained models.
///
/// Experiment trials retrain the deployed predictor from the same campaign
/// with the same settings ([`crate::experiments::build_trial_engine`]); the
/// orchestrator runs many such artifacts concurrently. Cloning a
/// `ModelCache` shares the underlying store (`Arc`), so one training pass
/// serves every trial of every artifact in the process. Training is
/// deterministic, so a cache hit returns bit-identical models and the
/// artifact outputs don't change.
///
/// The lock is dropped during training: two threads missing the same key
/// at once both train (identical results) and the second insert wins —
/// wasted work, never wrong answers, and no lock held across a multi-second
/// train.
#[derive(Debug, Clone, Default)]
pub struct ModelCache {
    store: Arc<Mutex<HashMap<ModelKey, Arc<TrainedModel>>>>,
}

impl ModelCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct models currently cached.
    pub fn len(&self) -> usize {
        self.store.lock().unwrap().len()
    }

    /// True when nothing has been trained through this cache yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`train_final_with_scheme`], memoized.
    pub fn train_with_scheme(
        &self,
        campaign: &CampaignData,
        train_apps: Option<&[AppId]>,
        kind: ModelKind,
        scheme: LabelScheme,
        seed: u64,
    ) -> Arc<TrainedModel> {
        let apps_key = train_apps.map(|apps| {
            let mut v: Vec<u8> = apps.iter().map(|a| a.index() as u8).collect();
            v.sort_unstable();
            v
        });
        let key: ModelKey = (campaign.config.fingerprint(), apps_key, kind, scheme, seed);
        if let Some(model) = self.store.lock().unwrap().get(&key) {
            return Arc::clone(model);
        }
        let model = Arc::new(train_final_with_scheme(
            campaign, train_apps, kind, scheme, seed,
        ));
        self.store
            .lock()
            .unwrap()
            .entry(key)
            .or_insert(model)
            .clone()
    }
}

/// Trains the deployed three-class model, optionally restricted to the
/// campaign runs of `train_apps` (the PDPA experiment trains on four apps
/// only) and to an RFE-selected feature subset.
pub fn train_final(
    campaign: &CampaignData,
    train_apps: Option<&[AppId]>,
    kind: ModelKind,
    kept: Option<&[usize]>,
    seed: u64,
) -> TrainedModel {
    train_final_full(
        campaign,
        train_apps,
        kind,
        LabelScheme::ThreeClass,
        kept,
        seed,
    )
}

/// [`train_final`] with an explicit label scheme (the binary-vs-three-class
/// ablation).
pub fn train_final_with_scheme(
    campaign: &CampaignData,
    train_apps: Option<&[AppId]>,
    kind: ModelKind,
    scheme: LabelScheme,
    seed: u64,
) -> TrainedModel {
    train_final_full(campaign, train_apps, kind, scheme, None, seed)
}

fn train_final_full(
    campaign: &CampaignData,
    train_apps: Option<&[AppId]>,
    kind: ModelKind,
    scheme: LabelScheme,
    kept: Option<&[usize]>,
    seed: u64,
) -> TrainedModel {
    let _scope = rush_obs::profile::scope(rush_obs::ProfileScope::Train);
    let full = build_dataset(campaign, NodeScope::JobNodes, scheme);
    let restricted = match train_apps {
        Some(apps) => {
            let indices: Vec<usize> = full
                .groups
                .iter()
                .enumerate()
                .filter(|(_, &g)| apps.iter().any(|a| a.index() as u32 == g))
                .map(|(i, _)| i)
                .collect();
            assert!(
                !indices.is_empty(),
                "no campaign runs for the training apps"
            );
            full.subset(&indices)
        }
        None => full,
    };
    let selected = match kept {
        Some(cols) => restricted.select_features(cols),
        None => restricted,
    };
    kind.train(&selected, seed)
}

/// Builds the run-time reference from campaign statistics, extrapolated to
/// the 8/32-node classes of the WS/SS experiments by scaling with the
/// nominal run-time ratio.
pub fn build_reference(campaign: &CampaignData) -> RuntimeReference {
    let stats = campaign.runtime_stats();
    let mut reference = RuntimeReference::new();
    for app in AppId::ALL {
        let Some(&(mean16, std16)) = stats.get(&app) else {
            continue;
        };
        let base16 = app
            .descriptor()
            .base_runtime(16, ScalingMode::Reference)
            .as_secs_f64();
        for &nodes in &[8u32, 16, 32] {
            for scaling in [
                ScalingMode::Reference,
                ScalingMode::Weak,
                ScalingMode::Strong,
            ] {
                let base = app.descriptor().base_runtime(nodes, scaling).as_secs_f64();
                let ratio = base / base16;
                reference.insert(app, nodes, scaling, mean16 * ratio, std16 * ratio);
            }
        }
    }
    reference
}

#[cfg(test)]
mod tests {
    use super::*;
    use rush_ml::model::Classifier;

    fn small_pipeline() -> PipelineOutput {
        Pipeline {
            campaign: CampaignConfig::test_sized(),
            feature_selection: None,
            seed: 5,
        }
        .run()
    }

    #[test]
    fn pipeline_produces_all_artifacts() {
        let out = small_pipeline();
        assert_eq!(out.scores_all_nodes.len(), 4);
        assert_eq!(out.scores_job_nodes.len(), 4);
        assert!(!out.campaign.runs.is_empty());
        assert_eq!(out.final_model.n_features(), 282);
        assert!(out.final_model.n_classes() >= 2);
        assert!(out.exported.starts_with("{\"format\":\"rush-model/2\""));
        assert!(!out.reference.is_empty());
    }

    #[test]
    fn exported_model_round_trips() {
        let out = small_pipeline();
        let decoded = crate::persist::decode_model(&out.exported).expect("valid export");
        let row = vec![0.0; 282];
        assert_eq!(decoded.predict(&row), out.final_model.predict(&row));
    }

    #[test]
    fn reference_extrapolates_to_other_scales() {
        let out = small_pipeline();
        let r = &out.reference;
        use rush_workloads::apps::AppId;
        let (m16, _) = r.get(AppId::Laghos, 16, ScalingMode::Reference).unwrap();
        let (m32, _) = r.get(AppId::Laghos, 32, ScalingMode::Strong).unwrap();
        assert!(m32 < m16, "strong-scaled 32-node runs are faster");
        let (m8w, _) = r.get(AppId::Laghos, 8, ScalingMode::Weak).unwrap();
        assert!(m8w < m16, "weak-scaled 8-node runs are slightly faster");
    }

    #[test]
    fn train_final_restricts_apps() {
        let out = small_pipeline();
        // train only on laghos+lbann runs
        let model = train_final(
            &out.campaign,
            Some(&[
                rush_workloads::apps::AppId::Laghos,
                rush_workloads::apps::AppId::Lbann,
            ]),
            ModelKind::AdaBoost,
            None,
            1,
        );
        assert_eq!(model.n_features(), 282);
    }

    #[test]
    fn model_cache_trains_once_and_shares() {
        let campaign = run_campaign(&CampaignConfig::test_sized());
        let cache = ModelCache::new();
        let shared = cache.clone(); // clones share the store
        let a = cache.train_with_scheme(
            &campaign,
            None,
            ModelKind::AdaBoost,
            LabelScheme::ThreeClass,
            1,
        );
        let b = shared.train_with_scheme(
            &campaign,
            None,
            ModelKind::AdaBoost,
            LabelScheme::ThreeClass,
            1,
        );
        assert!(Arc::ptr_eq(&a, &b), "second call is a cache hit");
        assert_eq!(cache.len(), 1);
        // A cached model equals a fresh uncached train (determinism).
        let fresh = train_final_with_scheme(
            &campaign,
            None,
            ModelKind::AdaBoost,
            LabelScheme::ThreeClass,
            1,
        );
        assert_eq!(*a, fresh);
        // Different key → different entry.
        let c = cache.train_with_scheme(
            &campaign,
            None,
            ModelKind::AdaBoost,
            LabelScheme::ThreeClass,
            2,
        );
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    #[should_panic(expected = "no campaign runs")]
    fn train_final_rejects_absent_apps() {
        let out = small_pipeline();
        // kripke is not in the test-sized campaign
        train_final(
            &out.campaign,
            Some(&[rush_workloads::apps::AppId::Kripke]),
            ModelKind::AdaBoost,
            None,
            1,
        );
    }
}
