//! End-to-end integration: campaign → dataset → model selection → export →
//! ML-gated scheduling, across every crate in the workspace.

use rush_repro::core::collect::{run_campaign, CampaignData};
use rush_repro::core::config::CampaignConfig;
use rush_repro::core::experiments::{run_comparison, Experiment, ExperimentSettings, PolicyKind};
use rush_repro::core::labels::{build_dataset, LabelScheme, NodeScope};
use rush_repro::core::pipeline::{build_reference, Pipeline};
use rush_repro::ml::model::{Classifier, ModelKind};
use std::sync::OnceLock;

/// One shared small campaign for the whole test binary (collection is the
/// slow step in debug builds).
fn campaign() -> &'static CampaignData {
    static CAMPAIGN: OnceLock<CampaignData> = OnceLock::new();
    CAMPAIGN.get_or_init(|| run_campaign(&CampaignConfig::test_sized()))
}

#[test]
fn campaign_feeds_a_valid_table_one_dataset() {
    let campaign = campaign();
    let ds = build_dataset(campaign, NodeScope::JobNodes, LabelScheme::ThreeClass);
    assert_eq!(ds.n_features(), 282);
    assert_eq!(ds.len(), campaign.runs.len());
    ds.validate().expect("dataset is internally consistent");
    // all three one-hot groups appear
    assert!(ds.group_ids().len() >= 2);
}

#[test]
fn pipeline_exports_a_usable_model() {
    let out = Pipeline {
        campaign: CampaignConfig::test_sized(),
        feature_selection: None,
        seed: 3,
    }
    .run_on(campaign().clone());

    // The export is parseable and predicts identically.
    let decoded = rush_repro::core::persist::decode_model(&out.exported).expect("export decodes");
    let ds = build_dataset(&out.campaign, NodeScope::JobNodes, LabelScheme::ThreeClass);
    for row in ds.features.iter().take(20) {
        assert_eq!(decoded.predict(row), out.final_model.predict(row));
    }
    // Fig.-3 scores exist for all four families under both scopes.
    assert_eq!(out.scores_all_nodes.len(), 4);
    assert_eq!(out.scores_job_nodes.len(), 4);
    for score in out.scores_all_nodes.iter().chain(&out.scores_job_nodes) {
        assert!((0.0..=1.0).contains(&score.mean_f1()));
    }
}

#[test]
fn reference_covers_every_campaign_app_and_scale() {
    let reference = build_reference(campaign());
    for app in &campaign().config.apps {
        for nodes in [8, 16, 32] {
            for scaling in [
                rush_repro::workloads::scaling::ScalingMode::Reference,
                rush_repro::workloads::scaling::ScalingMode::Weak,
                rush_repro::workloads::scaling::ScalingMode::Strong,
            ] {
                let (mean, std) = reference
                    .get(*app, nodes, scaling)
                    .unwrap_or_else(|| panic!("missing reference for {app}/{nodes}/{scaling:?}"));
                assert!(mean > 0.0 && std >= 0.0);
            }
        }
    }
}

#[test]
fn experiment_comparison_completes_all_jobs_under_both_policies() {
    let settings = ExperimentSettings {
        trials: 1,
        base_seed: 11,
        job_count_override: Some(10),
        model_kind: ModelKind::DecisionForest,
        ..ExperimentSettings::default()
    };
    // ADPA uses only 3 apps; the test campaign covers them partially, and
    // unknown reference classes count as variation rather than crashing.
    let comparison = run_comparison(Experiment::Adpa, campaign(), &settings);
    for outcome in comparison.fcfs.iter().chain(&comparison.rush) {
        let total: usize = outcome.metrics.per_app.iter().map(|a| a.count).sum();
        assert_eq!(total, 10, "every job must complete");
        assert!(outcome.metrics.makespan_secs > 0.0);
        assert!(outcome.metrics.mean_wait_secs >= 0.0);
    }
    assert_eq!(comparison.fcfs[0].total_skips, 0, "baseline never delays");
    assert_eq!(comparison.experiment, Experiment::Adpa);
    let _ = PolicyKind::Rush.label();
}

#[test]
fn scheme_thresholds_match_the_paper() {
    // Binary: 1.5 sigma; three-class: 1.2 / 1.5 (Section IV-A).
    assert_eq!(LabelScheme::Binary.label(1.49), 0);
    assert_eq!(LabelScheme::Binary.label(1.51), 1);
    assert_eq!(LabelScheme::ThreeClass.label(1.3), 1);
    assert_eq!(LabelScheme::ThreeClass.label(1.6), 2);
}
