//! Wires the artifact registry into an executable campaign DAG.
//!
//! The `run_all` binary is a thin CLI over two functions here:
//! [`build_dag`] turns [`crate::artifacts::ALL`] plus the three shared
//! resource nodes (campaign dataset, default model, PDPA model) into a
//! [`rush_core::campaign::Dag`], and [`run_fingerprint`] computes the
//! configuration fingerprint recorded in `results/manifest.json` that
//! decides whether a previous run's artifacts can be skipped. Living in
//! the library keeps the full orchestration path under integration test
//! (`tests/orchestrator.rs`) without shelling out to the binary.

use crate::artifacts::{self, ArtifactCtx};
use crate::cache;
use crate::cli::HarnessArgs;
use rush_core::campaign::{ArtifactNode, Dag};
use rush_core::experiments::ExperimentSettings;
use rush_simkit::snapshot::{fingerprint_str, Val};
use rush_workloads::apps::AppId;
use std::sync::Arc;

/// Fingerprint of everything that shapes artifact content: the canonical
/// campaign config plus the experiment-scale knobs.
pub fn run_fingerprint(args: &HarnessArgs) -> u64 {
    let jobs = match args.jobs {
        Some(n) => Val::List(vec![Val::U64(n as u64)]),
        None => Val::List(vec![]),
    };
    let val = Val::map()
        .with("config", args.campaign_config().to_val())
        .with("trials", Val::U64(args.trials as u64))
        .with("jobs", jobs)
        .with("seed", Val::U64(args.seed));
    fingerprint_str(&val.render())
}

/// Version fingerprint of the deployed predictor model: everything that
/// decides which classifier the scheduler consults. Stamped on the model
/// resource nodes and every artifact downstream of one, and recorded per
/// entry in `results/manifest.json`, so reruns after the deployed model
/// changes — a different family, label scheme, training seed, or an
/// online-service configuration whose hot-swaps alter decisions —
/// invalidate those artifacts even when the campaign fingerprint alone
/// matches.
pub fn predictor_model_version(settings: &ExperimentSettings) -> u64 {
    let val = Val::map()
        .with("kind", Val::Str(format!("{:?}", settings.model_kind)))
        .with("scheme", Val::Str(format!("{:?}", settings.label_scheme)))
        .with("seed", Val::U64(settings.base_seed))
        .with("service", Val::Str(format!("{:?}", settings.service)));
    fingerprint_str(&val.render())
}

/// Builds the full artifact DAG over a shared context.
pub fn build_dag(ctx: &Arc<ArtifactCtx>) -> Dag {
    let mut nodes = Vec::new();

    // Resource layer: the campaign, then the two deployed models. These
    // carry no output file — they exist to materialize shared state early
    // and to sequence everything downstream.
    {
        let ctx = Arc::clone(ctx);
        let cache_file = cache::cache_path(ctx.cache_dir(), &ctx.args().campaign_config());
        nodes.push(
            ArtifactNode::resource(artifacts::CAMPAIGN_NODE, &[], move || {
                ctx.campaign();
                Ok(())
            })
            // Skipping is only sound while the disk cache the dependents
            // will lazily load from exists and this build would load it: a
            // file another build wrote is recollected, so the campaign and
            // everything downstream of it must run again.
            .with_check(move || cache::written_by_this_build(&cache_file)),
        );
    }
    let defaults = ExperimentSettings::default();
    let model_version = predictor_model_version(&defaults);
    for (name, train_apps) in [
        (artifacts::MODEL_DEFAULT_NODE, None),
        (
            artifacts::MODEL_PDPA_NODE,
            Some(AppId::PARTIAL_TRAIN.to_vec()),
        ),
    ] {
        let ctx = Arc::clone(ctx);
        let (kind, scheme, seed) = (
            defaults.model_kind,
            defaults.label_scheme,
            defaults.base_seed,
        );
        nodes.push(
            ArtifactNode::resource(name, &[artifacts::CAMPAIGN_NODE], move || {
                ctx.model_cache().train_with_scheme(
                    &ctx.campaign(),
                    train_apps.as_deref(),
                    kind,
                    scheme,
                    seed,
                );
                Ok(())
            })
            .with_model_version(model_version),
        );
    }

    // Artifact layer: one node per table/figure. Nodes downstream of a
    // trained model carry its version fingerprint for provenance.
    for def in artifacts::ALL {
        let ctx = Arc::clone(ctx);
        let render = def.render;
        let uses_model = def
            .deps
            .iter()
            .any(|d| *d == artifacts::MODEL_DEFAULT_NODE || *d == artifacts::MODEL_PDPA_NODE);
        nodes.push(
            ArtifactNode::artifact(def.name, def.output, def.deps, move || Ok(render(&ctx)))
                .with_model_version(if uses_model { model_version } else { 0 }),
        );
    }
    Dag::new(nodes).expect("artifact registry forms a valid DAG")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dag_contains_every_artifact_and_resource() {
        let ctx = Arc::new(ArtifactCtx::new(HarnessArgs::default()));
        let dag = build_dag(&ctx);
        assert_eq!(dag.nodes().len(), artifacts::ALL.len() + 3);
        for def in artifacts::ALL {
            assert!(dag.index_of(def.name).is_some(), "missing {}", def.name);
        }
    }

    /// Regression: after a rebuild, `run_all` without `--force` skipped
    /// the campaign (and everything downstream) because a cache file
    /// existed, though this build would not load it.
    #[test]
    fn campaign_cached_by_another_build_is_not_skippable() {
        let dir = std::env::temp_dir().join(format!("rush-orch-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = Arc::new(ArtifactCtx::with_cache_dir(
            HarnessArgs::default(),
            dir.clone(),
        ));
        let dag = build_dag(&ctx);
        let node = &dag.nodes()[dag.index_of(artifacts::CAMPAIGN_NODE).unwrap()];
        let check = node
            .check
            .as_ref()
            .expect("the campaign node checks its cache");
        assert!(!check(), "no cache file yet");
        let path = cache::cache_path(&dir, &ctx.args().campaign_config());
        std::fs::create_dir_all(&dir).unwrap();
        let build = cache::build_id().unwrap();
        std::fs::write(&path, format!("{}\n", cache::build_line(build ^ 1))).unwrap();
        assert!(
            !check(),
            "a file from another build must not be skipped over"
        );
        std::fs::write(&path, format!("{}\n", cache::build_line(build))).unwrap();
        assert!(check(), "this build's file lets the node skip");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn model_version_tracks_predictor_configuration() {
        let base = ExperimentSettings::default();
        assert_eq!(
            predictor_model_version(&base),
            predictor_model_version(&ExperimentSettings::default())
        );
        let reseeded = ExperimentSettings {
            base_seed: base.base_seed + 1,
            ..ExperimentSettings::default()
        };
        assert_ne!(
            predictor_model_version(&base),
            predictor_model_version(&reseeded)
        );
        let online = ExperimentSettings {
            service: rush_sched::service::ServiceConfig {
                retrain_every: rush_simkit::time::SimDuration::from_secs(600),
                ..rush_sched::service::ServiceConfig::default()
            },
            ..ExperimentSettings::default()
        };
        assert_ne!(
            predictor_model_version(&base),
            predictor_model_version(&online),
            "enabling the online service changes the deployed-model version"
        );
    }

    #[test]
    fn model_dependent_nodes_carry_the_version() {
        let ctx = Arc::new(ArtifactCtx::new(HarnessArgs::default()));
        let dag = build_dag(&ctx);
        let version = predictor_model_version(&ExperimentSettings::default());
        let mut tagged = 0;
        for node in dag.nodes() {
            let uses_model = node.name.starts_with("model_")
                || node
                    .deps
                    .iter()
                    .any(|d| d == artifacts::MODEL_DEFAULT_NODE || d == artifacts::MODEL_PDPA_NODE);
            assert_eq!(
                node.model_version,
                if uses_model { version } else { 0 },
                "node {}",
                node.name
            );
            tagged += u32::from(uses_model);
        }
        assert!(tagged > 2, "model nodes plus downstream artifacts tagged");
    }

    #[test]
    fn fingerprint_tracks_scale_knobs() {
        let base = HarnessArgs::default();
        let quick = HarnessArgs {
            days: 8,
            trials: 1,
            jobs: Some(24),
            ..base.clone()
        };
        assert_ne!(run_fingerprint(&base), run_fingerprint(&quick));
        assert_eq!(run_fingerprint(&base), run_fingerprint(&base.clone()));
    }
}
