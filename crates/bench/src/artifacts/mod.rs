//! One render function per table/figure of the paper.
//!
//! Each artifact is a `render(&ArtifactCtx) -> String` function. The
//! `run_all` orchestrator executes them as a dependency DAG
//! ([`rush_core::campaign`]) and writes each result to `results/`;
//! `run_all --only NAME` regenerates a single one.
//!
//! [`ArtifactCtx`] carries the shared expensive state: the campaign is
//! materialized once (`OnceLock`) and handed out as an `Arc`, and one
//! [`ModelCache`] serves every artifact's trials, so concurrent artifacts
//! reuse a single training pass instead of each retraining the same model.
//! Rendering is deterministic: identical arguments give byte-identical
//! text.
//!
//! [`ALL`] is the registry: name, output file, DAG dependencies and render
//! function for each artifact, in `run_all.sh`'s historical order.

use crate::cache::campaign_cached_in;
use crate::cli::HarnessArgs;
use rush_core::collect::CampaignData;
use rush_core::experiments::ExperimentSettings;
use rush_core::pipeline::ModelCache;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// Appends a line to a `String` buffer (the `println!` of render
/// functions; writing to a `String` cannot fail).
macro_rules! outln {
    ($out:expr) => {{
        use std::fmt::Write as _;
        let _ = writeln!($out);
    }};
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($out, $($arg)*);
    }};
}

pub mod ablation_backfill;
pub mod ablation_labels;
pub mod ablation_placement;
pub mod ablation_policy;
pub mod ablation_skip_threshold;
pub mod ablation_window;
pub mod fig01_variability_timeline;
pub mod fig02_pipeline;
pub mod fig03_model_f1;
pub mod fig04_adpa_pdpa;
pub mod fig05_adaa_variation;
pub mod fig06_adaa_runtimes;
pub mod fig07_pdpa_runtimes;
pub mod fig08_weak_scaling;
pub mod fig09_strong_scaling;
pub mod fig10_makespan;
pub mod fig11_wait_times;
pub mod online_accuracy;
pub mod pipeline_rfe;
pub mod policy_headtohead;
pub mod table1_dataset;
pub mod table2_experiments;

/// Shared state every artifact renders against.
///
/// Cheap to construct; the campaign is only collected (or loaded from the
/// disk cache) on first use, and trained models are memoized across all
/// artifacts that share the context.
pub struct ArtifactCtx {
    args: HarnessArgs,
    cache_dir: PathBuf,
    campaign: OnceLock<Arc<CampaignData>>,
    model_cache: ModelCache,
}

impl ArtifactCtx {
    /// A context over the default campaign cache directory.
    pub fn new(args: HarnessArgs) -> Self {
        Self::with_cache_dir(args, crate::cache::default_cache_dir())
    }

    /// A context with an explicit campaign cache directory (tests).
    pub fn with_cache_dir(args: HarnessArgs, cache_dir: PathBuf) -> Self {
        ArtifactCtx {
            args,
            cache_dir,
            campaign: OnceLock::new(),
            model_cache: ModelCache::new(),
        }
    }

    /// The harness arguments.
    pub fn args(&self) -> &HarnessArgs {
        &self.args
    }

    /// The campaign cache directory.
    pub fn cache_dir(&self) -> &PathBuf {
        &self.cache_dir
    }

    /// The campaign, materialized once per context (disk cache → collect)
    /// and shared by reference after that.
    pub fn campaign(&self) -> Arc<CampaignData> {
        Arc::clone(self.campaign.get_or_init(|| {
            Arc::new(campaign_cached_in(
                &self.cache_dir,
                &self.args.campaign_config(),
                self.args.no_cache,
            ))
        }))
    }

    /// The shared trained-model cache.
    pub fn model_cache(&self) -> &ModelCache {
        &self.model_cache
    }

    /// Experiment settings under these arguments, wired to the shared
    /// model cache.
    pub fn settings(&self) -> ExperimentSettings {
        ExperimentSettings {
            trials: self.args.trials,
            job_count_override: self.args.jobs,
            model_cache: self.model_cache.clone(),
            ..ExperimentSettings::default()
        }
    }
}

/// Names of the orchestrator's resource nodes (built by `run_all`, not
/// part of [`ALL`]): the materialized campaign and the two pre-trained
/// models.
pub const CAMPAIGN_NODE: &str = "campaign_data";
/// The default deployed model (all apps, AdaBoost, three-class).
pub const MODEL_DEFAULT_NODE: &str = "model_default";
/// The PDPA model (trained on the four held-out applications).
pub const MODEL_PDPA_NODE: &str = "model_pdpa";

/// One artifact's registry row.
#[derive(Clone, Copy)]
pub struct ArtifactDef {
    /// Node/binary name (`fig05_adaa_variation`).
    pub name: &'static str,
    /// Output file under `results/` (`fig05.txt`).
    pub output: &'static str,
    /// Direct DAG dependencies (resource-node names).
    pub deps: &'static [&'static str],
    /// The render function.
    pub render: fn(&ArtifactCtx) -> String,
}

/// Every artifact, in `run_all.sh`'s historical order.
pub const ALL: &[ArtifactDef] = &[
    ArtifactDef {
        name: "table1_dataset",
        output: "table1.txt",
        deps: &[CAMPAIGN_NODE],
        render: table1_dataset::render,
    },
    ArtifactDef {
        name: "table2_experiments",
        output: "table2.txt",
        deps: &[],
        render: table2_experiments::render,
    },
    ArtifactDef {
        name: "fig01_variability_timeline",
        output: "fig01.txt",
        deps: &[CAMPAIGN_NODE],
        render: fig01_variability_timeline::render,
    },
    ArtifactDef {
        name: "fig02_pipeline",
        output: "fig02.txt",
        deps: &[],
        render: fig02_pipeline::render,
    },
    ArtifactDef {
        name: "fig03_model_f1",
        output: "fig03.txt",
        deps: &[CAMPAIGN_NODE],
        render: fig03_model_f1::render,
    },
    ArtifactDef {
        name: "fig04_adpa_pdpa",
        output: "fig04.txt",
        deps: &[MODEL_DEFAULT_NODE, MODEL_PDPA_NODE],
        render: fig04_adpa_pdpa::render,
    },
    ArtifactDef {
        name: "fig05_adaa_variation",
        output: "fig05.txt",
        deps: &[MODEL_DEFAULT_NODE],
        render: fig05_adaa_variation::render,
    },
    ArtifactDef {
        name: "fig06_adaa_runtimes",
        output: "fig06.txt",
        deps: &[MODEL_DEFAULT_NODE],
        render: fig06_adaa_runtimes::render,
    },
    ArtifactDef {
        name: "fig07_pdpa_runtimes",
        output: "fig07.txt",
        deps: &[MODEL_PDPA_NODE],
        render: fig07_pdpa_runtimes::render,
    },
    ArtifactDef {
        name: "fig08_weak_scaling",
        output: "fig08.txt",
        deps: &[MODEL_DEFAULT_NODE],
        render: fig08_weak_scaling::render,
    },
    ArtifactDef {
        name: "fig09_strong_scaling",
        output: "fig09.txt",
        deps: &[MODEL_DEFAULT_NODE],
        render: fig09_strong_scaling::render,
    },
    ArtifactDef {
        name: "fig10_makespan",
        output: "fig10.txt",
        deps: &[MODEL_DEFAULT_NODE, MODEL_PDPA_NODE],
        render: fig10_makespan::render,
    },
    ArtifactDef {
        name: "fig11_wait_times",
        output: "fig11.txt",
        deps: &[MODEL_DEFAULT_NODE],
        render: fig11_wait_times::render,
    },
    ArtifactDef {
        name: "pipeline_rfe",
        output: "rfe.txt",
        deps: &[CAMPAIGN_NODE],
        render: pipeline_rfe::render,
    },
    ArtifactDef {
        name: "ablation_skip_threshold",
        output: "ablation_skip.txt",
        deps: &[MODEL_DEFAULT_NODE],
        render: ablation_skip_threshold::render,
    },
    ArtifactDef {
        name: "ablation_window",
        output: "ablation_window.txt",
        deps: &[MODEL_DEFAULT_NODE],
        render: ablation_window::render,
    },
    ArtifactDef {
        name: "ablation_policy",
        output: "ablation_policy.txt",
        deps: &[MODEL_DEFAULT_NODE],
        render: ablation_policy::render,
    },
    ArtifactDef {
        name: "ablation_labels",
        output: "ablation_labels.txt",
        deps: &[MODEL_DEFAULT_NODE],
        render: ablation_labels::render,
    },
    ArtifactDef {
        name: "ablation_placement",
        output: "ablation_placement.txt",
        deps: &[MODEL_DEFAULT_NODE],
        render: ablation_placement::render,
    },
    ArtifactDef {
        name: "ablation_backfill",
        output: "ablation_backfill.txt",
        deps: &[MODEL_DEFAULT_NODE],
        render: ablation_backfill::render,
    },
    ArtifactDef {
        name: "online_accuracy",
        output: "online_accuracy.txt",
        deps: &[MODEL_DEFAULT_NODE],
        render: online_accuracy::render,
    },
    ArtifactDef {
        name: "policy_headtohead",
        output: "policy_headtohead.txt",
        deps: &[],
        render: policy_headtohead::render,
    },
];

/// Looks up an artifact by name.
pub fn find(name: &str) -> Option<&'static ArtifactDef> {
    ALL.iter().find(|a| a.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_artifact_uniquely() {
        assert_eq!(ALL.len(), 22);
        let mut names: Vec<&str> = ALL.iter().map(|a| a.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 22, "duplicate artifact names");
        let mut outputs: Vec<&str> = ALL.iter().map(|a| a.output).collect();
        outputs.sort_unstable();
        outputs.dedup();
        assert_eq!(outputs.len(), 22, "duplicate output files");
        assert!(find("fig05_adaa_variation").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn deps_reference_known_resource_nodes() {
        for a in ALL {
            for d in a.deps {
                assert!(
                    [CAMPAIGN_NODE, MODEL_DEFAULT_NODE, MODEL_PDPA_NODE].contains(d),
                    "{} depends on unknown node {d}",
                    a.name
                );
            }
        }
    }

    #[test]
    fn cheap_artifacts_render_without_a_campaign() {
        // fig02/table2 must not touch the campaign: they are the CI smoke
        // artifacts and have no DAG dependencies.
        let ctx = ArtifactCtx::new(HarnessArgs::default());
        let fig02 = fig02_pipeline::render(&ctx);
        assert!(fig02.contains("282"));
        assert!(fig02.contains("all shapes match the paper."));
        let table2 = table2_experiments::render(&ctx);
        assert!(table2.contains("ADAA"));
        assert!(table2.contains("csv:"));
        assert!(ctx.campaign.get().is_none(), "campaign was materialized");
    }
}
