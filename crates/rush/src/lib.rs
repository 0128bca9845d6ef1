//! # rush-core
//!
//! The paper's end-to-end pipeline (Fig. 2), assembled from the workspace
//! substrates:
//!
//! 1. **Collect** ([`collect`]) — the longitudinal control-job campaign:
//!    proxy applications run 2–3×/day on the simulated cluster; around each
//!    run we record the 5-minute pre-job counter window (aggregated over
//!    all monitored nodes *and* over the job-exclusive nodes), the MPI
//!    probe timings, and the observed run time.
//! 2. **Label** ([`labels`]) — per-application z-scores of run time define
//!    the binary (1.5 σ) and three-class (1.2 σ / 1.5 σ) variability
//!    labels of Section IV-A.
//! 3. **Model** ([`pipeline`]) — build the Table-I dataset, compare the
//!    four classifier families by leave-one-application-out F1 (Fig. 3),
//!    optionally run recursive feature elimination, and export the final
//!    three-class model.
//! 4. **Schedule** ([`predictor`], [`experiments`]) — the exported model
//!    drives the RUSH `Start()` decision inside the scheduler; the
//!    Table-II experiments (ADAA, ADPA, PDPA, WS, SS) compare RUSH against
//!    FCFS+EASY over repeated trials.
//!
//! [`report`] renders the figures' data as text tables for the bench
//! harness; [`config`] holds the paper-matching defaults; [`checkpoint`]
//! manages the on-disk engine snapshots behind crash-safe long campaigns
//! (atomic writes, retention, corruption fallback); [`campaign`] is the
//! artifact orchestrator that regenerates every table/figure of the
//! evaluation as a parallel, resumable DAG run; [`args`] is the strict
//! command-line reader of the `rush` and `run_all` binaries.

pub mod args;
pub mod campaign;
pub mod checkpoint;
pub mod collect;
pub mod config;
pub mod experiments;
pub mod labels;
pub mod persist;
pub mod pipeline;
pub mod predictor;
pub mod replay;
pub mod report;

pub use campaign::{ArtifactNode, Dag, Manifest, NodeStatus, RunOptions, RunReport};
pub use checkpoint::CheckpointManager;
pub use collect::{run_campaign, CampaignData, ControlRun};
pub use config::CampaignConfig;
pub use experiments::{Experiment, ExperimentComparison, PolicyKind};
pub use labels::LabelScheme;
pub use pipeline::{ModelCache, Pipeline, PipelineOutput};
pub use predictor::MlPredictor;
pub use replay::{EstimatesMode, ReplaySettings, ReplaySummary};
