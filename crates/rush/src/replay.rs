//! Streaming trace replay: archive traces (or synthesized streams tiled
//! from them) through the scheduler engine in bounded memory.
//!
//! This is the driver behind `rush replay`. It composes the pieces the
//! library crates expose — lenient SWF ingest ([`rush_workloads::swf`]),
//! trace synthesis ([`rush_workloads::synth`]), the reorder window and
//! streaming engine seeding ([`rush_sched::source`]) and the learned
//! run-time estimator ([`rush_ml::runtime`]) — into end-to-end replays
//! whose peak memory scales with the *live* job population, not the trace
//! length. Per-job result vectors are folded into [`ReplayStats`]
//! aggregates, so a million-job replay reports utilization and bounded
//! slowdown without ever materializing a million `CompletedJob`s.
//!
//! The interesting experiment is the estimate source: backfill planned
//! with the trace's own user estimates (SWF field 9) versus estimates
//! predicted by a regression tree trained on submit-time metadata from the
//! head of the same trace. [`compare_estimates`] runs both (plus the
//! global-factor baseline) over identical streams and reports the deltas.

use rush_cluster::machine::{Machine, MachineConfig};
use rush_ml::runtime::{submit_features, RuntimeModel, RuntimeModelConfig};
use rush_sched::engine::{ReplayStats, ScheduleResult, SchedulerConfig, SchedulerEngine};
use rush_sched::job::EstimateSource;
use rush_sched::predictor::NeverVaries;
use rush_sched::source::{IterSource, JobSource, ReorderWindow};
use rush_simkit::time::SimDuration;
use rush_workloads::jobgen::JobRequest;
use rush_workloads::swf::{self, SwfJob};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A boxed, sendable trace stream (the engine's source must be `Send`).
pub type JobStream = Box<dyn Iterator<Item = SwfJob> + Send>;

/// Where replayed backfill estimates come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatesMode {
    /// Global over-estimation factor (the paper's model).
    Factor,
    /// The trace's own per-job user estimates (SWF field 9).
    User,
    /// Regression-tree predictions from submit-time metadata.
    Learned,
}

impl EstimatesMode {
    /// CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            EstimatesMode::Factor => "factor",
            EstimatesMode::User => "user",
            EstimatesMode::Learned => "learned",
        }
    }
}

/// Replay parameters shared by every estimate mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplaySettings {
    /// Engine + machine seed.
    pub seed: u64,
    /// Global over-estimation factor (also the fallback for jobs without
    /// a per-job estimate).
    pub est_factor: f64,
    /// Cores per node when mapping SWF processor counts to nodes.
    pub cores_per_node: u32,
    /// Node-count ceiling for the conversion. Jobs above the *machine's*
    /// size are rejected at submit time and counted, not panicked on.
    pub max_nodes: u32,
    /// Out-of-order tolerance for trace submit times.
    pub reorder_window: SimDuration,
    /// Kept jobs from the head of the stream used to fit the learned
    /// estimator (training jobs still replay like any other).
    pub train_jobs: usize,
    /// Fold per-job completion records into aggregates (bounded memory).
    /// Leave false when the caller needs `ScheduleResult::completed`.
    pub fold: bool,
}

impl Default for ReplaySettings {
    fn default() -> Self {
        ReplaySettings {
            seed: 7,
            est_factor: 1.5,
            cores_per_node: 36,
            max_nodes: 4096,
            reorder_window: SimDuration::from_mins(10),
            train_jobs: 5_000,
            fold: true,
        }
    }
}

/// One replayed stream, reduced to the numbers the report prints.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaySummary {
    /// Which estimate source drove backfill.
    pub mode: EstimatesMode,
    /// Folded per-job aggregates.
    pub stats: ReplayStats,
    /// Machine utilization over the makespan.
    pub utilization: f64,
    /// Makespan, seconds.
    pub makespan_secs: f64,
    /// Largest queue observed (a proxy for peak live-job memory).
    pub max_queue_len: usize,
    /// Trace jobs whose submit order violated the reorder window and were
    /// clamped to the release floor.
    pub clamped_submits: u64,
    /// Jobs dropped at conversion for carrying no run time at all.
    pub dropped_no_runtime: u64,
    /// In-sample MAE of the learned estimator, seconds (learned mode).
    pub model_mae_secs: Option<f64>,
}

/// Nodes in the replay machine (the experiment pod).
pub const REPLAY_MACHINE_NODES: usize = 512;

/// The experiment-pod machine and a replay-tuned scheduler: sampling and
/// prediction idled (replay measures backfill quality, not the RUSH
/// policy), EASY backfill, FCFS order.
fn replay_engine(settings: &ReplaySettings, estimates: EstimateSource) -> SchedulerEngine {
    let machine = Machine::new(MachineConfig::experiment_pod(settings.seed));
    let mut engine = SchedulerEngine::new(
        machine,
        SchedulerConfig {
            skip_threshold: 0,
            est_factor: settings.est_factor,
            estimates,
            // The replay baseline never consults the predictor; idle the
            // counter sampling and widen the telemetry-quality gate so an
            // arbitrarily long replay never pays for either.
            sampling_interval: SimDuration::from_days(365),
            predictor_window: SimDuration::from_days(365),
            retention: SimDuration::from_days(400),
            ..SchedulerConfig::default()
        },
        Box::new(NeverVaries),
        settings.seed,
    );
    if settings.fold {
        engine = engine.with_completion_folding();
    }
    engine
}

/// Fits the run-time estimator on up to `train_jobs` kept jobs from the
/// head of a trace. Returns the model and its in-sample MAE in seconds.
/// `None` when the sample holds no labelled jobs.
pub fn train_estimator(
    sample: impl Iterator<Item = SwfJob>,
    train_jobs: usize,
) -> Option<(RuntimeModel, f64)> {
    let mut rows = Vec::new();
    let mut y = Vec::new();
    for job in sample.take(train_jobs) {
        let Some(runtime) = job.runtime_secs else {
            continue;
        };
        if runtime <= 0.0 {
            continue;
        }
        rows.push(submit_features(
            job.processors,
            job.req_time_secs,
            job.req_mem_kb,
            job.submit_secs,
        ));
        y.push(runtime);
    }
    if rows.is_empty() {
        return None;
    }
    let model = RuntimeModel::fit(&rows, &y, RuntimeModelConfig::default());
    let mae = model.mae_secs(&rows, &y);
    Some((model, mae))
}

/// A [`JobSource`] adapter publishing its inner reorder window's clamp
/// count through a shared counter — the engine consumes the source, so the
/// caller reads accounting from the counter after the run.
struct TappedWindow<I: Iterator<Item = JobRequest>> {
    inner: ReorderWindow<I>,
    clamped: Arc<AtomicU64>,
}

impl<I: Iterator<Item = JobRequest> + Send> JobSource for TappedWindow<I> {
    fn next_request(&mut self) -> Option<JobRequest> {
        let req = self.inner.next_request();
        self.clamped.store(self.inner.clamped(), Ordering::Relaxed);
        req
    }

    fn total_hint(&self) -> Option<u64> {
        self.inner.total_hint()
    }
}

/// An iterator adapter counting items that pass through it.
struct Counted<I> {
    inner: I,
    seen: Arc<AtomicU64>,
}

impl<I: Iterator> Iterator for Counted<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let item = self.inner.next();
        if item.is_some() {
            self.seen.fetch_add(1, Ordering::Relaxed);
        }
        item
    }
}

/// Replays one `SwfJob` stream under one estimate mode. In
/// [`EstimatesMode::Learned`] the provided model's prediction replaces the
/// user estimate on every job before conversion, so the engine plans
/// reservations with it verbatim.
pub fn replay_stream(
    jobs: JobStream,
    settings: &ReplaySettings,
    mode: EstimatesMode,
    model: Option<&RuntimeModel>,
) -> (ReplaySummary, ScheduleResult) {
    let estimates = match mode {
        EstimatesMode::Factor => EstimateSource::Factor,
        EstimatesMode::User | EstimatesMode::Learned => EstimateSource::Request,
    };
    let predicted: JobStream = match (mode, model) {
        (EstimatesMode::Learned, Some(m)) => {
            let m = m.clone();
            Box::new(jobs.map(move |job| SwfJob {
                req_time_secs: Some(m.predict_secs(&submit_features(
                    job.processors,
                    job.req_time_secs,
                    job.req_mem_kb,
                    job.submit_secs,
                ))),
                ..job
            }))
        }
        _ => jobs,
    };

    let jobs_in = Arc::new(AtomicU64::new(0));
    let requests_out = Arc::new(AtomicU64::new(0));
    let clamped = Arc::new(AtomicU64::new(0));
    let counted_jobs = Counted {
        inner: predicted,
        seen: Arc::clone(&jobs_in),
    };
    let requests = Counted {
        inner: swf::request_stream(counted_jobs, settings.cores_per_node, settings.max_nodes),
        seen: Arc::clone(&requests_out),
    };
    let source = TappedWindow {
        inner: ReorderWindow::new(requests, settings.reorder_window),
        clamped: Arc::clone(&clamped),
    };

    let mut engine = replay_engine(settings, estimates);
    let result = engine.run_streaming(Box::new(source));

    let stats = result.replay;
    let summary = ReplaySummary {
        mode,
        stats,
        utilization: stats.utilization(REPLAY_MACHINE_NODES, result.makespan()),
        makespan_secs: result.makespan().as_secs_f64(),
        max_queue_len: result.max_queue_len,
        clamped_submits: clamped.load(Ordering::Relaxed),
        dropped_no_runtime: jobs_in.load(Ordering::Relaxed) - requests_out.load(Ordering::Relaxed),
        model_mae_secs: None,
    };
    (summary, result)
}

/// Runs the chosen estimate modes over identical streams. `make_stream`
/// is called once per replayed mode (plus once for training when
/// [`EstimatesMode::Learned`] is among them) — reopening a file or
/// re-tiling a synthesis is cheap; holding a materialized trace is not.
pub fn compare_estimates(
    mut make_stream: impl FnMut() -> JobStream,
    settings: &ReplaySettings,
    modes: &[EstimatesMode],
) -> Vec<ReplaySummary> {
    let trained = if modes.contains(&EstimatesMode::Learned) {
        train_estimator(make_stream(), settings.train_jobs)
    } else {
        None
    };
    modes
        .iter()
        .map(|&mode| {
            let model = match mode {
                EstimatesMode::Learned => trained.as_ref().map(|(m, _)| m),
                _ => None,
            };
            let (mut summary, _) = replay_stream(make_stream(), settings, mode, model);
            if mode == EstimatesMode::Learned {
                summary.model_mae_secs = trained.as_ref().map(|(_, mae)| *mae);
            }
            summary
        })
        .collect()
}

/// Byte-level equivalence check on a bounded prefix: the first `prefix`
/// requests replayed through the streaming path and through the
/// materialized path must produce identical event logs and outcomes. Returns
/// the prefix length actually verified.
pub fn verify_prefix(
    jobs: JobStream,
    settings: &ReplaySettings,
    prefix: usize,
) -> Result<usize, String> {
    let requests = swf::request_stream(jobs, settings.cores_per_node, settings.max_nodes);
    let mut window = ReorderWindow::new(requests.take(prefix), settings.reorder_window);
    let mut ordered = Vec::new();
    while let Some(req) = window.next_request() {
        ordered.push(req);
    }

    let mut unfolded = *settings;
    unfolded.fold = false;
    let materialized = replay_engine(&unfolded, EstimateSource::Factor).run(&ordered);
    let streamed = replay_engine(&unfolded, EstimateSource::Factor)
        .run_streaming(Box::new(IterSource::new(ordered.clone().into_iter())));

    if materialized.events != streamed.events {
        return Err("streaming event log diverged from materialized event log".into());
    }
    if materialized.completed != streamed.completed
        || materialized.failed != streamed.failed
        || materialized.replay != streamed.replay
    {
        return Err("streaming outcomes diverged from materialized outcomes".into());
    }
    Ok(ordered.len())
}

/// A built-in synthesis seed for trace-free replays (`rush replay
/// --synthesize N` without `--trace`): 16 jobs shaped like a capacity
/// cluster's small-job mix — 0.5–4 node equivalents, minutes-to-hours run
/// times, over-estimated wall-time requests, some estimates missing, and
/// one out-of-order submission to exercise the reorder window.
pub fn builtin_seed() -> Vec<SwfJob> {
    type Shape = (u64, f64, u32, Option<f64>, Option<f64>);
    let shapes: [Shape; 16] = [
        // (submit, runtime, processors, req_time, req_mem_kb)
        (0, 300.0, 36, Some(1800.0), Some(2000.0)),
        (40, 120.0, 18, Some(600.0), None),
        (80, 600.0, 36, Some(1200.0), Some(4000.0)),
        (120, 300.0, 72, None, None),
        (160, 900.0, 36, Some(3600.0), Some(1000.0)),
        (200, 120.0, 36, Some(900.0), None),
        (280, 300.0, 18, Some(600.0), Some(2000.0)),
        (240, 1800.0, 144, Some(7200.0), Some(8000.0)), // out of order
        (320, 600.0, 36, None, Some(3000.0)),
        (360, 120.0, 36, Some(300.0), None),
        (400, 300.0, 36, Some(1500.0), Some(2000.0)),
        (440, 900.0, 72, Some(1800.0), None),
        (480, 300.0, 18, Some(2400.0), Some(1500.0)),
        (520, 120.0, 36, None, None),
        (560, 600.0, 36, Some(1800.0), Some(2500.0)),
        (600, 300.0, 36, Some(900.0), Some(2000.0)),
    ];
    shapes
        .iter()
        .enumerate()
        .map(|(i, &(submit, runtime, procs, req_time, req_mem))| SwfJob {
            id: i as u64,
            submit_secs: submit,
            runtime_secs: Some(runtime),
            processors: procs,
            req_time_secs: req_time,
            req_mem_kb: req_mem,
        })
        .collect()
}

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`), `None` where procfs is unavailable.
pub fn peak_rss_mib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb / 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rush_workloads::synth::{synthesize, SynthSpec};

    fn seed_trace() -> Vec<SwfJob> {
        // Small jobs with believable over-estimates: run times 120–600 s,
        // user estimates 2–10× over.
        (0..8)
            .map(|i| SwfJob {
                id: i,
                submit_secs: i * 45,
                runtime_secs: Some(120.0 + 60.0 * (i % 5) as f64),
                processors: 36 * (1 + (i % 2) as u32),
                req_time_secs: Some(1200.0 + 600.0 * (i % 3) as f64),
                req_mem_kb: if i % 2 == 0 { Some(2000.0) } else { None },
            })
            .collect()
    }

    fn stream(n: u64) -> JobStream {
        Box::new(synthesize(
            seed_trace(),
            SynthSpec {
                target_jobs: n,
                arrival_scale: 1.0,
                gap_secs: 120,
            },
        ))
    }

    fn settings() -> ReplaySettings {
        ReplaySettings {
            train_jobs: 64,
            ..ReplaySettings::default()
        }
    }

    #[test]
    fn three_way_comparison_settles_every_job() {
        let summaries = compare_estimates(
            || stream(120),
            &settings(),
            &[
                EstimatesMode::Factor,
                EstimatesMode::User,
                EstimatesMode::Learned,
            ],
        );
        assert_eq!(summaries.len(), 3);
        for s in &summaries {
            assert_eq!(s.stats.settled(), 120, "{:?}", s.mode);
            assert_eq!(s.stats.rejected, 0);
            assert_eq!(s.dropped_no_runtime, 0);
            assert!(s.utilization > 0.0 && s.utilization <= 1.0);
            assert!(s.stats.mean_bounded_slowdown() >= 1.0);
        }
        // The learned mode actually trained and reports its fit.
        assert!(summaries[2].model_mae_secs.expect("trained") >= 0.0);
        // Identical streams: completions match across modes even when the
        // schedules differ.
        assert_eq!(summaries[0].stats.completed, summaries[1].stats.completed);
    }

    #[test]
    fn learned_estimates_change_planning_not_outcome_counts() {
        let (user, _) = replay_stream(stream(60), &settings(), EstimatesMode::User, None);
        let trained = train_estimator(stream(60), 60).expect("sample");
        let (learned, _) = replay_stream(
            stream(60),
            &settings(),
            EstimatesMode::Learned,
            Some(&trained.0),
        );
        assert_eq!(user.stats.settled(), learned.stats.settled());
        // Run times are identical (same jobs); only waits may move.
        assert!((user.stats.run_sum_secs - learned.stats.run_sum_secs).abs() < 1e-6);
    }

    #[test]
    fn verify_prefix_confirms_streaming_equivalence() {
        let n = verify_prefix(stream(40), &settings(), 40).expect("prefix equivalence");
        assert_eq!(n, 40);
    }

    #[test]
    fn peak_rss_is_readable_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mib().expect("VmHWM") > 0);
        }
    }
}
