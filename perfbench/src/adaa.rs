//! `rush-adaa`: the paper's scheme. A Table-II ADAA job mix on the
//! 512-node experiment pod with the 1/16 noise job, gated by a three-class
//! AdaBoost model trained from a seeded campaign, with engine snapshots at
//! a fixed simulated cadence and the invariant auditor run at each one.

use crate::bench::{measure, Params, Report};
use crate::drive::{check_same, drive, put_engine_layers, Rep};
use crate::measure::{elapsed_ns, median, thread_cpu_ns, timed, Samples, Slowness};
use crate::timing_predictor::TimingPredictor;
use rush_cluster::machine::{Machine, MachineConfig};
use rush_cluster::topology::NodeId;
use rush_core::collect::{run_campaign, CampaignData};
use rush_core::config::CampaignConfig;
use rush_core::experiments::{
    build_trial_engine, Experiment, ExperimentSettings, PolicyKind, NOISE_FRACTION, NOISE_MAX_GBPS,
};
use rush_core::labels::LabelScheme;
use rush_core::pipeline::{build_reference, ModelCache};
use rush_core::predictor::MlPredictor;
use rush_ml::model::{ModelKind, TrainedModel};
use rush_sched::audit::{AuditConfig, AuditPolicy};
use rush_sched::engine::{ScheduleResult, SchedulerConfig, SchedulerEngine};
use rush_sched::metrics::ScheduleMetrics;
use rush_sched::predictor::VariabilityPredictor;
use rush_simkit::rng::RngStreams;
use rush_simkit::time::{SimDuration, SimTime};
use rush_workloads::jobgen::{generate_jobs, JobRequest};
use std::time::Instant;

/// Jobs in each trial's queue (Table II has 190; scaled up so the
/// predictor, telemetry and snapshot layers dominate the run).
const JOBS: usize = 1000;
/// Trials per run (sub-workloads). They share the campaign and the model.
const SUBS: usize = 8;
/// `build_trial_engine`'s base seed, which also seeds campaign and model
/// training (the `ExperimentSettings` default). The deployed model is part
/// of the system under test, so it stays the same for every run seed; the
/// run seed picks the trials (job lists, machine noise, engine draws).
const BASE_SEED: u64 = 0xE0;
/// Campaign length behind the deployed model.
const CAMPAIGN_DAYS: u32 = 16;
/// Simulated time between engine snapshots.
const CHECKPOINT_EVERY: SimDuration = SimDuration::from_secs(3600);
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The predictor's counter window (paper: 5 minutes).
const WINDOW: SimDuration = SimDuration::from_secs(300);

/// Everything built before the first event.
pub struct Inputs {
    /// `build_trial_engine`'s base seed: trial `t` runs on `base_seed + t`.
    pub base_seed: u64,
    pub campaign: CampaignData,
    pub cache: ModelCache,
    pub model: TrainedModel,
    /// The trial indices this run simulates, and each one's job list.
    pub trials: Vec<usize>,
    pub requests: Vec<Vec<JobRequest>>,
    pub jobs: usize,
}

impl Inputs {
    fn seed(&self, sub: usize) -> u64 {
        self.base_seed.wrapping_add(self.trials[sub] as u64)
    }
}

/// CPU time of one set-up, by stage.
struct SetupTimes {
    campaign_ms: f64,
    train_ms: f64,
    total_s: f64,
}

/// The default campaign (seed, apps, sampling), shortened to `days`.
pub fn campaign_config(days: u32) -> CampaignConfig {
    CampaignConfig {
        days,
        storm_days: Some((days / 2, days / 2 + 1)),
        ..CampaignConfig::default()
    }
}

fn setup(base_seed: u64, days: u32, jobs: usize, trials: Vec<usize>) -> (Inputs, SetupTimes) {
    let start = thread_cpu_ns();
    let campaign = run_campaign(&campaign_config(days));
    let trained = thread_cpu_ns();
    let cache = ModelCache::new();
    let model = cache.train_with_scheme(
        &campaign,
        None,
        ModelKind::AdaBoost,
        LabelScheme::ThreeClass,
        base_seed,
    );
    let train_end = thread_cpu_ns();
    let mut workload = Experiment::Adaa.workload();
    workload.total_jobs = jobs;
    let requests = trials
        .iter()
        .map(|&trial| {
            let seed = base_seed.wrapping_add(trial as u64);
            generate_jobs(
                &workload,
                &mut RngStreams::new(seed).stream("experiment/jobs"),
            )
        })
        .collect();
    let inputs = Inputs {
        base_seed,
        campaign,
        cache,
        model: (*model).clone(),
        trials,
        requests,
        jobs,
    };
    let times = SetupTimes {
        campaign_ms: (trained - start) as f64 / 1e6,
        train_ms: (train_end - trained) as f64 / 1e6,
        total_s: (thread_cpu_ns() - start) as f64 / 1e9,
    };
    (inputs, times)
}

/// Builds the inputs once (tests).
#[cfg(test)]
pub fn inputs(base_seed: u64, days: u32, jobs: usize, trials: Vec<usize>) -> Inputs {
    setup(base_seed, days, jobs, trials).0
}

fn audit() -> AuditConfig {
    AuditConfig {
        policy: AuditPolicy::Log,
        every_event: false,
    }
}

/// The settings under which `build_trial_engine` builds the same engines
/// as [`engine`].
pub fn trial_settings(inputs: &Inputs) -> ExperimentSettings {
    ExperimentSettings {
        trials: 1,
        base_seed: inputs.base_seed,
        job_count_override: Some(inputs.jobs),
        model_cache: inputs.cache.clone(),
        audit: audit(),
        ..ExperimentSettings::default()
    }
}

/// The engine `build_trial_engine` makes for a RUSH trial on `seed`, built
/// from the same public pieces so the predictor can be swapped for the
/// timing one.
pub fn engine(seed: u64, predictor: Box<dyn VariabilityPredictor>) -> SchedulerEngine {
    let machine = Machine::new(MachineConfig::experiment_pod(seed));
    let total = machine.tree().node_count();
    let noise: Vec<NodeId> = (total - total / NOISE_FRACTION..total)
        .map(NodeId)
        .collect();
    let config = SchedulerConfig {
        sampling_interval: SimDuration::from_secs(30),
        predictor_window: WINDOW,
        audit: audit(),
        ..SchedulerConfig::default()
    };
    SchedulerEngine::new(machine, config, predictor, seed).with_noise_job(noise, NOISE_MAX_GBPS)
}

pub fn ml_predictor(model: &TrainedModel) -> Box<dyn VariabilityPredictor> {
    Box::new(MlPredictor::new(model.clone(), LabelScheme::ThreeClass, None).with_window(WINDOW))
}

/// Snapshots of one repetition.
#[derive(Default)]
struct Checkpoints {
    writes: Samples,
    bytes: usize,
    last: Option<Vec<u8>>,
}

/// One complete trial (sub-workload `sub`) with an audit and a snapshot
/// every [`CHECKPOINT_EVERY`] of simulated time.
fn rep(
    inputs: &Inputs,
    sub: usize,
    predictor: Box<dyn VariabilityPredictor>,
) -> Result<(Rep, Checkpoints), String> {
    let start = Instant::now();
    let cpu = thread_cpu_ns();
    let requests = &inputs.requests[sub];
    let mut engine = engine(inputs.seed(sub), predictor);
    engine.prepare(requests);
    let mut ckpt = Checkpoints::default();
    let mut next = SimTime::ZERO + CHECKPOINT_EVERY;
    let (result, steps) = drive(&mut engine, |engine, now| {
        if now < next {
            return Ok(());
        }
        next = now + CHECKPOINT_EVERY;
        if let Some(v) = engine.audit_now(now).first() {
            return Err(format!("audit at {now}: {v}"));
        }
        let bytes = timed(&mut ckpt.writes, || engine.snapshot());
        ckpt.bytes = bytes.len();
        ckpt.last = Some(bytes);
        Ok(())
    })?;
    let rep = Rep {
        result,
        steps,
        wall_ns: elapsed_ns(start),
        cpu_ns: thread_cpu_ns() - cpu,
        submitted: requests.len() as u64,
    };
    Ok((rep, ckpt))
}

/// Resumes a snapshot of sub-workload 0 into a fresh engine and runs it
/// out.
fn resume(inputs: &Inputs, snapshot: &[u8]) -> Result<(ScheduleResult, f64), String> {
    let mut engine = engine(inputs.seed(0), ml_predictor(&inputs.model));
    engine.prepare(&inputs.requests[0]);
    let start = Instant::now();
    engine
        .resume(snapshot)
        .map_err(|e| format!("resume: {e}"))?;
    let resume_ms = start.elapsed().as_secs_f64() * 1e3;
    let (result, _) = drive(&mut engine, |_, _| Ok(()))?;
    Ok((result, resume_ms))
}

/// Runs sub-workload 0 once with tracing on, under `MlPredictor` or, when
/// `timing` is set, the timing predictor (tests compare the two).
#[cfg(test)]
pub fn run_first(inputs: &Inputs, timing: bool, trace_capacity: usize) -> ScheduleResult {
    let predictor = if timing {
        Box::new(TimingPredictor::new(inputs.model.clone(), WINDOW).0)
    } else {
        ml_predictor(&inputs.model)
    };
    let mut engine = engine(inputs.seed(0), predictor).with_tracing(trace_capacity);
    engine.run(&inputs.requests[0])
}

pub fn run(params: Params) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut built = None;
    let mut setup_s = Vec::new();
    let mut slowness = Slowness::start();
    for _ in 0..SETUP_REPS {
        let trials = (0..SUBS).map(|i| params.sub_seed(i) as usize).collect();
        let (inputs, times) = setup(BASE_SEED, CAMPAIGN_DAYS, JOBS, trials);
        setup_s.push(times.total_s / slowness.lap());
        setups.push(times);
        built = Some(inputs);
    }
    let inputs = built.expect("at least one set-up");

    // Work on each sub-workload's first repetition that needs its full
    // result or its snapshot happens here, so neither outlives it.
    let reference = build_reference(&inputs.campaign);
    let mut variation_runs = [None; SUBS];
    let mut resumed = None;
    let mut snapshots_per_trial = 0;
    let measured = measure(params.seconds, SUBS, |sub| {
        let (rep, ckpt) = rep(&inputs, sub, ml_predictor(&inputs.model))?;
        if variation_runs[sub].is_none() {
            let metrics =
                ScheduleMetrics::compute(&rep.result.completed, &reference, SimTime::ZERO);
            variation_runs[sub] = Some(metrics.total_variation_runs);
        }
        if sub == 0 && resumed.is_none() {
            let snapshot = ckpt.last.as_ref().ok_or("the trial took no snapshot")?;
            snapshots_per_trial = ckpt.writes.len();
            let (result, resume_ms) = resume(&inputs, snapshot)?;
            check_same("resume from the last snapshot", &rep.result, &result)?;
            resumed = Some(resume_ms);
        }
        Ok(rep)
    })?;
    report.put_end_to_end(&measured, &setup_s)?;
    report.passed("audit_clean_at_every_checkpoint");
    report.passed("last_snapshot_resumes_to_same_outcome");
    let resume_ms = resumed.expect("sub-workload 0 ran");
    let variation_runs: usize = variation_runs.iter().flatten().sum();
    report
        .ungated
        .put("variation_runs", variation_runs as f64, "count");
    report.info("snapshots_per_trial", snapshots_per_trial.to_string());
    let untraced = &measured.first.result;

    let (mut trial, trial_requests) = build_trial_engine(
        Experiment::Adaa,
        PolicyKind::Rush,
        &inputs.campaign,
        &trial_settings(&inputs),
        inputs.trials[0],
    );
    if trial_requests != inputs.requests[0] {
        return Err("build_trial_engine generated another job set".into());
    }
    check_same(
        "bench engine vs build_trial_engine",
        untraced,
        &trial.run(&trial_requests),
    )?;
    report.passed("bench_engine_matches_build_trial_engine");

    if params.trace {
        let (traced, (traced_ckpt, layers)) = report.trace_pairs(
            untraced,
            || Ok(rep(&inputs, 0, ml_predictor(&inputs.model))?.0),
            || {
                let (predictor, layers) = TimingPredictor::new(inputs.model.clone(), WINDOW);
                let (rep, ckpt) = rep(&inputs, 0, Box::new(predictor))?;
                Ok((rep, (ckpt, layers)))
            },
        )?;

        let layers = layers.lock().expect("predictor timers poisoned");
        let sheet = &mut report.layers;
        put_engine_layers(
            sheet,
            &traced.result,
            &traced.steps,
            layers.total.total_ms(),
            traced.submitted,
        );
        sheet.put(
            "telemetry.window.calls",
            layers.window.len() as f64,
            "count",
        );
        sheet.put("telemetry.window.busy_ms", layers.window.total_ms(), "ms");
        sheet.put(
            "workloads.probes.calls",
            layers.probes.len() as f64,
            "count",
        );
        sheet.put("workloads.probes.busy_ms", layers.probes.total_ms(), "ms");
        sheet.put("ml.predict.calls", layers.predict.len() as f64, "count");
        sheet.put("ml.predict.busy_ms", layers.predict.total_ms(), "ms");
        sheet.put(
            "ml.predict.p99_us",
            layers.predict.percentile_us(99.0)?,
            "us",
        );
        sheet.put(
            "ml.delay_verdict_ratio",
            layers.delay_verdicts as f64 / layers.predict.len().max(1) as f64,
            "ratio",
        );
        sheet.put("rush.predictor.calls", layers.total.len() as f64, "count");
        sheet.put("rush.predictor.busy_ms", layers.total.total_ms(), "ms");
        sheet.put(
            "rush.predictor.p99_us",
            layers.total.percentile_us(99.0)?,
            "us",
        );
        let writes = &traced_ckpt.writes;
        sheet.put("snapshot.write.calls", writes.len() as f64, "count");
        sheet.put("snapshot.write.ms_p50", median_ms(writes), "ms");
        sheet.put("snapshot.bytes", traced_ckpt.bytes as f64, "bytes");
        sheet.put("snapshot.resume_ms", resume_ms, "ms");
        let campaign: Vec<f64> = setups.iter().map(|t| t.campaign_ms).collect();
        let train: Vec<f64> = setups.iter().map(|t| t.train_ms).collect();
        sheet.put("rush.campaign.busy_ms", median(&campaign), "ms");
        sheet.put("ml.train.busy_ms", median(&train), "ms");
        report.info("predictor_samples", layers.total.len().to_string());
    }
    Ok(report)
}

/// Median of a handful of samples (snapshot writes), in milliseconds.
fn median_ms(samples: &Samples) -> f64 {
    let ms: Vec<f64> = samples.iter_ns().map(|ns| ns as f64 / 1e6).collect();
    if ms.is_empty() {
        0.0
    } else {
        median(&ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::check_same;
    use rush_obs::event::ObsEvent;

    /// `(time, job, class)` of every predictor verdict in a traced run.
    fn verdicts(result: &ScheduleResult) -> Vec<(u64, u64, u32)> {
        result
            .events
            .iter()
            .filter_map(|r| match r.event {
                ObsEvent::PredictorVerdict { job, class } => Some((r.at.as_micros(), job, class)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn timing_predictor_verdicts_match_ml_predictor() {
        // 500 jobs is about the smallest queue on which the deployed model
        // gives every class, so a wrong verdict cannot hide.
        let inputs = inputs(BASE_SEED, CAMPAIGN_DAYS, 500, vec![5]);
        let ml = run_first(&inputs, false, 1 << 20);
        let timing = run_first(&inputs, true, 1 << 20);
        let expected = verdicts(&ml);
        for class in 0..3 {
            assert!(
                expected.iter().any(|v| v.2 == class),
                "class {class} never predicted"
            );
        }
        assert_eq!(verdicts(&timing), expected);
        check_same("timing vs ML predictor", &ml, &timing).unwrap();
    }
}
