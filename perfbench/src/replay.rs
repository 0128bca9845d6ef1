//! `replay-saturated`: a streamed synthesized SWF trace
//! (`synthesize(builtin_seed())`, user estimates, completion folding,
//! counter sampling idled) driven through `prepare_streaming`/`step` on the
//! engine configuration `replay_stream` uses. The queue grows past a
//! thousand jobs, so the EASY backfill pass, the running-speed refresh and
//! event-heap churn dominate; telemetry and the model do no work.

use crate::bench::{batched_setup_s, measure, Params, Report, SETUP_BATCH};
use crate::drive::{check_same, drive, put_engine_layers, Rep};
use crate::measure::{elapsed_ns, thread_cpu_ns};
use rush_cluster::machine::{Machine, MachineConfig};
use rush_core::replay::{builtin_seed, replay_stream, EstimatesMode, ReplaySettings};
use rush_sched::engine::{SchedulerConfig, SchedulerEngine};
use rush_sched::job::EstimateSource;
use rush_sched::predictor::NeverVaries;
use rush_sched::source::{JobSource, ReorderWindow};
use rush_simkit::time::SimDuration;
use rush_workloads::swf::{request_stream, SwfJob};
use rush_workloads::synth::{synthesize, SynthSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Jobs per sub-workload.
const JOBS: u64 = 2000;
/// Sub-workloads per run: the same stream under different machine and
/// engine seeds.
const SUBS: usize = 8;
/// Inter-arrival compression. At 36, the `rush replay` example setting, the
/// pod is near capacity and a 2000-job stream has no queue on some seeds;
/// at 144 the queue builds within a few hundred jobs on every seed.
const ARRIVAL_SCALE: f64 = 144.0;

fn settings(seed: u64) -> ReplaySettings {
    ReplaySettings {
        seed,
        ..ReplaySettings::default()
    }
}

fn synth() -> impl Iterator<Item = SwfJob> + Send {
    synthesize(
        builtin_seed(),
        SynthSpec {
            target_jobs: JOBS,
            arrival_scale: ARRIVAL_SCALE,
            gap_secs: 60,
        },
    )
}

/// Counts (and, when traced, times) the synthesized jobs as the engine
/// pulls them.
struct TappedSynth<I> {
    inner: I,
    pulled: Arc<AtomicU64>,
    busy_ns: Option<Arc<AtomicU64>>,
}

impl<I: Iterator<Item = SwfJob>> Iterator for TappedSynth<I> {
    type Item = SwfJob;

    fn next(&mut self) -> Option<SwfJob> {
        let job = match &self.busy_ns {
            Some(busy) => {
                let start = Instant::now();
                let job = self.inner.next();
                busy.fetch_add(elapsed_ns(start), Ordering::Relaxed);
                job
            }
            None => self.inner.next(),
        };
        if job.is_some() {
            self.pulled.fetch_add(1, Ordering::Relaxed);
        }
        job
    }
}

/// The source `replay_stream` builds: SWF → requests → reorder window.
fn source(
    settings: &ReplaySettings,
    pulled: &Arc<AtomicU64>,
    busy_ns: Option<&Arc<AtomicU64>>,
) -> Box<dyn JobSource> {
    let jobs = TappedSynth {
        inner: synth(),
        pulled: Arc::clone(pulled),
        busy_ns: busy_ns.cloned(),
    };
    let requests = request_stream(jobs, settings.cores_per_node, settings.max_nodes);
    Box::new(ReorderWindow::new(requests, settings.reorder_window))
}

/// `replay_stream`'s engine under user estimates.
fn engine(settings: &ReplaySettings) -> SchedulerEngine {
    let machine = Machine::new(MachineConfig::experiment_pod(settings.seed));
    SchedulerEngine::new(
        machine,
        SchedulerConfig {
            skip_threshold: 0,
            est_factor: settings.est_factor,
            estimates: EstimateSource::Request,
            sampling_interval: SimDuration::from_days(365),
            predictor_window: SimDuration::from_days(365),
            retention: SimDuration::from_days(400),
            ..SchedulerConfig::default()
        },
        Box::new(NeverVaries),
        settings.seed,
    )
    .with_completion_folding()
}

/// Set-up: an engine for every sub-workload, each prepared on its stream
/// and ready to take its first step.
fn setup(subs: &[ReplaySettings]) {
    for settings in subs {
        let mut engine = engine(settings);
        engine.prepare_streaming(source(settings, &Arc::new(AtomicU64::new(0)), None));
    }
}

fn rep(settings: &ReplaySettings, synth_busy_ns: Option<&Arc<AtomicU64>>) -> Result<Rep, String> {
    let start = Instant::now();
    let cpu = thread_cpu_ns();
    let pulled = Arc::new(AtomicU64::new(0));
    let mut engine = engine(settings);
    engine.prepare_streaming(source(settings, &pulled, synth_busy_ns));
    let (result, steps) = drive(&mut engine, |_, _| Ok(()))?;
    Ok(Rep {
        result,
        steps,
        wall_ns: elapsed_ns(start),
        cpu_ns: thread_cpu_ns() - cpu,
        submitted: pulled.load(Ordering::Relaxed),
    })
}

pub fn run(params: Params) -> Result<Report, String> {
    let mut report = Report::default();
    let subs: Vec<ReplaySettings> = (0..SUBS).map(|i| settings(params.sub_seed(i))).collect();
    let setup_s = batched_setup_s(|| setup(&subs));
    report.info("setup_batch", SETUP_BATCH.to_string());

    let measured = measure(params.seconds, SUBS, |i| rep(&subs[i], None))?;
    report.put_end_to_end(&measured, &setup_s)?;
    let untraced = &measured.first.result;

    let (summary, reference) =
        replay_stream(Box::new(synth()), &subs[0], EstimatesMode::User, None);
    check_same("bench engine vs replay_stream", untraced, &reference)?;
    if summary.stats != untraced.replay
        || summary.makespan_secs != untraced.makespan().as_secs_f64()
        || summary.max_queue_len != untraced.max_queue_len
    {
        return Err("bench engine vs replay_stream: ReplaySummary differs".into());
    }
    report.passed("bench_engine_matches_replay_stream");

    if params.trace {
        let (traced, synth_ns) = report.trace_pairs(
            untraced,
            || rep(&subs[0], None),
            || {
                let synth_ns = Arc::new(AtomicU64::new(0));
                Ok((rep(&subs[0], Some(&synth_ns))?, synth_ns))
            },
        )?;
        put_engine_layers(
            &mut report.layers,
            &traced.result,
            &traced.steps,
            0.0,
            traced.submitted,
        );
        report.layers.put(
            "workloads.synth.busy_ms",
            synth_ns.load(Ordering::Relaxed) as f64 / 1e6,
            "ms",
        );
    }
    Ok(report)
}
