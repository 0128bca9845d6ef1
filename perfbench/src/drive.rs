//! Driving an engine event by event, and the outcome checks every
//! workload shares.

use crate::measure::{wall_ns, Samples, Sheet};
use rush_obs::profile as obs_profile;
use rush_obs::ProfileScope;
use rush_sched::difftest::outcome_key;
use rush_sched::engine::{ScheduleResult, SchedulerEngine};
use rush_simkit::time::SimTime;
use std::hash::{DefaultHasher, Hash, Hasher};

/// Steps a prepared engine to completion, timing every
/// `SchedulerEngine::step` on [`STEP_CLOCK`]. `between` runs after each
/// step, outside the step timer (checkpoints). Returns the finalized
/// result and the step samples.
pub fn drive(
    engine: &mut SchedulerEngine,
    mut between: impl FnMut(&mut SchedulerEngine, SimTime) -> Result<(), String>,
) -> Result<(ScheduleResult, Samples), String> {
    let mut steps = Samples::default();
    loop {
        let start = STEP_CLOCK();
        let Some(now) = engine.step() else { break };
        steps.push(STEP_CLOCK() - start);
        between(engine, now)?;
    }
    Ok((engine.finalize(), steps))
}

/// Step clock of the untraced and the traced runs alike: the monotonic
/// wall clock, which the vDSO serves without a system call and which the
/// program's profiler scopes also use. Both runs thus pay the same timer
/// cost, and per-layer differences stay on one clock.
pub const STEP_CLOCK: fn() -> u64 = wall_ns;

/// One complete simulation, timed end to end.
pub struct Rep {
    pub result: ScheduleResult,
    pub steps: Samples,
    pub wall_ns: u64,
    pub cpu_ns: u64,
    /// Requests the engine was given.
    pub submitted: u64,
}

/// The simulated outcome of a run: what a user of the scheduler sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    pub submitted: u64,
    pub completed: u64,
    pub failed: u64,
    pub rejected: u64,
    pub makespan_s: f64,
    pub mean_wait_s: f64,
    pub mean_bsld: f64,
}

impl Outcome {
    pub fn of(result: &ScheduleResult, submitted: u64) -> Outcome {
        let r = &result.replay;
        Outcome {
            submitted,
            completed: r.completed,
            failed: r.failed,
            rejected: r.rejected,
            makespan_s: result.makespan().as_secs_f64(),
            mean_wait_s: r.mean_wait_secs(),
            mean_bsld: r.mean_bounded_slowdown(),
        }
    }

    /// Sub-workload outcomes pooled: job counts summed, simulated times
    /// and slowdowns averaged.
    pub fn mean(all: &[Outcome]) -> Outcome {
        let avg = |f: fn(&Outcome) -> f64| all.iter().map(f).sum::<f64>() / all.len() as f64;
        let sum = |f: fn(&Outcome) -> u64| all.iter().map(f).sum::<u64>();
        Outcome {
            submitted: sum(|o| o.submitted),
            completed: sum(|o| o.completed),
            failed: sum(|o| o.failed),
            rejected: sum(|o| o.rejected),
            makespan_s: avg(|o| o.makespan_s),
            mean_wait_s: avg(|o| o.mean_wait_s),
            mean_bsld: avg(|o| o.mean_bsld),
        }
    }

    /// Every submitted job ends completed, failed or rejected.
    pub fn check_conservation(&self) -> Result<(), String> {
        if self.completed + self.failed + self.rejected == self.submitted {
            Ok(())
        } else {
            Err(format!(
                "job conservation: completed {} + failed {} + rejected {} != submitted {}",
                self.completed, self.failed, self.rejected, self.submitted
            ))
        }
    }

    pub fn failed_frac(&self) -> f64 {
        (self.failed + self.rejected) as f64 / self.submitted as f64
    }

    /// The simulated end-to-end metrics.
    pub fn put(&self, sheet: &mut Sheet) {
        sheet.put("sim_makespan_s", self.makespan_s, "s");
        sheet.put("mean_wait_s", self.mean_wait_s, "s");
        sheet.put("mean_bsld", self.mean_bsld, "ratio");
    }
}

/// Hash of everything two runs of the same inputs must agree on: per-job
/// placement and timing (empty under completion folding), the folded
/// aggregates, event-queue totals, queue depth and RUSH delays.
/// `DefaultHasher::new` has fixed keys, so equal schedules hash equally
/// in every process.
pub fn fingerprint(result: &ScheduleResult) -> u64 {
    let mut hasher = DefaultHasher::new();
    format!(
        "{:?}|{:?}|{:?}|{}|{}",
        outcome_key(result),
        result.replay,
        result.event_queue,
        result.max_queue_len,
        result.total_skips
    )
    .hash(&mut hasher);
    hasher.finish()
}

/// Fails unless `a` and `b` describe the same schedule.
pub fn check_same(what: &str, a: &ScheduleResult, b: &ScheduleResult) -> Result<(), String> {
    if fingerprint(a) == fingerprint(b) {
        Ok(())
    } else {
        Err(format!("{what}: schedules differ"))
    }
}

/// Totals of one existing profiler scope.
pub fn scope_totals(scope: ProfileScope) -> (u64, f64) {
    obs_profile::snapshot()
        .into_iter()
        .find(|t| t.scope == scope)
        .map(|t| (t.calls, t.nanos as f64 / 1e6))
        .unwrap_or((0, 0.0))
}

/// Runs `f` with the process-wide profiler zeroed and on.
pub fn profiled<T>(f: impl FnOnce() -> T) -> T {
    obs_profile::reset();
    obs_profile::set_enabled(true);
    let out = f();
    obs_profile::set_enabled(false);
    out
}

/// The engine and event-queue layer metrics of a traced run. `predictor_ms`
/// is the predictor's time, which the scheduling pass contains; it is
/// subtracted to give the pass's own time.
pub fn put_engine_layers(
    sheet: &mut Sheet,
    result: &ScheduleResult,
    steps: &Samples,
    predictor_ms: f64,
    jobs: u64,
) {
    let (sample_calls, sample_ms) = scope_totals(ProfileScope::TelemetrySample);
    let (pass_calls, pass_ms) = scope_totals(ProfileScope::SchedulePass);
    let step_ms = steps.total_ms();
    sheet.put("telemetry.sample.calls", sample_calls as f64, "count");
    sheet.put("telemetry.sample.busy_ms", sample_ms, "ms");
    sheet.put("sched.schedule_pass.calls", pass_calls as f64, "count");
    sheet.put("sched.schedule_pass.busy_ms", pass_ms, "ms");
    sheet.put("sched.schedule_pass_self_ms", pass_ms - predictor_ms, "ms");
    sheet.put("sched.step.calls", steps.len() as f64, "count");
    sheet.put("sched.step.busy_ms", step_ms, "ms");
    sheet.put("sched.engine_other_ms", step_ms - pass_ms - sample_ms, "ms");

    let q = result.event_queue;
    sheet.put("simkit.events.scheduled", q.scheduled as f64, "count");
    sheet.put("simkit.events.delivered", q.delivered as f64, "count");
    sheet.put("simkit.events.cancelled", q.cancelled as f64, "count");
    sheet.put("simkit.events.compactions", q.compactions as f64, "count");
    sheet.put("simkit.events.peak_heap", q.peak_heap as f64, "count");
    sheet.put(
        "simkit.events.scheduled_per_job",
        q.scheduled as f64 / jobs as f64,
        "count",
    );

    let counter = |name: &str| result.metrics.counter_by_name(name).unwrap_or(0) as f64;
    sheet.put("sched.skips", counter("sched.skips"), "count");
    sheet.put(
        "sched.predictor_verdicts",
        counter("sched.predictor_verdicts"),
        "count",
    );
    sheet.put(
        "sched.backfill_reservations",
        counter("sched.backfill_reservations"),
        "count",
    );
    sheet.put("sched.max_queue_len", result.max_queue_len as f64, "count");
}
