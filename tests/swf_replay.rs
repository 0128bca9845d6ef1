//! End-to-end replay of the committed PWA-style excerpt: dirty-trace
//! ingest → request conversion → reorder window → streaming engine, with
//! the oversized job rejected at submit time instead of panicking the
//! seed, the trajectory independent of the source type, and a streamed run
//! resuming from its snapshots.

use rush_repro::cluster::machine::{Machine, MachineConfig};
use rush_repro::sched::difftest::outcome_digest;
use rush_repro::sched::engine::{ScheduleResult, SchedulerConfig, SchedulerEngine};
use rush_repro::sched::job::EstimateSource;
use rush_repro::sched::predictor::NeverVaries;
use rush_repro::sched::source::{IterSource, JobSource, ReorderWindow};
use rush_repro::simkit::snapshot;
use rush_repro::simkit::time::{SimDuration, SimTime};
use rush_repro::workloads::jobgen::JobRequest;
use rush_repro::workloads::swf;

const EXCERPT: &str = include_str!("../crates/workloads/tests/data/pwa_excerpt.swf");

fn excerpt_requests() -> Vec<JobRequest> {
    let (jobs, summary) = swf::parse_lenient(EXCERPT);
    assert_eq!(summary.kept, 8, "fixture accounting changed");
    // Restore arrival order: the excerpt records job 6 (submitted at 840 s)
    // after job 5 (900 s), mimicking archive traces logged by end time.
    let mut window = ReorderWindow::new(
        swf::request_stream(jobs.into_iter(), 36, 4096),
        SimDuration::from_secs(120),
    );
    let mut ordered: Vec<JobRequest> = Vec::new();
    while let Some(req) = window.next_request() {
        ordered.push(req);
    }
    assert_eq!(window.clamped(), 0, "120 s window covers the excerpt");
    let submits: Vec<f64> = ordered.iter().map(|r| r.submit_at.as_secs_f64()).collect();
    assert!(
        submits.windows(2).all(|w| w[0] <= w[1]),
        "reorder window must emit non-decreasing submits: {submits:?}"
    );
    ordered
}

fn engine(estimates: EstimateSource) -> SchedulerEngine {
    let machine = Machine::new(MachineConfig::experiment_pod(7));
    SchedulerEngine::new(
        machine,
        SchedulerConfig {
            sampling_interval: SimDuration::from_days(365),
            predictor_window: SimDuration::from_days(365),
            retention: SimDuration::from_days(400),
            estimates,
            ..SchedulerConfig::default()
        },
        Box::new(NeverVaries),
        7,
    )
}

fn assert_same_outcome(a: &ScheduleResult, b: &ScheduleResult) {
    assert_eq!(a.events, b.events);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.failed, b.failed);
    assert_eq!(a.replay, b.replay);
}

#[test]
fn excerpt_replays_end_to_end_with_oversized_rejection() {
    let requests = excerpt_requests();
    let result = engine(EstimateSource::Factor)
        .run_streaming(Box::new(IterSource::new(requests.into_iter())));

    // 8 usable jobs: the 4096-node monster is rejected at submit time on
    // the 512-node pod; the other 7 run to completion.
    assert_eq!(result.replay.rejected, 1);
    assert_eq!(result.completed.len(), 7);
    assert!(result.failed.is_empty());
    assert_eq!(result.replay.settled(), 8);
    assert!(result.replay.mean_bounded_slowdown() >= 1.0);

    let mut done: Vec<u64> = result.completed.iter().map(|c| c.job.id.0).collect();
    done.sort_unstable();
    assert_eq!(done, vec![0, 1, 2, 3, 4, 6, 7]); // dense id 5 was rejected
}

/// `run` over the request slice (a `SliceSource`) and `run_streaming` over
/// an iterator of the same requests (an `IterSource`) schedule the excerpt
/// identically.
#[test]
fn slice_source_run_matches_iter_source_run_on_the_excerpt() {
    let requests = excerpt_requests();
    let sliced = engine(EstimateSource::Factor).run(&requests);
    let iterated = engine(EstimateSource::Factor)
        .run_streaming(Box::new(IterSource::new(requests.into_iter())));
    assert_same_outcome(&sliced, &iterated);
}

/// The excerpt as `rush replay` streams it: through the reorder window,
/// never materialized.
fn excerpt_source() -> Box<dyn JobSource> {
    let (jobs, _) = swf::parse_lenient(EXCERPT);
    Box::new(ReorderWindow::new(
        swf::request_stream(jobs.into_iter(), 36, 4096),
        SimDuration::from_secs(120),
    ))
}

/// A streamed run snapshotted while arrivals are still pending, and again
/// after the stream is spent, resumes from either snapshot into a fresh
/// engine over a fresh source to the uninterrupted run's outcome.
#[test]
fn streamed_excerpt_resumes_to_the_uninterrupted_outcome() {
    let expected = outcome_digest(&engine(EstimateSource::Factor).run_streaming(excerpt_source()));
    let last_submit = excerpt_requests().last().unwrap().submit_at;
    for (cut, pending) in [
        (SimTime::from_secs(500), true),
        (last_submit + SimDuration::from_secs(1), false),
    ] {
        let mut victim = engine(EstimateSource::Factor);
        victim.prepare_streaming(excerpt_source());
        while victim.now() < cut && victim.step().is_some() {}
        assert!(!victim.is_done(), "the cut at {cut} must land mid-run");
        let bytes = victim.snapshot();
        drop(victim);
        let pulled = snapshot::decode(&bytes).unwrap().body.u("pulled").unwrap();
        assert_eq!(pulled < 8, pending, "arrivals pulled by {cut}: {pulled}");

        let mut resumed = engine(EstimateSource::Factor);
        resumed.prepare_streaming(excerpt_source());
        resumed.resume(&bytes).expect("snapshot must restore");
        while resumed.step().is_some() {}
        assert_eq!(
            outcome_digest(&resumed.finalize()),
            expected,
            "cut at {cut}"
        );
    }
}

#[test]
fn user_estimates_from_the_trace_drive_reservations() {
    let requests = excerpt_requests();
    let result = engine(EstimateSource::Request).run(&requests);
    let est_of = |id: u64| -> f64 {
        result
            .completed
            .iter()
            .find(|c| c.job.id.0 == id)
            .expect("completed")
            .job
            .est_runtime
            .as_secs_f64()
    };
    // Job 0 carried SWF field 9 = 7200 s: planned with verbatim.
    assert!((est_of(0) - 7200.0).abs() < 1e-9);
    // Job 6 carried no estimate (`-1`): falls back to the global factor,
    // matching what Factor mode would have planned.
    let factor_run = engine(EstimateSource::Factor).run(&excerpt_requests());
    let factor_est = factor_run
        .completed
        .iter()
        .find(|c| c.job.id.0 == 6)
        .expect("completed")
        .job
        .est_runtime;
    assert_eq!(est_of(6), factor_est.as_secs_f64());
}
