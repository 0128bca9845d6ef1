//! The event log across a real engine run: it must be consistent with the
//! completed-job records.

use rush_repro::cluster::machine::{Machine, MachineConfig};
use rush_repro::obs::ObsEvent;
use rush_repro::sched::engine::ScheduleResult;
use rush_repro::sched::engine::{SchedulerConfig, SchedulerEngine};
use rush_repro::sched::predictor::{NeverVaries, Scripted, VariabilityClass};
use rush_repro::sched::trace::gantt;
use rush_repro::simkit::time::SimTime;
use rush_repro::workloads::apps::AppId;
use rush_repro::workloads::jobgen::JobRequest;
use rush_repro::workloads::scaling::ScalingMode;

/// `(time, kind)` of every lifecycle record concerning `job`.
fn records_of(result: &ScheduleResult, job: u64) -> Vec<(SimTime, &'static str)> {
    result
        .events
        .iter()
        .filter(|r| r.event.is_lifecycle() && r.event.job() == Some(job))
        .map(|r| (r.at, r.event.kind()))
        .collect()
}

fn requests(n: u64) -> Vec<JobRequest> {
    (0..n)
        .map(|i| JobRequest {
            id: i,
            app: AppId::ALL[(i % 7) as usize],
            nodes: 4,
            submit_at: SimTime::from_secs(i * 5),
            scaling: ScalingMode::Reference,
            user_est_secs: None,
        })
        .collect()
}

#[test]
fn trace_is_consistent_with_completions() {
    let machine = Machine::new(MachineConfig::tiny(19));
    let mut engine = SchedulerEngine::new(
        machine,
        SchedulerConfig::default(),
        Box::new(NeverVaries),
        4,
    );
    let result = engine.run(&requests(8));

    // Every job has exactly one submit, one start, one finish, in order.
    for c in &result.completed {
        let records = records_of(&result, c.job.id.0);
        let kinds: Vec<&str> = records.iter().map(|&(_, k)| k).collect();
        assert_eq!(
            kinds,
            vec!["job_submitted", "job_started", "job_finished"],
            "{}",
            c.job.id
        );
        assert_eq!(records[0].0, c.job.submit_at);
        assert_eq!(records[1].0, c.start_at);
        assert_eq!(records[2].0, c.end_at);
    }
    assert_eq!(result.total_skips, 0);

    // The busy-node series peaks at the expected concurrency.
    let peak = result
        .trace
        .busy_nodes_series()
        .aggregate(SimTime::ZERO, result.last_end)
        .max;
    assert!(peak > 0.0 && peak <= 16.0, "peak busy {peak}");

    // The gantt renders a row per job plus a header.
    let chart = gantt(&result.completed, 60, 100);
    assert_eq!(chart.lines().count(), 9);
}

#[test]
fn delays_appear_in_the_trace() {
    let machine = Machine::new(MachineConfig::tiny(23));
    let script = Scripted::new(vec![
        VariabilityClass::Variation,
        VariabilityClass::Variation,
    ]);
    let mut engine = SchedulerEngine::new(machine, SchedulerConfig::default(), Box::new(script), 4);
    let result = engine.run(&requests(3));
    let skipped = result
        .events
        .iter()
        .filter(|r| matches!(r.event, ObsEvent::JobSkipped { .. }))
        .count();
    assert_eq!(skipped as u64, result.total_skips);
    assert!(result.total_skips >= 1);
    // A delayed job's first skip record carries skip count 1, and the job
    // still starts later.
    let delayed_job = result
        .events
        .iter()
        .find_map(|r| match r.event {
            ObsEvent::JobSkipped { job, skips: 1 } => Some(job),
            _ => None,
        })
        .expect("a first delay exists");
    assert!(records_of(&result, delayed_job)
        .iter()
        .any(|&(_, k)| k == "job_started"));
}
