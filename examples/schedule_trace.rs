//! Schedule forensics: run a queue under RUSH with an oracle predictor and
//! inspect the recorded event log — delays, queue/busy series, and a text
//! Gantt chart.
//!
//! Run with `cargo run --release --example schedule_trace`.

use rand::SeedableRng;
use rush_repro::cluster::machine::{Machine, MachineConfig};
use rush_repro::cluster::topology::NodeId;
use rush_repro::obs::ObsEvent;
use rush_repro::sched::engine::{SchedulerConfig, SchedulerEngine};
use rush_repro::sched::predictor::CongestionOracle;
use rush_repro::sched::trace::gantt;
use rush_repro::simkit::time::{SimDuration, SimTime};
use rush_repro::workloads::apps::AppId;
use rush_repro::workloads::jobgen::{generate_jobs, WorkloadSpec};

fn main() {
    let machine = Machine::new(MachineConfig::experiment_pod(11));
    let noise: Vec<NodeId> = (480..512).map(NodeId).collect();
    let mut engine = SchedulerEngine::new(
        machine,
        SchedulerConfig {
            sampling_interval: SimDuration::from_days(365),
            ..SchedulerConfig::default()
        },
        Box::new(CongestionOracle::default()),
        42,
    )
    .with_noise_job(noise, 22.0);

    let spec = WorkloadSpec::standard(AppId::ALL.to_vec(), 30);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
    let requests = generate_jobs(&spec, &mut rng);
    let result = engine.run(&requests);

    println!("{}", gantt(&result.completed, 72, 30));

    println!("RUSH delays recorded: {}", result.total_skips);
    let delayed = result.events.iter().filter_map(|r| match r.event {
        ObsEvent::JobSkipped { job, skips } => Some((r.at, job, skips)),
        _ => None,
    });
    for (at, job, skips) in delayed.take(8) {
        println!("  {at}: job{job} delayed (skip #{skips})");
    }

    let horizon = result.last_end;
    println!(
        "\nmean busy nodes over the run: {:.0} / 480 schedulable",
        result.trace.mean_busy_nodes(SimTime::ZERO, horizon)
    );
    println!(
        "peak queue length: {:.0}",
        result
            .trace
            .queue_len_series()
            .aggregate(SimTime::ZERO, horizon)
            .max
    );
}
