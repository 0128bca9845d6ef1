//! `easy-pod`: FCFS+EASY with `NeverVaries` on the 512-node pod, fed by
//! the `bench_sched` 512-node job generator, with the default 30 s counter
//! sampling. Telemetry is written every tick and never read, so the
//! sampler dominates; probes, inference and snapshots do no work.

use crate::bench::{batched_setup_s, measure, Params, Report, SETUP_BATCH};
use crate::drive::{drive, put_engine_layers, Rep};
use crate::measure::{elapsed_ns, thread_cpu_ns};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rush_cluster::machine::{Machine, MachineConfig};
use rush_sched::engine::{SchedulerConfig, SchedulerEngine};
use rush_sched::predictor::NeverVaries;
use rush_simkit::time::SimDuration;
use rush_workloads::apps::AppId;
use rush_workloads::jobgen::{generate_jobs, JobRequest, WorkloadSpec};
use std::time::Instant;

/// Jobs per sub-workload.
const JOBS: usize = 1000;
/// Sub-workloads per run.
const SUBS: usize = 16;

/// `bench_sched`'s generator: 4–32-node jobs of every app, arrivals
/// spread so the queue both backs up and drains.
fn requests(seed: u64) -> Vec<JobRequest> {
    let spec = WorkloadSpec {
        node_counts: vec![4, 8, 16, 32],
        submit_window: SimDuration::from_mins(JOBS as u64 / 10),
        ..WorkloadSpec::standard(AppId::ALL.to_vec(), JOBS)
    };
    let mut rng = SmallRng::seed_from_u64(seed ^ JOBS as u64);
    generate_jobs(&spec, &mut rng)
}

fn engine(seed: u64) -> SchedulerEngine {
    let machine = Machine::new(MachineConfig::experiment_pod(seed));
    SchedulerEngine::new(
        machine,
        SchedulerConfig::default(),
        Box::new(NeverVaries),
        seed,
    )
}

/// Set-up: every sub-workload's job list, and an engine for each prepared
/// to take its first step. Returns the job lists.
fn setup(seeds: &[u64]) -> Vec<Vec<JobRequest>> {
    let inputs: Vec<Vec<JobRequest>> = seeds.iter().map(|&s| requests(s)).collect();
    for (&seed, requests) in seeds.iter().zip(&inputs) {
        engine(seed).prepare(requests);
    }
    inputs
}

fn rep(seed: u64, requests: &[JobRequest]) -> Result<Rep, String> {
    let start = Instant::now();
    let cpu = thread_cpu_ns();
    let mut engine = engine(seed);
    engine.prepare(requests);
    let (result, steps) = drive(&mut engine, |_, _| Ok(()))?;
    Ok(Rep {
        result,
        steps,
        wall_ns: elapsed_ns(start),
        cpu_ns: thread_cpu_ns() - cpu,
        submitted: requests.len() as u64,
    })
}

pub fn run(params: Params) -> Result<Report, String> {
    let mut report = Report::default();
    let seeds: Vec<u64> = (0..SUBS).map(|i| params.sub_seed(i)).collect();
    let setup_s = batched_setup_s(|| {
        std::hint::black_box(setup(&seeds));
    });
    report.info("setup_batch", SETUP_BATCH.to_string());
    let inputs = setup(&seeds);

    let measured = measure(params.seconds, SUBS, |i| rep(seeds[i], &inputs[i]))?;
    report.put_end_to_end(&measured, &setup_s)?;

    if params.trace {
        let run_first = || rep(seeds[0], &inputs[0]);
        let (traced, ()) =
            report.trace_pairs(&measured.first.result, run_first, || Ok((run_first()?, ())))?;
        put_engine_layers(
            &mut report.layers,
            &traced.result,
            &traced.steps,
            0.0,
            traced.submitted,
        );
    }
    Ok(report)
}
