//! Crash-safe resume equivalence, exercised across real process boundaries.
//!
//! The contract under test: a run that is checkpointed mid-flight, killed,
//! and resumed **in a fresh process** must produce a trace byte-identical
//! to the uninterrupted run's. In-process round-trips (covered by the
//! engine's unit tests) cannot catch state that accidentally survives in
//! globals, thread-locals, or allocator layout — so the orchestrator here
//! spawns the test binary itself three times:
//!
//! 1. `helper_full_run` — the golden 64-node / 200-job fault scenario to
//!    completion; writes the full JSONL trace.
//! 2. `helper_checkpoint_half` — the same scenario stopped at 50% of the
//!    baseline makespan; writes the engine snapshot.
//! 3. `helper_resume_finish` — a brand-new engine that resumes from that
//!    snapshot and runs to the end; writes the full JSONL trace.
//!
//! The helpers are `#[ignore]`d tests that no-op unless their environment
//! variable is set, so CI's `--include-ignored` lane runs them harmlessly.
//!
//! A second test covers the recovery path: a bit-flipped newest checkpoint
//! must be detected and skipped, falling back to the previous good one.

use rand::SeedableRng;
use rush_repro::cluster::machine::{Machine, MachineConfig};
use rush_repro::cluster::topology::{FatTreeConfig, NodeId};
use rush_repro::core::checkpoint::CheckpointManager;
use rush_repro::obs::records_to_jsonl;
use rush_repro::sched::difftest::diff_results;
use rush_repro::sched::engine::{SchedulerConfig, SchedulerEngine};
use rush_repro::sched::predictor::CongestionOracle;
use rush_repro::simkit::fault::FaultConfig;
use rush_repro::simkit::rng::RngStreams;
use rush_repro::simkit::snapshot::SnapshotError;
use rush_repro::simkit::time::{SimDuration, SimTime};
use rush_repro::workloads::apps::AppId;
use rush_repro::workloads::jobgen::{generate_jobs, JobRequest, WorkloadSpec};
use std::path::PathBuf;
use std::process::Command;

/// The same pinned scenario as `tests/golden_trace.rs`: 64 nodes, 200 jobs,
/// node crashes from fault seed 42, a noise job, the deterministic
/// congestion oracle. Every knob is a constant, so both processes build
/// identical engines.
fn build_engine() -> SchedulerEngine {
    let machine = Machine::new(MachineConfig {
        tree: FatTreeConfig {
            pods: 1,
            edge_per_pod: 4,
            nodes_per_edge: 16,
            ..FatTreeConfig::tiny()
        },
        ..MachineConfig::tiny(64)
    });
    let noise: Vec<NodeId> = (60..64).map(NodeId).collect();
    SchedulerEngine::new(
        machine,
        SchedulerConfig {
            sampling_interval: SimDuration::from_days(365),
            predictor_window: SimDuration::from_days(365),
            retention: SimDuration::from_days(400),
            faults: FaultConfig {
                seed: 42,
                node_mtbf: Some(SimDuration::from_mins(240)),
                ..FaultConfig::none()
            },
            ..SchedulerConfig::default()
        },
        Box::new(CongestionOracle::default()),
        0xA5,
    )
    .with_noise_job(noise, 8.0)
}

fn requests() -> Vec<JobRequest> {
    let spec = WorkloadSpec::standard(AppId::ALL.to_vec(), 200);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(2026);
    generate_jobs(&spec, &mut rng)
}

/// Simulated midpoint of the uninterrupted run, computed by running a
/// throwaway engine to completion — a pure function of the constants above.
fn midpoint() -> SimTime {
    let mut eng = build_engine();
    let result = eng.run(&requests());
    SimTime::from_micros((result.first_submit.as_micros() + result.last_end.as_micros()) / 2)
}

// ----- helper processes -------------------------------------------------

#[test]
#[ignore = "helper: spawned by resumed_process_trace_is_byte_identical"]
fn helper_full_run() {
    let Some(out) = std::env::var_os("RESUME_EQ_FULL_OUT") else {
        return;
    };
    let mut eng = build_engine();
    let result = eng.run(&requests());
    std::fs::write(out, records_to_jsonl(&result.events)).unwrap();
}

#[test]
#[ignore = "helper: spawned by resumed_process_trace_is_byte_identical"]
fn helper_checkpoint_half() {
    let Some(out) = std::env::var_os("RESUME_EQ_SNAPSHOT_OUT") else {
        return;
    };
    let cut = midpoint();
    let mut eng = build_engine();
    eng.prepare(&requests());
    while eng.now() < cut && eng.step().is_some() {}
    assert!(!eng.is_done(), "the midpoint must land mid-run");
    std::fs::write(out, eng.snapshot()).unwrap();
}

#[test]
#[ignore = "helper: spawned by resumed_process_trace_is_byte_identical"]
fn helper_resume_finish() {
    let Some(snap) = std::env::var_os("RESUME_EQ_SNAPSHOT_IN") else {
        return;
    };
    let out = std::env::var_os("RESUME_EQ_RESUMED_OUT").expect("output path");
    let bytes = std::fs::read(snap).unwrap();
    let mut eng = build_engine();
    eng.prepare(&requests());
    eng.resume(&bytes).expect("snapshot must restore");
    while eng.step().is_some() {}
    let result = eng.finalize();
    std::fs::write(out, records_to_jsonl(&result.events)).unwrap();
}

// ----- orchestrators ----------------------------------------------------

fn spawn_helper(name: &str, env: &[(&str, &PathBuf)]) {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = Command::new(exe);
    cmd.args(["--exact", name, "--ignored", "--nocapture"]);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let status = cmd.status().expect("spawn helper process");
    assert!(status.success(), "{name} failed with {status}");
}

#[test]
fn resumed_process_trace_is_byte_identical() {
    let dir = std::env::temp_dir().join(format!("rush-resume-eq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let full = dir.join("full.jsonl");
    let snap = dir.join("half.rushsnap");
    let resumed = dir.join("resumed.jsonl");

    spawn_helper("helper_full_run", &[("RESUME_EQ_FULL_OUT", &full)]);
    spawn_helper(
        "helper_checkpoint_half",
        &[("RESUME_EQ_SNAPSHOT_OUT", &snap)],
    );
    spawn_helper(
        "helper_resume_finish",
        &[
            ("RESUME_EQ_SNAPSHOT_IN", &snap),
            ("RESUME_EQ_RESUMED_OUT", &resumed),
        ],
    );

    let expected = std::fs::read(&full).unwrap();
    let actual = std::fs::read(&resumed).unwrap();
    assert!(!expected.is_empty(), "baseline trace must not be empty");
    assert!(
        expected == actual,
        "resumed-process trace diverged from the uninterrupted run \
         ({} vs {} bytes); inspect {}",
        expected.len(),
        actual.len(),
        dir.display()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

// ----- full-Quartz scale -------------------------------------------------

/// One 498-node pod of the full-Quartz machine: its engine and job stream.
struct Pod {
    name: String,
    seed: u64,
    machine: MachineConfig,
    sched: SchedulerConfig,
    requests: Vec<JobRequest>,
}

impl Pod {
    fn build_engine(&self) -> SchedulerEngine {
        SchedulerEngine::new(
            Machine::new(self.machine.clone()),
            self.sched,
            Box::new(CongestionOracle::default()),
            self.seed,
        )
    }
}

/// The full-Quartz campaign as six pods of 498 nodes (6 × 498 = 2988, the
/// machine's compute partition), each with its own seeded fault timeline
/// and job stream. With core-only background congestion and every job
/// inside one pod, the pods never interact, so each runs as its own
/// engine. Sampling is pinned coarse, as in [`build_engine`], so the trace
/// comparison dominates the runtime instead of counter synthesis.
fn quartz_pods() -> Vec<Pod> {
    (0..6)
        .map(|i| {
            let seed = RngStreams::new(0x2988).stream_seed(&format!("shard/{i}"));
            let spec = WorkloadSpec {
                node_counts: vec![8, 16, 32],
                submit_window: SimDuration::from_mins(10),
                ..WorkloadSpec::standard(AppId::ALL.to_vec(), 24)
            };
            let requests = generate_jobs(
                &spec,
                &mut rand::rngs::SmallRng::seed_from_u64(seed ^ 0x10B5),
            );
            Pod {
                name: format!("pod{i}"),
                seed,
                machine: MachineConfig {
                    tree: FatTreeConfig {
                        pods: 1,
                        edge_per_pod: 83,
                        nodes_per_edge: 6,
                        ..FatTreeConfig::tiny()
                    },
                    ..MachineConfig::tiny(seed ^ 0xC1A5)
                },
                sched: SchedulerConfig {
                    sampling_interval: SimDuration::from_days(365),
                    predictor_window: SimDuration::from_days(365),
                    retention: SimDuration::from_days(400),
                    faults: FaultConfig {
                        seed: seed ^ 0xFA17,
                        node_mtbf: Some(SimDuration::from_mins(240)),
                        ..FaultConfig::none()
                    },
                    ..SchedulerConfig::default()
                },
                requests,
            }
        })
        .collect()
}

/// Checkpoint/resume at full-Quartz scale: every pod of the 2988-node
/// campaign, snapshotted at its own midpoint and resumed into a fresh
/// engine, must produce a result byte-identical (encoded trace, outcome
/// key, scalars) to its uninterrupted baseline.
#[test]
fn sharded_full_quartz_checkpoint_resumes_byte_identical() {
    let mut settled = 0;
    for pod in quartz_pods() {
        let base = pod.build_engine().run(&pod.requests);
        settled += base.completed.len() + base.failed.len();
        let cut =
            SimTime::from_micros((base.first_submit.as_micros() + base.last_end.as_micros()) / 2);

        let mut eng = pod.build_engine();
        eng.prepare(&pod.requests);
        while eng.now() < cut && eng.step().is_some() {}
        assert!(
            !eng.is_done(),
            "{}: the midpoint must land mid-run",
            pod.name
        );
        let snapshot = eng.snapshot();
        drop(eng);

        let mut resumed = pod.build_engine();
        resumed.prepare(&pod.requests);
        resumed.resume(&snapshot).expect("snapshot must restore");
        while resumed.step().is_some() {}
        let result = resumed.finalize();

        let diff = diff_results(&base, &result);
        assert!(
            diff.is_identical(),
            "{}: resumed run diverged from baseline: {:?}",
            pod.name,
            diff
        );
    }
    assert_eq!(settled, 6 * 24, "every pod's jobs must be accounted for");
}

/// A bit-flipped newest checkpoint is detected (CRC) and recovery falls
/// back to the previous good one; the engine itself also refuses the
/// corrupted bytes outright.
#[test]
fn corrupted_checkpoint_falls_back_to_previous_good() {
    let dir = std::env::temp_dir().join(format!("rush-resume-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Take two genuine checkpoints from one run, a quarter apart.
    let cut = midpoint();
    let early = SimTime::from_micros(cut.as_micros() / 2);
    let mut eng = build_engine();
    eng.prepare(&requests());
    while eng.now() < early && eng.step().is_some() {}
    let good = eng.snapshot();
    let good_clock = eng.now().as_micros();
    while eng.now() < cut && eng.step().is_some() {}
    let later = eng.snapshot();
    let later_clock = eng.now().as_micros();
    assert!(later_clock > good_clock);

    // The newest one lands on disk with a flipped bit mid-body.
    let mut flipped = later.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x08;
    let mgr = CheckpointManager::new(&dir, 4).unwrap();
    mgr.write(good_clock, &good).unwrap();
    mgr.write(later_clock, &flipped).unwrap();

    // The engine refuses the corrupted blob…
    let mut direct = build_engine();
    direct.prepare(&requests());
    assert!(matches!(
        direct.resume(&flipped),
        Err(SnapshotError::CrcMismatch)
    ));

    // …and recovery degrades to the previous good checkpoint, which
    // restores and runs to completion.
    let (found, bytes) = mgr
        .load_latest_valid()
        .unwrap()
        .expect("good checkpoint must survive");
    assert!(
        found
            .to_str()
            .unwrap()
            .contains(&format!("{good_clock:020}")),
        "fallback must pick the earlier checkpoint, got {}",
        found.display()
    );
    let mut recovered = build_engine();
    recovered.prepare(&requests());
    recovered.resume(&bytes).expect("good checkpoint restores");
    while recovered.step().is_some() {}
    let result = recovered.finalize();
    assert_eq!(result.completed.len() + result.failed.len(), 200);
    std::fs::remove_dir_all(&dir).unwrap();
}
