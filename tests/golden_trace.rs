//! Golden-trace regression tests: a fixed 64-node, 200-job, fault-injected
//! schedule must serialize to the byte-exact JSONL committed under
//! `tests/golden/`. Any change to event content, ordering, or encoding
//! shows up as a diff against the reference.
//!
//! To regenerate the reference after an *intentional* schema or semantics
//! change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test golden_trace
//! ```
//!
//! and commit the rewritten file together with the change that motivated it.

use rand::SeedableRng;
use rush_repro::cluster::machine::{Machine, MachineConfig};
use rush_repro::cluster::topology::{FatTreeConfig, NodeId};
use rush_repro::obs::records_to_jsonl;
use rush_repro::sched::engine::{ScheduleResult, SchedulerConfig, SchedulerEngine};
use rush_repro::sched::predictor::CongestionOracle;
use rush_repro::simkit::fault::FaultConfig;
use rush_repro::simkit::time::SimDuration;
use rush_repro::workloads::apps::AppId;
use rush_repro::workloads::jobgen::{generate_jobs, WorkloadSpec};
use std::path::PathBuf;

/// The pinned golden scenario: 64 nodes (1 pod × 4 edge × 16), 200 jobs,
/// node crashes from fault seed 42, a noise job on the top four nodes, and
/// the deterministic congestion oracle as the predictor — every knob is a
/// constant, so the trace is a pure function of this file.
fn golden_run(jobs: usize) -> ScheduleResult {
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
    let mut engine = SchedulerEngine::new(
        machine,
        SchedulerConfig {
            // The oracle reads machine state directly; counter sampling is
            // effectively off so the telemetry-quality gate never trips.
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
    .with_noise_job(noise, 8.0);

    let spec = WorkloadSpec::standard(AppId::ALL.to_vec(), jobs);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(2026);
    let requests = generate_jobs(&spec, &mut rng);
    engine.run(&requests)
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/schedule_64n_200j_fault42.jsonl")
}

#[test]
fn golden_trace_matches_committed_reference() {
    let actual = records_to_jsonl(&golden_run(200).events);

    // The scenario must stay rich enough to pin every event family the
    // log serializes — a reference full of submissions alone would let
    // encoding regressions in the rarer records slip through.
    for kind in [
        "job_submitted",
        "job_started",
        "job_finished",
        "job_skipped",
        "predictor_verdict",
        "node_down",
        "node_up",
    ] {
        assert!(
            actual.contains(&format!("\"kind\":\"{kind}\"")),
            "golden scenario no longer produces any {kind} event"
        );
    }

    let path = golden_path();
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(&path, &actual).expect("write golden reference");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden reference {}: {e}\n\
             regenerate with: GOLDEN_BLESS=1 cargo test --test golden_trace",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "trace diverged from {} ({} expected lines, {} actual)\n\
         if the change is intentional, re-bless with:\n\
         GOLDEN_BLESS=1 cargo test --test golden_trace",
        path.display(),
        expected.lines().count(),
        actual.lines().count()
    );
}

/// Slower determinism soak for CI's `--include-ignored` lane: the same
/// seeded scenario executed twice in-process must serialize to identical
/// bytes, independent of the committed reference.
#[test]
#[ignore = "slow determinism soak; run via cargo test -- --include-ignored"]
fn golden_scenario_replays_byte_exactly() {
    let a = golden_run(200);
    let b = golden_run(200);
    assert_eq!(records_to_jsonl(&a.events), records_to_jsonl(&b.events));
    // The registry snapshot replays too.
    assert_eq!(a.metrics.to_json(), b.metrics.to_json());
    assert_eq!(a.metrics.to_csv(), b.metrics.to_csv());
}
