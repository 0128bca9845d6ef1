//! Differential equivalence harness.
//!
//! Pod-sharded execution ([`crate::shard`]) and streaming engine seeding
//! ([`crate::source`]) carry the same contract: they change how the
//! simulator is driven, never what it decides. This module makes that
//! contract mechanically checkable — build one seeded scenario, run it two
//! ways (serial vs. parallel shards, materialized vs. streamed requests),
//! and compare the results *byte for byte*: the encoded event log and load
//! series, every completed and failed job's placement and timing, and the
//! outcome scalars. On mismatch the harness names the first diverging log
//! record — the actionable datum when bisecting a determinism regression —
//! instead of a bare `assert_eq` dump of two multi-megabyte structures.
//!
//! The same comparison, folded into one [`outcome_digest`] per scenario,
//! pins the engine's behaviour over time: `tests/golden_digests.rs` runs a
//! fixed grid of [`DiffScenario`]s against committed digests.
//!
//! The harness is library code (not `#[cfg(test)]`) so the proptests, the
//! golden test and the chaos campaign all drive the same comparison.

use crate::engine::{ScheduleResult, SchedulerConfig, SchedulerEngine};
use crate::job::Job;
use crate::metrics::RuntimeReference;
use crate::policy::{LearnedPolicy, PolicySpec};
use crate::predictor::{NeverVaries, PredictError, PredictorCtx, VariabilityClass};
use crate::service::{LabeledSample, LoadedModel, OnlineModelHost, ServiceConfig};
use crate::trace::log_to_val;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rush_cluster::machine::{Machine, MachineConfig};
use rush_cluster::topology::{FatTreeConfig, NodeId};
use rush_simkit::fault::FaultConfig;
use rush_simkit::snapshot::{self, Val};
use rush_simkit::time::SimDuration;
use rush_workloads::apps::AppId;
use rush_workloads::jobgen::{generate_jobs, WorkloadSpec};
use rush_workloads::scaling::ScalingMode;

/// One randomized-but-seeded scenario: everything that parameterizes an
/// engine run, small enough for proptest to shrink over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffScenario {
    /// Master seed for workload, machine, engine and fault streams.
    pub seed: u64,
    /// Node count; must be a multiple of 8 (the scenario's edge width).
    pub nodes: u32,
    /// Jobs in the stream.
    pub jobs: usize,
    /// Inject node crashes (MTBF 20 min over a 2 h horizon) so the
    /// kill/requeue/retry path is exercised.
    pub faults: bool,
    /// Inject performance faults (straggler degradations, congestion
    /// storms, node flaps) so survivor-speed refresh and flap requeue
    /// bookkeeping are exercised too.
    pub perf_faults: bool,
    /// Route predictor consultations through the online service (retrain,
    /// shadow evaluation, hot-swap) instead of a static predictor.
    pub online_predictor: bool,
    /// Order R1/R2 by the demo [`LearnedPolicy`] instead of FCFS, so
    /// parametric policies are covered by the same comparisons as the
    /// static orders.
    pub learned_policy: bool,
}

impl DiffScenario {
    /// The machine under test: one pod of `nodes / 8` edge switches.
    pub fn machine_config(&self) -> MachineConfig {
        assert!(
            self.nodes >= 8 && self.nodes.is_multiple_of(8),
            "scenario nodes must be a positive multiple of 8, got {}",
            self.nodes
        );
        MachineConfig {
            tree: FatTreeConfig {
                pods: 1,
                edge_per_pod: self.nodes / 8,
                nodes_per_edge: 8,
                ..FatTreeConfig::tiny()
            },
            ..MachineConfig::tiny(self.seed ^ 0xC1A5)
        }
    }

    /// Scheduler parameters with the scenario's fault and service
    /// dimensions applied.
    pub fn sched_config(&self) -> SchedulerConfig {
        let mut config = SchedulerConfig::default();
        if self.learned_policy {
            config.r1 = PolicySpec::Learned(LearnedPolicy::demo());
            config.r2 = PolicySpec::Learned(LearnedPolicy::demo());
        }
        if self.faults {
            config.faults = FaultConfig {
                seed: self.seed ^ 0xFA17,
                horizon: SimDuration::from_hours(2),
                node_mtbf: Some(SimDuration::from_mins(20)),
                node_mttr: SimDuration::from_mins(3),
                ..FaultConfig::default()
            };
        }
        if self.perf_faults {
            config.faults = FaultConfig {
                seed: self.seed ^ 0xFA17,
                horizon: SimDuration::from_hours(2),
                degrade_mtbf: Some(SimDuration::from_mins(15)),
                degrade_factor_milli: 400,
                storm_mtbf: Some(SimDuration::from_mins(10)),
                storm_intensity_milli: 700,
                flap_mtbf: Some(SimDuration::from_mins(25)),
                ..config.faults
            };
        }
        if self.online_predictor {
            config.service = ServiceConfig {
                retrain_every: SimDuration::from_secs(60),
                drift_window: 4,
                shadow_decisions: 2,
                shadow_quorum: 1,
                min_train_samples: 2,
                watch_samples: 2,
                ..ServiceConfig::default()
            };
        }
        config
    }

    /// The scenario's seeded job stream (jobs of 2/4/8 nodes so several
    /// run concurrently even on the smallest machine).
    pub fn workload(&self) -> Vec<rush_workloads::jobgen::JobRequest> {
        let spec = WorkloadSpec {
            node_counts: vec![2, 4, 8],
            submit_window: SimDuration::from_mins(10),
            ..WorkloadSpec::standard(AppId::ALL.to_vec(), self.jobs)
        };
        generate_jobs(&spec, &mut SmallRng::seed_from_u64(self.seed ^ 0x10B5))
    }

    /// Builds the scenario's engine.
    pub fn build_engine(&self) -> SchedulerEngine {
        let machine = Machine::new(self.machine_config());
        let mut engine = SchedulerEngine::new(
            machine,
            self.sched_config(),
            Box::new(NeverVaries),
            self.seed,
        );
        if self.online_predictor {
            let mut reference = RuntimeReference::new();
            for &nodes in &[2u32, 4, 8] {
                for app in AppId::ALL {
                    reference.insert(app, nodes, ScalingMode::Reference, 185.0, 20.0);
                }
            }
            engine =
                engine.with_online_predictor(Box::new(ThresholdHost), reference, "9.9".to_string());
        }
        engine
    }

    /// Runs the scenario to completion.
    pub fn run(&self) -> ScheduleResult {
        self.build_engine().run(&self.workload())
    }
}

/// Minimal [`OnlineModelHost`]: the artifact is a threshold string, every
/// feature row is a single zero, so a `"9.9"` model always predicts
/// NoVariation and retraining reproduces the incumbent. The service's
/// retrain/shadow/swap machinery runs for real — with deterministic
/// decisions — without dragging the ML stack into the harness.
pub struct ThresholdHost;

struct ThresholdModel {
    cut: f64,
}

impl LoadedModel for ThresholdModel {
    fn classify(&self, row: &[f64]) -> VariabilityClass {
        if row.first().copied().unwrap_or(0.0) >= self.cut {
            VariabilityClass::Variation
        } else {
            VariabilityClass::NoVariation
        }
    }
}

impl OnlineModelHost for ThresholdHost {
    fn assemble(
        &mut self,
        _job: &Job,
        _nodes: &[NodeId],
        _ctx: &mut PredictorCtx<'_>,
    ) -> Result<Vec<f64>, PredictError> {
        Ok(vec![0.0])
    }

    fn train(&mut self, _samples: &[LabeledSample], _seed: u64) -> Result<String, String> {
        Ok("9.9".to_string())
    }

    fn load(&self, artifact: &str) -> Result<Box<dyn LoadedModel>, String> {
        let cut: f64 = artifact.parse().map_err(|_| "bad artifact".to_string())?;
        Ok(Box::new(ThresholdModel { cut }))
    }

    fn name(&self) -> &str {
        "threshold-host"
    }
}

/// One observed difference between two runs of the same scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Which comparison failed (`log[i]`, `outcomes`, a scalar name...).
    pub what: String,
    /// The two sides, rendered.
    pub left: String,
    pub right: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: left = {}, right = {}",
            self.what, self.left, self.right
        )
    }
}

/// The verdict of [`diff_results`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffOutcome {
    /// Logs byte-identical, outcomes equal.
    Identical,
    /// At least one difference; ordered most-diagnostic first (first
    /// diverging log record, then outcome set, then scalars).
    Diverged(Vec<Divergence>),
}

impl DiffOutcome {
    /// True when the two runs were equivalent.
    pub fn is_identical(&self) -> bool {
        matches!(self, DiffOutcome::Identical)
    }
}

/// The sortable placement-and-timing fingerprint of one run's outcome:
/// `(job, start, end, nodes)` per completed job and
/// `(job, u64::MAX, last kill, [attempts])` per failed one, sorted.
pub fn outcome_key(result: &ScheduleResult) -> Vec<(u64, u64, u64, Vec<u32>)> {
    let mut key: Vec<(u64, u64, u64, Vec<u32>)> = result
        .completed
        .iter()
        .map(|c| {
            (
                c.job.id.0,
                c.start_at.as_micros(),
                c.end_at.as_micros(),
                c.nodes.iter().map(|n| n.0).collect(),
            )
        })
        .chain(result.failed.iter().map(|f| {
            (
                f.job.id.0,
                u64::MAX,
                f.last_killed_at.as_micros(),
                vec![f.attempts],
            )
        }))
        .collect();
    key.sort();
    key
}

/// The outcome scalars [`diff_results`] compares, in report order.
/// Event-queue statistics are deliberately absent: they measure how much
/// work the engine did, not what it decided.
pub fn outcome_scalars(result: &ScheduleResult) -> [(&'static str, u64); 7] {
    [
        ("completed", result.completed.len() as u64),
        ("failed", result.failed.len() as u64),
        ("total_skips", result.total_skips),
        ("fallback_decisions", result.fallback_decisions),
        ("requeues", result.requeues),
        ("node_failures", result.node_failures),
        ("last_end_us", result.last_end.as_micros()),
    ]
}

/// One 64-bit digest of everything [`diff_results`] compares: the
/// canonical log encoding (records and load series), the [`outcome_key`]
/// and the [`outcome_scalars`]. Two runs with equal digests are (up to
/// hash collisions) identical under [`diff_results`], so a committed
/// digest pins a scenario's behaviour without committing its log.
pub fn outcome_digest(result: &ScheduleResult) -> u64 {
    snapshot::fingerprint_str(&format!(
        "{}|{:?}|{:?}",
        log_val(result).render(),
        outcome_key(result),
        outcome_scalars(result)
    ))
}

/// The encoded log of a run: its records and load series.
fn log_val(result: &ScheduleResult) -> Val {
    log_to_val(&result.events, &result.trace)
}

/// Compares two runs of the same scenario.
///
/// The logs are compared twice: record by record, to name the first
/// diverging record by index (the bisection handle), and as encoded bytes
/// (`snapshot::encode` of the records plus the queue-length and busy-node
/// series), so a divergence in the load series alone cannot hide behind
/// identical records. Outcome sets and scalars follow.
pub fn diff_results(left: &ScheduleResult, right: &ScheduleResult) -> DiffOutcome {
    let mut diffs = Vec::new();

    let le = &left.events;
    let re = &right.events;
    if let Some(i) = (0..le.len().min(re.len())).find(|&i| le[i] != re[i]) {
        diffs.push(Divergence {
            what: format!(
                "log[{i}] (first diverging record of {} vs {})",
                le.len(),
                re.len()
            ),
            left: format!("{:?} @ {}", le[i].event, le[i].at),
            right: format!("{:?} @ {}", re[i].event, re[i].at),
        });
    } else if le.len() != re.len() {
        let (longer, at) = if le.len() > re.len() {
            (le, re.len())
        } else {
            (re, le.len())
        };
        diffs.push(Divergence {
            what: format!("log length (common prefix of {at} records matches)"),
            left: format!("{} records", le.len()),
            right: format!(
                "{} records (next unmatched: {:?} @ {})",
                re.len(),
                longer[at].event,
                longer[at].at
            ),
        });
    }

    let lb = snapshot::encode(0, 0, 0, &log_val(left));
    let rb = snapshot::encode(0, 0, 0, &log_val(right));
    if lb != rb && diffs.is_empty() {
        diffs.push(Divergence {
            what: "encoded log bytes (records match; load series differ)".to_string(),
            left: format!("{} bytes", lb.len()),
            right: format!("{} bytes", rb.len()),
        });
    }

    if outcome_key(left) != outcome_key(right) {
        let (lk, rk) = (outcome_key(left), outcome_key(right));
        let i = (0..lk.len().min(rk.len()))
            .find(|&i| lk[i] != rk[i])
            .unwrap_or(lk.len().min(rk.len()));
        diffs.push(Divergence {
            what: format!("outcome key[{i}]"),
            left: format!("{:?}", lk.get(i)),
            right: format!("{:?}", rk.get(i)),
        });
    }

    for ((name, l), (_, r)) in outcome_scalars(left)
        .into_iter()
        .zip(outcome_scalars(right))
    {
        if l != r {
            diffs.push(Divergence {
                what: name.to_string(),
                left: l.to_string(),
                right: r.to_string(),
            });
        }
    }

    if diffs.is_empty() {
        DiffOutcome::Identical
    } else {
        DiffOutcome::Diverged(diffs)
    }
}

/// Runs `scenario` through materialized `prepare` and through streaming
/// `prepare_streaming` over the same requests, and diffs the results. The
/// engine-seeding contract: the two paths deliver the identical event
/// sequence — same seq numbers, same log bytes, same outcomes.
pub fn diff_seeding(scenario: &DiffScenario) -> DiffOutcome {
    let requests = scenario.workload();
    let materialized = scenario.build_engine().run(&requests);
    let streaming = scenario
        .build_engine()
        .run_streaming(Box::new(crate::source::SliceSource::new(&requests)));
    diff_results(&materialized, &streaming)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(seed: u64) -> DiffScenario {
        DiffScenario {
            seed,
            nodes: 16,
            jobs: 12,
            faults: false,
            perf_faults: false,
            online_predictor: false,
            learned_policy: false,
        }
    }

    #[test]
    fn identical_runs_diff_clean() {
        let s = scenario(3);
        let a = s.run();
        let b = s.run();
        assert!(diff_results(&a, &b).is_identical());
    }

    #[test]
    fn streaming_and_materialized_seeding_agree() {
        assert_eq!(diff_seeding(&scenario(21)), DiffOutcome::Identical);
    }

    #[test]
    fn streaming_and_materialized_seeding_agree_under_faults() {
        let s = DiffScenario {
            faults: true,
            ..scenario(22)
        };
        assert_eq!(diff_seeding(&s), DiffOutcome::Identical);
    }

    #[test]
    fn divergent_seeds_name_the_first_differing_event() {
        let a = scenario(1).run();
        let b = scenario(2).run();
        match diff_results(&a, &b) {
            DiffOutcome::Diverged(diffs) => {
                assert!(
                    diffs[0].what.starts_with("log["),
                    "first divergence should be a log record, got {}",
                    diffs[0].what
                );
            }
            DiffOutcome::Identical => panic!("different seeds must diverge"),
        }
    }
}
