//! Seeded chaos campaign harness.
//!
//! A chaos campaign answers the resilience question the differential and
//! invariant harnesses each answer only half of: *under randomized-but-
//! reproducible performance faults, does every scheduling scheme stay
//! correct, and how much does its service quality degrade?* The harness
//! samples fault scenarios from a seeded grammar (node crashes, straggler
//! degradations, congestion storms, node flaps — any subset, with
//! randomized intensities), runs each scenario through the three schemes
//! of the paper's comparison (FCFS, FCFS+EASY, RUSH), and folds two
//! verdicts per run into one machine-readable report:
//!
//! * **metric degradation** — bounded slowdown, utilization, mean wait
//!   and makespan against the scheme's fault-free baseline on the *same*
//!   workload (the workload is fixed across scenarios so the fault
//!   timeline is the only moving part);
//! * **invariant violations** — every run executes under the
//!   [`crate::audit`] auditor in `Log` + every-event mode, so a fault
//!   that corrupts engine state is counted, not hidden.
//!
//! The whole campaign is a pure function of [`ChaosConfig`]: the report
//! renders to canonical JSON ([`ChaosReport::to_json`]) and identical
//! configs produce byte-identical reports — which is what the CI
//! `chaos-smoke` lane asserts by running the campaign twice. Worst-case
//! scenarios are reported with their sampled fault seed so a regression
//! hunt can replay exactly the timeline that hurt.

use crate::audit::{AuditConfig, AuditPolicy};
use crate::engine::{BackfillPolicy, ScheduleResult, SchedulerConfig, SchedulerEngine};
use crate::predictor::{CongestionOracle, NeverVaries, VariabilityPredictor};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use rush_cluster::machine::{Machine, MachineConfig};
use rush_cluster::topology::FatTreeConfig;
use rush_obs::json::{escape_str, JsonObject};
use rush_simkit::fault::FaultConfig;
use rush_simkit::rng::RngStreams;
use rush_simkit::time::SimDuration;
use rush_workloads::apps::AppId;
use rush_workloads::jobgen::{generate_jobs, JobRequest, WorkloadSpec};

/// Everything that parameterizes a campaign. The report is a pure
/// function of this struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Master seed: workload, machine, engine and every scenario's fault
    /// timeline derive from it through named [`RngStreams`].
    pub seed: u64,
    /// Scenarios sampled from the grammar.
    pub scenarios: u32,
    /// Machine size; must be a positive multiple of 8 (the fixed edge
    /// width, as in [`crate::difftest::DiffScenario`]).
    pub nodes: u32,
    /// Jobs in the (scenario-invariant) workload.
    pub jobs: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 42,
            scenarios: 8,
            nodes: 64,
            jobs: 500,
        }
    }
}

/// The three schemes of the paper's comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Strict FCFS: no backfilling, no RUSH delays.
    Fcfs,
    /// FCFS + EASY backfilling (Algorithm 1), no RUSH delays.
    Easy,
    /// EASY + the RUSH variability-aware `Start()` (Algorithm 2), driven
    /// by the congestion-threshold oracle.
    Rush,
}

impl Scheme {
    /// All schemes, in report order.
    pub const ALL: [Scheme; 3] = [Scheme::Fcfs, Scheme::Easy, Scheme::Rush];

    /// Stable lowercase name (report keys).
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Fcfs => "fcfs",
            Scheme::Easy => "easy",
            Scheme::Rush => "rush",
        }
    }

    fn predictor(self) -> Box<dyn VariabilityPredictor> {
        match self {
            Scheme::Rush => Box::new(CongestionOracle::default()),
            _ => Box::new(NeverVaries),
        }
    }

    fn config(self, faults: FaultConfig) -> SchedulerConfig {
        let mut config = SchedulerConfig {
            faults,
            // Log (not FailFast) so one violation cannot abort the
            // campaign: the report counts them and CI asserts zero.
            audit: AuditConfig {
                policy: AuditPolicy::Log,
                every_event: true,
            },
            ..SchedulerConfig::default()
        };
        match self {
            Scheme::Fcfs => {
                config.backfill = BackfillPolicy::None;
                config.skip_threshold = 0;
            }
            Scheme::Easy => config.skip_threshold = 0,
            Scheme::Rush => {}
        }
        config
    }
}

/// One sampled point of the scenario grammar: which fault processes are
/// armed and with what intensities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosScenario {
    /// Position in the campaign (also the sampling-stream index).
    pub index: u32,
    /// The fault-timeline seed drawn for this scenario — the replay
    /// handle the report surfaces for worst cases.
    pub fault_seed: u64,
    /// The armed fault processes.
    pub faults: FaultConfig,
}

impl ChaosScenario {
    /// Samples scenario `index` from the grammar. Every knob is drawn
    /// unconditionally (enabled or not) so the stream layout is fixed
    /// and scenario `i` is reproducible in isolation.
    pub fn sample(streams: &RngStreams, index: u32) -> ChaosScenario {
        let mut rng = streams.indexed_stream("chaos/scenario", u64::from(index));
        let fault_seed = rng.next_u64();
        let crash = rng.gen_bool(0.5);
        let crash_mtbf = rng.gen_range(15..=40u64);
        let crash_mttr = rng.gen_range(2..=6u64);
        let degrade = rng.gen_bool(0.6);
        let degrade_mtbf = rng.gen_range(10..=30u64);
        let degrade_duration = rng.gen_range(3..=8u64);
        let degrade_factor = rng.gen_range(300..=800u32);
        let mut storm = rng.gen_bool(0.6);
        let storm_mtbf = rng.gen_range(8..=25u64);
        let storm_duration = rng.gen_range(3..=8u64);
        let storm_intensity = rng.gen_range(300..=900u32);
        let flap = rng.gen_bool(0.4);
        let flap_mtbf = rng.gen_range(20..=45u64);
        let flap_period = rng.gen_range(1..=4u64);
        let flap_count = rng.gen_range(2..=4u32);
        // Every scenario injects something: an all-quiet draw falls back
        // to a storm, the cheapest fault that still perturbs timing.
        if !(crash || degrade || flap) {
            storm = true;
        }
        let faults = FaultConfig {
            seed: fault_seed,
            horizon: SimDuration::from_hours(2),
            node_mtbf: crash.then(|| SimDuration::from_mins(crash_mtbf)),
            node_mttr: SimDuration::from_mins(crash_mttr),
            degrade_mtbf: degrade.then(|| SimDuration::from_mins(degrade_mtbf)),
            degrade_duration: SimDuration::from_mins(degrade_duration),
            degrade_factor_milli: degrade_factor,
            storm_mtbf: storm.then(|| SimDuration::from_mins(storm_mtbf)),
            storm_duration: SimDuration::from_mins(storm_duration),
            storm_intensity_milli: storm_intensity,
            storm_regions: 1,
            flap_mtbf: flap.then(|| SimDuration::from_mins(flap_mtbf)),
            flap_period: SimDuration::from_mins(flap_period),
            flap_count,
            ..FaultConfig::none()
        };
        ChaosScenario {
            index,
            fault_seed,
            faults,
        }
    }

    fn faults_json(&self) -> String {
        let f = &self.faults;
        let mins = |d: Option<SimDuration>| match d {
            Some(d) => format!("{}", d.as_micros() / 60_000_000),
            None => "null".to_string(),
        };
        JsonObject::new()
            .raw("node_mtbf_min", &mins(f.node_mtbf))
            .u64("node_mttr_min", f.node_mttr.as_micros() / 60_000_000)
            .raw("degrade_mtbf_min", &mins(f.degrade_mtbf))
            .u64(
                "degrade_duration_min",
                f.degrade_duration.as_micros() / 60_000_000,
            )
            .u64("degrade_factor_milli", u64::from(f.degrade_factor_milli))
            .raw("storm_mtbf_min", &mins(f.storm_mtbf))
            .u64(
                "storm_duration_min",
                f.storm_duration.as_micros() / 60_000_000,
            )
            .u64("storm_intensity_milli", u64::from(f.storm_intensity_milli))
            .raw("flap_mtbf_min", &mins(f.flap_mtbf))
            .u64("flap_period_min", f.flap_period.as_micros() / 60_000_000)
            .u64("flap_count", u64::from(f.flap_count))
            .finish()
    }
}

/// The service-quality fingerprint of one engine run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchemeRun {
    /// Jobs that finished.
    pub completed: u64,
    /// Jobs that exhausted their retry budget.
    pub failed: u64,
    /// Mean bounded slowdown over completed jobs.
    pub mean_bounded_slowdown: f64,
    /// Node-seconds over nodes × makespan.
    pub utilization: f64,
    /// Mean queue wait, seconds.
    pub mean_wait_secs: f64,
    /// First submit to last completion, seconds.
    pub makespan_secs: f64,
    /// RUSH delays issued.
    pub total_skips: u64,
    /// Kill-requeue events.
    pub requeues: u64,
    /// Node crashes delivered.
    pub node_failures: u64,
    /// Invariant violations the auditor recorded (target: zero).
    pub audit_violations: u64,
}

impl SchemeRun {
    fn from_result(result: &ScheduleResult, nodes: u32) -> SchemeRun {
        let makespan = result.makespan();
        SchemeRun {
            completed: result.completed.len() as u64,
            failed: result.failed.len() as u64,
            mean_bounded_slowdown: result.replay.mean_bounded_slowdown(),
            utilization: result.replay.utilization(nodes as usize, makespan),
            mean_wait_secs: result.replay.mean_wait_secs(),
            makespan_secs: makespan.as_secs_f64(),
            total_skips: result.total_skips,
            requeues: result.requeues,
            node_failures: result.node_failures,
            audit_violations: result
                .metrics
                .counter_by_name("audit.violations")
                .unwrap_or(0),
        }
    }

    fn to_json(self) -> String {
        JsonObject::new()
            .u64("completed", self.completed)
            .u64("failed", self.failed)
            .f64("mean_bounded_slowdown", self.mean_bounded_slowdown)
            .f64("utilization", self.utilization)
            .f64("mean_wait_s", self.mean_wait_secs)
            .f64("makespan_s", self.makespan_secs)
            .u64("total_skips", self.total_skips)
            .u64("requeues", self.requeues)
            .u64("node_failures", self.node_failures)
            .u64("audit_violations", self.audit_violations)
            .finish()
    }
}

/// One scheme's verdict under one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeOutcome {
    /// The scheme.
    pub scheme: Scheme,
    /// Metrics of the run.
    pub run: SchemeRun,
    /// `mean_bounded_slowdown` over the scheme's fault-free baseline
    /// (1.0 = no degradation; baselines of 0 map to 1.0).
    pub slowdown_ratio: f64,
    /// `utilization` minus the baseline's (≤ 0 when faults hurt).
    pub utilization_delta: f64,
}

/// One scenario's verdict across all schemes.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// The sampled scenario.
    pub scenario: ChaosScenario,
    /// Per-scheme outcomes in [`Scheme::ALL`] order.
    pub schemes: Vec<SchemeOutcome>,
}

/// Per-scheme fold over the whole campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeSummary {
    /// The scheme.
    pub scheme: Scheme,
    /// Its fault-free baseline on the campaign workload.
    pub baseline: SchemeRun,
    /// Mean slowdown ratio across scenarios.
    pub mean_slowdown_ratio: f64,
    /// The campaign's worst slowdown ratio for this scheme...
    pub worst_slowdown_ratio: f64,
    /// ...observed in this scenario index...
    pub worst_scenario: u32,
    /// ...whose fault timeline replays from this seed.
    pub worst_fault_seed: u64,
    /// Largest utilization loss vs. baseline (≥ 0).
    pub worst_utilization_drop: f64,
    /// Auditor violations summed over every run of this scheme.
    pub audit_violations: u64,
}

/// The campaign's full result; renders to canonical JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// The campaign parameters.
    pub config: ChaosConfig,
    /// Per-scenario outcomes in sampling order.
    pub scenarios: Vec<ScenarioOutcome>,
    /// Per-scheme folds in [`Scheme::ALL`] order.
    pub summaries: Vec<SchemeSummary>,
}

impl ChaosReport {
    /// Auditor violations summed over every run of the campaign
    /// (baselines included).
    pub fn total_violations(&self) -> u64 {
        self.summaries.iter().map(|s| s.audit_violations).sum()
    }

    /// Renders the report as canonical JSON: fixed key order, no
    /// whitespace, shortest-roundtrip floats — identical configs yield
    /// byte-identical text.
    pub fn to_json(&self) -> String {
        let scheme_names: Vec<String> = Scheme::ALL.iter().map(|s| escape_str(s.name())).collect();
        let mut baseline = JsonObject::new();
        for s in &self.summaries {
            baseline = baseline.raw(s.scheme.name(), &s.baseline.to_json());
        }
        let runs: Vec<String> = self
            .scenarios
            .iter()
            .map(|o| {
                let mut schemes = JsonObject::new();
                for so in &o.schemes {
                    let body = JsonObject::new()
                        .raw("run", &so.run.to_json())
                        .f64("slowdown_ratio", so.slowdown_ratio)
                        .f64("utilization_delta", so.utilization_delta)
                        .finish();
                    schemes = schemes.raw(so.scheme.name(), &body);
                }
                JsonObject::new()
                    .u64("scenario", u64::from(o.scenario.index))
                    .u64("fault_seed", o.scenario.fault_seed)
                    .raw("faults", &o.scenario.faults_json())
                    .raw("schemes", &schemes.finish())
                    .finish()
            })
            .collect();
        let mut worst = JsonObject::new();
        for s in &self.summaries {
            worst = worst.raw(
                s.scheme.name(),
                &JsonObject::new()
                    .u64("scenario", u64::from(s.worst_scenario))
                    .u64("fault_seed", s.worst_fault_seed)
                    .f64("slowdown_ratio", s.worst_slowdown_ratio)
                    .f64("mean_slowdown_ratio", s.mean_slowdown_ratio)
                    .f64("worst_utilization_drop", s.worst_utilization_drop)
                    .finish(),
            );
        }
        let summary = JsonObject::new()
            .u64("total_audit_violations", self.total_violations())
            .raw("worst_case", &worst.finish())
            .finish();
        JsonObject::new()
            .str("schema", "chaos_report/v1")
            .u64("seed", self.config.seed)
            .u64("scenarios", u64::from(self.config.scenarios))
            .u64("nodes", u64::from(self.config.nodes))
            .u64("jobs", self.config.jobs as u64)
            .raw("schemes", &format!("[{}]", scheme_names.join(",")))
            .raw("baseline", &baseline.finish())
            .raw("runs", &format!("[{}]", runs.join(",")))
            .raw("summary", &summary)
            .finish()
    }
}

fn machine_config(config: &ChaosConfig, streams: &RngStreams) -> MachineConfig {
    assert!(
        config.nodes >= 8 && config.nodes.is_multiple_of(8),
        "chaos nodes must be a positive multiple of 8, got {}",
        config.nodes
    );
    MachineConfig {
        tree: FatTreeConfig {
            pods: 1,
            edge_per_pod: config.nodes / 8,
            nodes_per_edge: 8,
            ..FatTreeConfig::tiny()
        },
        ..MachineConfig::tiny(streams.stream_seed("chaos/machine"))
    }
}

/// The campaign's scenario-invariant workload: jobs of 2/4/8 nodes over
/// a half-hour submit window, drawn from the master seed's workload
/// stream. Fixing it is what makes "degradation vs. baseline" a
/// like-for-like comparison.
pub fn campaign_workload(config: &ChaosConfig) -> Vec<JobRequest> {
    let streams = RngStreams::new(config.seed);
    let spec = WorkloadSpec {
        node_counts: vec![2, 4, 8],
        submit_window: SimDuration::from_mins(30),
        ..WorkloadSpec::standard(AppId::ALL.to_vec(), config.jobs)
    };
    generate_jobs(
        &spec,
        &mut SmallRng::seed_from_u64(streams.stream_seed("chaos/workload")),
    )
}

fn run_one(
    config: &ChaosConfig,
    streams: &RngStreams,
    scheme: Scheme,
    faults: FaultConfig,
    workload: &[JobRequest],
) -> ScheduleResult {
    let machine = Machine::new(machine_config(config, streams));
    let mut engine = SchedulerEngine::new(
        machine,
        scheme.config(faults),
        scheme.predictor(),
        streams.stream_seed("chaos/engine"),
    );
    engine.run(workload)
}

/// Runs the full campaign: one fault-free baseline per scheme, then one
/// run per scenario and scheme.
pub fn run_chaos(config: &ChaosConfig) -> ChaosReport {
    let streams = RngStreams::new(config.seed);
    let workload = campaign_workload(config);

    let baselines: Vec<SchemeRun> = Scheme::ALL
        .iter()
        .map(|&scheme| {
            let result = run_one(config, &streams, scheme, FaultConfig::none(), &workload);
            SchemeRun::from_result(&result, config.nodes)
        })
        .collect();

    let mut scenarios = Vec::with_capacity(config.scenarios as usize);
    for index in 0..config.scenarios {
        let scenario = ChaosScenario::sample(&streams, index);
        let schemes = Scheme::ALL
            .iter()
            .zip(&baselines)
            .map(|(&scheme, baseline)| {
                let result = run_one(config, &streams, scheme, scenario.faults, &workload);
                let run = SchemeRun::from_result(&result, config.nodes);
                let slowdown_ratio = if baseline.mean_bounded_slowdown > 0.0 {
                    run.mean_bounded_slowdown / baseline.mean_bounded_slowdown
                } else {
                    1.0
                };
                SchemeOutcome {
                    scheme,
                    run,
                    slowdown_ratio,
                    utilization_delta: run.utilization - baseline.utilization,
                }
            })
            .collect();
        scenarios.push(ScenarioOutcome { scenario, schemes });
    }

    let summaries = Scheme::ALL
        .iter()
        .enumerate()
        .map(|(i, &scheme)| {
            let outcomes: Vec<&SchemeOutcome> = scenarios.iter().map(|s| &s.schemes[i]).collect();
            let worst = outcomes
                .iter()
                .zip(&scenarios)
                .max_by(|(a, _), (b, _)| {
                    a.slowdown_ratio
                        .partial_cmp(&b.slowdown_ratio)
                        .expect("finite ratios")
                })
                .map(|(o, s)| (s.scenario.index, s.scenario.fault_seed, o.slowdown_ratio));
            let (worst_scenario, worst_fault_seed, worst_slowdown_ratio) =
                worst.unwrap_or((0, 0, 1.0));
            let mean_slowdown_ratio = if outcomes.is_empty() {
                1.0
            } else {
                outcomes.iter().map(|o| o.slowdown_ratio).sum::<f64>() / outcomes.len() as f64
            };
            SchemeSummary {
                scheme,
                baseline: baselines[i],
                mean_slowdown_ratio,
                worst_slowdown_ratio,
                worst_scenario,
                worst_fault_seed,
                worst_utilization_drop: outcomes
                    .iter()
                    .map(|o| (-o.utilization_delta).max(0.0))
                    .fold(0.0, f64::max),
                audit_violations: baselines[i].audit_violations
                    + outcomes.iter().map(|o| o.run.audit_violations).sum::<u64>(),
            }
        })
        .collect();

    ChaosReport {
        config: *config,
        scenarios,
        summaries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ChaosConfig {
        ChaosConfig {
            seed: 7,
            scenarios: 2,
            nodes: 16,
            jobs: 16,
        }
    }

    #[test]
    fn every_scenario_arms_at_least_one_fault_process() {
        let streams = RngStreams::new(99);
        for i in 0..32 {
            let s = ChaosScenario::sample(&streams, i);
            assert!(
                s.faults.node_mtbf.is_some()
                    || s.faults.degrade_mtbf.is_some()
                    || s.faults.storm_mtbf.is_some()
                    || s.faults.flap_mtbf.is_some(),
                "scenario {i} armed nothing"
            );
        }
    }

    #[test]
    fn scenario_sampling_is_stable_per_index() {
        let streams = RngStreams::new(5);
        let a = ChaosScenario::sample(&streams, 3);
        let b = ChaosScenario::sample(&streams, 3);
        assert_eq!(a, b);
        assert_ne!(a, ChaosScenario::sample(&streams, 4));
    }

    #[test]
    fn identical_configs_render_byte_identical_reports() {
        let a = run_chaos(&tiny()).to_json();
        let b = run_chaos(&tiny()).to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"schema\":\"chaos_report/v1\""), "{a}");
    }

    #[test]
    fn campaign_is_clean_and_complete_on_the_tiny_config() {
        let config = tiny();
        let report = run_chaos(&config);
        assert_eq!(report.scenarios.len(), 2);
        assert_eq!(report.summaries.len(), 3);
        assert_eq!(report.total_violations(), 0, "auditor found violations");
        for outcome in &report.scenarios {
            for so in &outcome.schemes {
                assert_eq!(
                    so.run.completed + so.run.failed,
                    config.jobs as u64,
                    "{}: jobs lost under faults",
                    so.scheme.name()
                );
                assert!(so.slowdown_ratio.is_finite() && so.slowdown_ratio > 0.0);
            }
        }
    }

    #[test]
    fn different_seeds_change_the_report() {
        let a = run_chaos(&tiny());
        let b = run_chaos(&ChaosConfig { seed: 8, ..tiny() });
        assert_ne!(a.to_json(), b.to_json());
    }

    #[test]
    fn faults_degrade_service_quality_somewhere() {
        // Not every scenario must hurt, but across the campaign at least
        // one scheme sees its slowdown move off the baseline.
        let report = run_chaos(&tiny());
        assert!(
            report
                .scenarios
                .iter()
                .flat_map(|s| &s.schemes)
                .any(|o| (o.slowdown_ratio - 1.0).abs() > 1e-9
                    || o.utilization_delta.abs() > 1e-9
                    || o.run.node_failures > 0),
            "no scenario perturbed any scheme"
        );
    }
}
