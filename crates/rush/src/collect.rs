//! The longitudinal data-collection campaign (Section III).
//!
//! Control jobs for each proxy application are submitted 2–3 times a day at
//! random times over the campaign window, on randomly placed 16-node
//! allocations of the full machine. For each run we record:
//!
//! * the **counter features**: every counter of the three tables reduced
//!   with min/max/mean over the five minutes before the run, pooled over
//!   (a) a fixed machine-wide monitor-node sample (the "all nodes" scope)
//!   and (b) the job-exclusive nodes — both variants of Section III-A;
//! * the **probe features**: the ring/AllReduce wait-time triples run
//!   "right as each job is scheduled" (Section III-C);
//! * the **run time**, integrated piecewise against the machine's evolving
//!   congestion, exactly as the scheduler's execution engine does.
//!
//! Control jobs overlap like the paper's real submissions did; their mutual
//! contention is part of the signal.

use crate::config::CampaignConfig;
use rand::rngs::SmallRng;
use rand::Rng;
use rush_cluster::counters::{noise_seed, row_key, synthesize_row_into, COUNTER_COUNT};
use rush_cluster::machine::{Machine, SourceId};
use rush_cluster::noise::{Regime, RegimeOverride};
use rush_cluster::placement::{NodePool, PlacementPolicy};
use rush_cluster::topology::NodeId;
use rush_simkit::event::EventQueue;
use rush_simkit::rng::RngStreams;
use rush_simkit::stats::OnlineStats;
use rush_simkit::time::{SimDuration, SimTime};
use rush_workloads::apps::AppId;
use rush_workloads::probes::{run_probes, ProbeConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One control-job record — one row of the eventual dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlRun {
    /// The application.
    pub app: AppId,
    /// When the job started.
    pub start: SimTime,
    /// Observed run time, seconds.
    pub runtime_secs: f64,
    /// The 270 counter features aggregated over the machine-wide monitor
    /// sample.
    pub features_all: Vec<f64>,
    /// The 270 counter features aggregated over the job-exclusive nodes.
    pub features_job: Vec<f64>,
    /// The 9 MPI probe features.
    pub probe_features: [f64; 9],
}

/// Everything the campaign produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignData {
    /// The configuration that produced it.
    pub config: CampaignConfig,
    /// All completed control runs, in start order.
    pub runs: Vec<ControlRun>,
}

impl CampaignData {
    /// Runs of one application, in start order.
    pub fn runs_of(&self, app: AppId) -> Vec<&ControlRun> {
        self.runs.iter().filter(|r| r.app == app).collect()
    }

    /// Per-application run-time `(mean, std)` in seconds.
    pub fn runtime_stats(&self) -> HashMap<AppId, (f64, f64)> {
        let mut out = HashMap::new();
        for app in AppId::ALL {
            let times: Vec<f64> = self
                .runs
                .iter()
                .filter(|r| r.app == app)
                .map(|r| r.runtime_secs)
                .collect();
            if times.is_empty() {
                continue;
            }
            out.insert(
                app,
                (
                    rush_simkit::stats::mean(&times),
                    rush_simkit::stats::std_dev(&times),
                ),
            );
        }
        out
    }
}

/// Accumulates one scope's counter samples into min/max/mean features.
#[derive(Debug, Clone)]
struct WindowAccum {
    stats: Vec<OnlineStats>,
}

impl WindowAccum {
    fn new() -> Self {
        WindowAccum {
            stats: vec![OnlineStats::new(); 90],
        }
    }

    fn absorb(&mut self, values: &[f64]) {
        debug_assert_eq!(values.len(), 90);
        for (s, &v) in self.stats.iter_mut().zip(values) {
            s.push(v);
        }
    }

    /// The 270 features, `[min, max, mean]` per counter. Empty windows
    /// yield zeros (consistent with the telemetry aggregation).
    fn features(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(270);
        for s in &self.stats {
            if s.count() == 0 {
                out.extend_from_slice(&[0.0, 0.0, 0.0]);
            } else {
                out.extend_from_slice(&[s.min(), s.max(), s.mean()]);
            }
        }
        out
    }
}

/// A scheduled control run moving through its lifecycle.
#[derive(Debug)]
struct PlannedRun {
    app: AppId,
    start: SimTime,
    nodes: Vec<NodeId>,
    all_accum: WindowAccum,
    job_accum: WindowAccum,
    probe_features: [f64; 9],
    total_work: f64,
    remaining_work: f64,
    speed: f64,
    last_update: SimTime,
    generation: u64,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Allocate nodes for run `i` and begin its counter window.
    WindowOpen(usize),
    /// Take one window sample for run `i`.
    Sample(usize),
    /// Start run `i` (probes + launch).
    Start(usize),
    /// Finish run `i` if its generation still matches.
    Finish(usize, u64),
    /// Re-evaluate active-run speeds.
    Tick,
}

/// Executes the campaign and returns the collected data.
pub fn run_campaign(config: &CampaignConfig) -> CampaignData {
    assert!(!config.apps.is_empty(), "campaign needs applications");
    assert!(config.days > 0, "campaign needs at least one day");

    let streams = RngStreams::new(config.seed);
    let mut rng_sched = streams.stream("campaign/schedule");
    let mut rng_probe = streams.stream("campaign/probes");
    let mut rng_run = streams.stream("campaign/runs");
    let mut rng_place = streams.stream("campaign/place");

    let mut machine = Machine::new(config.machine_config());
    if let Some((from, to)) = config.storm_window() {
        machine.add_regime_override(RegimeOverride {
            from,
            to,
            regime: Regime::Storm,
        });
    }

    // Fixed machine-wide monitor sample (the "all nodes" scope).
    let node_count = machine.tree().node_count();
    let monitor_nodes: Vec<NodeId> = sample_distinct(
        &mut rng_sched,
        node_count,
        config.monitor_nodes.min(node_count) as usize,
    );

    // Schedule: per day, per app, 2–3 runs at random daytimes — but never
    // earlier than one window after t=0, so the first window is complete.
    let mut planned: Vec<(SimTime, AppId)> = Vec::new();
    for day in 0..config.days {
        for &app in &config.apps {
            let n = rng_sched.gen_range(config.min_runs_per_day..=config.max_runs_per_day);
            for _ in 0..n {
                let offset = rng_sched.gen_range(config.window.as_secs_f64()..86_400.0);
                let at = SimTime::from_days(u64::from(day)) + SimDuration::from_secs_f64(offset);
                planned.push((at, app));
            }
        }
    }
    planned.sort_by_key(|&(t, app)| (t, app.index()));

    let mut pool = NodePool::new(node_count, PlacementPolicy::Random);
    let mut runs: Vec<Option<PlannedRun>> = Vec::with_capacity(planned.len());
    let mut events: EventQueue<Ev> = EventQueue::new();
    let sample_rounds =
        (config.window.as_micros() / config.sample_interval.as_micros()).max(1) as u32;

    for (i, &(start, app)) in planned.iter().enumerate() {
        runs.push(Some(PlannedRun {
            app,
            start,
            nodes: Vec::new(),
            all_accum: WindowAccum::new(),
            job_accum: WindowAccum::new(),
            probe_features: [0.0; 9],
            total_work: 1.0,
            remaining_work: 0.0,
            speed: 1.0,
            last_update: start,
            generation: 0,
        }));
        events.schedule(start.saturating_sub(config.window), Ev::WindowOpen(i));
        events.schedule(start, Ev::Start(i));
    }

    let mut active: Vec<usize> = Vec::new();
    let mut completed: Vec<ControlRun> = Vec::new();
    let tick = SimDuration::from_secs(60);
    let probe_config = ProbeConfig::default();
    // One counter buffer for every sample of the campaign. Every sample is
    // read, so all its counters are synthesized as they are observed, keyed
    // like the telemetry store's.
    let mut counters: Vec<f64> = Vec::with_capacity(COUNTER_COUNT);
    let noise = noise_seed(machine.config().seed);

    while let Some(entry) = events.pop() {
        let now = entry.time;
        match entry.event {
            Ev::WindowOpen(i) => {
                machine.advance_to(now);
                let run = runs[i].as_mut().expect("window for finished run");
                run.nodes = pool
                    .allocate(config.job_nodes as usize, &mut rng_place)
                    .expect("campaign machine large enough for control jobs");
                // First sample immediately, the rest on the interval.
                for k in 0..sample_rounds {
                    events.schedule(
                        now + SimDuration::from_micros(
                            u64::from(k) * config.sample_interval.as_micros(),
                        ),
                        Ev::Sample(i),
                    );
                }
            }
            Ev::Sample(i) => {
                machine.advance_to(now);
                if let Some(run) = runs[i].as_mut() {
                    let mut sample = |node: NodeId, accum: &mut WindowAccum| {
                        counters.clear();
                        let key = row_key(noise, node.0, now.as_micros());
                        synthesize_row_into(&machine.observe(node), key, &mut counters);
                        accum.absorb(&counters);
                    };
                    // Job-exclusive scope.
                    for &node in &run.nodes {
                        sample(node, &mut run.job_accum);
                    }
                    // Machine-wide monitor scope.
                    for &node in &monitor_nodes {
                        sample(node, &mut run.all_accum);
                    }
                }
            }
            Ev::Start(i) => {
                machine.advance_to(now);
                settle_active(&mut runs, &active, &machine.now());
                let run = runs[i].as_mut().expect("starting finished run");
                // Probes first (Section III-C: "right as each job is
                // scheduled").
                let probes = run_probes(&mut machine, &run.nodes, &probe_config, &mut rng_probe);
                run.probe_features = probes.features();

                let app = run.app.descriptor();
                machine.register_load(SourceId(i as u64), run.nodes.clone(), app.intensity());
                let os = machine.draw_os_noise();
                let z: f64 =
                    rng_run.gen::<f64>() + rng_run.gen::<f64>() + rng_run.gen::<f64>() - 1.5;
                let intrinsic = (app.intrinsic_noise * 2.0 * z).exp();
                run.total_work = app.base_runtime_secs * os * intrinsic;
                run.remaining_work = run.total_work;
                run.last_update = now;
                active.push(i);
                refresh_speeds(&mut runs, &active, &mut machine, &mut events, now);
                if active.len() == 1 {
                    events.schedule(now + tick, Ev::Tick);
                }
            }
            Ev::Finish(i, generation) => {
                let valid = runs[i]
                    .as_ref()
                    .map(|r| r.generation == generation)
                    .unwrap_or(false);
                if !valid {
                    continue;
                }
                machine.advance_to(now);
                let mut run = runs[i].take().expect("double finish");
                machine.remove_load(SourceId(i as u64));
                pool.release(&run.nodes);
                active.retain(|&a| a != i);
                let elapsed = now.since(run.last_update).as_secs_f64();
                run.remaining_work = (run.remaining_work - elapsed * run.speed).max(0.0);
                completed.push(ControlRun {
                    app: run.app,
                    start: run.start,
                    runtime_secs: now.since(run.start).as_secs_f64(),
                    features_all: run.all_accum.features(),
                    features_job: run.job_accum.features(),
                    probe_features: run.probe_features,
                });
                refresh_speeds(&mut runs, &active, &mut machine, &mut events, now);
            }
            Ev::Tick => {
                if active.is_empty() {
                    continue;
                }
                machine.advance_to(now);
                settle_active(&mut runs, &active, &now);
                refresh_speeds(&mut runs, &active, &mut machine, &mut events, now);
                events.schedule(now + tick, Ev::Tick);
            }
        }
    }

    completed.sort_by_key(|r| r.start);
    CampaignData {
        config: config.clone(),
        runs: completed,
    }
}

/// Settles elapsed work for all active runs at their current speeds.
fn settle_active(runs: &mut [Option<PlannedRun>], active: &[usize], now: &SimTime) {
    for &i in active {
        if let Some(run) = runs[i].as_mut() {
            let elapsed = now.since(run.last_update).as_secs_f64();
            run.remaining_work = (run.remaining_work - elapsed * run.speed).max(0.0);
            run.last_update = *now;
        }
    }
}

/// Recomputes active-run speeds from machine state and reschedules their
/// finish events.
fn refresh_speeds(
    runs: &mut [Option<PlannedRun>],
    active: &[usize],
    machine: &mut Machine,
    events: &mut EventQueue<Ev>,
    now: SimTime,
) {
    for &i in active {
        let Some(run) = runs[i].as_mut() else {
            continue;
        };
        let congestion = machine.congestion_cached(SourceId(i as u64));
        let fs = machine.fs_saturation();
        let progress = 1.0 - run.remaining_work / run.total_work.max(1e-9);
        let slowdown = run.app.descriptor().slowdown_at(progress, congestion, fs);
        run.speed = 1.0 / slowdown;
        run.generation += 1;
        let finish_in = SimDuration::from_secs_f64(run.remaining_work / run.speed);
        events.schedule(now + finish_in, Ev::Finish(i, run.generation));
    }
}

/// Draws `count` distinct node ids uniformly.
fn sample_distinct(rng: &mut SmallRng, node_count: u32, count: usize) -> Vec<NodeId> {
    use rand::seq::SliceRandom;
    let mut all: Vec<u32> = (0..node_count).collect();
    all.shuffle(rng);
    let mut chosen: Vec<NodeId> = all.into_iter().take(count).map(NodeId).collect();
    chosen.sort_unstable();
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_campaign() -> CampaignData {
        run_campaign(&CampaignConfig::test_sized())
    }

    #[test]
    fn campaign_produces_expected_run_counts() {
        let data = small_campaign();
        // 4 days × 3 apps × 2–3 runs/day = 24–36 runs
        assert!(
            (24..=36).contains(&data.runs.len()),
            "got {} runs",
            data.runs.len()
        );
        for app in &data.config.apps {
            assert!(!data.runs_of(*app).is_empty(), "{app} must have runs");
        }
    }

    #[test]
    fn features_have_table_one_shape() {
        let data = small_campaign();
        for run in &data.runs {
            assert_eq!(run.features_all.len(), 270);
            assert_eq!(run.features_job.len(), 270);
            assert!(run.features_all.iter().all(|v| v.is_finite()));
            assert!(run.features_job.iter().all(|v| v.is_finite()));
            assert!(run
                .probe_features
                .iter()
                .all(|v| v.is_finite() && *v >= 0.0));
            // min <= mean <= max for each counter triple
            for c in 0..90 {
                let (mn, mx, mean) = (
                    run.features_job[c * 3],
                    run.features_job[c * 3 + 1],
                    run.features_job[c * 3 + 2],
                );
                assert!(mn <= mean + 1e-9 && mean <= mx + 1e-9, "counter {c}");
            }
        }
    }

    #[test]
    fn runtimes_are_plausible() {
        let data = small_campaign();
        for run in &data.runs {
            let base = run.app.descriptor().base_runtime_secs;
            assert!(
                run.runtime_secs >= base * 0.9,
                "{}: {} vs base {base}",
                run.app,
                run.runtime_secs
            );
            assert!(
                run.runtime_secs <= base * 5.0,
                "{}: {} vs base {base}",
                run.app,
                run.runtime_secs
            );
        }
    }

    #[test]
    fn campaign_produces_runtime_variation() {
        let data = small_campaign();
        let stats = data.runtime_stats();
        // The storm window plus regime noise must make at least one app
        // vary by more than 2% relative std.
        let max_rel = stats.values().map(|(m, s)| s / m).fold(0.0f64, f64::max);
        assert!(max_rel > 0.02, "campaign too calm: rel std {max_rel}");
    }

    #[test]
    fn runs_are_start_ordered() {
        let data = small_campaign();
        for pair in data.runs.windows(2) {
            assert!(pair[0].start <= pair[1].start);
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = run_campaign(&CampaignConfig::test_sized());
        let b = run_campaign(&CampaignConfig::test_sized());
        assert_eq!(a, b);
    }

    /// Pins the test-sized campaign's encoded bytes: counter noise must keep
    /// its keys, and probes and run timing must keep drawing the same RNG
    /// sequences and observing the same machine state.
    #[test]
    fn test_sized_campaign_encoding_is_pinned() {
        let text = crate::persist::encode_campaign(&small_campaign());
        assert_eq!(
            format!("{:016x}", rush_simkit::snapshot::fingerprint_str(&text)),
            "30506b4ac54db9c9"
        );
    }

    #[test]
    fn runtime_stats_cover_campaign_apps_only() {
        let data = small_campaign();
        let stats = data.runtime_stats();
        assert_eq!(stats.len(), 3);
        assert!(stats.contains_key(&AppId::Laghos));
        assert!(!stats.contains_key(&AppId::Kripke));
    }
}
