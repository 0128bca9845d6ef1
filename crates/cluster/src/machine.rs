//! The machine facade: topology + network + filesystem + noise in one
//! object with a small, scheduler-facing API.
//!
//! A [`Machine`] is advanced explicitly (`advance_to`) and queried for the
//! state jobs experience: network congestion over a node set, filesystem
//! saturation, OS-noise draws, and what each node can observe
//! ([`NodeObservation`], the input to counter synthesis in
//! [`crate::counters`]). Congestion and observations are reads of the
//! network's dense link table ([`crate::network`]); each registered load
//! keeps the indices of the links its allocation traverses.
//! Schedulers and workload models register the load of running jobs as
//! sources; the experiment noise job and the background regime process are
//! managed internally.

use crate::counters::NodeObservation;
use crate::lustre::{IoDemand, LustreConfig, LustreState};
use crate::network::{
    traversed_links, BackgroundScope, NetworkState, TrafficPattern, TrafficSource,
};
use crate::noise::{NoiseWalk, OsNoise, RegimeOverride, RegimeProcess};
use crate::topology::{FatTree, FatTreeConfig, NodeId};
use rush_obs::MetricsRegistry;
use rush_simkit::rng::{CountedRng, RngStreams};
use rush_simkit::snapshot::{SnapshotError, Val};
use rush_simkit::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifies a registered load source (usually a job id).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SourceId(pub u64);

/// The noise-job source uses a reserved id far above any job id.
const NOISE_SOURCE: u64 = u64::MAX;

/// How much of each shared resource a workload stresses, on `[0, 1]`.
///
/// These are the same three intensity axes the paper one-hot encodes in its
/// dataset (compute / network / I-O intensive); here they are continuous so
/// proxy apps can mix them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadIntensity {
    /// Fraction of time on the CPU (insensitive to shared resources).
    pub compute: f64,
    /// Network communication intensity.
    pub network: f64,
    /// Filesystem I/O intensity.
    pub io: f64,
}

impl WorkloadIntensity {
    /// A purely compute-bound workload.
    pub const COMPUTE: WorkloadIntensity = WorkloadIntensity {
        compute: 1.0,
        network: 0.0,
        io: 0.0,
    };

    /// Builds an intensity triple, clamping each axis to `[0, 1]`.
    pub fn new(compute: f64, network: f64, io: f64) -> Self {
        WorkloadIntensity {
            compute: compute.clamp(0.0, 1.0),
            network: network.clamp(0.0, 1.0),
            io: io.clamp(0.0, 1.0),
        }
    }

    /// The dominant axis as a one-hot `[compute, network, io]` vector — the
    /// encoding used by the dataset of Table I.
    pub fn one_hot(&self) -> [f64; 3] {
        let mut v = [0.0; 3];
        let axes = [self.compute, self.network, self.io];
        let max = axes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("intensities are finite"))
            .map(|(i, _)| i)
            .unwrap_or(0);
        v[max] = 1.0;
        v
    }
}

/// Per-job resource rates at full intensity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadScales {
    /// Per-node injection at `network = 1.0`, GB/s.
    pub net_gbps: f64,
    /// Per-node read bandwidth at `io = 1.0`, GB/s.
    pub read_gbps: f64,
    /// Per-node write bandwidth at `io = 1.0`, GB/s.
    pub write_gbps: f64,
    /// Per-node metadata rate at `io = 1.0`, kOps/s.
    pub meta_kops: f64,
}

impl Default for LoadScales {
    fn default() -> Self {
        LoadScales {
            net_gbps: 1.0,
            read_gbps: 0.15,
            write_gbps: 0.25,
            meta_kops: 0.5,
        }
    }
}

/// Machine construction parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Fat-tree shape.
    pub tree: FatTreeConfig,
    /// Filesystem pool.
    pub lustre: LustreConfig,
    /// Per-job resource rates at full intensity.
    pub load_scales: LoadScales,
    /// Interval between internal noise/regime updates.
    pub noise_update: SimDuration,
    /// OS-noise log-std.
    pub os_noise_sigma: f64,
    /// OS-noise factor cap.
    pub os_noise_cap: f64,
    /// Which links regime background traffic loads.
    pub background_scope: BackgroundScope,
    /// Master seed for all machine randomness.
    pub seed: u64,
}

impl MachineConfig {
    /// The 512-node single-pod reservation used by the scheduling
    /// experiments.
    pub fn experiment_pod(seed: u64) -> Self {
        // The reservation's aggregation fabric is modelled with deeper
        // oversubscription than the campaign machine: the 512-node pod's
        // schedulable jobs plus the noise job must actually contend, as
        // they visibly do in the paper's experiments.
        let mut tree = FatTreeConfig::single_pod();
        tree.pod_fabric_gbps = 600.0;
        MachineConfig {
            tree,
            lustre: LustreConfig::default(),
            load_scales: LoadScales::default(),
            noise_update: SimDuration::from_secs(30),
            os_noise_sigma: 0.008,
            os_noise_cap: 1.06,
            background_scope: BackgroundScope::CoreOnly,
            seed,
        }
    }

    /// The full Quartz-like machine used for the data-collection campaign.
    pub fn quartz_like(seed: u64) -> Self {
        MachineConfig {
            tree: FatTreeConfig::quartz_like(),
            background_scope: BackgroundScope::AllLinks,
            ..Self::experiment_pod(seed)
        }
    }

    /// A tiny machine for unit tests.
    pub fn tiny(seed: u64) -> Self {
        MachineConfig {
            tree: FatTreeConfig::tiny(),
            lustre: LustreConfig {
                aggregate_gbps: 10.0,
                metadata_weight: 0.05,
                ost_count: 4,
                stripe_count: 2,
            },
            load_scales: LoadScales::default(),
            noise_update: SimDuration::from_secs(10),
            os_noise_sigma: 0.01,
            os_noise_cap: 1.1,
            background_scope: BackgroundScope::AllLinks,
            seed,
        }
    }
}

/// Health of one compute node, as the resource manager sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum NodeHealth {
    /// In service.
    #[default]
    Up,
    /// Crashed: no job runs on it, no counters come from it.
    Down,
    /// Repaired but on probation: monitored again, still quarantined from
    /// placement until the probation ends.
    Suspect,
}

/// Cumulative node health-transition counts (edge-triggered: a transition
/// is counted only when the health actually changes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthStats {
    /// `Up`/`Suspect` → `Down` transitions.
    pub failures: u64,
    /// `Down` → `Suspect` transitions.
    pub recoveries: u64,
    /// `Down`/`Suspect` → `Up` transitions.
    pub trusts: u64,
}

/// A registered per-job load.
#[derive(Debug, Clone)]
struct RegisteredLoad {
    nodes: Vec<NodeId>,
    intensity: WorkloadIntensity,
    /// [`traversed_links`] of `nodes`, derived once at registration.
    links: Vec<u32>,
}

/// Configuration of the experiment noise job.
#[derive(Debug, Clone)]
struct NoiseJob {
    nodes: Vec<NodeId>,
    max_gbps: f64,
    walk: NoiseWalk,
}

/// The simulated machine.
///
/// ```
/// use rush_cluster::machine::{Machine, MachineConfig, SourceId, WorkloadIntensity};
/// use rush_cluster::topology::NodeId;
///
/// let mut machine = Machine::new(MachineConfig::tiny(7));
/// let nodes: Vec<NodeId> = (0..8).map(NodeId).collect();
/// assert_eq!(machine.congestion(&nodes), 0.0);
///
/// machine.register_load(SourceId(1), nodes.clone(), WorkloadIntensity::new(0.2, 0.9, 0.1));
/// assert!(machine.congestion(&nodes) > 0.0);
/// assert!(machine.fs_saturation() > 0.0);
///
/// machine.remove_load(SourceId(1));
/// assert_eq!(machine.congestion(&nodes), 0.0);
/// ```
pub struct Machine {
    config: MachineConfig,
    tree: FatTree,
    net: NetworkState,
    fs: LustreState,
    regime: RegimeProcess,
    noise_job: Option<NoiseJob>,
    loads: HashMap<SourceId, RegisteredLoad>,
    /// Owner map: which registered loads run on each node. Maintained by
    /// `register_load`/`remove_load`; turns per-node IO attribution from an
    /// O(loads) scan into an O(owners-of-node) lookup (the scheduler's node
    /// allocations are exclusive, so that is at most one).
    node_loads: Vec<Vec<SourceId>>,
    health: Vec<NodeHealth>,
    health_stats: HealthStats,
    /// Per-node straggler speed factor in milli-units (1000 = nominal).
    /// Integer so degrade/restore pairs cancel exactly and snapshots
    /// round-trip byte-identically.
    node_speed_milli: Vec<u32>,
    os_noise: OsNoise,
    rng_regime: CountedRng,
    rng_noise_job: CountedRng,
    rng_os: CountedRng,
    now: SimTime,
    last_noise_update: SimTime,
}

impl Machine {
    /// Builds an idle machine at `t = 0`.
    pub fn new(config: MachineConfig) -> Self {
        let streams = RngStreams::new(config.seed);
        let tree = FatTree::new(config.tree);
        let tree_nodes = tree.node_count();
        let fs = LustreState::new(config.lustre);
        let os_noise = OsNoise::new(config.os_noise_sigma, config.os_noise_cap);
        let mut rng_regime = streams.counted_stream("machine/regime");
        let regime = RegimeProcess::random_start(&mut rng_regime);
        let mut net = NetworkState::new();
        net.set_background_scope(config.background_scope);
        Machine {
            tree,
            fs,
            os_noise,
            net,
            regime,
            noise_job: None,
            loads: HashMap::new(),
            node_loads: vec![Vec::new(); tree_nodes as usize],
            health: vec![NodeHealth::Up; tree_nodes as usize],
            health_stats: HealthStats::default(),
            node_speed_milli: vec![1000; tree_nodes as usize],
            rng_regime,
            rng_noise_job: streams.counted_stream("machine/noise-job"),
            rng_os: streams.counted_stream("machine/os-noise"),
            now: SimTime::ZERO,
            last_noise_update: SimTime::ZERO,
            config,
        }
    }

    /// The fat-tree topology.
    pub fn tree(&self) -> &FatTree {
        &self.tree
    }

    /// The construction parameters.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Current machine time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Pins the background regime inside a window (used to script the
    /// Fig. 1 congestion spike).
    pub fn add_regime_override(&mut self, ov: RegimeOverride) {
        self.regime.add_override(ov);
    }

    /// Starts the experiment noise job: all-to-all traffic on `nodes` whose
    /// level follows a bounded random walk up to `max_gbps` per node
    /// (Section VI-A: "a noise job … that continuously sends variable
    /// amounts of all-to-all traffic").
    pub fn enable_noise_job(&mut self, nodes: Vec<NodeId>, max_gbps: f64) {
        let walk = NoiseWalk::experiment_default().with_random_level(&mut self.rng_noise_job);
        self.noise_job = Some(NoiseJob {
            nodes,
            max_gbps,
            walk,
        });
        self.apply_noise_job();
    }

    /// Stops the noise job.
    pub fn disable_noise_job(&mut self) {
        self.noise_job = None;
        self.net.remove_source(NOISE_SOURCE);
    }

    fn apply_noise_job(&mut self) {
        if let Some(nj) = &self.noise_job {
            self.net.add_source(
                NOISE_SOURCE,
                TrafficSource {
                    nodes: nj.nodes.clone(),
                    per_node_gbps: nj.walk.level() * nj.max_gbps,
                    pattern: TrafficPattern::AllToAll,
                },
            );
        }
    }

    /// Advances machine time to `t`, stepping the regime process and the
    /// noise-job walk on the configured update interval.
    pub fn advance_to(&mut self, t: SimTime) {
        if t <= self.now {
            self.now = self.now.max(t);
            return;
        }
        let dt = self.config.noise_update;
        while self.last_noise_update + dt <= t {
            let step_at = self.last_noise_update + dt;
            self.regime.step(step_at, dt, &mut self.rng_regime);
            if let Some(nj) = &mut self.noise_job {
                nj.walk.step(&mut self.rng_noise_job);
            }
            self.apply_noise_job();
            self.last_noise_update = step_at;
        }
        // Push regime backgrounds into network and filesystem.
        self.net.set_background_util(self.regime.network_util(t));
        self.fs
            .set_background_gbps(self.regime.fs_fraction(t) * self.fs.config().aggregate_gbps);
        self.now = t;
    }

    /// Removes `id` from the owner map (no-op if not registered).
    fn detach_owner(&mut self, id: SourceId) {
        if let Some(old) = self.loads.get(&id) {
            for &n in &old.nodes {
                self.node_loads[n.0 as usize].retain(|&s| s != id);
            }
        }
    }

    /// Registers the shared-resource load of a starting job.
    pub fn register_load(
        &mut self,
        id: SourceId,
        nodes: Vec<NodeId>,
        intensity: WorkloadIntensity,
    ) {
        self.detach_owner(id);
        for &n in &nodes {
            self.node_loads[n.0 as usize].push(id);
        }
        let s = &self.config.load_scales;
        self.net.add_source(
            id.0,
            TrafficSource {
                nodes: nodes.clone(),
                per_node_gbps: intensity.network * s.net_gbps,
                pattern: TrafficPattern::AllToAll,
            },
        );
        let n = nodes.len() as f64;
        self.fs.add_demand(
            id.0,
            IoDemand {
                read_gbps: intensity.io * s.read_gbps * n,
                write_gbps: intensity.io * s.write_gbps * n,
                metadata_kops: intensity.io * s.meta_kops * n,
            },
        );
        let links = traversed_links(&self.tree, &nodes);
        self.loads.insert(
            id,
            RegisteredLoad {
                nodes,
                intensity,
                links,
            },
        );
    }

    /// Removes a finished job's load; unknown ids are ignored.
    pub fn remove_load(&mut self, id: SourceId) {
        self.detach_owner(id);
        self.net.remove_source(id.0);
        self.fs.remove_demand(id.0);
        self.loads.remove(&id);
    }

    /// Number of registered job loads (noise job excluded).
    pub fn load_count(&self) -> usize {
        self.loads.len()
    }

    /// Network congestion index for `nodes` (see
    /// [`NetworkState::congestion`]).
    pub fn congestion(&mut self, nodes: &[NodeId]) -> f64 {
        self.net.congestion(&self.tree, nodes)
    }

    /// Congestion for registered load `id`: what [`Machine::congestion`]
    /// returns for its allocation, read through the link list derived when
    /// the load was registered.
    ///
    /// # Panics
    /// Panics if no load is registered under `id`.
    pub fn congestion_cached(&mut self, id: SourceId) -> f64 {
        let load = self
            .loads
            .get(&id)
            .expect("congestion of an unregistered load");
        self.net.congestion_over(&self.tree, &load.links)
    }

    /// Filesystem saturation (demand / capacity).
    pub fn fs_saturation(&self) -> f64 {
        self.fs.saturation()
    }

    /// Draws a per-run OS-noise slowdown factor (≥ 1).
    pub fn draw_os_noise(&mut self) -> f64 {
        self.os_noise.draw(&mut self.rng_os)
    }

    /// Assembles what `node` can observe right now; input to counter
    /// synthesis. The network view is three reads of the link table.
    pub fn observe(&mut self, node: NodeId) -> NodeObservation {
        let xmit = self.net.node_access_load(&self.tree, node);
        let edge_util = self.net.edge_uplink_util(&self.tree, node);
        let pod_util = self.net.upper_fabric_util(&self.tree, node);
        // Attribute I/O demand to the node through whichever job runs on
        // it. Allocations are exclusive, so the owner map holds at most one
        // load per node and the sum has at most one term.
        let (mut read, mut write, mut meta) = (0.0, 0.0, 0.0);
        let s = &self.config.load_scales;
        for id in &self.node_loads[node.0 as usize] {
            let load = &self.loads[id];
            read += load.intensity.io * s.read_gbps;
            write += load.intensity.io * s.write_gbps;
            meta += load.intensity.io * s.meta_kops;
        }
        let delivered = self.fs.delivered_fraction();
        NodeObservation {
            xmit_gbps: xmit,
            recv_gbps: xmit, // symmetric patterns: every byte sent is received
            edge_uplink_util: edge_util,
            pod_uplink_util: pod_util,
            read_gbps: read * delivered,
            write_gbps: write * delivered,
            meta_kops: meta * delivered,
            fs_saturation: self.fs.saturation(),
        }
    }

    /// Current noise-job injection level in GB/s per node (0 when disabled).
    pub fn noise_level_gbps(&self) -> f64 {
        self.noise_job
            .as_ref()
            .map(|nj| nj.walk.level() * nj.max_gbps)
            .unwrap_or(0.0)
    }

    /// Current background (regime) network utilization.
    pub fn background_util(&self) -> f64 {
        self.net.background_util()
    }

    /// Health of one node.
    pub fn node_health(&self, node: NodeId) -> NodeHealth {
        self.health[node.0 as usize]
    }

    /// Marks a node crashed. Loads registered across it keep flowing until
    /// their jobs are killed and removed — the driver owns that cleanup.
    pub fn fail_node(&mut self, node: NodeId) {
        if self.health[node.0 as usize] != NodeHealth::Down {
            self.health_stats.failures += 1;
        }
        self.health[node.0 as usize] = NodeHealth::Down;
    }

    /// Marks a repaired node `Suspect`: it reports counters again but the
    /// driver should keep it out of placement until [`Machine::trust_node`].
    pub fn recover_node(&mut self, node: NodeId) {
        if self.health[node.0 as usize] == NodeHealth::Down {
            self.health_stats.recoveries += 1;
        }
        self.health[node.0 as usize] = NodeHealth::Suspect;
    }

    /// Returns a node to full service after its probation.
    pub fn trust_node(&mut self, node: NodeId) {
        if self.health[node.0 as usize] != NodeHealth::Up {
            self.health_stats.trusts += 1;
        }
        self.health[node.0 as usize] = NodeHealth::Up;
    }

    /// Marks a node a straggler: everything running on it executes at
    /// `factor_milli / 1000` of nominal speed. Factors outside `(0, 1000]`
    /// are clamped into range.
    pub fn degrade_node(&mut self, node: NodeId, factor_milli: u32) {
        self.node_speed_milli[node.0 as usize] = factor_milli.clamp(1, 1000);
    }

    /// Restores a straggler to nominal speed.
    pub fn restore_node_speed(&mut self, node: NodeId) {
        self.node_speed_milli[node.0 as usize] = 1000;
    }

    /// Current straggler speed factor of one node, in milli-units.
    pub fn node_speed_milli(&self, node: NodeId) -> u32 {
        self.node_speed_milli[node.0 as usize]
    }

    /// Speed factor of an allocation: the slowest member node's factor,
    /// because a tightly coupled parallel job runs at its straggler's pace.
    /// `1.0` when no allocated node is degraded.
    pub fn allocation_speed_factor(&self, nodes: &[NodeId]) -> f64 {
        let min_milli = nodes
            .iter()
            .map(|n| self.node_speed_milli[n.0 as usize])
            .min()
            .unwrap_or(1000);
        f64::from(min_milli) / 1000.0
    }

    /// Number of nodes currently running degraded.
    pub fn degraded_node_count(&self) -> usize {
        self.node_speed_milli.iter().filter(|&&m| m < 1000).count()
    }

    /// Starts (or retunes) an injected congestion storm in `region`. Regions
    /// map onto pods modulo the pod count, so any region id is valid on any
    /// machine.
    pub fn start_storm(&mut self, region: u32, intensity_milli: u32) {
        let pod = region % self.config.tree.pods.max(1);
        self.net.set_storm(pod, intensity_milli);
    }

    /// Clears the injected storm in `region`.
    pub fn end_storm(&mut self, region: u32) {
        let pod = region % self.config.tree.pods.max(1);
        self.net.set_storm(pod, 0);
    }

    /// Number of pods currently under an injected storm.
    pub fn active_storm_count(&self) -> usize {
        self.net.storms().len()
    }

    /// Number of nodes currently crashed.
    pub fn down_node_count(&self) -> usize {
        self.health
            .iter()
            .filter(|h| **h == NodeHealth::Down)
            .count()
    }

    /// Cumulative health-transition counts since construction.
    pub fn health_stats(&self) -> HealthStats {
        self.health_stats
    }

    /// Captures all dynamic machine state as a snapshot value.
    ///
    /// The network and filesystem rebuild their link/OST loads from the
    /// current source set, so only the *registered* loads are captured; the
    /// link table and each load's link list are derived state and are
    /// reconstructed on restore.
    pub fn snapshot_state(&self) -> Val {
        let rng_val = |r: &CountedRng| {
            Val::map()
                .with("seed", Val::U64(r.seed()))
                .with("draws", Val::U64(r.draws()))
        };
        let mut loads: Vec<(&SourceId, &RegisteredLoad)> = self.loads.iter().collect();
        loads.sort_by_key(|(id, _)| **id);
        let loads_val = Val::List(
            loads
                .iter()
                .map(|(id, l)| {
                    Val::map()
                        .with("id", Val::U64(id.0))
                        .with(
                            "nodes",
                            Val::List(l.nodes.iter().map(|n| Val::U64(u64::from(n.0))).collect()),
                        )
                        .with("compute", Val::from_f64(l.intensity.compute))
                        .with("network", Val::from_f64(l.intensity.network))
                        .with("io", Val::from_f64(l.intensity.io))
                })
                .collect(),
        );
        // `noise` is a zero-or-one element list standing in for Option.
        let noise = Val::List(
            self.noise_job
                .iter()
                .map(|nj| {
                    Val::map()
                        .with(
                            "nodes",
                            Val::List(nj.nodes.iter().map(|n| Val::U64(u64::from(n.0))).collect()),
                        )
                        .with("max_gbps", Val::from_f64(nj.max_gbps))
                        .with("level", Val::from_f64(nj.walk.level()))
                        .with("base", Val::from_f64(nj.walk.base()))
                })
                .collect(),
        );
        let health = Val::List(
            self.health
                .iter()
                .map(|h| {
                    Val::U64(match h {
                        NodeHealth::Up => 0,
                        NodeHealth::Down => 1,
                        NodeHealth::Suspect => 2,
                    })
                })
                .collect(),
        );
        // Sparse straggler map: only degraded nodes appear, ascending.
        let node_speed = Val::List(
            self.node_speed_milli
                .iter()
                .enumerate()
                .filter(|(_, &m)| m != 1000)
                .map(|(n, &m)| {
                    Val::map()
                        .with("node", Val::U64(n as u64))
                        .with("milli", Val::U64(u64::from(m)))
                })
                .collect(),
        );
        let storms = Val::List(
            self.net
                .storms()
                .iter()
                .map(|&(pod, milli)| {
                    Val::map()
                        .with("pod", Val::U64(u64::from(pod)))
                        .with("milli", Val::U64(u64::from(milli)))
                })
                .collect(),
        );
        Val::map()
            .with("now_us", Val::U64(self.now.as_micros()))
            .with(
                "last_noise_update_us",
                Val::U64(self.last_noise_update.as_micros()),
            )
            .with("regime_index", Val::U64(self.regime.current_index()))
            .with("regime_wobble", Val::from_f64(self.regime.wobble()))
            .with("noise", noise)
            .with("loads", loads_val)
            .with("health", health)
            .with("failures", Val::U64(self.health_stats.failures))
            .with("recoveries", Val::U64(self.health_stats.recoveries))
            .with("trusts", Val::U64(self.health_stats.trusts))
            .with("node_speed", node_speed)
            .with("storms", storms)
            .with("rng_regime", rng_val(&self.rng_regime))
            .with("rng_noise_job", rng_val(&self.rng_noise_job))
            .with("rng_os", rng_val(&self.rng_os))
    }

    /// Restores dynamic state captured by [`Machine::snapshot_state`] into a
    /// machine freshly built with the *same* [`MachineConfig`].
    ///
    /// After restore, RNG streams sit at the exact draw the snapshot was
    /// taken at, loads and the noise job are re-registered (rebuilding the
    /// derived network/filesystem loads), and the regime-driven backgrounds
    /// are re-applied for the restored clock.
    pub fn restore_state(&mut self, v: &Val) -> Result<(), SnapshotError> {
        let restore_rng = |v: &Val| -> Result<CountedRng, SnapshotError> {
            Ok(CountedRng::restore(v.u("seed")?, v.u("draws")?))
        };
        let health_val = v.l("health")?;
        if health_val.len() != self.health.len() {
            return Err(SnapshotError::ConfigMismatch);
        }
        self.rng_regime = restore_rng(v.get("rng_regime")?)?;
        self.rng_noise_job = restore_rng(v.get("rng_noise_job")?)?;
        self.rng_os = restore_rng(v.get("rng_os")?)?;
        self.regime
            .restore_state(v.u("regime_index")?, v.f("regime_wobble")?);

        // Drop whatever loads this (possibly pre-used) machine carries, then
        // re-register the snapshotted set: net and fs rebuild from scratch.
        let stale: Vec<SourceId> = self.loads.keys().copied().collect();
        for id in stale {
            self.remove_load(id);
        }
        self.disable_noise_job();
        for load in v.l("loads")? {
            let nodes: Vec<NodeId> = load
                .l("nodes")?
                .iter()
                .map(|n| Ok(NodeId(n.as_u64()? as u32)))
                .collect::<Result<_, SnapshotError>>()?;
            self.register_load(
                SourceId(load.u("id")?),
                nodes,
                WorkloadIntensity {
                    compute: load.f("compute")?,
                    network: load.f("network")?,
                    io: load.f("io")?,
                },
            );
        }
        if let Some(nj) = v.l("noise")?.first() {
            let nodes: Vec<NodeId> = nj
                .l("nodes")?
                .iter()
                .map(|n| Ok(NodeId(n.as_u64()? as u32)))
                .collect::<Result<_, SnapshotError>>()?;
            let mut walk = NoiseWalk::experiment_default();
            walk.restore_state(nj.f("level")?, nj.f("base")?);
            self.noise_job = Some(NoiseJob {
                nodes,
                max_gbps: nj.f("max_gbps")?,
                walk,
            });
            self.apply_noise_job();
        }

        for (slot, code) in self.health.iter_mut().zip(health_val) {
            *slot = match code.as_u64()? {
                0 => NodeHealth::Up,
                1 => NodeHealth::Down,
                2 => NodeHealth::Suspect,
                other => {
                    return Err(SnapshotError::Schema(format!("node health code {other}")));
                }
            };
        }
        self.health_stats = HealthStats {
            failures: v.u("failures")?,
            recoveries: v.u("recoveries")?,
            trusts: v.u("trusts")?,
        };

        // Straggler factors and storms: wipe this machine's, then re-apply
        // the snapshot's so the rebuilt network sees the same injected
        // contention (mid-storm resumes must be byte-identical).
        self.node_speed_milli.fill(1000);
        for entry in v.l("node_speed")? {
            let node = entry.u("node")? as usize;
            if node >= self.node_speed_milli.len() {
                return Err(SnapshotError::ConfigMismatch);
            }
            self.node_speed_milli[node] = entry.u("milli")? as u32;
        }
        let stale_storms: Vec<u32> = self.net.storms().iter().map(|&(p, _)| p).collect();
        for pod in stale_storms {
            self.net.set_storm(pod, 0);
        }
        for entry in v.l("storms")? {
            self.net
                .set_storm(entry.u("pod")? as u32, entry.u("milli")? as u32);
        }

        self.now = SimTime::from_micros(v.u("now_us")?);
        self.last_noise_update = SimTime::from_micros(v.u("last_noise_update_us")?);
        // `advance_to` early-returns for t <= now, so the regime backgrounds
        // must be pushed explicitly for the restored clock.
        self.net
            .set_background_util(self.regime.network_util(self.now));
        self.fs.set_background_gbps(
            self.regime.fs_fraction(self.now) * self.fs.config().aggregate_gbps,
        );
        Ok(())
    }

    /// Registers (or updates) this machine's health-transition counters in
    /// `reg` under the `cluster.*` namespace, plus a gauge of currently
    /// crashed nodes. Idempotent: re-exporting overwrites.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        for (name, value) in [
            ("cluster.node_failures", self.health_stats.failures),
            ("cluster.node_recoveries", self.health_stats.recoveries),
            ("cluster.nodes_trusted", self.health_stats.trusts),
        ] {
            match reg.counter_id(name) {
                Some(id) => reg.set_counter(id, value),
                None => {
                    let id = reg.register_counter(name);
                    reg.set_counter(id, value);
                }
            }
        }
        let gauge = reg
            .gauge_id("cluster.nodes_down")
            .unwrap_or_else(|| reg.register_gauge("cluster.nodes_down"));
        reg.set_gauge(gauge, self.down_node_count() as f64);
        let gauge = reg
            .gauge_id("cluster.nodes_degraded")
            .unwrap_or_else(|| reg.register_gauge("cluster.nodes_degraded"));
        reg.set_gauge(gauge, self.degraded_node_count() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{synthesize_row_into, COUNTER_COUNT};

    fn nodes(r: std::ops::Range<u32>) -> Vec<NodeId> {
        r.map(NodeId).collect()
    }

    #[test]
    fn idle_machine_is_calm() {
        let mut m = Machine::new(MachineConfig::tiny(1));
        assert_eq!(m.fs_saturation(), 0.0);
        assert_eq!(m.congestion(&nodes(0..8)), 0.0);
        assert_eq!(m.load_count(), 0);
    }

    #[test]
    fn advancing_time_raises_background() {
        let mut m = Machine::new(MachineConfig::tiny(1));
        m.advance_to(SimTime::from_mins(10));
        assert!(m.background_util() > 0.0, "regime background should apply");
        assert!(m.fs_saturation() > 0.0);
        assert_eq!(m.now(), SimTime::from_mins(10));
    }

    #[test]
    fn advance_is_monotone_and_idempotent() {
        let mut m = Machine::new(MachineConfig::tiny(1));
        m.advance_to(SimTime::from_mins(5));
        let bg = m.background_util();
        m.advance_to(SimTime::from_mins(5));
        assert_eq!(m.background_util(), bg);
        m.advance_to(SimTime::from_mins(3)); // going backwards is a no-op
        assert_eq!(m.now(), SimTime::from_mins(5));
    }

    #[test]
    fn job_load_registers_and_clears() {
        let mut m = Machine::new(MachineConfig::tiny(2));
        let id = SourceId(1);
        m.register_load(id, nodes(0..8), WorkloadIntensity::new(0.2, 0.9, 0.3));
        assert!(m.congestion(&nodes(0..8)) > 0.0);
        assert!(m.fs_saturation() > 0.0);
        assert_eq!(m.load_count(), 1);
        m.remove_load(id);
        assert_eq!(m.congestion(&nodes(0..8)), 0.0);
        assert_eq!(m.fs_saturation(), 0.0);
        assert_eq!(m.load_count(), 0);
    }

    #[test]
    fn noise_job_injects_traffic() {
        let mut m = Machine::new(MachineConfig::tiny(3));
        m.enable_noise_job(nodes(0..2), 8.0);
        assert!(m.noise_level_gbps() > 0.0);
        // The noise spans two nodes on the same edge switch -> access links
        // carry it; a same-switch bystander set sees it via access? No —
        // congestion only checks the bystander's own links, so check the
        // noise nodes themselves.
        assert!(m.congestion(&nodes(0..2)) > 0.0);
        m.disable_noise_job();
        assert_eq!(m.noise_level_gbps(), 0.0);
        assert_eq!(m.congestion(&nodes(0..2)), 0.0);
    }

    #[test]
    fn noise_level_varies_over_time() {
        let mut m = Machine::new(MachineConfig::tiny(4));
        m.enable_noise_job(nodes(0..4), 8.0);
        let mut levels = Vec::new();
        for i in 1..50 {
            m.advance_to(SimTime::from_mins(i));
            levels.push(m.noise_level_gbps());
        }
        let min = levels.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = levels.iter().cloned().fold(0.0, f64::max);
        assert!(max - min > 0.5, "noise should wander: {min}..{max}");
        assert!(max <= 8.0 + 1e-9);
    }

    #[test]
    fn same_seed_same_trajectory() {
        let run = |seed| {
            let mut m = Machine::new(MachineConfig::tiny(seed));
            m.enable_noise_job(nodes(0..4), 8.0);
            let mut out = Vec::new();
            for i in 1..30 {
                m.advance_to(SimTime::from_mins(i));
                out.push((m.background_util(), m.noise_level_gbps()));
            }
            out
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn cached_congestion_matches_direct_computation() {
        let mut m = Machine::new(MachineConfig::tiny(11));
        m.enable_noise_job(nodes(12..16), 8.0);
        let a = nodes(0..8);
        let b = nodes(8..12);
        m.register_load(
            SourceId(1),
            a.clone(),
            WorkloadIntensity::new(0.1, 0.9, 0.1),
        );
        m.register_load(
            SourceId(2),
            b.clone(),
            WorkloadIntensity::new(0.2, 0.7, 0.0),
        );
        for minute in 0..30u64 {
            m.advance_to(SimTime::from_mins(minute));
            // Storms, stragglers and crashes come and go mid-run; only the
            // storms touch the network, and the version must catch them.
            match minute % 10 {
                3 => m.start_storm(0, 200 + 50 * minute as u32),
                6 => m.degrade_node(NodeId(2), 300),
                7 => m.fail_node(NodeId(9)),
                9 => {
                    m.end_storm(0);
                    m.restore_node_speed(NodeId(2));
                    m.recover_node(NodeId(9));
                }
                _ => {}
            }
            assert_eq!(m.congestion_cached(SourceId(1)), m.congestion(&a));
            assert_eq!(m.congestion_cached(SourceId(2)), m.congestion(&b));
            // Repeated query between changes returns the same value.
            assert_eq!(m.congestion_cached(SourceId(1)), m.congestion(&a));
        }
        // Removing one load invalidates the other's value via the version.
        m.remove_load(SourceId(2));
        assert_eq!(m.congestion_cached(SourceId(1)), m.congestion(&a));
    }

    #[test]
    fn cached_congestion_tracks_reregistered_allocation() {
        let mut m = Machine::new(MachineConfig::tiny(12));
        let a = nodes(0..8);
        let b = nodes(8..16);
        m.register_load(
            SourceId(1),
            a.clone(),
            WorkloadIntensity::new(0.1, 0.9, 0.1),
        );
        assert_eq!(m.congestion_cached(SourceId(1)), m.congestion(&a));
        // Same id, new allocation (e.g. a retried job): the stale link set
        // must not survive.
        m.remove_load(SourceId(1));
        m.register_load(
            SourceId(1),
            b.clone(),
            WorkloadIntensity::new(0.1, 0.9, 0.1),
        );
        assert_eq!(m.congestion_cached(SourceId(1)), m.congestion(&b));
    }

    /// Regression: a node fault kills its jobs, and each kill's
    /// `remove_load` bumps `NetworkState::version` — that bump must
    /// invalidate *every other* source's cached congestion, not just the
    /// victim's own entry. A survivor serving a stale cached value would
    /// keep the engine pricing congestion that left with the dead job.
    #[test]
    fn fault_removal_invalidates_all_cached_congestion_sources() {
        let mut m = Machine::new(MachineConfig::tiny(13));
        // Survivor A spans both pod-0 edges and shares the victim's pod-0
        // links, so its congestion value visibly changes; survivor B sits
        // in pod 1 where its own edge dominates, pinning the subtler case
        // of a version-invalidated entry whose recomputed value happens to
        // stay equal to a direct query.
        let a = nodes(0..8);
        let b = nodes(12..16);
        let victim = nodes(4..12);
        m.register_load(
            SourceId(1),
            a.clone(),
            WorkloadIntensity::new(0.1, 0.8, 0.1),
        );
        m.register_load(
            SourceId(2),
            b.clone(),
            WorkloadIntensity::new(0.1, 0.6, 0.0),
        );
        m.register_load(
            SourceId(3),
            victim.clone(),
            WorkloadIntensity::new(0.1, 1.0, 0.2),
        );
        m.advance_to(SimTime::from_mins(1));
        let warm_a = m.congestion_cached(SourceId(1));
        let warm_b = m.congestion_cached(SourceId(2));
        assert_eq!(warm_a, m.congestion(&a));
        assert_eq!(warm_b, m.congestion(&b));

        // The fault path: node 8 crashes, the scheduler kills the job and
        // removes its load (health first, like the engine does).
        let version_before = m.net.version();
        m.fail_node(NodeId(8));
        m.remove_load(SourceId(3));
        assert!(
            m.net.version() > version_before,
            "removing the victim's traffic must bump the network version"
        );

        let after_a = m.congestion_cached(SourceId(1));
        let after_b = m.congestion_cached(SourceId(2));
        assert_eq!(
            after_a,
            m.congestion(&a),
            "survivor A must not serve stale cache"
        );
        assert_eq!(
            after_b,
            m.congestion(&b),
            "survivor B must not serve stale cache"
        );
        assert!(
            after_a < warm_a,
            "A shared the victim's pod-0 links: its congestion must drop ({warm_a} -> {after_a})"
        );
    }

    #[test]
    fn observation_reflects_registered_io() {
        let mut m = Machine::new(MachineConfig::tiny(5));
        m.register_load(
            SourceId(1),
            nodes(0..4),
            WorkloadIntensity::new(0.0, 0.0, 1.0),
        );
        let on_job = m.observe(NodeId(0));
        let off_job = m.observe(NodeId(9));
        assert!(on_job.read_gbps > 0.0);
        assert!(on_job.meta_kops > 0.0);
        assert_eq!(off_job.read_gbps, 0.0);
        // global saturation visible everywhere
        assert!(off_job.fs_saturation > 0.0);
    }

    #[test]
    fn sample_counters_has_ninety_values() {
        let mut m = Machine::new(MachineConfig::tiny(6));
        m.register_load(
            SourceId(1),
            nodes(0..4),
            WorkloadIntensity::new(0.2, 0.7, 0.6),
        );
        let mut v = Vec::new();
        let obs = m.observe(NodeId(0));
        synthesize_row_into(&obs, 0, &mut v);
        assert_eq!(v.len(), COUNTER_COUNT);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn one_hot_picks_dominant_axis() {
        assert_eq!(
            WorkloadIntensity::new(0.9, 0.2, 0.1).one_hot(),
            [1.0, 0.0, 0.0]
        );
        assert_eq!(
            WorkloadIntensity::new(0.1, 0.8, 0.2).one_hot(),
            [0.0, 1.0, 0.0]
        );
        assert_eq!(
            WorkloadIntensity::new(0.1, 0.2, 0.9).one_hot(),
            [0.0, 0.0, 1.0]
        );
    }

    #[test]
    fn intensities_clamp() {
        let w = WorkloadIntensity::new(-1.0, 2.0, 0.5);
        assert_eq!(w.compute, 0.0);
        assert_eq!(w.network, 1.0);
        assert_eq!(w.io, 0.5);
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        // Drive a machine through noise, loads, health churn and OS-noise
        // draws; snapshot mid-flight; restore into a fresh machine; the two
        // must then produce bit-identical trajectories.
        let mut m = Machine::new(MachineConfig::tiny(42));
        m.enable_noise_job(nodes(12..16), 8.0);
        m.register_load(
            SourceId(3),
            nodes(0..4),
            WorkloadIntensity::new(0.1, 0.8, 0.2),
        );
        m.register_load(
            SourceId(9),
            nodes(4..8),
            WorkloadIntensity::new(0.5, 0.2, 0.7),
        );
        m.fail_node(NodeId(2));
        m.recover_node(NodeId(2));
        m.degrade_node(NodeId(5), 400);
        m.start_storm(0, 650);
        m.advance_to(SimTime::from_mins(17));
        let _ = m.draw_os_noise();

        let snap = m.snapshot_state();
        let mut r = Machine::new(MachineConfig::tiny(42));
        r.restore_state(&snap).unwrap();

        assert_eq!(r.now(), m.now());
        assert_eq!(r.node_health(NodeId(2)), NodeHealth::Suspect);
        assert_eq!(r.node_speed_milli(NodeId(5)), 400);
        assert_eq!(r.active_storm_count(), 1);
        // The restored machine must re-emit byte-identical snapshots.
        assert_eq!(r.snapshot_state(), snap);
        assert_eq!(r.health_stats(), m.health_stats());
        assert_eq!(r.background_util(), m.background_util());
        assert_eq!(r.noise_level_gbps(), m.noise_level_gbps());
        assert_eq!(r.fs_saturation(), m.fs_saturation());
        assert_eq!(r.congestion(&nodes(0..4)), m.congestion(&nodes(0..4)));
        for minute in 18..40 {
            m.advance_to(SimTime::from_mins(minute));
            r.advance_to(SimTime::from_mins(minute));
            assert_eq!(r.background_util(), m.background_util());
            assert_eq!(r.noise_level_gbps(), m.noise_level_gbps());
            assert_eq!(r.observe(NodeId(1)), m.observe(NodeId(1)));
            assert_eq!(r.draw_os_noise(), m.draw_os_noise());
        }
    }

    /// Link loads and filesystem demand are summed in id order, so two
    /// machines fed the same loads agree bit for bit even when their maps
    /// grew differently (one first saw a batch of transient loads come and
    /// go).
    #[test]
    fn same_loads_give_bit_identical_sums_however_the_maps_grew() {
        let loads: Vec<(SourceId, Vec<NodeId>, WorkloadIntensity)> = (0..64u32)
            .map(|i| {
                // Overlapping allocations over twelve edge switches of pod 0
                // plus a few nodes of pod 1, so every link sums many loads.
                let width = 4 + i % 13;
                let nodes = (0..width)
                    .map(|k| NodeId((i * 7 + k * 13) % 96 + if k % 3 == 0 { 512 } else { 0 }))
                    .collect();
                // Intensities spread over three decades, so a sum's
                // rounding depends on its order.
                let f = f64::from(i);
                let intensity = WorkloadIntensity::new(
                    (f * 0.37).fract(),
                    10f64.powf(-3.0 * (f * 0.61).fract()),
                    10f64.powf(-3.0 * (f * 0.83).fract()),
                );
                // Registered in descending id order.
                (SourceId(u64::from(1000 - i)), nodes, intensity)
            })
            .collect();
        let feed = |m: &mut Machine| {
            for (id, nodes, intensity) in &loads {
                m.register_load(*id, nodes.clone(), *intensity);
            }
            for (id, _, _) in loads.iter().step_by(5) {
                m.remove_load(*id);
            }
            m.advance_to(SimTime::from_mins(7));
        };
        let mut a = Machine::new(MachineConfig::quartz_like(3));
        feed(&mut a);
        let mut b = Machine::new(MachineConfig::quartz_like(3));
        for i in 0..200u32 {
            let nodes = (0..6).map(|k| NodeId((i * 13 + k * 512) % 3072)).collect();
            b.register_load(
                SourceId(5000 + u64::from(i)),
                nodes,
                WorkloadIntensity::new(0.3, 0.9, 0.8),
            );
        }
        for i in 0..200u64 {
            b.remove_load(SourceId(5000 + i));
        }
        feed(&mut b);

        assert!(a.fs_saturation() > 0.0);
        assert_eq!(a.fs_saturation().to_bits(), b.fs_saturation().to_bits());
        for (_, nodes, _) in &loads {
            assert_eq!(a.congestion(nodes).to_bits(), b.congestion(nodes).to_bits());
        }
        for n in (0..96).chain(512..608) {
            let bits = |o: NodeObservation| o.to_array().map(f64::to_bits);
            assert_eq!(
                bits(a.observe(NodeId(n))),
                bits(b.observe(NodeId(n))),
                "observation of node {n}"
            );
        }
        assert_eq!(a.snapshot_state().render(), b.snapshot_state().render());
    }

    #[test]
    fn allocation_speed_tracks_slowest_member() {
        let mut m = Machine::new(MachineConfig::tiny(7));
        assert_eq!(m.allocation_speed_factor(&nodes(0..4)), 1.0);
        m.degrade_node(NodeId(2), 300);
        m.degrade_node(NodeId(3), 800);
        assert_eq!(m.allocation_speed_factor(&nodes(0..4)), 0.3);
        assert_eq!(m.allocation_speed_factor(&nodes(3..4)), 0.8);
        assert_eq!(m.allocation_speed_factor(&nodes(0..2)), 1.0);
        assert_eq!(m.degraded_node_count(), 2);
        m.restore_node_speed(NodeId(2));
        assert_eq!(m.allocation_speed_factor(&nodes(0..4)), 0.8);
        // Out-of-range factors clamp instead of zeroing speed.
        m.degrade_node(NodeId(0), 0);
        assert_eq!(m.node_speed_milli(NodeId(0)), 1);
        m.degrade_node(NodeId(0), 5000);
        assert_eq!(m.node_speed_milli(NodeId(0)), 1000);
    }

    #[test]
    fn storms_raise_congestion_and_clear_exactly() {
        let mut m = Machine::new(MachineConfig::tiny(11));
        // tiny() has two pods; a cross-switch allocation in pod 0 crosses
        // the pod fabric and feels the storm.
        let alloc = nodes(0..8);
        let calm = m.congestion(&alloc);
        m.start_storm(0, 700);
        let stormy = m.congestion(&alloc);
        assert!(
            stormy > calm + 0.5,
            "storm must raise congestion: {calm} -> {stormy}"
        );
        // Region ids wrap onto pods, so region == pod count hits pod 0 too.
        m.end_storm(0);
        assert_eq!(m.congestion(&alloc), calm);
        assert_eq!(m.active_storm_count(), 0);
        m.start_storm(2, 500);
        assert_eq!(m.active_storm_count(), 1);
        assert!(m.congestion(&alloc) > calm);
        m.end_storm(2);
        assert_eq!(m.congestion(&alloc), calm);
    }

    #[test]
    fn restore_rejects_wrong_node_count() {
        let m = Machine::new(MachineConfig::tiny(1));
        let snap = m.snapshot_state();
        let mut other = Machine::new(MachineConfig::experiment_pod(1));
        assert!(matches!(
            other.restore_state(&snap),
            Err(SnapshotError::ConfigMismatch)
        ));
    }

    #[test]
    fn health_transitions_are_edge_counted_and_exported() {
        let mut m = Machine::new(MachineConfig::tiny(3));
        m.fail_node(NodeId(1));
        m.fail_node(NodeId(1)); // already down: not a transition
        m.fail_node(NodeId(2));
        m.recover_node(NodeId(1));
        m.trust_node(NodeId(1));
        m.trust_node(NodeId(1)); // already up: not a transition
        let stats = m.health_stats();
        assert_eq!(stats.failures, 2);
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.trusts, 1);
        assert_eq!(m.down_node_count(), 1);

        let mut reg = MetricsRegistry::new();
        m.export_metrics(&mut reg);
        assert_eq!(reg.counter_by_name("cluster.node_failures"), Some(2));
        assert_eq!(reg.counter_by_name("cluster.node_recoveries"), Some(1));
        assert_eq!(reg.counter_by_name("cluster.nodes_trusted"), Some(1));
        assert_eq!(reg.gauge_by_name("cluster.nodes_down"), Some(1.0));
        // Re-export after more transitions overwrites, not accumulates.
        m.recover_node(NodeId(2));
        m.export_metrics(&mut reg);
        assert_eq!(reg.counter_by_name("cluster.node_recoveries"), Some(2));
        assert_eq!(reg.gauge_by_name("cluster.nodes_down"), Some(0.0));
    }
}
