//! Periodic counter sampling (the LDMS daemon stand-in).
//!
//! A [`Sampler`] walks a node list on a fixed interval, asks the
//! [`Machine`] to synthesize each node's counter tables, and records the
//! vectors into a [`MetricStore`]. Drivers call [`Sampler::advance_to`]
//! whenever simulation time moves; the sampler catches up on every interval
//! boundary it crossed, so sampling cadence is independent of the caller's
//! event granularity. Rounds read the machine through
//! [`Machine::sample_counters_swept_into`], so one network sweep serves a
//! whole round over every node.

use crate::store::{GapReason, MetricStore};
use rand::Rng;
use rush_cluster::machine::{Machine, NodeHealth};
use rush_cluster::topology::NodeId;
use rush_obs::profile as obs_profile;
use rush_obs::{MetricsRegistry, ProfileScope};
use rush_simkit::rng::CountedRng;
use rush_simkit::snapshot::{SnapshotError, Val};
use rush_simkit::time::{SimDuration, SimTime};

/// Samples machine counters into a store on a fixed interval.
#[derive(Debug)]
pub struct Sampler {
    nodes: Vec<NodeId>,
    interval: SimDuration,
    next_due: SimTime,
    samples_taken: u64,
    dropped: u64,
    /// Per-node-sample loss probability (real LDMS collections have gaps:
    /// daemon restarts, network hiccups, aggregation stalls).
    dropout: f64,
    /// While set, every scheduled sample is lost as a
    /// [`GapReason::Blackout`] gap (fault injection: collection pipeline
    /// dark machine-wide).
    blackout: bool,
    /// While set, each drawn sample is discarded with `corruption_prob` as
    /// a [`GapReason::Corrupt`] gap (fault injection: garbage counters).
    corruption: bool,
    corruption_prob: f64,
    corrupted: u64,
    /// Per-node samples lost to machine-wide blackout windows.
    gaps_blackout: u64,
    /// Per-node samples lost because the node was down.
    gaps_node_down: u64,
    rng: CountedRng,
    /// One counter buffer reused across every round. Scratch space, not
    /// state: excluded from snapshots.
    buf: Vec<f64>,
}

impl Sampler {
    /// Samples `nodes` every `interval`, starting at `t = 0`.
    pub fn new(nodes: Vec<NodeId>, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        Sampler {
            nodes,
            interval,
            next_due: SimTime::ZERO,
            samples_taken: 0,
            dropped: 0,
            dropout: 0.0,
            blackout: false,
            corruption: false,
            corruption_prob: 0.5,
            corrupted: 0,
            gaps_blackout: 0,
            gaps_node_down: 0,
            rng: CountedRng::seeded(0),
            buf: Vec::new(),
        }
    }

    /// Drops each per-node sample independently with probability `prob`,
    /// mimicking monitoring-pipeline gaps. The window aggregation already
    /// pools whatever samples exist, so downstream features degrade
    /// gracefully instead of breaking.
    pub fn with_dropout(mut self, prob: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&prob), "dropout must be in [0, 1)");
        self.dropout = prob;
        self.rng = CountedRng::seeded(seed);
        self
    }

    /// Sets the per-sample discard probability used while corruption is
    /// active (see [`Sampler::set_corruption`]).
    pub fn with_corruption_prob(mut self, prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&prob),
            "corruption prob must be in [0, 1]"
        );
        self.corruption_prob = prob;
        self
    }

    /// Switches the machine-wide telemetry blackout on or off. While on,
    /// every scheduled sample becomes an explicit [`GapReason::Blackout`]
    /// gap in the store.
    pub fn set_blackout(&mut self, active: bool) {
        self.blackout = active;
    }

    /// Switches counter corruption on or off. While on, each drawn sample
    /// is discarded with the configured probability as a
    /// [`GapReason::Corrupt`] gap.
    pub fn set_corruption(&mut self, active: bool) {
        self.corruption = active;
    }

    /// Whether a blackout is currently active.
    pub fn blackout_active(&self) -> bool {
        self.blackout
    }

    /// Per-node samples lost to dropout so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per-node samples discarded as corrupted so far.
    pub fn corrupted(&self) -> u64 {
        self.corrupted
    }

    /// Per-node samples lost to blackout windows so far.
    pub fn blackout_gaps(&self) -> u64 {
        self.gaps_blackout
    }

    /// Per-node samples lost to down nodes so far.
    pub fn node_down_gaps(&self) -> u64 {
        self.gaps_node_down
    }

    /// Registers (or updates) this sampler's counters in `reg` under the
    /// `telemetry.*` namespace. Idempotent: names already present are
    /// overwritten with current values, so calling at end-of-run exports a
    /// consistent snapshot.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        for (name, value) in [
            ("telemetry.sampling_rounds", self.samples_taken),
            ("telemetry.gaps_dropout", self.dropped),
            ("telemetry.gaps_corrupt", self.corrupted),
            ("telemetry.gaps_blackout", self.gaps_blackout),
            ("telemetry.gaps_node_down", self.gaps_node_down),
        ] {
            match reg.counter_id(name) {
                Some(id) => reg.set_counter(id, value),
                None => {
                    let id = reg.register_counter(name);
                    reg.set_counter(id, value);
                }
            }
        }
    }

    /// The sampling interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Sampling rounds completed so far.
    pub fn samples_taken(&self) -> u64 {
        self.samples_taken
    }

    /// Time of the next scheduled sampling round.
    pub fn next_due(&self) -> SimTime {
        self.next_due
    }

    /// Captures the sampler's dynamic state (cursor, counters, fault flags,
    /// RNG position). The node list, interval and probabilities are
    /// configuration and must match at restore time.
    pub fn snapshot_state(&self) -> Val {
        Val::map()
            .with("node_count", Val::U64(self.nodes.len() as u64))
            .with("next_due_us", Val::U64(self.next_due.as_micros()))
            .with("samples_taken", Val::U64(self.samples_taken))
            .with("dropped", Val::U64(self.dropped))
            .with("blackout", Val::U64(u64::from(self.blackout)))
            .with("corruption", Val::U64(u64::from(self.corruption)))
            .with("corrupted", Val::U64(self.corrupted))
            .with("gaps_blackout", Val::U64(self.gaps_blackout))
            .with("gaps_node_down", Val::U64(self.gaps_node_down))
            .with("rng_seed", Val::U64(self.rng.seed()))
            .with("rng_draws", Val::U64(self.rng.draws()))
    }

    /// Restores state captured by [`Sampler::snapshot_state`] into a sampler
    /// built with the same configuration.
    pub fn restore_state(&mut self, v: &Val) -> Result<(), SnapshotError> {
        if v.u("node_count")? != self.nodes.len() as u64 {
            return Err(SnapshotError::ConfigMismatch);
        }
        self.next_due = SimTime::from_micros(v.u("next_due_us")?);
        self.samples_taken = v.u("samples_taken")?;
        self.dropped = v.u("dropped")?;
        self.blackout = v.u("blackout")? != 0;
        self.corruption = v.u("corruption")? != 0;
        self.corrupted = v.u("corrupted")?;
        self.gaps_blackout = v.u("gaps_blackout")?;
        self.gaps_node_down = v.u("gaps_node_down")?;
        self.rng = CountedRng::restore(v.u("rng_seed")?, v.u("rng_draws")?);
        Ok(())
    }

    /// Advances to `t`, taking every sampling round due in `(prev, t]`.
    /// The machine is advanced to each round's timestamp first so counters
    /// reflect the machine state *at* the sample time.
    pub fn advance_to(&mut self, t: SimTime, machine: &mut Machine, store: &mut MetricStore) {
        if self.next_due > t {
            return;
        }
        let _scope = obs_profile::scope(ProfileScope::TelemetrySample);
        while self.next_due <= t {
            let at = self.next_due;
            machine.advance_to(at);
            for &node in &self.nodes {
                // Every lost sample leaves an explicit gap record so
                // downstream coverage queries see *why* data is missing,
                // not just that it is.
                if self.blackout {
                    self.gaps_blackout += 1;
                    store.record_gap(node, at, GapReason::Blackout);
                    continue;
                }
                if machine.node_health(node) == NodeHealth::Down {
                    self.gaps_node_down += 1;
                    store.record_gap(node, at, GapReason::NodeDown);
                    continue;
                }
                if self.dropout > 0.0 && self.rng.gen::<f64>() < self.dropout {
                    self.dropped += 1;
                    store.record_gap(node, at, GapReason::Dropout);
                    continue;
                }
                if self.corruption && self.rng.gen::<f64>() < self.corruption_prob {
                    self.corrupted += 1;
                    store.record_gap(node, at, GapReason::Corrupt);
                    continue;
                }
                machine.sample_counters_swept_into(node, &mut self.buf);
                store.record(node, at, &self.buf);
            }
            self.samples_taken += 1;
            self.next_due = at + self.interval;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rush_cluster::machine::MachineConfig;
    use rush_simkit::snapshot::{Restorable, Snapshot};

    fn setup() -> (Machine, MetricStore, Sampler) {
        let machine = Machine::new(MachineConfig::tiny(11));
        let node_count = machine.tree().node_count();
        let store = MetricStore::new(node_count, 90);
        let nodes: Vec<NodeId> = (0..node_count).map(NodeId).collect();
        let sampler = Sampler::new(nodes, SimDuration::from_secs(30));
        (machine, store, sampler)
    }

    #[test]
    fn samples_on_interval_boundaries() {
        let (mut machine, mut store, mut sampler) = setup();
        sampler.advance_to(SimTime::from_secs(95), &mut machine, &mut store);
        // rounds at t = 0, 30, 60, 90
        assert_eq!(sampler.samples_taken(), 4);
        assert_eq!(
            store
                .window(NodeId(0), 0, SimTime::ZERO, SimTime::from_secs(100))
                .len(),
            4
        );
        assert_eq!(sampler.next_due(), SimTime::from_secs(120));
    }

    #[test]
    fn catch_up_covers_skipped_intervals() {
        let (mut machine, mut store, mut sampler) = setup();
        sampler.advance_to(SimTime::from_secs(10), &mut machine, &mut store);
        assert_eq!(sampler.samples_taken(), 1);
        // jump far ahead in one call
        sampler.advance_to(SimTime::from_mins(5), &mut machine, &mut store);
        assert_eq!(sampler.samples_taken(), 11); // t=0..300 step 30
    }

    #[test]
    fn no_duplicate_samples_on_repeat_calls() {
        let (mut machine, mut store, mut sampler) = setup();
        sampler.advance_to(SimTime::from_secs(60), &mut machine, &mut store);
        let n = store.point_count();
        sampler.advance_to(SimTime::from_secs(60), &mut machine, &mut store);
        assert_eq!(store.point_count(), n);
    }

    #[test]
    fn samples_have_store_width() {
        let (mut machine, mut store, mut sampler) = setup();
        sampler.advance_to(SimTime::ZERO, &mut machine, &mut store);
        assert_eq!(
            store
                .window(NodeId(3), 89, SimTime::ZERO, SimTime::from_secs(1))
                .len(),
            1
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        Sampler::new(vec![], SimDuration::ZERO);
    }

    #[test]
    fn dropout_loses_samples_but_keeps_working() {
        let (mut machine, mut store, _) = setup();
        let node_count = machine.tree().node_count();
        let nodes: Vec<NodeId> = (0..node_count).map(NodeId).collect();
        let mut sampler = Sampler::new(nodes, SimDuration::from_secs(30)).with_dropout(0.3, 7);
        sampler.advance_to(SimTime::from_mins(5), &mut machine, &mut store);
        let expected_full = 11 * node_count as u64; // rounds t=0..300
        assert!(sampler.dropped() > 0, "30% dropout must lose something");
        assert_eq!(
            store.point_count() as u64 / 90 + sampler.dropped(),
            expected_full,
            "kept + dropped = scheduled"
        );
        // Aggregation still answers over the gappy data.
        let aggs = rush_cluster::topology::NodeId(0);
        let window = store.window(aggs, 0, SimTime::ZERO, SimTime::from_mins(5));
        assert!(window.len() < 11, "node 0 should have gaps");
    }

    #[test]
    fn dropout_is_deterministic() {
        let run = |seed| {
            let (mut machine, mut store, _) = setup();
            let nodes: Vec<NodeId> = (0..machine.tree().node_count()).map(NodeId).collect();
            let mut sampler =
                Sampler::new(nodes, SimDuration::from_secs(30)).with_dropout(0.2, seed);
            sampler.advance_to(SimTime::from_mins(3), &mut machine, &mut store);
            (sampler.dropped(), store.point_count())
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    #[should_panic(expected = "dropout")]
    fn full_dropout_rejected() {
        Sampler::new(vec![], SimDuration::from_secs(1)).with_dropout(1.0, 0);
    }

    #[test]
    fn dropout_losses_become_explicit_gaps() {
        let (mut machine, mut store, _) = setup();
        let node_count = machine.tree().node_count();
        let nodes: Vec<NodeId> = (0..node_count).map(NodeId).collect();
        let mut sampler =
            Sampler::new(nodes.clone(), SimDuration::from_secs(30)).with_dropout(0.3, 7);
        sampler.advance_to(SimTime::from_mins(5), &mut machine, &mut store);
        assert_eq!(
            store.gap_count() as u64,
            sampler.dropped(),
            "every dropped sample must leave a gap record"
        );
        assert!(store
            .gaps(NodeId(0))
            .iter()
            .all(|g| g.reason == crate::store::GapReason::Dropout));
        let cov = store.coverage(&nodes, SimTime::ZERO, SimTime::from_mins(6));
        assert!(cov < 1.0 && cov > 0.4, "~30% dropout coverage, got {cov}");
    }

    #[test]
    fn blackout_window_leaves_only_gaps() {
        let (mut machine, mut store, mut sampler) = setup();
        let nodes: Vec<NodeId> = (0..machine.tree().node_count()).map(NodeId).collect();
        sampler.advance_to(SimTime::from_secs(30), &mut machine, &mut store);
        let before = store.point_count();
        sampler.set_blackout(true);
        assert!(sampler.blackout_active());
        sampler.advance_to(SimTime::from_secs(90), &mut machine, &mut store);
        assert_eq!(store.point_count(), before, "no data during blackout");
        // Rounds at t=60 and t=90 missed for every node.
        assert_eq!(store.gap_count(), 2 * nodes.len());
        sampler.set_blackout(false);
        sampler.advance_to(SimTime::from_secs(120), &mut machine, &mut store);
        assert!(
            store.point_count() > before,
            "sampling resumes after blackout"
        );
        // Coverage over the blackout stretch is zero.
        let cov = store.coverage(&nodes, SimTime::from_secs(60), SimTime::from_secs(91));
        assert_eq!(cov, 0.0);
    }

    #[test]
    fn corruption_discards_with_configured_probability() {
        let (mut machine, mut store, _) = setup();
        let nodes: Vec<NodeId> = (0..machine.tree().node_count()).map(NodeId).collect();
        let mut sampler = Sampler::new(nodes, SimDuration::from_secs(30))
            .with_dropout(0.0, 3)
            .with_corruption_prob(1.0);
        sampler.set_corruption(true);
        sampler.advance_to(SimTime::from_secs(60), &mut machine, &mut store);
        assert_eq!(store.point_count(), 0, "prob 1.0 corrupts everything");
        assert!(sampler.corrupted() > 0);
        assert!(store
            .gaps(NodeId(0))
            .iter()
            .all(|g| g.reason == crate::store::GapReason::Corrupt));
        sampler.set_corruption(false);
        sampler.advance_to(SimTime::from_secs(120), &mut machine, &mut store);
        assert!(store.point_count() > 0, "clean samples after the window");
    }

    #[test]
    fn per_reason_gap_counters_and_export() {
        let (mut machine, mut store, mut sampler) = setup();
        machine.fail_node(NodeId(2));
        sampler.set_blackout(true);
        sampler.advance_to(SimTime::from_secs(30), &mut machine, &mut store);
        sampler.set_blackout(false);
        sampler.advance_to(SimTime::from_secs(60), &mut machine, &mut store);
        let node_count = machine.tree().node_count() as u64;
        // Blackout covered rounds t=0 and t=30 for every node; at t=60 only
        // the downed node gaps.
        assert_eq!(sampler.blackout_gaps(), 2 * node_count);
        assert_eq!(sampler.node_down_gaps(), 1);
        assert_eq!(
            sampler.blackout_gaps() + sampler.node_down_gaps(),
            store.gap_count() as u64
        );

        let mut reg = MetricsRegistry::new();
        sampler.export_metrics(&mut reg);
        assert_eq!(reg.counter_by_name("telemetry.sampling_rounds"), Some(3));
        assert_eq!(
            reg.counter_by_name("telemetry.gaps_blackout"),
            Some(2 * node_count)
        );
        assert_eq!(reg.counter_by_name("telemetry.gaps_node_down"), Some(1));
        assert_eq!(reg.counter_by_name("telemetry.gaps_dropout"), Some(0));
        // Re-export overwrites rather than double-counting.
        sampler.advance_to(SimTime::from_secs(90), &mut machine, &mut store);
        sampler.export_metrics(&mut reg);
        assert_eq!(reg.counter_by_name("telemetry.sampling_rounds"), Some(4));
    }

    #[test]
    fn sampler_snapshot_restore_resumes_identically() {
        let run_to = |t_secs: u64| {
            let (mut machine, mut store, _) = setup();
            let nodes: Vec<NodeId> = (0..machine.tree().node_count()).map(NodeId).collect();
            let mut sampler = Sampler::new(nodes, SimDuration::from_secs(30)).with_dropout(0.25, 9);
            sampler.advance_to(SimTime::from_secs(t_secs), &mut machine, &mut store);
            (machine, store, sampler)
        };
        // Uninterrupted run to t=600.
        let (_, store_a, sampler_a) = run_to(600);
        // Run to t=240, snapshot everything, restore into fresh objects,
        // continue to t=600.
        let (machine_b, store_b, sampler_b) = run_to(240);
        let m_snap = machine_b.snapshot_state();
        let s_snap = sampler_b.snapshot_state();
        let st_snap = store_b.to_val();
        let mut machine_c = Machine::new(MachineConfig::tiny(11));
        machine_c.restore_state(&m_snap).unwrap();
        let nodes: Vec<NodeId> = (0..machine_c.tree().node_count()).map(NodeId).collect();
        let mut sampler_c = Sampler::new(nodes, SimDuration::from_secs(30)).with_dropout(0.25, 9);
        sampler_c.restore_state(&s_snap).unwrap();
        let mut store_c = MetricStore::from_val(&st_snap).unwrap();
        sampler_c.advance_to(SimTime::from_secs(600), &mut machine_c, &mut store_c);

        assert_eq!(sampler_c.samples_taken(), sampler_a.samples_taken());
        assert_eq!(sampler_c.dropped(), sampler_a.dropped());
        assert_eq!(store_c.point_count(), store_a.point_count());
        assert_eq!(store_c.gap_count(), store_a.gap_count());
        for &node in &[NodeId(0), NodeId(7)] {
            assert_eq!(
                store_c.window(node, 3, SimTime::ZERO, SimTime::from_secs(601)),
                store_a.window(node, 3, SimTime::ZERO, SimTime::from_secs(601)),
                "resumed samples must be bit-identical"
            );
        }
    }

    #[test]
    fn down_node_leaves_node_down_gaps() {
        let (mut machine, mut store, mut sampler) = setup();
        machine.fail_node(NodeId(2));
        sampler.advance_to(SimTime::from_secs(30), &mut machine, &mut store);
        assert_eq!(store.gaps(NodeId(2)).len(), 2, "rounds at t=0 and t=30");
        assert!(store
            .gaps(NodeId(2))
            .iter()
            .all(|g| g.reason == crate::store::GapReason::NodeDown));
        // Healthy nodes unaffected.
        assert!(store.gaps(NodeId(0)).is_empty());
        assert_eq!(
            store
                .window(NodeId(0), 0, SimTime::ZERO, SimTime::from_secs(31))
                .len(),
            2
        );
        // A recovered (Suspect) node is monitored again.
        machine.recover_node(NodeId(2));
        sampler.advance_to(SimTime::from_secs(60), &mut machine, &mut store);
        assert_eq!(
            store
                .window(NodeId(2), 0, SimTime::ZERO, SimTime::from_secs(61))
                .len(),
            1,
            "suspect node samples again"
        );
    }
}
