//! Periodic counter sampling (the LDMS daemon stand-in).
//!
//! A [`Sampler`] walks a node list on a fixed interval, asks the
//! [`Machine`] what each node observes, and records the observations into
//! a [`MetricStore`], which synthesizes a counter only when a read first
//! covers it (see [`crate::store`]). Drivers call
//! [`Sampler::advance_to`] whenever simulation time moves; the sampler
//! catches up on every interval boundary it crossed, so sampling cadence is
//! independent of the caller's event granularity. Each observation reads
//! the network's dense link table ([`Machine::observe`]), which is rebuilt
//! at most once per network change, so a round over every node costs one
//! rebuild and three array reads a node.

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
    /// The machine is advanced to each round's timestamp first so the
    /// observations reflect the machine state *at* the sample time.
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
                store.record(node, at, machine.observe(node));
            }
            self.samples_taken += 1;
            self.next_due = at + self.interval;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{aggregate_counter_subset, aggregate_counters, CounterAggregate};
    use proptest::prelude::*;
    use rush_cluster::counters::{
        counter_value, noise_seed, row_key, NodeObservation, COUNTER_COUNT,
    };
    use rush_cluster::machine::MachineConfig;
    use rush_simkit::snapshot::{Restorable, Snapshot};
    use rush_simkit::stats::OnlineStats;
    use std::collections::BTreeMap;

    fn setup() -> (Machine, MetricStore, Sampler) {
        let machine = Machine::new(MachineConfig::tiny(11));
        let node_count = machine.tree().node_count();
        let store = MetricStore::new(node_count, machine.config().seed);
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
        let to = SimTime::from_secs(100);
        assert_eq!(store.rows_in(NodeId(0), SimTime::ZERO, to), 4);
        assert_eq!(store.window(NodeId(0), 0, SimTime::ZERO, to).len(), 4);
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
        let n = store.row_count();
        sampler.advance_to(SimTime::from_secs(60), &mut machine, &mut store);
        assert_eq!(store.row_count(), n);
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
            store.row_count() as u64 + sampler.dropped(),
            expected_full,
            "kept + dropped = scheduled"
        );
        // Aggregation still answers over the gappy data.
        let window = store.window(NodeId(0), 0, SimTime::ZERO, SimTime::from_mins(5));
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
            (sampler.dropped(), store.row_count())
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
        let before = store.row_count();
        sampler.set_blackout(true);
        assert!(sampler.blackout_active());
        sampler.advance_to(SimTime::from_secs(90), &mut machine, &mut store);
        assert_eq!(store.row_count(), before, "no data during blackout");
        // Rounds at t=60 and t=90 missed for every node.
        assert_eq!(store.gap_count(), 2 * nodes.len());
        sampler.set_blackout(false);
        sampler.advance_to(SimTime::from_secs(120), &mut machine, &mut store);
        assert!(
            store.row_count() > before,
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
        assert_eq!(store.row_count(), 0, "prob 1.0 corrupts everything");
        assert!(sampler.corrupted() > 0);
        assert!(store
            .gaps(NodeId(0))
            .iter()
            .all(|g| g.reason == crate::store::GapReason::Corrupt));
        sampler.set_corruption(false);
        sampler.advance_to(SimTime::from_secs(120), &mut machine, &mut store);
        assert!(store.row_count() > 0, "clean samples after the window");
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

    /// A sampler with 25% dropout over every node of `machine`.
    fn dropout_sampler(machine: &Machine) -> Sampler {
        let nodes: Vec<NodeId> = (0..machine.tree().node_count()).map(NodeId).collect();
        Sampler::new(nodes, SimDuration::from_secs(30)).with_dropout(0.25, 9)
    }

    /// Step `k` of the resume scenario: sample to `90k` s, then prune
    /// everything older than 120 s. Only step 1 reads counters, so later
    /// prunes drop rows no read ever covered.
    fn resume_step(k: u64, machine: &mut Machine, store: &mut MetricStore, sampler: &mut Sampler) {
        let now = SimTime::from_secs(90 * k);
        sampler.advance_to(now, machine, store);
        if k == 1 {
            store.window(NodeId(0), 0, SimTime::ZERO, now);
        }
        store.retain_from(now.saturating_sub(SimDuration::from_secs(120)));
    }

    #[test]
    fn sampler_snapshot_restore_resumes_identically() {
        // Uninterrupted run to t=630.
        let (mut machine_a, mut store_a, _) = setup();
        let mut sampler_a = dropout_sampler(&machine_a);
        for k in 1..=7 {
            resume_step(k, &mut machine_a, &mut store_a, &mut sampler_a);
        }
        // Run to t=270, snapshot everything, restore into fresh objects,
        // continue to t=630.
        let (mut machine_b, mut store_b, _) = setup();
        let mut sampler_b = dropout_sampler(&machine_b);
        for k in 1..=3 {
            resume_step(k, &mut machine_b, &mut store_b, &mut sampler_b);
        }
        assert!(store_b.row_count() > 0, "the cut holds unread rows");
        let m_snap = machine_b.snapshot_state();
        let s_snap = sampler_b.snapshot_state();
        let st_snap = store_b.to_val();
        let mut machine_c = Machine::new(MachineConfig::tiny(11));
        machine_c.restore_state(&m_snap).unwrap();
        let mut sampler_c = dropout_sampler(&machine_c);
        sampler_c.restore_state(&s_snap).unwrap();
        let mut store_c = MetricStore::from_val(&st_snap).unwrap();
        for k in 4..=7 {
            resume_step(k, &mut machine_c, &mut store_c, &mut sampler_c);
        }

        assert_eq!(sampler_c.samples_taken(), sampler_a.samples_taken());
        assert_eq!(sampler_c.dropped(), sampler_a.dropped());
        assert_eq!(store_c.row_count(), store_a.row_count());
        assert_eq!(store_c.gap_count(), store_a.gap_count());
        assert!(store_a.row_count() > 0);
        assert_eq!(
            store_c.to_val(),
            store_a.to_val(),
            "resumed observations must be bit-identical"
        );
        let nodes: Vec<NodeId> = (0..16).map(NodeId).collect();
        let end = SimTime::from_secs(631);
        assert_eq!(
            agg_bits(&aggregate_counters(
                &mut store_c,
                &nodes,
                SimTime::ZERO,
                end
            )),
            agg_bits(&aggregate_counters(
                &mut store_a,
                &nodes,
                SimTime::ZERO,
                end
            )),
            "resumed counters must be bit-identical"
        );
    }

    /// One step of a sampling scenario.
    #[derive(Debug, Clone)]
    enum Op {
        /// Advance the sampler by this many seconds.
        Advance(u64),
        /// Drop every row older than this many seconds before now.
        Prune(u64),
        /// Read an aggregate and check it against the reference.
        Read(Read),
        /// Replace the store by its snapshot's decoding.
        Snapshot,
        Blackout(bool),
        Corruption(bool),
        Fail(u32),
        Recover(u32),
    }

    /// One aggregate read: nodes in caller order, a window ending `ago`
    /// seconds before now and `len` seconds long, and the counters asked
    /// for.
    #[derive(Debug, Clone)]
    struct Read {
        nodes: Vec<NodeId>,
        ago: u64,
        len: u64,
        counters: Vec<usize>,
    }

    impl Read {
        fn window(&self, now: SimTime) -> (SimTime, SimTime) {
            let to =
                now.saturating_sub(SimDuration::from_secs(self.ago)) + SimDuration::from_secs(1);
            (to.saturating_sub(SimDuration::from_secs(self.len)), to)
        }
    }

    fn read() -> impl Strategy<Value = Read> {
        (
            proptest::collection::vec((11u32..16).prop_map(NodeId), 0..4),
            0u64..400,
            1u64..400,
            proptest::collection::vec(0usize..COUNTER_COUNT, 1..8),
        )
            .prop_map(|(nodes, ago, len, counters)| Read {
                nodes,
                ago,
                len,
                counters,
            })
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (1u64..150).prop_map(Op::Advance),
            (1u64..150).prop_map(Op::Advance),
            (0u64..200).prop_map(Op::Prune),
            read().prop_map(Op::Read),
            read().prop_map(Op::Read),
            Just(Op::Snapshot),
            any::<bool>().prop_map(Op::Blackout),
            any::<bool>().prop_map(Op::Corruption),
            (0u32..16).prop_map(Op::Fail),
            (0u32..16).prop_map(Op::Recover),
        ]
    }

    /// Aggregates as exact bit patterns.
    fn agg_bits(aggs: &[CounterAggregate]) -> Vec<(usize, u64, u64, u64)> {
        aggs.iter()
            .map(|a| (a.count, a.min.to_bits(), a.max.to_bits(), a.mean.to_bits()))
            .collect()
    }

    /// Every observation recorded so far, captured as it was recorded and
    /// pruned as the store is, with the machine's noise seed: the
    /// reference every store read is checked against.
    struct Reference {
        noise: u64,
        rows: BTreeMap<(NodeId, SimTime), NodeObservation>,
    }

    impl Reference {
        /// The pure function applied to the recorded observation.
        fn value(&self, node: NodeId, at: SimTime, counter: usize) -> f64 {
            let obs = &self.rows[&(node, at)];
            counter_value(counter, obs, row_key(self.noise, node.0, at.as_micros()))
        }

        /// The aggregate of `read` at `now`, pooled in the store's order.
        fn aggregate(&self, read: &Read, now: SimTime) -> Vec<CounterAggregate> {
            let (from, to) = read.window(now);
            read.counters
                .iter()
                .map(|&c| {
                    let mut st = OnlineStats::new();
                    for &node in &read.nodes {
                        for &(n, at) in self.rows.range((node, from)..(node, to)).map(|(k, _)| k) {
                            st.push(self.value(n, at, c));
                        }
                    }
                    if st.count() == 0 {
                        CounterAggregate::EMPTY
                    } else {
                        CounterAggregate {
                            count: st.count() as usize,
                            min: st.min(),
                            max: st.max(),
                            mean: st.mean(),
                        }
                    }
                })
                .collect()
        }
    }

    /// A 16-node machine with a noise job, its store and a sampler with
    /// `dropout` loss, all from `seed`.
    fn scenario(seed: u64, dropout: f64) -> (Machine, MetricStore, Sampler) {
        let mut machine = Machine::new(MachineConfig::tiny(seed));
        machine.enable_noise_job((12..16).map(NodeId).collect(), 8.0);
        let store = MetricStore::new(16, machine.config().seed);
        let nodes: Vec<NodeId> = (0..16).map(NodeId).collect();
        let sampler = Sampler::new(nodes, SimDuration::from_secs(30))
            .with_dropout(dropout, seed)
            .with_corruption_prob(0.4);
        (machine, store, sampler)
    }

    /// Runs `ops` on a fresh scenario, checking every read against the
    /// reference; returns the final store and time.
    fn run_ops(
        seed: u64,
        dropout: f64,
        ops: &[Op],
    ) -> Result<(MetricStore, Reference, SimTime), String> {
        let (mut machine, mut store, mut sampler) = scenario(seed, dropout);
        let mut reference = Reference {
            noise: noise_seed(machine.config().seed),
            rows: BTreeMap::new(),
        };
        let mut now = SimTime::ZERO;
        for op in ops {
            match op {
                Op::Advance(secs) => {
                    now += SimDuration::from_secs(*secs);
                    sampler.advance_to(now, &mut machine, &mut store);
                    // Capture each new observation as it was recorded.
                    for (node, at, obs) in store.observations() {
                        reference.rows.entry((node, at)).or_insert(obs);
                    }
                }
                Op::Prune(keep) => {
                    let cutoff = now.saturating_sub(SimDuration::from_secs(*keep));
                    store.retain_from(cutoff);
                    reference.rows.retain(|&(_, at), _| at >= cutoff);
                }
                Op::Read(read) => {
                    let (from, to) = read.window(now);
                    let got =
                        aggregate_counter_subset(&mut store, &read.nodes, from, to, &read.counters);
                    prop_assert_eq!(agg_bits(&got), agg_bits(&reference.aggregate(read, now)));
                }
                Op::Snapshot => store = MetricStore::from_val(&store.to_val()).unwrap(),
                Op::Blackout(on) => sampler.set_blackout(*on),
                Op::Corruption(on) => sampler.set_corruption(*on),
                Op::Fail(n) => machine.fail_node(NodeId(*n)),
                Op::Recover(n) => machine.recover_node(NodeId(*n)),
            }
        }
        Ok((store, reference, now))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every value the store serves equals the pure counter function
        /// applied to the observation recorded for its row, under any
        /// interleaving of sampling rounds (with dropout, blackouts,
        /// corruption and down nodes), prunes, reads and snapshots.
        #[test]
        fn lazy_settle_equals_eager_synthesis(
            seed in 0u64..10_000,
            dropout in prop_oneof![Just(0.0), Just(0.3)],
            ops in proptest::collection::vec(op(), 1..40),
        ) {
            let (mut store, reference, _) = run_ops(seed, dropout, &ops)?;
            prop_assert_eq!(store.row_count(), reference.rows.len());
            for &(node, at) in reference.rows.keys() {
                let next = at + SimDuration::from_micros(1);
                for counter in 0..COUNTER_COUNT {
                    let got = store.window(node, counter, at, next);
                    prop_assert_eq!(got.len(), 1);
                    prop_assert_eq!(got[0].to_bits(), reference.value(node, at, counter).to_bits());
                }
            }
        }

        /// Reads interleaved with prunes and snapshot round trips see the
        /// same values as the reference: neither pruning nor restoring
        /// moves a surviving row's value, memoized or not.
        #[test]
        fn values_survive_prunes_and_snapshot_round_trips(
            seed in 0u64..10_000,
            ops in proptest::collection::vec(
                prop_oneof![
                    (1u64..150).prop_map(Op::Advance),
                    (0u64..200).prop_map(Op::Prune),
                    read().prop_map(Op::Read),
                    Just(Op::Snapshot),
                ],
                1..40,
            ),
        ) {
            run_ops(seed, 0.2, &ops)?;
        }

        /// A counter's aggregate is bit-equal whether it is read alone, in
        /// a subset, or with all 90 counters.
        #[test]
        fn subset_and_full_aggregates_agree_bit_for_bit(
            seed in 0u64..10_000,
            rounds in 1u64..20,
            reads in proptest::collection::vec(read(), 1..8),
        ) {
            let ops = [Op::Advance(rounds * 30)];
            let (store, _, now) = run_ops(seed, 0.2, &ops)?;
            let (mut subset, mut full) = (store.clone(), store);
            for read in &reads {
                let (from, to) = read.window(now);
                let some = aggregate_counter_subset(&mut subset, &read.nodes, from, to, &read.counters);
                let all = aggregate_counters(&mut full, &read.nodes, from, to);
                let picked: Vec<CounterAggregate> = read.counters.iter().map(|&c| all[c]).collect();
                prop_assert_eq!(agg_bits(&some), agg_bits(&picked));
            }
        }

        /// The same reads give the same bits in any order, and the bits a
        /// read gives alone on an untouched store: which pairs an earlier
        /// read memoized never shows in a later one.
        #[test]
        fn values_do_not_depend_on_read_order(
            seed in 0u64..10_000,
            rounds in 1u64..20,
            reads in proptest::collection::vec(read(), 1..8),
        ) {
            let ops = [Op::Advance(rounds * 30)];
            let (store, _, now) = run_ops(seed, 0.2, &ops)?;
            let run = |mut store: MetricStore, order: &[&Read]| {
                order
                    .iter()
                    .map(|read| {
                        let (from, to) = read.window(now);
                        let aggs = aggregate_counter_subset(&mut store, &read.nodes, from, to, &read.counters);
                        agg_bits(&aggs)
                    })
                    .collect::<Vec<_>>()
            };
            // Each read alone on a store no read has touched, then the
            // reads in order and in reverse on one store each.
            let alone: Vec<_> = reads
                .iter()
                .map(|read| run(store.clone(), &[read]).remove(0))
                .collect();
            let forward: Vec<&Read> = reads.iter().collect();
            let backward: Vec<&Read> = reads.iter().rev().collect();
            let mut reversed = run(store.clone(), &backward);
            reversed.reverse();
            prop_assert_eq!(run(store, &forward), alone.clone());
            prop_assert_eq!(reversed, alone);
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
            store.rows_in(NodeId(0), SimTime::ZERO, SimTime::from_secs(31)),
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
