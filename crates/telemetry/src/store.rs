//! Time-indexed counter storage (the Cassandra/Sonar stand-in).
//!
//! A sampling round records what each node observed, a [`NodeObservation`]
//! of eight floats, not its [`COUNTER_COUNT`] counters. Counters are
//! synthesized when a reader first needs their values. A row's life:
//!
//! 1. **Observed.** [`MetricStore::record`] takes `(node, at, observation)`.
//!    The timestamp joins the node's block at once, so coverage and
//!    staleness queries ([`MetricStore::coverage`],
//!    [`MetricStore::latest_sample_at`]) never wait for synthesis.
//! 2. **Pending.** The observation waits in one queue, in record order.
//! 3. **Settled** on the first value read. [`MetricStore::settle`]
//!    synthesizes every pending row in record order, round by round and
//!    node by node, from the `machine/counters` stream the store owns
//!    ([`counter_stream`]). That is the order an eager sampler would have
//!    drawn in, so every value is the one it would have produced.
//!
//! Retention can prune a pending row before anyone reads it. The store
//! counts such rows as *skipped*, and the next settle first discards the
//! draws their synthesis would have taken ([`draws_per_row`] each). Rows
//! are recorded in time order, so the pruned rows are always the oldest
//! pending ones, and discarding their draws first keeps every later row on
//! its eager value.
//!
//! Settled rows are stored row-major, one block per node: a timestamp
//! vector covering every row, settled rows first, plus one contiguous
//! values vector holding the settled rows. Window queries recover
//! per-counter columns by striding through rows, which stays cheap because
//! retention keeps blocks short.

use rush_cluster::counters::{
    counter_stream, draws_per_row, synthesize_row_into, NodeObservation, COUNTER_COUNT,
};
use rush_cluster::topology::NodeId;
use rush_obs::profile as obs_profile;
use rush_obs::ProfileScope;
use rush_simkit::rng::CountedRng;
use rush_simkit::snapshot::{Restorable, Snapshot, SnapshotError, Val};
use rush_simkit::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Why a scheduled sample never made it into the store.
///
/// Real monitoring pipelines lose data for distinguishable reasons, and the
/// fault-injection layer reproduces them as *explicit* gap records rather
/// than silence: downstream consumers can then compute coverage and decide
/// whether a window is trustworthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GapReason {
    /// Random monitoring-pipeline loss (daemon restart, network hiccup).
    Dropout,
    /// A machine-wide telemetry blackout window was active.
    Blackout,
    /// The sample was drawn but corrupted and had to be discarded.
    Corrupt,
    /// The node was down; nothing to sample.
    NodeDown,
}

/// One missing sample: when it was due and why it is missing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Gap {
    /// The sampling-round timestamp the sample was due at.
    pub at: SimTime,
    /// Why it is missing.
    pub reason: GapReason,
}

/// One node's rows: `times` stamps every row, settled rows first, and the
/// `i`-th settled row is `values[i * COUNTER_COUNT .. (i + 1) * COUNTER_COUNT]`.
#[derive(Debug, Clone, Default)]
struct NodeBlock {
    times: Vec<SimTime>,
    values: Vec<f64>,
}

impl NodeBlock {
    fn settled_rows(&self) -> usize {
        self.values.len() / COUNTER_COUNT
    }

    /// The row index range covering `[from, to)`.
    fn row_range(&self, from: SimTime, to: SimTime) -> (usize, usize) {
        let lo = self.times.partition_point(|&t| t < from);
        let hi = self.times.partition_point(|&t| t < to);
        (lo, hi)
    }
}

/// A recorded row whose counters are not synthesized yet.
#[derive(Debug, Clone, Copy)]
struct PendingRow {
    node: NodeId,
    at: SimTime,
    obs: NodeObservation,
}

/// Per-node, per-counter sample storage with counters synthesized on
/// first read (see the module docs).
#[derive(Debug, Clone)]
pub struct MetricStore {
    node_count: u32,
    blocks: Vec<NodeBlock>,
    /// Missing-sample records per node, append-only in time order.
    gaps: Vec<Vec<Gap>>,
    /// Rows not yet synthesized, in record (and so time) order.
    pending: VecDeque<PendingRow>,
    /// Rows pruned while pending, whose draws the next settle discards.
    skipped: u64,
    rng: CountedRng,
}

impl MetricStore {
    /// Creates storage for `node_count` nodes of the machine seeded with
    /// `machine_seed`, whose counter noise stream the store owns.
    pub fn new(node_count: u32, machine_seed: u64) -> Self {
        MetricStore {
            node_count,
            blocks: vec![NodeBlock::default(); node_count as usize],
            gaps: vec![Vec::new(); node_count as usize],
            pending: VecDeque::new(),
            skipped: 0,
            rng: counter_stream(machine_seed),
        }
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> u32 {
        self.node_count
    }

    /// Counters per node.
    pub fn counter_count(&self) -> usize {
        COUNTER_COUNT
    }

    /// Records what `node` observed at `at`; its counters are synthesized
    /// on the next [`settle`](Self::settle). Rows must arrive in
    /// non-decreasing time order across the whole store (a sampling round
    /// records every node at one instant); an out-of-order row panics in
    /// debug builds and is clamped to the latest time otherwise.
    pub fn record(&mut self, node: NodeId, at: SimTime, obs: NodeObservation) {
        debug_assert!(node.0 < self.node_count, "node {node:?} out of range");
        let block = &mut self.blocks[node.0 as usize];
        let latest = block
            .times
            .last()
            .copied()
            .max(self.pending.back().map(|p| p.at));
        let at = match latest {
            Some(last) => {
                debug_assert!(at >= last, "out-of-order record at {at}, last {last}");
                at.max(last)
            }
            None => at,
        };
        block.times.push(at);
        self.pending.push_back(PendingRow { node, at, obs });
    }

    /// Synthesizes every pending row, in record order, after discarding the
    /// draws of the rows pruned while pending. Values read after this are
    /// the ones an eager sampler would have stored.
    pub fn settle(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let _scope = obs_profile::scope(ProfileScope::TelemetrySample);
        let per_row = draws_per_row();
        self.rng.advance(self.skipped.saturating_mul(per_row));
        self.skipped = 0;
        let start = self.rng.draws();
        let rows = self.pending.len() as u64;
        for row in self.pending.drain(..) {
            let values = &mut self.blocks[row.node.0 as usize].values;
            synthesize_row_into(&row.obs, &mut self.rng, values);
        }
        debug_assert_eq!(self.rng.draws() - start, rows * per_row);
    }

    /// Records that `node`'s sample due at `at` was lost, and why.
    pub fn record_gap(&mut self, node: NodeId, at: SimTime, reason: GapReason) {
        debug_assert!(node.0 < self.node_count, "node {node:?} out of range");
        self.gaps[node.0 as usize].push(Gap { at, reason });
    }

    /// The missing-sample records for `node`, in time order.
    pub fn gaps(&self, node: NodeId) -> &[Gap] {
        &self.gaps[node.0 as usize]
    }

    /// Total gap records across all nodes.
    pub fn gap_count(&self) -> usize {
        self.gaps.iter().map(Vec::len).sum()
    }

    /// Number of stored sample rows for `node` in `[from, to)`, pending or
    /// settled.
    pub(crate) fn rows_in(&self, node: NodeId, from: SimTime, to: SimTime) -> usize {
        let (lo, hi) = self.blocks[node.0 as usize].row_range(from, to);
        hi - lo
    }

    /// Fraction of scheduled samples in `[from, to)` across `nodes` that
    /// actually made it into the store: `kept / (kept + lost)`. Pending
    /// rows count as kept; nothing is synthesized.
    ///
    /// Returns 1.0 when nothing was scheduled in the window — an empty
    /// window is "fully covered", not suspicious; staleness is the signal
    /// for that case (see [`crate::aggregate::window_quality`]).
    pub fn coverage(&self, nodes: &[NodeId], from: SimTime, to: SimTime) -> f64 {
        let mut kept = 0usize;
        let mut lost = 0usize;
        for &node in nodes {
            kept += self.rows_in(node, from, to);
            lost += self.gaps[node.0 as usize]
                .iter()
                .filter(|g| g.at >= from && g.at < to)
                .count();
        }
        if kept + lost == 0 {
            1.0
        } else {
            kept as f64 / (kept + lost) as f64
        }
    }

    /// Timestamp of the most recent stored sample at or before `t` across
    /// `nodes`, pending or settled; `None` if no node has any sample by
    /// then.
    pub fn latest_sample_at(&self, nodes: &[NodeId], t: SimTime) -> Option<SimTime> {
        let mut latest = None;
        for &node in nodes {
            let times = &self.blocks[node.0 as usize].times;
            let idx = times.partition_point(|&at| at <= t);
            latest = latest.max((idx > 0).then(|| times[idx - 1]));
        }
        latest
    }

    /// The settled rows of `node` with timestamps in `[from, to)`: the
    /// matching timestamps plus the row-major value block
    /// (`values[i * counter_count + c]` is counter `c` of the `i`-th
    /// returned row). The store must be settled; aggregation walks rows
    /// once instead of binary-searching per counter.
    pub(crate) fn rows(&self, node: NodeId, from: SimTime, to: SimTime) -> (&[SimTime], &[f64]) {
        let block = &self.blocks[node.0 as usize];
        let (lo, hi) = block.row_range(from, to);
        debug_assert!(hi <= block.settled_rows(), "value read before settle");
        (
            &block.times[lo..hi],
            &block.values[lo * COUNTER_COUNT..hi * COUNTER_COUNT],
        )
    }

    /// Drops all samples and gap records before `cutoff` (memory bound for
    /// long campaigns). A pending row dropped here is never synthesized;
    /// the next settle discards its draws instead.
    pub fn retain_from(&mut self, cutoff: SimTime) {
        for b in &mut self.blocks {
            let lo = b.times.partition_point(|&t| t < cutoff);
            if lo > 0 {
                let settled = lo.min(b.settled_rows());
                b.times.drain(..lo);
                b.values.drain(..settled * COUNTER_COUNT);
            }
        }
        // Pending rows are in time order, so the pruned ones lead the queue.
        while self.pending.front().is_some_and(|p| p.at < cutoff) {
            self.pending.pop_front();
            self.skipped += 1;
        }
        for g in &mut self.gaps {
            let lo = g.partition_point(|gap| gap.at < cutoff);
            if lo > 0 {
                g.drain(..lo);
            }
        }
    }
}

impl Snapshot for MetricStore {
    fn to_val(&self) -> Val {
        let gaps = Val::List(
            self.gaps
                .iter()
                .map(|per_node| {
                    Val::List(
                        per_node
                            .iter()
                            .map(|g| {
                                let reason = match g.reason {
                                    GapReason::Dropout => 0,
                                    GapReason::Blackout => 1,
                                    GapReason::Corrupt => 2,
                                    GapReason::NodeDown => 3,
                                };
                                Val::List(vec![Val::U64(g.at.as_micros()), Val::U64(reason)])
                            })
                            .collect(),
                    )
                })
                .collect(),
        );
        let blocks = Val::List(
            self.blocks
                .iter()
                .map(|b| {
                    Val::map()
                        .with(
                            "t",
                            Val::List(b.times.iter().map(|t| Val::U64(t.as_micros())).collect()),
                        )
                        .with(
                            "v",
                            Val::List(b.values.iter().map(|&v| Val::from_f64(v)).collect()),
                        )
                })
                .collect(),
        );
        // Each pending row is `[node, at_us, observation...]`.
        let pending = Val::List(
            self.pending
                .iter()
                .map(|p| {
                    let head = [Val::U64(u64::from(p.node.0)), Val::U64(p.at.as_micros())];
                    let obs = p.obs.to_array().map(Val::from_f64);
                    Val::List(head.into_iter().chain(obs).collect())
                })
                .collect(),
        );
        Val::map()
            .with("node_count", Val::U64(u64::from(self.node_count)))
            .with("counter_count", Val::U64(COUNTER_COUNT as u64))
            .with("gaps", gaps)
            .with("blocks", blocks)
            .with("pending", pending)
            .with("skipped", Val::U64(self.skipped))
            .with("rng_seed", Val::U64(self.rng.seed()))
            .with("rng_draws", Val::U64(self.rng.draws()))
    }
}

impl Restorable for MetricStore {
    fn from_val(v: &Val) -> Result<Self, SnapshotError> {
        let schema = |what: &str| SnapshotError::Schema(format!("store {what}"));
        let node_count = u32::try_from(v.u("node_count")?).map_err(|_| schema("node count"))?;
        if v.u("counter_count")? != COUNTER_COUNT as u64 {
            return Err(schema("counter count"));
        }
        if v.get("series").is_ok() {
            return Err(schema("body has the retired per-series layout"));
        }
        let block_vals = v.l("blocks")?;
        if block_vals.len() != node_count as usize {
            return Err(schema("block count"));
        }
        let mut blocks = Vec::with_capacity(block_vals.len());
        for bv in block_vals {
            let times: Vec<SimTime> = bv
                .l("t")?
                .iter()
                .map(|t| t.as_u64().map(SimTime::from_micros))
                .collect::<Result<_, _>>()?;
            if times.windows(2).any(|w| w[0] > w[1]) {
                return Err(schema("block times out of order"));
            }
            let values: Vec<f64> = bv
                .l("v")?
                .iter()
                .map(Val::as_f64)
                .collect::<Result<_, _>>()?;
            if !values.len().is_multiple_of(COUNTER_COUNT)
                || values.len() / COUNTER_COUNT > times.len()
            {
                return Err(schema("block value count"));
            }
            blocks.push(NodeBlock { times, values });
        }
        // Each node's pending rows are the unsettled tail of its block, in
        // order; `next_pending[n]` is the block row the next one must stamp.
        let mut next_pending: Vec<usize> = blocks.iter().map(NodeBlock::settled_rows).collect();
        let mut pending = VecDeque::new();
        for pv in v.l("pending")? {
            let [node, at, obs @ ..] = pv.as_list()? else {
                return Err(schema("pending row shape"));
            };
            let obs: &[Val; 8] = obs.try_into().map_err(|_| schema("pending row shape"))?;
            let node = u32::try_from(node.as_u64()?)
                .ok()
                .filter(|&n| n < node_count)
                .ok_or_else(|| schema("pending node"))?;
            let at = SimTime::from_micros(at.as_u64()?);
            if pending.back().is_some_and(|p: &PendingRow| p.at > at) {
                return Err(schema("pending times out of order"));
            }
            let row = &mut next_pending[node as usize];
            if blocks[node as usize].times.get(*row) != Some(&at) {
                return Err(schema("pending row disagrees with its block"));
            }
            *row += 1;
            let mut fields = [0.0; 8];
            for (field, val) in fields.iter_mut().zip(obs) {
                *field = val.as_f64()?;
            }
            pending.push_back(PendingRow {
                node: NodeId(node),
                at,
                obs: NodeObservation::from_array(fields),
            });
        }
        if next_pending
            .iter()
            .zip(&blocks)
            .any(|(&row, b)| row != b.times.len())
        {
            return Err(schema("pending row count"));
        }
        let gap_vals = v.l("gaps")?;
        if gap_vals.len() != node_count as usize {
            return Err(schema("gap rows"));
        }
        let mut gaps = Vec::with_capacity(gap_vals.len());
        for per_node in gap_vals {
            let mut row = Vec::new();
            for g in per_node.as_list()? {
                let pair = g.as_list()?;
                if pair.len() != 2 {
                    return Err(SnapshotError::Schema("gap pair".to_string()));
                }
                let reason = match pair[1].as_u64()? {
                    0 => GapReason::Dropout,
                    1 => GapReason::Blackout,
                    2 => GapReason::Corrupt,
                    3 => GapReason::NodeDown,
                    other => {
                        return Err(SnapshotError::Schema(format!("gap reason {other}")));
                    }
                };
                row.push(Gap {
                    at: SimTime::from_micros(pair[0].as_u64()?),
                    reason,
                });
            }
            gaps.push(row);
        }
        Ok(MetricStore {
            node_count,
            blocks,
            gaps,
            pending,
            skipped: v.u("skipped")?,
            rng: CountedRng::restore(v.u("rng_seed")?, v.u("rng_draws")?),
        })
    }
}

#[cfg(test)]
impl MetricStore {
    /// Appends an already-synthesized row, bypassing synthesis, so tests
    /// can aggregate hand-picked values. Only valid on a settled store.
    pub(crate) fn push_settled(&mut self, node: NodeId, at: SimTime, row: &[f64]) {
        assert!(
            self.pending.is_empty(),
            "push_settled on an unsettled store"
        );
        assert_eq!(row.len(), COUNTER_COUNT, "row width");
        let block = &mut self.blocks[node.0 as usize];
        block.times.push(at);
        block.values.extend_from_slice(row);
    }

    /// Settled samples of `counter` on `node` within `[from, to)`.
    pub(crate) fn window(
        &self,
        node: NodeId,
        counter: usize,
        from: SimTime,
        to: SimTime,
    ) -> Vec<f64> {
        let (_, values) = self.rows(node, from, to);
        values
            .chunks_exact(COUNTER_COUNT)
            .map(|row| row[counter])
            .collect()
    }

    /// Rows stored across all nodes, settled or pending.
    pub(crate) fn row_count(&self) -> usize {
        self.blocks.iter().map(|b| b.times.len()).sum()
    }

    /// Rows awaiting synthesis.
    pub(crate) fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Rows pruned while pending since the last settle.
    pub(crate) fn skipped(&self) -> u64 {
        self.skipped
    }

    /// The pending rows as `(node, at, observation)`, in record order.
    pub(crate) fn pending_rows(
        &self,
    ) -> impl Iterator<Item = (NodeId, SimTime, NodeObservation)> + '_ {
        self.pending.iter().map(|p| (p.node, p.at, p.obs))
    }

    /// Every settled row as `(node, at, values)`, node by node.
    pub(crate) fn settled_rows(&self) -> Vec<(NodeId, SimTime, &[f64])> {
        let mut out = Vec::new();
        for (n, b) in self.blocks.iter().enumerate() {
            for (at, row) in b.times.iter().zip(b.values.chunks_exact(COUNTER_COUNT)) {
                out.push((NodeId(n as u32), *at, row));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// A distinct observation per `k`.
    fn obs(k: u64) -> NodeObservation {
        let k = k as f64;
        NodeObservation::from_array([k, k, 0.1 * k, 0.05 * k, 0.5, 0.25, k, 0.01 * k])
    }

    /// The rows an eager sampler would store for `recorded`, synthesized in
    /// that order from the stream of machine seed `seed`.
    fn eager(seed: u64, recorded: &[NodeObservation]) -> Vec<Vec<f64>> {
        let mut rng = counter_stream(seed);
        recorded
            .iter()
            .map(|o| {
                let mut row = Vec::new();
                synthesize_row_into(o, &mut rng, &mut row);
                row
            })
            .collect()
    }

    #[test]
    fn record_and_window_round_trip() {
        let mut store = MetricStore::new(4, 3);
        store.record(NodeId(1), t(10), obs(1));
        store.record(NodeId(1), t(20), obs(2));
        assert_eq!(store.pending_count(), 2);
        store.settle();
        assert_eq!(store.pending_count(), 0);
        let want = eager(3, &[obs(1), obs(2)]);
        assert_eq!(
            store.window(NodeId(1), 0, t(0), t(30)),
            &[want[0][0], want[1][0]]
        );
        assert_eq!(store.window(NodeId(1), 2, t(15), t(30)), &[want[1][2]]);
        assert_eq!(store.window(NodeId(0), 0, t(0), t(30)), &[] as &[f64]);
        assert_eq!(store.row_count(), 2);
    }

    #[test]
    fn rows_expose_matching_times_and_row_major_values() {
        let row = |k: f64| vec![k; COUNTER_COUNT];
        let mut store = MetricStore::new(2, 0);
        store.push_settled(NodeId(0), t(10), &row(1.0));
        store.push_settled(NodeId(0), t(20), &row(3.0));
        store.push_settled(NodeId(0), t(30), &row(5.0));
        let (times, values) = store.rows(NodeId(0), t(15), t(35));
        assert_eq!(times, &[t(20), t(30)]);
        assert_eq!(values, [row(3.0), row(5.0)].concat());
        let (times, values) = store.rows(NodeId(1), t(0), t(100));
        assert!(times.is_empty());
        assert!(values.is_empty());
    }

    #[test]
    fn retain_from_prunes_all_series() {
        let mut store = MetricStore::new(2, 5);
        let mut recorded = Vec::new();
        for s in 0..10 {
            for n in 0..2 {
                store.record(NodeId(n), t(s), obs(s * 2 + u64::from(n)));
                recorded.push(obs(s * 2 + u64::from(n)));
            }
        }
        assert_eq!(store.row_count(), 20);
        store.retain_from(t(8));
        assert_eq!(store.row_count(), 4);
        assert_eq!(store.skipped(), 16, "pruned before any read");
        store.settle();
        // The surviving rows get the values they would have had if the
        // pruned ones had been synthesized first.
        let want = eager(5, &recorded);
        assert_eq!(
            store.window(NodeId(0), 0, t(0), t(100)),
            &[want[16][0], want[18][0]]
        );
        assert_eq!(
            store.window(NodeId(1), 1, t(0), t(100)),
            &[want[17][1], want[19][1]]
        );
    }

    #[test]
    fn retain_from_drops_settled_and_pending_rows_alike() {
        let mut store = MetricStore::new(1, 8);
        let recorded: Vec<NodeObservation> = (0..6).map(obs).collect();
        for (s, o) in recorded.iter().enumerate().take(3) {
            store.record(NodeId(0), t(s as u64), *o);
        }
        store.settle();
        for (s, o) in recorded.iter().enumerate().skip(3) {
            store.record(NodeId(0), t(s as u64), *o);
        }
        // Prunes two settled rows and leaves one settled plus three pending.
        store.retain_from(t(2));
        assert_eq!((store.row_count(), store.pending_count()), (4, 3));
        store.retain_from(t(4));
        assert_eq!((store.row_count(), store.skipped()), (2, 1));
        store.settle();
        let want = eager(8, &recorded);
        assert_eq!(
            store.window(NodeId(0), 7, t(0), t(10)),
            &[want[4][7], want[5][7]]
        );
    }

    #[test]
    fn dimensions_exposed() {
        let store = MetricStore::new(7, 0);
        assert_eq!(store.node_count(), 7);
        assert_eq!(store.counter_count(), 90);
    }

    #[test]
    fn gaps_recorded_and_counted() {
        let mut store = MetricStore::new(2, 0);
        store.record(NodeId(0), t(0), obs(1));
        store.record_gap(NodeId(0), t(10), GapReason::Dropout);
        store.record_gap(NodeId(1), t(10), GapReason::Blackout);
        assert_eq!(store.gap_count(), 2);
        assert_eq!(store.gaps(NodeId(0)).len(), 1);
        assert_eq!(store.gaps(NodeId(0))[0].reason, GapReason::Dropout);
        assert_eq!(store.gaps(NodeId(1))[0].at, t(10));
    }

    #[test]
    fn coverage_is_kept_over_scheduled() {
        let mut store = MetricStore::new(2, 0);
        // node 0: 3 kept, 1 lost; node 1: 2 kept, 2 lost
        store.record(NodeId(0), t(0), obs(1));
        store.record(NodeId(1), t(0), obs(1));
        store.record(NodeId(0), t(10), obs(1));
        store.record_gap(NodeId(1), t(10), GapReason::NodeDown);
        store.record(NodeId(0), t(20), obs(1));
        store.record_gap(NodeId(1), t(20), GapReason::Corrupt);
        store.record_gap(NodeId(0), t(30), GapReason::Dropout);
        store.record(NodeId(1), t(30), obs(1));
        let both = [NodeId(0), NodeId(1)];
        // 5 kept of 8 scheduled over the full window
        assert!((store.coverage(&both, t(0), t(40)) - 5.0 / 8.0).abs() < 1e-12);
        // Window bounds apply: at [10, 30) node 0 keeps 2/2, node 1 0/2.
        assert!((store.coverage(&both, t(10), t(30)) - 0.5).abs() < 1e-12);
        // Only node 0 over the same window is fully covered.
        assert_eq!(store.coverage(&[NodeId(0)], t(10), t(30)), 1.0);
        // Coverage reads timestamps only: nothing was synthesized.
        assert_eq!(store.pending_count(), 5);
    }

    #[test]
    fn empty_window_coverage_is_full() {
        let store = MetricStore::new(2, 0);
        assert_eq!(store.coverage(&[NodeId(0)], t(0), t(100)), 1.0);
    }

    #[test]
    fn latest_sample_tracks_staleness_source() {
        let mut store = MetricStore::new(2, 0);
        assert_eq!(store.latest_sample_at(&[NodeId(0)], t(100)), None);
        store.record(NodeId(0), t(10), obs(1));
        store.record(NodeId(1), t(25), obs(2));
        let both = [NodeId(0), NodeId(1)];
        assert_eq!(store.latest_sample_at(&both, t(100)), Some(t(25)));
        assert_eq!(store.latest_sample_at(&both, t(20)), Some(t(10)));
        // inclusive upper bound
        assert_eq!(store.latest_sample_at(&both, t(25)), Some(t(25)));
        assert_eq!(store.latest_sample_at(&both, t(5)), None);
    }

    /// A small populated store: three nodes, settled and pending rows, two
    /// gaps.
    fn populated() -> MetricStore {
        let mut store = MetricStore::new(3, 4);
        store.record(NodeId(0), t(0), obs(1));
        store.record(NodeId(2), t(0), obs(2));
        store.settle();
        store.record(NodeId(2), t(10), obs(3));
        store.record(NodeId(0), t(15), obs(4));
        store.record_gap(NodeId(1), t(5), GapReason::Blackout);
        store.record_gap(NodeId(1), t(15), GapReason::NodeDown);
        store
    }

    #[test]
    fn snapshot_round_trip_preserves_points_and_gaps() {
        let mut store = populated();
        assert_eq!((store.row_count(), store.pending_count()), (4, 2));
        let mut back = MetricStore::from_val(&store.to_val()).unwrap();
        assert_eq!(back.node_count(), 3);
        assert_eq!(back.counter_count(), 90);
        assert_eq!(back.row_count(), store.row_count());
        assert_eq!(back.gaps(NodeId(1)), store.gaps(NodeId(1)));
        assert_eq!(back.gap_count(), 2);
        assert_eq!(back.to_val(), store.to_val());
        // Pending rows and the stream position survive: both stores settle
        // to the same bits.
        store.settle();
        back.settle();
        assert_eq!(back.to_val(), store.to_val());
        let want = eager(4, &[obs(1), obs(2), obs(3), obs(4)]);
        assert_eq!(
            back.window(NodeId(2), 1, t(0), t(20)),
            &[want[1][1], want[2][1]]
        );
    }

    #[test]
    fn snapshot_round_trip_preserves_skipped_rows() {
        let mut store = MetricStore::new(1, 6);
        store.record(NodeId(0), t(0), obs(1));
        store.retain_from(t(1));
        store.record(NodeId(0), t(5), obs(2));
        assert_eq!((store.skipped(), store.pending_count()), (1, 1));
        let mut back = MetricStore::from_val(&store.to_val()).unwrap();
        assert_eq!(back.to_val(), store.to_val());
        back.settle();
        let want = eager(6, &[obs(1), obs(2)]);
        assert_eq!(back.window(NodeId(0), 0, t(0), t(10)), &[want[1][0]]);
    }

    /// `populated()`'s snapshot body with the map entry `key` rewritten.
    fn body_with(key: &str, edit: impl FnOnce(&mut Vec<(String, Val)>, usize)) -> Val {
        let Val::Map(mut entries) = populated().to_val() else {
            panic!("store body is a map");
        };
        let i = entries
            .iter()
            .position(|(k, _)| k == key)
            .unwrap_or(entries.len());
        edit(&mut entries, i);
        Val::Map(entries)
    }

    /// The list under entry `i`.
    fn list_at(entries: &mut [(String, Val)], i: usize) -> &mut Vec<Val> {
        let Val::List(list) = &mut entries[i].1 else {
            panic!("entry {i} is a list");
        };
        list
    }

    /// The values of block `node` under entry `i` (the blocks list).
    fn block_values(entries: &mut [(String, Val)], i: usize, node: usize) -> &mut Vec<Val> {
        let Val::Map(block) = &mut list_at(entries, i)[node] else {
            panic!("block is a map");
        };
        let (_, Val::List(values)) = block.iter_mut().find(|(k, _)| k == "v").unwrap() else {
            panic!("block values are a list");
        };
        values
    }

    fn assert_schema_error(body: &Val) {
        match MetricStore::from_val(body) {
            Err(SnapshotError::Schema(_)) => {}
            other => panic!("expected a schema error, got {other:?}"),
        }
    }

    #[test]
    fn decoder_rejects_the_retired_series_layout() {
        let body = body_with("series", |entries, _| {
            entries.push(("series".to_string(), Val::List(Vec::new())));
        });
        assert_schema_error(&body);
    }

    #[test]
    fn decoder_rejects_a_missing_blocks_key() {
        let body = body_with("blocks", |entries, i| {
            entries.remove(i);
        });
        assert_schema_error(&body);
    }

    #[test]
    fn decoder_rejects_a_wrong_block_count() {
        let body = body_with("blocks", |entries, i| {
            list_at(entries, i).pop();
        });
        assert_schema_error(&body);
    }

    #[test]
    fn decoder_rejects_a_wrong_value_count() {
        let body = body_with("blocks", |entries, i| {
            block_values(entries, i, 0).pop();
        });
        assert_schema_error(&body);
    }

    #[test]
    fn decoder_rejects_more_settled_rows_than_timestamps() {
        // Node 2 holds one settled row of two timestamps; a third row's
        // worth of values outruns its timestamps.
        let body = body_with("blocks", |entries, i| {
            let values = block_values(entries, i, 2);
            let extra = values.clone();
            values.extend(extra.iter().cloned());
            values.extend(extra);
        });
        assert_schema_error(&body);
    }

    #[test]
    fn decoder_rejects_a_pending_node_out_of_range() {
        let body = body_with("pending", |entries, i| {
            let Val::List(row) = &mut list_at(entries, i)[0] else {
                panic!("pending row is a list");
            };
            row[0] = Val::U64(3);
        });
        assert_schema_error(&body);
    }

    #[test]
    fn decoder_rejects_pending_times_out_of_order() {
        // Each row still matches its own block; only the queue order breaks.
        let body = body_with("pending", |entries, i| {
            list_at(entries, i).swap(0, 1);
        });
        assert_schema_error(&body);
    }

    #[test]
    fn decoder_rejects_pending_counts_that_disagree_with_the_blocks() {
        let body = body_with("pending", |entries, i| {
            list_at(entries, i).pop();
        });
        assert_schema_error(&body);
    }

    #[test]
    fn decoder_rejects_a_zero_or_huge_counter_count() {
        for count in [0, 89, u64::MAX] {
            let body = body_with("counter_count", |entries, i| {
                entries[i].1 = Val::U64(count);
            });
            assert_schema_error(&body);
        }
    }

    #[test]
    fn retain_from_prunes_gaps_too() {
        let mut store = MetricStore::new(1, 0);
        for s in 0..10 {
            store.record_gap(NodeId(0), t(s), GapReason::Dropout);
        }
        store.retain_from(t(7));
        assert_eq!(store.gap_count(), 3);
        assert_eq!(store.gaps(NodeId(0))[0].at, t(7));
    }
}
