//! Time-indexed counter storage (the Cassandra/Sonar stand-in).
//!
//! A sampling round records what each node observed, a [`NodeObservation`]
//! of eight floats, not its [`COUNTER_COUNT`] counters. Each node's
//! timestamps, observations and gap records are the store's whole
//! persisted state. In memory the observations sit in one record-ordered
//! queue, so a sampling round writes them sequentially, and each node
//! indexes its rows into it.
//!
//! Counter values are a pure function of the observation and of the key
//! `(machine seed, node, sample time, counter)` ([`counter_value`]), so
//! they can be synthesized in any order, any number of times, with the
//! same bits. A reader asks for the counters it needs
//! ([`MetricStore::columns`]); the first read that covers a (row, counter)
//! pair synthesizes it into the node's counter-major memo, and later reads
//! of that pair reuse it. Coverage and staleness queries
//! ([`MetricStore::coverage`], [`MetricStore::latest_sample_at`]) read
//! timestamps and gaps only and synthesize nothing.
//!
//! The memo is a cache, never snapshotted: a restored store refills it on
//! demand with bit-identical values, and retention prunes it along with
//! the rows.

use rush_cluster::counters::{counter_value, noise_seed, row_key, NodeObservation, COUNTER_COUNT};
use rush_cluster::topology::NodeId;
use rush_simkit::snapshot::{Restorable, Snapshot, SnapshotError, Val};
use rush_simkit::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::ops::Range;

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

/// One node's rows: `rows[i]` is row `i`'s time and the sequence number
/// of its observation in [`MetricStore`]'s queue, and `memo[c]` caches
/// counter `c` of a range of rows. The memo holds no columns until the
/// node's first read.
#[derive(Debug, Clone, Default)]
struct NodeBlock {
    rows: VecDeque<(SimTime, u64)>,
    memo: Vec<Column>,
}

/// One counter's memoized values: `values[i]` holds row `i` for every `i`
/// in `filled`, and is stale elsewhere. Reads slide forward in time, so
/// one range covers what they ask for; a read disjoint from it starts a
/// new range, and a row dropped from the range is synthesized again, to
/// the same bits, if a later read covers it.
#[derive(Debug, Clone, Default)]
struct Column {
    values: Vec<f64>,
    filled: Range<usize>,
}

impl Column {
    /// Synthesizes the rows of `lo..hi` outside `filled` with `synth`, and
    /// extends `filled` over `lo..hi`.
    fn fill(&mut self, lo: usize, hi: usize, mut synth: impl FnMut(usize) -> f64) {
        if self.values.len() < hi {
            self.values.resize(hi, 0.0);
        }
        if lo >= hi {
            return;
        }
        let Range { start, end } = self.filled;
        let (start, end) = if start >= end || hi < start || lo > end {
            (lo, lo)
        } else {
            (start, end)
        };
        for i in (lo..start.min(hi)).chain(end.max(lo)..hi) {
            self.values[i] = synth(i);
        }
        self.filled = lo.min(start)..hi.max(end);
    }

    /// Forgets the first `n` rows.
    fn drop_front(&mut self, n: usize) {
        self.values.drain(..n.min(self.values.len()));
        let Range { start, end } = self.filled;
        self.filled = start.saturating_sub(n)..end.saturating_sub(n);
    }
}

impl NodeBlock {
    /// The row index range covering `[from, to)`.
    fn row_range(&self, from: SimTime, to: SimTime) -> (usize, usize) {
        let lo = self.rows.partition_point(|&(t, _)| t < from);
        let hi = self.rows.partition_point(|&(t, _)| t < to);
        (lo, hi)
    }
}

/// Per-node observation storage with counters synthesized and memoized on
/// first read (see the module docs).
#[derive(Debug, Clone)]
pub struct MetricStore {
    node_count: u32,
    machine_seed: u64,
    /// [`noise_seed`] of `machine_seed`, the root of every row key.
    noise_seed: u64,
    blocks: Vec<NodeBlock>,
    /// Every row's time and observation, in record order; entry `k` has
    /// sequence number `first_seq + k`. One queue for the whole store
    /// keeps a sampling round's writes sequential.
    obs: VecDeque<(SimTime, NodeObservation)>,
    first_seq: u64,
    /// Missing-sample records per node, append-only in time order.
    gaps: Vec<Vec<Gap>>,
}

impl MetricStore {
    /// Creates storage for `node_count` nodes of the machine seeded with
    /// `machine_seed`, whose counter noise the store's values carry.
    pub fn new(node_count: u32, machine_seed: u64) -> Self {
        MetricStore {
            node_count,
            machine_seed,
            noise_seed: noise_seed(machine_seed),
            blocks: (0..node_count).map(|_| NodeBlock::default()).collect(),
            obs: VecDeque::new(),
            first_seq: 0,
            gaps: vec![Vec::new(); node_count as usize],
        }
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> u32 {
        self.node_count
    }

    /// The seed of the machine whose counters the store synthesizes.
    pub fn machine_seed(&self) -> u64 {
        self.machine_seed
    }

    /// Counters per node.
    pub fn counter_count(&self) -> usize {
        COUNTER_COUNT
    }

    /// Records what `node` observed at `at`. Rows must arrive in
    /// non-decreasing time order across the whole store (a sampling round
    /// records every node at one instant); an out-of-order row panics in
    /// debug builds and is clamped to the latest time otherwise.
    pub fn record(&mut self, node: NodeId, at: SimTime, obs: NodeObservation) {
        debug_assert!(node.0 < self.node_count, "node {node:?} out of range");
        let at = match self.obs.back() {
            Some(&(last, _)) => {
                debug_assert!(at >= last, "out-of-order record at {at}, last {last}");
                at.max(last)
            }
            None => at,
        };
        let seq = self.first_seq + self.obs.len() as u64;
        self.blocks[node.0 as usize].rows.push_back((at, seq));
        self.obs.push_back((at, obs));
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

    /// Number of stored sample rows for `node` in `[from, to)`.
    pub(crate) fn rows_in(&self, node: NodeId, from: SimTime, to: SimTime) -> usize {
        let (lo, hi) = self.blocks[node.0 as usize].row_range(from, to);
        hi - lo
    }

    /// Fraction of scheduled samples in `[from, to)` across `nodes` that
    /// actually made it into the store: `kept / (kept + lost)`. Nothing is
    /// synthesized.
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
    /// `nodes`; `None` if no node has any sample by then.
    pub fn latest_sample_at(&self, nodes: &[NodeId], t: SimTime) -> Option<SimTime> {
        let mut latest = None;
        for &node in nodes {
            let rows = &self.blocks[node.0 as usize].rows;
            let idx = rows.partition_point(|&(at, _)| at <= t);
            latest = latest.max((idx > 0).then(|| rows[idx - 1].0));
        }
        latest
    }

    /// The columns of `counters` (in that order) over `node`'s rows with
    /// timestamps in `[from, to)`, each in time order. The (row, counter)
    /// pairs no read has covered yet are synthesized into the memo first.
    pub fn columns<'a>(
        &'a mut self,
        node: NodeId,
        from: SimTime,
        to: SimTime,
        counters: &'a [usize],
    ) -> impl Iterator<Item = &'a [f64]> + 'a {
        let (seed, first, all_obs) = (self.noise_seed, self.first_seq, &self.obs);
        let block = &mut self.blocks[node.0 as usize];
        let (lo, hi) = block.row_range(from, to);
        if block.memo.is_empty() {
            block.memo = vec![Column::default(); COUNTER_COUNT];
        }
        let rows = &block.rows;
        for &c in counters {
            block.memo[c].fill(lo, hi, |i| {
                let (at, seq) = rows[i];
                let obs = &all_obs[(seq - first) as usize].1;
                counter_value(c, obs, row_key(seed, node.0, at.as_micros()))
            });
        }
        let block = &*block;
        counters.iter().map(move |&c| &block.memo[c].values[lo..hi])
    }

    /// Drops all samples and gap records before `cutoff` (memory bound for
    /// long campaigns), memoized values included.
    pub fn retain_from(&mut self, cutoff: SimTime) {
        for b in &mut self.blocks {
            let lo = b.rows.partition_point(|&(t, _)| t < cutoff);
            if lo > 0 {
                b.rows.drain(..lo);
                for col in &mut b.memo {
                    col.drop_front(lo);
                }
            }
        }
        while self.obs.front().is_some_and(|&(at, _)| at < cutoff) {
            self.obs.pop_front();
            self.first_seq += 1;
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
        // A block is its timestamps and its observations, eight floats a
        // row; the memo is rebuilt on demand.
        let blocks = Val::List(
            self.blocks
                .iter()
                .map(|b| {
                    let times = b.rows.iter().map(|&(at, _)| Val::U64(at.as_micros()));
                    let obs = b.rows.iter().flat_map(|&(_, seq)| {
                        let obs = &self.obs[(seq - self.first_seq) as usize].1;
                        obs.to_array().map(Val::from_f64)
                    });
                    Val::map()
                        .with("t", Val::List(times.collect()))
                        .with("o", Val::List(obs.collect()))
                })
                .collect(),
        );
        Val::map()
            .with("node_count", Val::U64(u64::from(self.node_count)))
            .with("counter_count", Val::U64(COUNTER_COUNT as u64))
            .with("machine_seed", Val::U64(self.machine_seed))
            .with("gaps", gaps)
            .with("blocks", blocks)
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
        let mut store = MetricStore::new(0, v.u("machine_seed")?);
        store.node_count = node_count;
        let block_vals = v.l("blocks")?;
        if block_vals.len() != node_count as usize {
            return Err(schema("block count"));
        }
        // Every row as (time, node, observation), rebuilt into record
        // order: time, then node.
        let mut rows = Vec::new();
        for (node, bv) in block_vals.iter().enumerate() {
            let times: Vec<SimTime> = bv
                .l("t")?
                .iter()
                .map(|t| t.as_u64().map(SimTime::from_micros))
                .collect::<Result<_, _>>()?;
            if times.windows(2).any(|w| w[0] > w[1]) {
                return Err(schema("block times out of order"));
            }
            let fields = bv.l("o")?;
            if fields.len() != times.len().saturating_mul(8) {
                return Err(schema("observation count"));
            }
            for (&at, row) in times.iter().zip(fields.chunks_exact(8)) {
                let mut a = [0.0; 8];
                for (field, val) in a.iter_mut().zip(row) {
                    *field = val.as_f64()?;
                }
                if a.iter().any(|x| !x.is_finite()) {
                    return Err(schema("non-finite observation"));
                }
                rows.push((at, node, NodeObservation::from_array(a)));
            }
            store.blocks.push(NodeBlock::default());
        }
        rows.sort_by_key(|&(at, node, _)| (at, node));
        for (seq, (at, node, obs)) in rows.into_iter().enumerate() {
            store.blocks[node].rows.push_back((at, seq as u64));
            store.obs.push_back((at, obs));
        }
        let gap_vals = v.l("gaps")?;
        if gap_vals.len() != node_count as usize {
            return Err(schema("gap rows"));
        }
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
            store.gaps.push(row);
        }
        Ok(store)
    }
}

#[cfg(test)]
impl MetricStore {
    /// Appends a row whose counters read as `row` rather than as synthesized
    /// values, so tests can aggregate hand-picked values.
    pub(crate) fn push_memoized(&mut self, node: NodeId, at: SimTime, row: &[f64]) {
        assert_eq!(row.len(), COUNTER_COUNT, "row width");
        self.record(node, at, NodeObservation::default());
        let block = &mut self.blocks[node.0 as usize];
        let rows = block.rows.len();
        block.memo.resize(COUNTER_COUNT, Column::default());
        for (col, &v) in block.memo.iter_mut().zip(row) {
            col.fill(rows - 1, rows, |_| v);
        }
    }

    /// Counter `counter` of `node`'s rows in `[from, to)`, as a vector.
    pub(crate) fn window(
        &mut self,
        node: NodeId,
        counter: usize,
        from: SimTime,
        to: SimTime,
    ) -> Vec<f64> {
        let counters = [counter];
        let column = self.columns(node, from, to, &counters).next();
        column.expect("one column").to_vec()
    }

    /// Rows stored across all nodes.
    pub(crate) fn row_count(&self) -> usize {
        self.blocks.iter().map(|b| b.rows.len()).sum()
    }

    /// (row, counter) pairs synthesized into the memo so far.
    pub(crate) fn memoized_count(&self) -> usize {
        self.blocks
            .iter()
            .flat_map(|b| &b.memo)
            .map(|col| col.filled.len())
            .sum()
    }

    /// Every row as `(node, at, observation)`, node by node.
    pub(crate) fn observations(&self) -> Vec<(NodeId, SimTime, NodeObservation)> {
        let mut out = Vec::new();
        for (n, b) in self.blocks.iter().enumerate() {
            for &(at, seq) in &b.rows {
                let obs = self.obs[(seq - self.first_seq) as usize].1;
                out.push((NodeId(n as u32), at, obs));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rush_cluster::counters::synthesize_row_into;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// A distinct observation per `k`.
    fn obs(k: u64) -> NodeObservation {
        let k = k as f64;
        NodeObservation::from_array([k, k, 0.1 * k, 0.05 * k, 0.5, 0.25, k, 0.01 * k])
    }

    /// The counters of the row `node` observed as `o` at `at` on the
    /// machine seeded `seed`, synthesized in one go.
    fn want(seed: u64, node: u32, at: SimTime, o: NodeObservation) -> Vec<f64> {
        let mut row = Vec::new();
        synthesize_row_into(
            &o,
            row_key(noise_seed(seed), node, at.as_micros()),
            &mut row,
        );
        row
    }

    #[test]
    fn record_and_window_round_trip() {
        let mut store = MetricStore::new(4, 3);
        store.record(NodeId(1), t(10), obs(1));
        store.record(NodeId(1), t(20), obs(2));
        assert_eq!(store.memoized_count(), 0, "recording synthesizes nothing");
        let (a, b) = (want(3, 1, t(10), obs(1)), want(3, 1, t(20), obs(2)));
        assert_eq!(store.window(NodeId(1), 0, t(0), t(30)), &[a[0], b[0]]);
        assert_eq!(store.window(NodeId(1), 2, t(15), t(30)), &[b[2]]);
        assert_eq!(store.window(NodeId(0), 0, t(0), t(30)), &[] as &[f64]);
        assert_eq!(store.row_count(), 2);
        assert_eq!(store.memoized_count(), 3, "two of counter 0, one of 2");
    }

    #[test]
    fn column_exposes_one_counter_of_the_matching_rows() {
        let row = |k: f64| (0..COUNTER_COUNT).map(|c| k + c as f64).collect::<Vec<_>>();
        let mut store = MetricStore::new(2, 0);
        store.push_memoized(NodeId(0), t(10), &row(1.0));
        store.push_memoized(NodeId(0), t(20), &row(3.0));
        store.push_memoized(NodeId(0), t(30), &row(5.0));
        let cols: Vec<&[f64]> = store.columns(NodeId(0), t(15), t(35), &[4, 0]).collect();
        assert_eq!(cols, [&[7.0, 9.0][..], &[3.0, 5.0][..]]);
        assert_eq!(store.window(NodeId(0), 89, t(0), t(15)), &[90.0]);
        assert!(store.window(NodeId(1), 0, t(0), t(100)).is_empty());
    }

    #[test]
    fn disjoint_reads_leave_no_stale_rows_between_them() {
        let mut store = MetricStore::new(1, 2);
        for s in 0..10 {
            store.record(NodeId(0), t(s), obs(s + 1));
        }
        // Two reads far apart, then one over everything between them.
        store.window(NodeId(0), 5, t(0), t(2));
        store.window(NodeId(0), 5, t(6), t(8));
        let truth =
            |c: usize| -> Vec<f64> { (0..10).map(|s| want(2, 0, t(s), obs(s + 1))[c]).collect() };
        assert_eq!(store.window(NodeId(0), 5, t(0), t(10)), truth(5));
        // And the same after reads that end where the next one starts.
        store.window(NodeId(0), 9, t(2), t(4));
        store.window(NodeId(0), 9, t(4), t(5));
        store.window(NodeId(0), 9, t(0), t(1));
        assert_eq!(store.window(NodeId(0), 9, t(0), t(10)), truth(9));
    }

    #[test]
    fn retain_from_prunes_all_series() {
        let mut store = MetricStore::new(2, 5);
        for s in 0..10 {
            for n in 0..2 {
                store.record(NodeId(n), t(s), obs(s * 2 + u64::from(n)));
            }
        }
        assert_eq!(store.row_count(), 20);
        store.retain_from(t(8));
        assert_eq!(store.row_count(), 4);
        // Pruning rows before any read leaves the survivors on their
        // values.
        assert_eq!(
            store.window(NodeId(0), 0, t(0), t(100)),
            &[want(5, 0, t(8), obs(16))[0], want(5, 0, t(9), obs(18))[0]]
        );
        assert_eq!(
            store.window(NodeId(1), 1, t(0), t(100)),
            &[want(5, 1, t(8), obs(17))[1], want(5, 1, t(9), obs(19))[1]]
        );
    }

    #[test]
    fn retain_from_drops_settled_and_pending_rows_alike() {
        // Memoized rows and rows never read are pruned alike, and the
        // memo stays aligned with the rows that remain.
        let mut store = MetricStore::new(1, 8);
        for s in 0..3 {
            store.record(NodeId(0), t(s), obs(s));
        }
        store.window(NodeId(0), 7, t(0), t(10));
        for s in 3..6 {
            store.record(NodeId(0), t(s), obs(s));
        }
        // Prunes two memoized rows and leaves one memoized plus three
        // unread.
        store.retain_from(t(2));
        assert_eq!((store.row_count(), store.memoized_count()), (4, 1));
        store.retain_from(t(4));
        assert_eq!((store.row_count(), store.memoized_count()), (2, 0));
        assert_eq!(
            store.window(NodeId(0), 7, t(0), t(10)),
            &[want(8, 0, t(4), obs(4))[7], want(8, 0, t(5), obs(5))[7]]
        );
    }

    #[test]
    fn dimensions_exposed() {
        let store = MetricStore::new(7, 12);
        assert_eq!(store.node_count(), 7);
        assert_eq!(store.counter_count(), 90);
        assert_eq!(store.machine_seed(), 12);
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
        assert_eq!(store.memoized_count(), 0);
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

    /// A small populated store: three nodes, memoized and unread rows, two
    /// gaps.
    fn populated() -> MetricStore {
        let mut store = MetricStore::new(3, 4);
        store.record(NodeId(0), t(0), obs(1));
        store.record(NodeId(2), t(0), obs(2));
        store.window(NodeId(2), 1, t(0), t(10));
        store.record(NodeId(2), t(10), obs(3));
        store.record(NodeId(0), t(15), obs(4));
        store.record_gap(NodeId(1), t(5), GapReason::Blackout);
        store.record_gap(NodeId(1), t(15), GapReason::NodeDown);
        store
    }

    #[test]
    fn snapshot_round_trip_preserves_points_and_gaps() {
        let mut store = populated();
        assert_eq!((store.row_count(), store.memoized_count()), (4, 1));
        let mut back = MetricStore::from_val(&store.to_val()).unwrap();
        assert_eq!(back.node_count(), 3);
        assert_eq!(back.counter_count(), 90);
        assert_eq!(back.machine_seed(), 4);
        assert_eq!(back.row_count(), store.row_count());
        assert_eq!(back.observations(), store.observations());
        assert_eq!(back.gaps(NodeId(1)), store.gaps(NodeId(1)));
        assert_eq!(back.gap_count(), 2);
        assert_eq!(back.to_val(), store.to_val());
        // The memo is not carried; the restored store refills it with the
        // same bits.
        assert_eq!(back.memoized_count(), 0);
        let expect = [want(4, 2, t(0), obs(2))[1], want(4, 2, t(10), obs(3))[1]];
        assert_eq!(back.window(NodeId(2), 1, t(0), t(20)), expect);
        assert_eq!(store.window(NodeId(2), 1, t(0), t(20)), expect);
        assert_eq!(back.to_val(), store.to_val(), "reads change no body");
    }

    #[test]
    fn snapshot_round_trip_preserves_skipped_rows() {
        // A row pruned before any read is gone from the body, and the row
        // after it reads the same value before and after the round trip.
        let mut store = MetricStore::new(1, 6);
        store.record(NodeId(0), t(0), obs(1));
        store.retain_from(t(1));
        store.record(NodeId(0), t(5), obs(2));
        let mut back = MetricStore::from_val(&store.to_val()).unwrap();
        assert_eq!(back.to_val(), store.to_val());
        assert_eq!(back.row_count(), 1);
        let expect = [want(6, 0, t(5), obs(2))[0]];
        assert_eq!(back.window(NodeId(0), 0, t(0), t(10)), expect);
        assert_eq!(store.window(NodeId(0), 0, t(0), t(10)), expect);
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

    /// The list under `key` of block `node` under entry `i` (the blocks
    /// list): `"t"` for timestamps, `"o"` for observation fields.
    fn block_list<'a>(
        entries: &'a mut [(String, Val)],
        i: usize,
        node: usize,
        key: &str,
    ) -> &'a mut Vec<Val> {
        let Val::Map(block) = &mut list_at(entries, i)[node] else {
            panic!("block is a map");
        };
        let (_, Val::List(values)) = block.iter_mut().find(|(k, _)| k == key).unwrap() else {
            panic!("block entry {key} is a list");
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
    fn decoder_rejects_a_block_for_a_node_out_of_range() {
        // A fourth block would hold node 3 of a three-node store.
        let body = body_with("blocks", |entries, i| {
            let extra = list_at(entries, i)[0].clone();
            list_at(entries, i).push(extra);
        });
        assert_schema_error(&body);
    }

    #[test]
    fn decoder_rejects_a_wrong_value_count() {
        // One observation field short of whole rows.
        let body = body_with("blocks", |entries, i| {
            block_list(entries, i, 0, "o").pop();
        });
        assert_schema_error(&body);
    }

    #[test]
    fn decoder_rejects_more_settled_rows_than_timestamps() {
        // Node 2 holds two rows; a third row's observation outruns its
        // timestamps.
        let body = body_with("blocks", |entries, i| {
            let fields = block_list(entries, i, 2, "o");
            let row: Vec<Val> = fields[..8].to_vec();
            fields.extend(row);
        });
        assert_schema_error(&body);
    }

    #[test]
    fn decoder_rejects_observation_counts_that_disagree_with_the_timestamps() {
        // A timestamp with no observation.
        let body = body_with("blocks", |entries, i| {
            block_list(entries, i, 2, "t").push(Val::U64(99_000_000));
        });
        assert_schema_error(&body);
    }

    #[test]
    fn decoder_rejects_block_times_out_of_order() {
        let body = body_with("blocks", |entries, i| {
            block_list(entries, i, 2, "t").swap(0, 1);
        });
        assert_schema_error(&body);
    }

    #[test]
    fn decoder_rejects_non_finite_observations() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let body = body_with("blocks", |entries, i| {
                block_list(entries, i, 0, "o")[3] = Val::from_f64(bad);
            });
            assert_schema_error(&body);
        }
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
