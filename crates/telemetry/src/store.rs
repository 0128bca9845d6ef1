//! Time-indexed counter storage (the Cassandra/Sonar stand-in).
//!
//! Samples are stored row-major, one block per node: a sampling round
//! appends a single timestamp plus one contiguous row of `counter_count`
//! values, exactly the shape the sampler produces, so a sweep is a
//! streaming write. Window queries recover per-counter columns by striding
//! through rows, which stays cheap because retention keeps blocks short.
//!
//! The store knows nothing about counter semantics: it stores whatever
//! vector the sampler hands it, as long as the width never changes.

use rush_cluster::topology::NodeId;
use rush_simkit::snapshot::{Restorable, Snapshot, SnapshotError, Val};
use rush_simkit::time::SimTime;
use serde::{Deserialize, Serialize};

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

/// One node's samples: `times[i]` stamps the row
/// `values[i * width .. (i + 1) * width]`.
#[derive(Debug, Clone, Default)]
struct NodeBlock {
    times: Vec<SimTime>,
    values: Vec<f64>,
}

impl NodeBlock {
    /// Appends a row. Rows must arrive in non-decreasing time order;
    /// out-of-order appends panic in debug builds and are clamped to the
    /// last timestamp otherwise.
    fn push_row(&mut self, at: SimTime, row: &[f64]) {
        let at = match self.times.last() {
            Some(&last) => {
                debug_assert!(at >= last, "out-of-order append at {at}, last {last}");
                at.max(last)
            }
            None => at,
        };
        self.times.push(at);
        self.values.extend_from_slice(row);
    }

    /// The row index range covering `[from, to)`.
    fn row_range(&self, from: SimTime, to: SimTime) -> (usize, usize) {
        let lo = self.times.partition_point(|&t| t < from);
        let hi = self.times.partition_point(|&t| t < to);
        (lo, hi)
    }
}

/// Per-node, per-counter sample storage.
#[derive(Debug, Clone)]
pub struct MetricStore {
    node_count: u32,
    counter_count: usize,
    blocks: Vec<NodeBlock>,
    /// Missing-sample records per node, append-only in time order.
    gaps: Vec<Vec<Gap>>,
}

impl MetricStore {
    /// Creates storage for `node_count` nodes × `counter_count` counters.
    pub fn new(node_count: u32, counter_count: usize) -> Self {
        assert!(counter_count > 0, "store needs at least one counter");
        MetricStore {
            node_count,
            counter_count,
            blocks: vec![NodeBlock::default(); node_count as usize],
            gaps: vec![Vec::new(); node_count as usize],
        }
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> u32 {
        self.node_count
    }

    /// Counters per node.
    pub fn counter_count(&self) -> usize {
        self.counter_count
    }

    /// Records one full counter vector for `node` at time `at`.
    ///
    /// # Panics
    /// Panics if `values.len()` differs from the store's counter width.
    pub fn record(&mut self, node: NodeId, at: SimTime, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.counter_count,
            "sample width {} != store width {}",
            values.len(),
            self.counter_count
        );
        debug_assert!(node.0 < self.node_count, "node {node:?} out of range");
        self.blocks[node.0 as usize].push_row(at, values);
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
    fn rows_in(&self, node: NodeId, from: SimTime, to: SimTime) -> usize {
        let (lo, hi) = self.blocks[node.0 as usize].row_range(from, to);
        hi - lo
    }

    /// Fraction of scheduled samples in `[from, to)` across `nodes` that
    /// actually made it into the store: `kept / (kept + lost)`.
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
            let times = &self.blocks[node.0 as usize].times;
            let idx = times.partition_point(|&at| at <= t);
            latest = latest.max((idx > 0).then(|| times[idx - 1]));
        }
        latest
    }

    /// The rows of `node` with timestamps in `[from, to)`: the matching
    /// timestamps plus the row-major value block
    /// (`values[i * counter_count + c]` is counter `c` of the `i`-th
    /// returned row). This is the zero-copy bulk-query path — aggregation
    /// walks rows once instead of binary-searching per counter.
    pub fn rows(&self, node: NodeId, from: SimTime, to: SimTime) -> (&[SimTime], &[f64]) {
        let block = &self.blocks[node.0 as usize];
        let (lo, hi) = block.row_range(from, to);
        (
            &block.times[lo..hi],
            &block.values[lo * self.counter_count..hi * self.counter_count],
        )
    }

    /// Samples of `counter` on `node` within `[from, to)`, in time order.
    pub fn window(&self, node: NodeId, counter: usize, from: SimTime, to: SimTime) -> Vec<f64> {
        debug_assert!(
            counter < self.counter_count,
            "counter {counter} out of range"
        );
        let block = &self.blocks[node.0 as usize];
        let (lo, hi) = block.row_range(from, to);
        (lo..hi)
            .map(|row| block.values[row * self.counter_count + counter])
            .collect()
    }

    /// Total stored values across all nodes and counters.
    pub fn point_count(&self) -> usize {
        self.blocks.iter().map(|b| b.values.len()).sum()
    }

    /// Drops all samples and gap records before `cutoff` (memory bound for
    /// long campaigns).
    pub fn retain_from(&mut self, cutoff: SimTime) {
        for b in &mut self.blocks {
            let lo = b.times.partition_point(|&t| t < cutoff);
            if lo > 0 {
                b.times.drain(..lo);
                b.values.drain(..lo * self.counter_count);
            }
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
        Val::map()
            .with("node_count", Val::U64(u64::from(self.node_count)))
            .with("counter_count", Val::U64(self.counter_count as u64))
            .with("gaps", gaps)
            .with("blocks", blocks)
    }
}

impl Restorable for MetricStore {
    fn from_val(v: &Val) -> Result<Self, SnapshotError> {
        let schema = |what: &str| SnapshotError::Schema(format!("store {what}"));
        let node_count = u32::try_from(v.u("node_count")?).map_err(|_| schema("node count"))?;
        let counter_count = usize::try_from(v.u("counter_count")?)
            .ok()
            .filter(|&c| c > 0)
            .ok_or_else(|| schema("counter count"))?;
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
            if times.len().checked_mul(counter_count) != Some(values.len()) {
                return Err(schema("block value count"));
            }
            blocks.push(NodeBlock { times, values });
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
            counter_count,
            blocks,
            gaps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn record_and_window_round_trip() {
        let mut store = MetricStore::new(4, 3);
        store.record(NodeId(1), t(10), &[1.0, 2.0, 3.0]);
        store.record(NodeId(1), t(20), &[4.0, 5.0, 6.0]);
        assert_eq!(store.window(NodeId(1), 0, t(0), t(30)), &[1.0, 4.0]);
        assert_eq!(store.window(NodeId(1), 2, t(15), t(30)), &[6.0]);
        assert_eq!(store.window(NodeId(0), 0, t(0), t(30)), &[] as &[f64]);
        assert_eq!(store.point_count(), 6);
    }

    #[test]
    fn rows_expose_matching_times_and_row_major_values() {
        let mut store = MetricStore::new(2, 2);
        store.record(NodeId(0), t(10), &[1.0, 2.0]);
        store.record(NodeId(0), t(20), &[3.0, 4.0]);
        store.record(NodeId(0), t(30), &[5.0, 6.0]);
        let (times, values) = store.rows(NodeId(0), t(15), t(35));
        assert_eq!(times, &[t(20), t(30)]);
        assert_eq!(values, &[3.0, 4.0, 5.0, 6.0]);
        let (times, values) = store.rows(NodeId(1), t(0), t(100));
        assert!(times.is_empty());
        assert!(values.is_empty());
    }

    #[test]
    #[should_panic(expected = "sample width")]
    fn wrong_width_rejected() {
        let mut store = MetricStore::new(2, 3);
        store.record(NodeId(0), t(1), &[1.0, 2.0]);
    }

    #[test]
    fn retain_from_prunes_all_series() {
        let mut store = MetricStore::new(2, 2);
        for s in 0..10 {
            store.record(NodeId(0), t(s), &[s as f64, 0.0]);
            store.record(NodeId(1), t(s), &[0.0, s as f64]);
        }
        assert_eq!(store.point_count(), 40);
        store.retain_from(t(8));
        assert_eq!(store.point_count(), 8);
        assert_eq!(store.window(NodeId(0), 0, t(0), t(100)), &[8.0, 9.0]);
        assert_eq!(store.window(NodeId(1), 1, t(0), t(100)), &[8.0, 9.0]);
    }

    #[test]
    fn dimensions_exposed() {
        let store = MetricStore::new(7, 90);
        assert_eq!(store.node_count(), 7);
        assert_eq!(store.counter_count(), 90);
    }

    #[test]
    #[should_panic(expected = "at least one counter")]
    fn zero_width_rejected() {
        MetricStore::new(1, 0);
    }

    #[test]
    fn gaps_recorded_and_counted() {
        let mut store = MetricStore::new(2, 1);
        store.record(NodeId(0), t(0), &[1.0]);
        store.record_gap(NodeId(0), t(10), GapReason::Dropout);
        store.record_gap(NodeId(1), t(10), GapReason::Blackout);
        assert_eq!(store.gap_count(), 2);
        assert_eq!(store.gaps(NodeId(0)).len(), 1);
        assert_eq!(store.gaps(NodeId(0))[0].reason, GapReason::Dropout);
        assert_eq!(store.gaps(NodeId(1))[0].at, t(10));
    }

    #[test]
    fn coverage_is_kept_over_scheduled() {
        let mut store = MetricStore::new(2, 1);
        // node 0: 3 kept, 1 lost; node 1: 2 kept, 2 lost
        store.record(NodeId(0), t(0), &[1.0]);
        store.record(NodeId(0), t(10), &[1.0]);
        store.record(NodeId(0), t(20), &[1.0]);
        store.record_gap(NodeId(0), t(30), GapReason::Dropout);
        store.record(NodeId(1), t(0), &[1.0]);
        store.record_gap(NodeId(1), t(10), GapReason::NodeDown);
        store.record_gap(NodeId(1), t(20), GapReason::Corrupt);
        store.record(NodeId(1), t(30), &[1.0]);
        let both = [NodeId(0), NodeId(1)];
        // 5 kept of 8 scheduled over the full window
        assert!((store.coverage(&both, t(0), t(40)) - 5.0 / 8.0).abs() < 1e-12);
        // Window bounds apply: at [10, 30) node 0 keeps 2/2, node 1 0/2.
        assert!((store.coverage(&both, t(10), t(30)) - 0.5).abs() < 1e-12);
        // Only node 0 over the same window is fully covered.
        assert_eq!(store.coverage(&[NodeId(0)], t(10), t(30)), 1.0);
    }

    #[test]
    fn empty_window_coverage_is_full() {
        let store = MetricStore::new(2, 1);
        assert_eq!(store.coverage(&[NodeId(0)], t(0), t(100)), 1.0);
    }

    #[test]
    fn latest_sample_tracks_staleness_source() {
        let mut store = MetricStore::new(2, 2);
        assert_eq!(store.latest_sample_at(&[NodeId(0)], t(100)), None);
        store.record(NodeId(0), t(10), &[1.0, 2.0]);
        store.record(NodeId(1), t(25), &[1.0, 2.0]);
        let both = [NodeId(0), NodeId(1)];
        assert_eq!(store.latest_sample_at(&both, t(100)), Some(t(25)));
        assert_eq!(store.latest_sample_at(&both, t(20)), Some(t(10)));
        // inclusive upper bound
        assert_eq!(store.latest_sample_at(&both, t(25)), Some(t(25)));
        assert_eq!(store.latest_sample_at(&both, t(5)), None);
    }

    /// A small populated store: three nodes, two counters, two gaps.
    fn populated() -> MetricStore {
        let mut store = MetricStore::new(3, 2);
        store.record(NodeId(0), t(0), &[1.0, 2.0]);
        store.record(NodeId(2), t(10), &[3.5, -0.25]);
        store.record_gap(NodeId(1), t(5), GapReason::Blackout);
        store.record_gap(NodeId(1), t(15), GapReason::NodeDown);
        store
    }

    #[test]
    fn snapshot_round_trip_preserves_points_and_gaps() {
        let store = populated();
        let back = MetricStore::from_val(&store.to_val()).unwrap();
        assert_eq!(back.node_count(), 3);
        assert_eq!(back.counter_count(), 2);
        assert_eq!(back.point_count(), store.point_count());
        assert_eq!(back.window(NodeId(2), 1, t(0), t(20)), &[-0.25]);
        assert_eq!(back.gaps(NodeId(1)), store.gaps(NodeId(1)));
        assert_eq!(back.gap_count(), 2);
        assert_eq!(back.to_val(), store.to_val());
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
            let Val::List(blocks) = &mut entries[i].1 else {
                panic!("blocks is a list");
            };
            blocks.pop();
        });
        assert_schema_error(&body);
    }

    #[test]
    fn decoder_rejects_a_wrong_value_count() {
        let body = body_with("blocks", |entries, i| {
            let Val::List(blocks) = &mut entries[i].1 else {
                panic!("blocks is a list");
            };
            let Val::Map(block) = &mut blocks[0] else {
                panic!("block is a map");
            };
            let (_, Val::List(values)) = block.iter_mut().find(|(k, _)| k == "v").unwrap() else {
                panic!("block values are a list");
            };
            values.pop();
        });
        assert_schema_error(&body);
    }

    #[test]
    fn decoder_rejects_a_zero_or_huge_counter_count() {
        for count in [0, u64::MAX] {
            let body = body_with("counter_count", |entries, i| {
                entries[i].1 = Val::U64(count);
            });
            assert_schema_error(&body);
        }
    }

    #[test]
    fn retain_from_prunes_gaps_too() {
        let mut store = MetricStore::new(1, 1);
        for s in 0..10 {
            store.record_gap(NodeId(0), t(s), GapReason::Dropout);
        }
        store.retain_from(t(7));
        assert_eq!(store.gap_count(), 3);
        assert_eq!(store.gaps(NodeId(0))[0].at, t(7));
    }
}
