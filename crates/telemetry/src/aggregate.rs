//! Window × node-set aggregation.
//!
//! The paper reduces each counter over the five minutes before a job with
//! min/max/mean, pooling samples across either *all* compute nodes or the
//! *job-exclusive* nodes (Section III-A). [`aggregate_counters`] implements
//! that pooled reduction; the choice of node set is the caller's, which is
//! how the all-nodes vs job-nodes comparison of Fig. 3 is expressed.

use crate::store::MetricStore;
use rush_cluster::topology::NodeId;
use rush_simkit::stats::OnlineStats;
use rush_simkit::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The `(min, max, mean)` of one counter pooled over a window and node set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CounterAggregate {
    /// Pooled sample count.
    pub count: usize,
    /// Pooled minimum (0 when no samples).
    pub min: f64,
    /// Pooled maximum (0 when no samples).
    pub max: f64,
    /// Pooled mean (0 when no samples).
    pub mean: f64,
}

impl CounterAggregate {
    /// The aggregate of an empty pool.
    pub const EMPTY: CounterAggregate = CounterAggregate {
        count: 0,
        min: 0.0,
        max: 0.0,
        mean: 0.0,
    };

    /// Flattens to the `[min, max, mean]` feature triple of Table I.
    pub fn features(&self) -> [f64; 3] {
        [self.min, self.max, self.mean]
    }
}

/// Pools every counter's samples over `[from, to)` across `nodes` and
/// reduces each to min/max/mean. Returns one aggregate per counter, in
/// store order: [`aggregate_counter_subset`] over all of them.
pub fn aggregate_counters(
    store: &mut MetricStore,
    nodes: &[NodeId],
    from: SimTime,
    to: SimTime,
) -> Vec<CounterAggregate> {
    let all: Vec<usize> = (0..store.counter_count()).collect();
    aggregate_counter_subset(store, nodes, from, to, &all)
}

/// Pools the samples of each counter in `counters` over `[from, to)`
/// across `nodes` and reduces it to min/max/mean. Returns one aggregate per
/// entry of `counters`, in that order.
///
/// Each counter sees its samples with nodes in caller order, time
/// ascending within a node, whatever else is asked for, so a counter's
/// aggregate is bit-equal in every subset that holds it. Only the
/// requested (row, counter) pairs are synthesized
/// ([`MetricStore::columns`]). The store remembers the result, so the
/// same request with no store write in between is not pooled again.
pub fn aggregate_counter_subset(
    store: &mut MetricStore,
    nodes: &[NodeId],
    from: SimTime,
    to: SimTime,
    counters: &[usize],
) -> Vec<CounterAggregate> {
    if let Some(aggs) = store.pooled(nodes, from, to, counters) {
        return aggs.to_vec();
    }
    let mut stats = vec![OnlineStats::new(); counters.len()];
    for &node in nodes {
        let columns: Vec<&[f64]> = store.columns(node, from, to, counters).collect();
        let rows = columns.first().map_or(0, |c| c.len());
        // Row by row, so the counters' independent updates interleave.
        for row in 0..rows {
            for (st, column) in stats.iter_mut().zip(&columns) {
                st.push(column[row]);
            }
        }
    }
    let aggs: Vec<CounterAggregate> = stats
        .iter()
        .map(|st| {
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
        .collect();
    store.remember_pooled(nodes, from, to, counters, &aggs);
    aggs
}

/// How trustworthy an aggregation window is under telemetry faults.
///
/// Coverage is the fraction of scheduled samples that actually arrived;
/// staleness is the age of the freshest sample relative to the window end.
/// A predictor should refuse to predict from a window whose coverage is too
/// low or whose data is too stale — that is the graceful-degradation signal
/// the scheduler keys off.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowQuality {
    /// `kept / (kept + lost)` over the window and node set; 1.0 when
    /// nothing was scheduled.
    pub coverage: f64,
    /// Age of the most recent sample at the window end; `None` when the
    /// node set has no samples at all (maximally stale).
    pub staleness: Option<SimDuration>,
}

impl WindowQuality {
    /// True when the window meets a minimum coverage fraction *and* has at
    /// least one sample inside it.
    pub fn is_usable(&self, min_coverage: f64, window: SimDuration) -> bool {
        self.coverage >= min_coverage && self.staleness.is_some_and(|age| age <= window)
    }
}

/// Measures coverage and staleness of `[from, to)` across `nodes`. Reads
/// timestamps and gaps only, so it synthesizes no counter.
pub fn window_quality(
    store: &MetricStore,
    nodes: &[NodeId],
    from: SimTime,
    to: SimTime,
) -> WindowQuality {
    WindowQuality {
        coverage: store.coverage(nodes, from, to),
        staleness: store
            .latest_sample_at(nodes, to)
            .map(|latest| to.since(latest)),
    }
}

/// Flattens per-counter aggregates into the feature layout of Table I:
/// `[min_c0, max_c0, mean_c0, min_c1, ...]`.
pub fn flatten_features(aggregates: &[CounterAggregate]) -> Vec<f64> {
    let mut out = Vec::with_capacity(aggregates.len() * 3);
    for a in aggregates {
        out.extend_from_slice(&a.features());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// A row whose first two counters read `c0` and `c1`, the rest 0.
    fn row(c0: f64, c1: f64) -> Vec<f64> {
        let mut row = vec![0.0; 90];
        row[0] = c0;
        row[1] = c1;
        row
    }

    fn store_with_data() -> MetricStore {
        let mut store = MetricStore::new(3, 0);
        // node 0: counter0 = 1, 2, 3 at t=0,10,20 ; counter1 = 10x
        // node 1: counter0 = 100 at t=10
        store.push_memoized(NodeId(0), t(0), &row(1.0, 10.0));
        store.push_memoized(NodeId(0), t(10), &row(2.0, 20.0));
        store.push_memoized(NodeId(1), t(10), &row(100.0, 0.5));
        store.push_memoized(NodeId(0), t(20), &row(3.0, 30.0));
        store
    }

    #[test]
    fn pools_across_time_and_nodes() {
        let mut store = store_with_data();
        let aggs = aggregate_counters(&mut store, &[NodeId(0), NodeId(1)], t(0), t(30));
        assert_eq!(aggs[0].count, 4);
        assert_eq!(aggs[0].min, 1.0);
        assert_eq!(aggs[0].max, 100.0);
        assert!((aggs[0].mean - 26.5).abs() < 1e-12);
        assert_eq!(aggs[1].count, 4);
        assert_eq!(aggs[1].min, 0.5);
        assert_eq!(aggs[1].max, 30.0);
    }

    #[test]
    fn node_subset_changes_the_answer() {
        let mut store = store_with_data();
        let only0 = aggregate_counters(&mut store, &[NodeId(0)], t(0), t(30));
        assert_eq!(only0[0].max, 3.0);
        let only1 = aggregate_counters(&mut store, &[NodeId(1)], t(0), t(30));
        assert_eq!(only1[0].min, 100.0);
        assert_eq!(only1[0].count, 1);
    }

    #[test]
    fn window_bounds_apply() {
        let mut store = store_with_data();
        let aggs = aggregate_counters(&mut store, &[NodeId(0)], t(5), t(15));
        assert_eq!(aggs[0].count, 1);
        assert_eq!(aggs[0].mean, 2.0);
    }

    #[test]
    fn empty_pool_is_zeroed() {
        let mut store = store_with_data();
        let aggs = aggregate_counters(&mut store, &[NodeId(2)], t(0), t(30));
        assert_eq!(aggs[0], CounterAggregate::EMPTY);
        let none = aggregate_counters(&mut store, &[], t(0), t(30));
        assert_eq!(none[1], CounterAggregate::EMPTY);
    }

    #[test]
    fn window_quality_reports_coverage_and_staleness() {
        let mut store = MetricStore::new(2, 0);
        store.record(NodeId(0), t(0), Default::default());
        store.record(NodeId(0), t(10), Default::default());
        store.record_gap(NodeId(0), t(20), crate::store::GapReason::Blackout);
        store.record_gap(NodeId(0), t(30), crate::store::GapReason::Blackout);
        let q = window_quality(&store, &[NodeId(0)], t(0), t(40));
        assert!((q.coverage - 0.5).abs() < 1e-12);
        assert_eq!(q.staleness, Some(SimDuration::from_secs(30)));
        assert!(q.is_usable(0.5, SimDuration::from_secs(40)));
        assert!(
            !q.is_usable(0.75, SimDuration::from_secs(40)),
            "coverage gate"
        );
        assert!(
            !q.is_usable(0.5, SimDuration::from_secs(10)),
            "staleness gate"
        );
    }

    #[test]
    fn only_the_value_read_settles() {
        // Quality reads synthesize nothing; a value read synthesizes only
        // the (row, counter) pairs it covers, each to its keyed value.
        use rush_cluster::counters::{noise_seed, row_key, synthesize_row_into, NodeObservation};
        let obs = NodeObservation::from_array([2.0, 2.0, 0.7, 0.2, 0.3, 0.1, 1.5, 0.9]);
        let mut store = MetricStore::new(2, 11);
        store.record(NodeId(0), t(0), obs);
        store.record(NodeId(1), t(0), obs);
        store.record(NodeId(1), t(20), obs);
        let quality = window_quality(&store, &[NodeId(1)], t(0), t(10));
        assert_eq!(quality.coverage, 1.0);
        assert_eq!(
            store.memoized_count(),
            0,
            "quality reads synthesize nothing"
        );
        let aggs = aggregate_counter_subset(&mut store, &[NodeId(1)], t(0), t(10), &[3, 40]);
        assert_eq!(store.memoized_count(), 2, "one row, two counters");
        let mut row = Vec::new();
        synthesize_row_into(&obs, row_key(noise_seed(11), 1, 0), &mut row);
        assert_eq!([aggs[0].mean, aggs[1].mean], [row[3], row[40]]);
        let all = aggregate_counters(&mut store, &[NodeId(1)], t(0), t(10));
        assert_eq!(store.memoized_count(), 90);
        let means: Vec<f64> = all.iter().map(|a| a.mean).collect();
        assert_eq!(means, row);
    }

    #[test]
    fn window_quality_with_no_samples_is_maximally_stale() {
        let store = MetricStore::new(1, 0);
        let q = window_quality(&store, &[NodeId(0)], t(0), t(300));
        assert_eq!(q.coverage, 1.0, "nothing scheduled, nothing lost");
        assert_eq!(q.staleness, None);
        assert!(!q.is_usable(0.0, SimDuration::from_secs(300)));
    }

    #[test]
    fn flatten_orders_min_max_mean() {
        let aggs = vec![
            CounterAggregate {
                count: 2,
                min: 1.0,
                max: 2.0,
                mean: 1.5,
            },
            CounterAggregate {
                count: 1,
                min: 7.0,
                max: 7.0,
                mean: 7.0,
            },
        ];
        assert_eq!(flatten_features(&aggs), vec![1.0, 2.0, 1.5, 7.0, 7.0, 7.0]);
    }
}
