//! The 282-feature layout of the paper's Table I.
//!
//! | Input source    | # counters | # features |
//! |-----------------|-----------:|-----------:|
//! | `sysclassib`    |         22 |         66 |
//! | `opa_info`      |         34 |        102 |
//! | `lustre_client` |         34 |        102 |
//! | MPI benchmarks  |          3 |          9 |
//! | intensity one-hots |       — |          3 |
//! | **total**       |            |    **282** |
//!
//! Each counter expands to `min_`, `max_` and `mean_` features (the window
//! reduction of Section III-A); the MPI probe benchmarks contribute the
//! min/max/mean across nodes of the blocking Send, Recv and AllReduce wait
//! times (Section III-C); and the application's workload type contributes a
//! compute/network/I-O one-hot (Section III-B).

use rush_cluster::counters::CounterTable;
use serde::{Deserialize, Serialize};

/// Names of the three MPI probe measurements (Section III-C).
pub const MPI_BENCH_NAMES: [&str; 3] = ["ring_send_wait", "ring_recv_wait", "allreduce_wait"];

/// Names of the three workload-intensity one-hots (Section III-B).
pub const INTENSITY_NAMES: [&str; 3] = ["compute_intensive", "network_intensive", "io_intensive"];

/// The aggregate prefixes, in the order features are laid out.
pub const AGG_PREFIXES: [&str; 3] = ["min", "max", "mean"];

/// Describes the full feature vector layout.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureSchema {
    names: Vec<String>,
    counter_feature_count: usize,
}

impl FeatureSchema {
    /// Builds the Table-I schema.
    pub fn table_one() -> Self {
        let mut names = Vec::with_capacity(282);
        for table in CounterTable::ALL {
            for spec in table.counters() {
                for prefix in AGG_PREFIXES {
                    names.push(format!("{prefix}_{}", spec.name));
                }
            }
        }
        let counter_feature_count = names.len();
        for bench in MPI_BENCH_NAMES {
            for prefix in AGG_PREFIXES {
                names.push(format!("{prefix}_{bench}"));
            }
        }
        names.extend(INTENSITY_NAMES.iter().map(|s| s.to_string()));
        FeatureSchema {
            names,
            counter_feature_count,
        }
    }

    /// Total feature count (282 for Table I).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if the schema has no features (never the case for Table I).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All feature names, in vector order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The index of a named feature.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Range of the counter-aggregate features (`0..270`).
    pub fn counter_range(&self) -> std::ops::Range<usize> {
        0..self.counter_feature_count
    }

    /// Assembles a full feature vector from its three parts.
    ///
    /// # Panics
    /// Panics if part lengths don't match the schema.
    pub fn assemble(
        &self,
        counter_features: &[f64],
        bench_features: &[f64],
        one_hot: &[f64; 3],
    ) -> Vec<f64> {
        assert_eq!(
            counter_features.len(),
            self.counter_feature_count,
            "counter feature width mismatch"
        );
        assert_eq!(
            bench_features.len(),
            MPI_BENCH_NAMES.len() * 3,
            "bench feature width mismatch"
        );
        let mut v = Vec::with_capacity(self.len());
        v.extend_from_slice(counter_features);
        v.extend_from_slice(bench_features);
        v.extend_from_slice(one_hot);
        v
    }
}

impl Default for FeatureSchema {
    fn default() -> Self {
        Self::table_one()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_has_282_features() {
        let s = FeatureSchema::table_one();
        assert_eq!(s.len(), 282);
        assert!(!s.is_empty());
        assert_eq!(s.counter_range(), 0..270);
    }

    #[test]
    fn names_follow_min_max_mean_order() {
        let s = FeatureSchema::table_one();
        assert_eq!(s.names()[0], "min_port_xmit_data");
        assert_eq!(s.names()[1], "max_port_xmit_data");
        assert_eq!(s.names()[2], "mean_port_xmit_data");
        assert_eq!(s.names()[270], "min_ring_send_wait");
        assert_eq!(s.names()[279], "compute_intensive");
        assert_eq!(s.names()[281], "io_intensive");
    }

    #[test]
    fn names_are_unique() {
        let s = FeatureSchema::table_one();
        let mut names = s.names().to_vec();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn index_of_finds_features() {
        let s = FeatureSchema::table_one();
        assert_eq!(s.index_of("min_port_xmit_data"), Some(0));
        assert_eq!(s.index_of("io_intensive"), Some(281));
        assert_eq!(s.index_of("nonexistent"), None);
        // the xmit_wait congestion signal exists with all three prefixes
        assert!(s.index_of("mean_port_xmit_wait").is_some());
        assert!(s.index_of("max_opa_xmit_wait").is_some());
    }

    #[test]
    fn assemble_concatenates_in_order() {
        let s = FeatureSchema::table_one();
        let counters = vec![1.0; 270];
        let bench = vec![2.0; 9];
        let v = s.assemble(&counters, &bench, &[0.0, 1.0, 0.0]);
        assert_eq!(v.len(), 282);
        assert_eq!(v[269], 1.0);
        assert_eq!(v[270], 2.0);
        assert_eq!(v[280], 1.0);
    }

    #[test]
    #[should_panic(expected = "counter feature width")]
    fn assemble_rejects_bad_widths() {
        let s = FeatureSchema::table_one();
        s.assemble(&[1.0; 10], &[2.0; 9], &[0.0, 0.0, 1.0]);
    }
}
