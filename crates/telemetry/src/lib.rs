//! # rush-telemetry
//!
//! The LDMS/Sonar stand-in: periodic per-node counter sampling, a
//! time-indexed metric store, and the window/node-set aggregation that turns
//! raw counters into the features of the paper's Table I.
//!
//! The paper's pipeline samples `sysclassib`, `opa_info` and `lustre_client`
//! on every node, stores them indexed by `(hostname, timestamp)` in
//! Cassandra, and — before each job — reduces each counter over the previous
//! five minutes with min/max/mean, both across *all* nodes and across the
//! *job-exclusive* nodes (Section III-A). This crate reproduces exactly that
//! query surface:
//!
//! * [`store::MetricStore`] — per-node rows with windowed queries and
//!   retention. Rows arrive as 8-float observations; a counter's value is a
//!   pure function of the observation and its key, synthesized into a
//!   per-node memo the first time a read covers it.
//! * [`collector::Sampler`] — samples a [`rush_cluster::Machine`]'s
//!   observations on a fixed interval into the store.
//! * [`aggregate`] — pools a counter's samples over `(window × node set)`
//!   and reduces to min/max/mean, producing the 270 counter features, or
//!   only the counters a model reads.
//! * [`schema::FeatureSchema`] — the full 282-feature layout of Table I
//!   (270 counter aggregates + 9 MPI probe features + 3 intensity one-hots).

pub mod aggregate;
pub mod collector;
pub mod schema;
pub mod store;

pub use aggregate::{
    aggregate_counter_subset, aggregate_counters, window_quality, CounterAggregate, WindowQuality,
};
pub use collector::Sampler;
pub use schema::FeatureSchema;
pub use store::{Gap, GapReason, MetricStore};
