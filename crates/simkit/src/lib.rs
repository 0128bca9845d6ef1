//! # rush-simkit
//!
//! Discrete-event simulation kernel underpinning the RUSH reproduction.
//!
//! The crate provides the small set of primitives every other crate in the
//! workspace builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond simulation time with
//!   saturating arithmetic, so event ordering is exact and platform
//!   independent (no floating-point time drift).
//! * [`event::EventQueue`] — a stable priority queue of timestamped events.
//!   Ties are broken by insertion sequence, which makes every simulation run
//!   a deterministic function of its seed.
//! * [`rng`] — named, independently seeded RNG streams so that adding a new
//!   consumer of randomness does not perturb existing draws.
//! * [`stats`] — online mean/variance, percentiles, z-scores and summary
//!   statistics used by both the workload models and the evaluation harness.
//! * [`histogram`] — O(1)-space log-bucketed histograms for latency-style
//!   distributions over long runs.
//! * [`series`] — timestamped scalar series with window queries, the storage
//!   primitive behind the telemetry store.
//! * [`snapshot`] — the versioned, CRC-guarded snapshot codec behind
//!   crash-safe checkpoint/resume.
//!
//! Everything here is deliberately free of I/O and wall-clock dependencies:
//! a simulation is a pure function `(config, seed) -> results`.
//!
//! ```
//! use rush_simkit::{EventQueue, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::from_secs(5), "finish");
//! queue.schedule(SimTime::from_secs(1), "start");
//! let first = queue.pop().unwrap();
//! assert_eq!(first.event, "start");
//! assert_eq!(queue.now(), SimTime::from_secs(1));
//! ```

pub mod event;
pub mod fault;
pub mod histogram;
pub mod rng;
pub mod series;
pub mod snapshot;
pub mod stats;
pub mod time;

pub use event::{EventEntry, EventQueue};
pub use fault::{FaultConfig, FaultEvent, FaultKind, FaultSchedule};
pub use histogram::Histogram;
pub use rng::{CountedRng, RngStreams};
pub use series::TimeSeries;
pub use snapshot::{Restorable, Snapshot, SnapshotError, Val};
pub use stats::{OnlineStats, Summary};
pub use time::{SimDuration, SimTime};
