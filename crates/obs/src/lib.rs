//! # rush-obs
//!
//! The observability layer of the RUSH reproduction: what the simulator,
//! scheduler and ML pipeline *did*, recorded systematically instead of
//! being summarized away into a final report table.
//!
//! Three subsystems, all deliberately free of wall-clock or I/O coupling
//! in their recorded artifacts so that identical seeds produce identical
//! bytes:
//!
//! * [`event`] — structured, seed-deterministic event records (job
//!   lifecycle, predictor verdicts and fallbacks, node health transitions,
//!   backfill reservations). The scheduler keeps every record of a run in
//!   one append-only log, exportable as canonical JSON Lines. A log is a
//!   replayable artifact: two runs with the same seeds emit byte-identical
//!   JSONL, which the golden-trace tests pin down.
//! * [`metrics`] — a [`metrics::MetricsRegistry`] of named counters,
//!   gauges and histograms (reusing [`rush_simkit::histogram::Histogram`])
//!   that subsystems register into; exports to JSON and CSV alongside the
//!   experiment report. Naming convention: `subsystem.metric_name`
//!   (`sched.jobs_started`, `telemetry.gaps_blackout`, …).
//! * [`profile`] — lightweight scoped wall-clock timers around the hot
//!   paths (engine ticks, predictor evaluation, featurization, model
//!   training). Process-global, disabled by default (a single relaxed
//!   atomic load per scope), switched on by the `--profile` CLI flag.
//!   Profiling output is *never* part of a trace — wall time is not
//!   deterministic.
//!
//! See `DESIGN.md` section 9 for the event schema and the recipe for
//! instrumenting a new decision point.

pub mod event;
pub mod json;
pub mod metrics;
pub mod profile;

pub use event::{records_to_jsonl, EventRecord, FallbackReason, ObsEvent};
pub use metrics::{CounterId, GaugeId, HistogramId, MetricsRegistry};
pub use profile::ProfileScope;
