//! # rush-bench
//!
//! The reproduction harness: every table/figure of the paper as a render
//! function in [`artifacts`], run by the `run_all` orchestrator binary as a
//! parallel, resumable dependency DAG (see [`rush_core::campaign`] and
//! DESIGN.md §12); `run_all --only NAME` regenerates a single artifact.
//! Scheduler speed is measured by the separate `perfbench` package.
//!
//! Shared plumbing lives here: a disk cache for the (expensive) campaign
//! ([`cache`]), and the `--days`, `--trials`, `--jobs`, `--seed` flags so
//! every figure can be regenerated at paper scale or smoke scale ([`cli`]).

pub mod artifacts;
pub mod cache;
pub mod cli;
pub mod orchestrator;
