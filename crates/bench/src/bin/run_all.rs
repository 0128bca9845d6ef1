//! Regenerates every table and figure of the paper as one dependency-aware
//! campaign run.
//!
//! Rather than one process per artifact — each reloading the campaign
//! cache and retraining its models — this binary models the
//! artifacts as a DAG (campaign dataset → trained models → figures/tables/
//! ablations, see `rush_bench::artifacts::ALL`), executes independent
//! nodes concurrently on a bounded worker pool, and shares the campaign
//! and trained models in-process. Results land in `results/` with
//! provenance in `results/manifest.json`; an immediate re-run skips
//! everything up to date. See DESIGN.md §12.
//!
//! Usage: `run_all [--quick] [--only a,b] [--workers N] [--force]
//! [--results-dir DIR] [--list] [--quiet] [--node-timeout SECS]
//! [harness flags...]` (harness flags: see `rush_bench::cli`). An unknown,
//! repeated or malformed flag exits 2 before any work starts.

use rush_bench::artifacts::{self, ArtifactCtx};
use rush_bench::cli::HarnessArgs;
use rush_bench::orchestrator::{build_dag, run_fingerprint};
use rush_core::args::{ArgError, Args};
use rush_core::campaign::{default_workers, execute, NodeStatus, RunOptions};
use std::path::PathBuf;
use std::sync::Arc;

struct OrchestratorArgs {
    harness: HarnessArgs,
    only: Option<Vec<String>>,
    workers: Option<usize>,
    force: bool,
    list: bool,
    results_dir: PathBuf,
    verbose: bool,
    node_timeout: Option<std::time::Duration>,
}

fn parse_args() -> Result<OrchestratorArgs, ArgError> {
    let mut args = Args::parse(std::env::args().skip(1))?;
    let only = args.opt::<String>("only")?.map(|names| {
        names
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect()
    });
    let parsed = OrchestratorArgs {
        only,
        workers: args.opt("workers")?,
        force: args.flag("force")?,
        list: args.flag("list")?,
        results_dir: PathBuf::from(args.get("results-dir", String::from("results"))?),
        verbose: !args.flag("quiet")?,
        node_timeout: args
            .opt("node-timeout")?
            .map(std::time::Duration::from_secs),
        harness: HarnessArgs::read(&mut args)?,
    };
    args.finish()?;
    Ok(parsed)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    if args.list {
        println!("resource nodes:");
        for name in [
            artifacts::CAMPAIGN_NODE,
            artifacts::MODEL_DEFAULT_NODE,
            artifacts::MODEL_PDPA_NODE,
        ] {
            println!("  {name}");
        }
        println!("artifacts:");
        for def in artifacts::ALL {
            println!("  {:<28} -> {}", def.name, def.output);
        }
        return;
    }

    let ctx = Arc::new(ArtifactCtx::new(args.harness.clone()));
    let dag = build_dag(&ctx);
    let only = args.only.as_ref().map(|names| {
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        dag.closure_of(&refs).unwrap_or_else(|e| {
            eprintln!("error: {e} (use --list to see artifact names)");
            std::process::exit(2);
        })
    });

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = args.workers.unwrap_or_else(|| default_workers(cores));
    let opts = RunOptions {
        results_dir: args.results_dir.clone(),
        workers,
        force: args.force,
        fingerprint: run_fingerprint(&args.harness),
        seed: args.harness.seed,
        only,
        verbose: args.verbose,
        node_timeout: args.node_timeout,
    };
    eprintln!(
        "[campaign] {} workers, results in {}, fingerprint {:016x}",
        workers,
        opts.results_dir.display(),
        opts.fingerprint
    );

    let started = std::time::Instant::now();
    let report = match execute(&dag, &opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    // Per-node timings and counts flow through the observability registry
    // so `results/metrics.json` has the same shape as the scheduler's dumps.
    let mut metrics = rush_obs::MetricsRegistry::new();
    let fresh_id = metrics.register_counter("campaign.nodes_fresh");
    let skipped_id = metrics.register_counter("campaign.nodes_skipped");
    let failed_id = metrics.register_counter("campaign.nodes_failed");
    let timed_out_id = metrics.register_counter("campaign.nodes_timed_out");
    let blocked_id = metrics.register_counter("campaign.nodes_blocked");
    let wall_id = metrics.register_histogram(
        "campaign.node_wall_s",
        rush_simkit::histogram::Histogram::for_seconds(),
    );
    for node in &report.nodes {
        metrics.inc(match node.status {
            NodeStatus::Fresh => fresh_id,
            NodeStatus::Skipped => skipped_id,
            NodeStatus::Failed => failed_id,
            NodeStatus::TimedOut => timed_out_id,
            NodeStatus::Blocked => blocked_id,
        });
        if node.status == NodeStatus::Fresh {
            metrics.record(wall_id, node.wall_ms as f64 / 1e3);
        }
    }
    let metrics_path = args.results_dir.join("metrics.json");
    if let Err(e) = rush_core::campaign::write_atomic(&metrics_path, metrics.to_json().as_bytes()) {
        eprintln!("warning: could not write {}: {e}", metrics_path.display());
    }

    eprintln!();
    for node in &report.nodes {
        let error = || node.error.clone().unwrap_or_default();
        let (status, detail) = match node.status {
            NodeStatus::Fresh => (
                "fresh",
                format!(
                    "{} ms{}",
                    node.wall_ms,
                    if node.retried { " (retried)" } else { "" }
                ),
            ),
            NodeStatus::Skipped => ("skipped", "up to date".to_string()),
            NodeStatus::Failed => ("FAILED", error()),
            NodeStatus::TimedOut => ("TIMEOUT", error()),
            NodeStatus::Blocked => ("BLOCKED", error()),
        };
        eprintln!("[campaign] {:<28} {status:<8} {detail}", node.name);
    }
    eprintln!(
        "[campaign] done in {:.1}s: {} fresh, {} skipped, {} failed, {} timed out, {} blocked; manifest: {}",
        started.elapsed().as_secs_f64(),
        report.count(NodeStatus::Fresh),
        report.count(NodeStatus::Skipped),
        report.count(NodeStatus::Failed),
        report.count(NodeStatus::TimedOut),
        report.count(NodeStatus::Blocked),
        args.results_dir.join("manifest.json").display()
    );

    if !report.all_ok() {
        std::process::exit(1);
    }
}
