//! End-to-end test of the campaign orchestrator over the two cheap
//! artifacts (`fig02_pipeline`, `table2_experiments` — neither needs a
//! campaign), mirroring the CI smoke job: first run renders both fresh
//! and byte-matches direct render calls; an immediate second run skips
//! everything and leaves the outputs untouched.

use rush_bench::artifacts::{self, ArtifactCtx};
use rush_bench::cli::HarnessArgs;
use rush_bench::orchestrator::{build_dag, run_fingerprint};
use rush_core::campaign::{execute, Manifest, NodeStatus, RunOptions};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const ONLY: [&str; 2] = ["fig02_pipeline", "table2_experiments"];

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rush-orch-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn opts(ctx: &Arc<ArtifactCtx>, dag: &rush_core::campaign::Dag, dir: &Path) -> RunOptions {
    RunOptions {
        results_dir: dir.to_path_buf(),
        workers: 2,
        force: false,
        fingerprint: run_fingerprint(ctx.args()),
        seed: ctx.args().seed,
        only: Some(dag.closure_of(&ONLY).expect("known artifacts")),
        verbose: false,
        node_timeout: None,
    }
}

#[test]
fn cheap_artifacts_run_fresh_then_skip() {
    let args = HarnessArgs {
        days: 8,
        trials: 1,
        jobs: Some(24),
        ..HarnessArgs::default()
    };
    let results = scratch("results");
    let cache = scratch("cache");
    let ctx = Arc::new(ArtifactCtx::with_cache_dir(args.clone(), cache.clone()));
    let dag = build_dag(&ctx);

    // First run: both artifacts render fresh, byte-identical to a direct
    // render call.
    let report = execute(&dag, &opts(&ctx, &dag, &results)).expect("first run");
    assert!(report.all_ok(), "first run failed: {:?}", report.nodes);
    assert_eq!(report.count(NodeStatus::Fresh), 2);
    let fig02 = fs::read_to_string(results.join("fig02.txt")).expect("fig02.txt");
    let table2 = fs::read_to_string(results.join("table2.txt")).expect("table2.txt");
    assert_eq!(fig02, artifacts::fig02_pipeline::render(&ctx));
    assert_eq!(table2, artifacts::table2_experiments::render(&ctx));

    // The manifest records both as fresh with matching content hashes.
    let manifest = Manifest::load(&results).expect("manifest written");
    for name in ONLY {
        let entry = manifest.entry(name).expect("manifest entry");
        assert_eq!(entry.status, NodeStatus::Fresh, "{name}");
        assert!(entry.wall_ms < 60_000, "{name} implausible wall time");
    }

    // Second run from a fresh context (new process, same results dir):
    // everything skips and the bytes do not change.
    let ctx2 = Arc::new(ArtifactCtx::with_cache_dir(args, cache.clone()));
    let dag2 = build_dag(&ctx2);
    let report2 = execute(&dag2, &opts(&ctx2, &dag2, &results)).expect("second run");
    assert!(report2.all_ok());
    assert_eq!(report2.count(NodeStatus::Fresh), 0);
    assert_eq!(report2.count(NodeStatus::Skipped), 2);
    assert_eq!(
        fs::read_to_string(results.join("fig02.txt")).unwrap(),
        fig02
    );
    assert_eq!(
        fs::read_to_string(results.join("table2.txt")).unwrap(),
        table2
    );

    // Tampering with an output invalidates only that node.
    fs::write(results.join("fig02.txt"), "tampered").unwrap();
    let report3 = execute(&dag2, &opts(&ctx2, &dag2, &results)).expect("third run");
    assert_eq!(report3.count(NodeStatus::Fresh), 1);
    assert_eq!(report3.count(NodeStatus::Skipped), 1);
    assert_eq!(
        fs::read_to_string(results.join("fig02.txt")).unwrap(),
        fig02
    );

    let _ = fs::remove_dir_all(&results);
    let _ = fs::remove_dir_all(&cache);
}

#[test]
fn unknown_flag_exits_2_before_any_work() {
    let results = scratch("usage");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--quick", "--only", "fig02_pipeline", "--bogus"])
        .arg("--results-dir")
        .arg(&results)
        .output()
        .expect("spawn run_all");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown option --bogus"), "{err}");
    assert!(
        !results.exists(),
        "no results directory before the options parse"
    );
}
