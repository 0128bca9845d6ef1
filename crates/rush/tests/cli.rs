//! End-to-end tests of the `rush` CLI binary: collect → evaluate → train →
//! info → schedule over real files in a temp directory, plus snapshot
//! tests for the observability surface (`--trace-out`, `--metrics-out`,
//! `--profile`) and its disabled-by-default behaviour.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

fn rush() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rush"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rush-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Writes (once per test process) a small campaign file the observability
/// schedule invocations can load, without shelling out to `rush collect`.
fn campaign_file() -> &'static PathBuf {
    static FILE: OnceLock<PathBuf> = OnceLock::new();
    FILE.get_or_init(|| {
        let path = temp_dir("obs").join("campaign.txt");
        let data = rush_core::collect::run_campaign(&rush_core::config::CampaignConfig {
            days: 2,
            ..rush_core::config::CampaignConfig::test_sized()
        });
        std::fs::write(&path, rush_core::persist::encode_campaign(&data)).expect("write campaign");
        path
    })
}

/// A tiny deterministic `rush schedule` with extra observability args.
fn schedule(extra: &[&str]) -> Output {
    rush()
        .args(["schedule", "--campaign", campaign_file().to_str().unwrap()])
        .args(["--experiment", "ADAA", "--trials", "1"])
        .args(["--jobs", "8", "--seed", "11"])
        .args(extra)
        .output()
        .expect("spawn rush schedule")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn full_cli_workflow() {
    let dir = temp_dir("workflow");
    let campaign = dir.join("campaign.txt");
    let model = dir.join("model.txt");

    // collect
    let out = rush()
        .args(["collect", "--days", "3", "--seed", "42"])
        .args(["--out", campaign.to_str().unwrap()])
        .output()
        .expect("spawn rush collect");
    assert!(
        out.status.success(),
        "collect failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("control runs"), "{stdout}");
    assert!(campaign.exists());

    // train
    let out = rush()
        .args(["train", "--campaign", campaign.to_str().unwrap()])
        .args([
            "--out",
            model.to_str().unwrap(),
            "--kind",
            "decision-forest",
        ])
        .output()
        .expect("spawn rush train");
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(model.exists());
    let text = std::fs::read_to_string(&model).unwrap();
    assert!(text.starts_with("{\"format\":\"rush-model/2\""));

    // info
    let out = rush()
        .args(["info", "--model", model.to_str().unwrap()])
        .output()
        .expect("spawn rush info");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("kind:       decision-forest"), "{stdout}");
    assert!(stdout.contains("features:   282"), "{stdout}");

    // schedule (tiny)
    let out = rush()
        .args(["schedule", "--campaign", campaign.to_str().unwrap()])
        .args(["--jobs", "8", "--trials", "1", "--experiment", "ADPA"])
        .output()
        .expect("spawn rush schedule");
    assert!(
        out.status.success(),
        "schedule failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("variation runs"), "{stdout}");
    assert!(stdout.contains("makespan"), "{stdout}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = rush().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn missing_file_fails_cleanly() {
    let out = rush()
        .args(["train", "--campaign", "/nonexistent/campaign.txt"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn help_prints_usage() {
    let out = rush().arg("help").output().expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for cmd in ["collect", "evaluate", "train", "info", "schedule"] {
        assert!(stdout.contains(cmd), "usage must mention {cmd}");
    }
}

#[test]
fn bad_option_values_fail_cleanly() {
    let out = rush()
        .args(["collect", "--days", "many"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("expected integer"));
}

#[test]
fn help_documents_the_observability_flags() {
    let out = rush().arg("help").output().expect("spawn");
    assert!(out.status.success());
    let text = stdout_of(&out);
    for flag in ["--trace-out", "--metrics-out", "--profile"] {
        assert!(text.contains(flag), "usage must document {flag}");
    }
}

#[test]
fn schedule_without_flags_emits_no_observability_output() {
    let out = schedule(&[]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let text = stdout_of(&out);
    assert!(
        text.contains("fcfs_easy") && text.contains("rush"),
        "{text}"
    );
    assert!(!text.contains("wrote"), "no export lines without flags");
    assert!(
        !stderr_of(&out).contains("profile"),
        "profiling is off by default"
    );
}

#[test]
fn trace_out_writes_deterministic_jsonl() {
    let dir = temp_dir("trace");
    let path_a = dir.join("trace-a.jsonl");
    let path_b = dir.join("trace-b.jsonl");
    let out_a = schedule(&["--trace-out", path_a.to_str().unwrap()]);
    assert!(out_a.status.success(), "stderr: {}", stderr_of(&out_a));
    assert!(stdout_of(&out_a).contains("trace events"));
    let out_b = schedule(&["--trace-out", path_b.to_str().unwrap()]);
    assert!(out_b.status.success());

    let a = std::fs::read(&path_a).expect("trace written");
    let b = std::fs::read(&path_b).expect("trace written");
    assert!(!a.is_empty());
    assert_eq!(a, b, "identical seeds must produce byte-identical traces");

    // Shape: one JSON object per line, seq starts at 0 and increments,
    // every record opens with the fixed key prefix.
    let text = String::from_utf8(a).expect("utf8 trace");
    for (i, line) in text.lines().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"seq\":{i},\"t_us\":")),
            "line {i} must open with its sequence number: {line}"
        );
        assert!(line.contains("\"kind\":\""), "line {i} must carry a kind");
        assert!(line.ends_with('}'), "line {i} must be a closed object");
    }
    assert!(text.contains("\"kind\":\"job_submitted\""));
    assert!(text.contains("\"kind\":\"job_started\""));
    assert!(text.contains("\"kind\":\"job_finished\""));
}

#[test]
fn metrics_out_writes_json_or_csv_by_extension() {
    let dir = temp_dir("metrics");
    let json_path = dir.join("metrics.json");
    let out = schedule(&["--metrics-out", json_path.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    assert!(stdout_of(&out).contains("metrics registry"));
    let json = std::fs::read_to_string(&json_path).expect("metrics written");
    assert!(json.starts_with("{\"counters\":{"), "{json}");
    for name in [
        "sched.jobs_submitted",
        "sched.jobs_started",
        "sched.max_queue_len",
        "telemetry.sampling_rounds",
        "cluster.nodes_down",
    ] {
        assert!(json.contains(name), "metrics JSON must carry {name}");
    }

    let csv_path = dir.join("metrics.csv");
    let out = schedule(&["--metrics-out", csv_path.to_str().unwrap()]);
    assert!(out.status.success());
    let csv = std::fs::read_to_string(&csv_path).expect("metrics written");
    assert!(csv.starts_with("metric,kind,field,value\n"), "{csv}");
    assert!(csv.contains("sched.jobs_submitted,counter,value,"), "{csv}");
}

#[test]
fn profile_flag_prints_scope_table_to_stderr() {
    let out = schedule(&["--profile"]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(
        err.contains("profile (wall time per scope):"),
        "missing profile header in stderr: {err}"
    );
    for scope in [
        "engine_tick",
        "schedule_pass",
        "speed_refresh",
        "predictor_eval",
        "train",
    ] {
        assert!(
            err.contains(scope),
            "profile table must list {scope}: {err}"
        );
    }
    // The report goes to stderr, never stdout.
    assert!(!stdout_of(&out).contains("profile (wall time"));
}

#[test]
fn trace_out_reports_write_failures() {
    let out = schedule(&["--trace-out", "/nonexistent-dir/trace.jsonl"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("cannot write"));
}

/// Runs `rush` and asserts a usage error: exit status 2, `message` on
/// stderr, and no file at `out` (the command never started its work).
fn assert_usage_error(args: &[&str], out: &std::path::Path, message: &str) {
    let result = rush().args(args).output().expect("spawn rush");
    assert_eq!(result.status.code(), Some(2), "{args:?}: {result:?}");
    let err = stderr_of(&result);
    assert!(
        err.contains(message),
        "{args:?}: stderr lacks {message:?}: {err}"
    );
    assert!(!out.exists(), "{args:?} wrote {}", out.display());
}

#[test]
fn usage_errors_exit_2_before_any_work() {
    let out = temp_dir("usage").join("out.txt");
    let path = out.to_str().unwrap();
    let campaign = campaign_file().to_str().unwrap();
    let cases: [(&[&str], &str); 6] = [
        (
            &["schedule", "--campaign", campaign, "--tarce-out", path],
            "unknown option --tarce-out (did you mean --trace-out?)",
        ),
        (
            &["collect", "--dayz", "3", "--out", path],
            "unknown option --dayz (did you mean --days?)",
        ),
        (
            &["collect", "--days", "1", "--out", path, "--days", "2"],
            "--days given more than once",
        ),
        (
            &["collect", "--out", path, "--days"],
            "--days requires a value",
        ),
        // A flag of another subcommand.
        (
            &["collect", "--trials", "3", "--out", path],
            "unknown option --trials",
        ),
        // Checked, not wrapped to a 1-day campaign.
        (
            &["collect", "--days", "4294967297", "--out", path],
            "--days: expected integer in 0..=4294967295, got '4294967297'",
        ),
    ];
    for (args, message) in cases {
        assert_usage_error(args, &out, message);
    }
}
