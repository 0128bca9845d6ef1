//! The RUSH scheduler benchmark: one workload per process, timed end to end
//! with tracing off and, on request, layer by layer in a separate traced
//! run. See README.md for the workloads, the metrics and how they relate.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rush-adaa|easy-pod|replay-saturated --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! the full report (environment, sample counts, checks, every metric).
//! A failed correctness or equivalence check exits non-zero.

mod adaa;
mod bench;
mod drive;
mod easy;
mod measure;
mod replay;
mod timing_predictor;

use bench::{Params, Report};
use measure::{json_number, Sheet};
use rush_obs::json::escape_str;
use std::process::{Command, ExitCode};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["rush-adaa", "easy-pod", "replay-saturated"];

/// End-to-end metrics, reported by every workload from its untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("step_p99_us", "us"),
    ("peak_rss_mib", "MiB"),
    ("sim_makespan_s", "s"),
    ("mean_wait_s", "s"),
    ("mean_bsld", "ratio"),
];

/// Per-layer metrics of the traced run. A layer that does no work on a
/// workload reports zero.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("telemetry.sample.calls", "count"),
    ("telemetry.sample.busy_ms", "ms"),
    ("telemetry.window.calls", "count"),
    ("telemetry.window.busy_ms", "ms"),
    ("workloads.probes.calls", "count"),
    ("workloads.probes.busy_ms", "ms"),
    ("ml.predict.calls", "count"),
    ("ml.predict.busy_ms", "ms"),
    ("ml.predict.p99_us", "us"),
    ("ml.delay_verdict_ratio", "ratio"),
    ("rush.predictor.calls", "count"),
    ("rush.predictor.busy_ms", "ms"),
    ("rush.predictor.p99_us", "us"),
    ("sched.schedule_pass.calls", "count"),
    ("sched.schedule_pass.busy_ms", "ms"),
    ("sched.schedule_pass_self_ms", "ms"),
    ("sched.step.calls", "count"),
    ("sched.step.busy_ms", "ms"),
    ("sched.engine_other_ms", "ms"),
    ("simkit.events.scheduled", "count"),
    ("simkit.events.delivered", "count"),
    ("simkit.events.cancelled", "count"),
    ("simkit.events.compactions", "count"),
    ("simkit.events.peak_heap", "count"),
    ("simkit.events.scheduled_per_job", "count"),
    ("sched.skips", "count"),
    ("sched.predictor_verdicts", "count"),
    ("sched.backfill_reservations", "count"),
    ("sched.max_queue_len", "count"),
    ("snapshot.write.calls", "count"),
    ("snapshot.write.ms_p50", "ms"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.resume_ms", "ms"),
    ("rush.campaign.busy_ms", "ms"),
    ("ml.train.busy_ms", "ms"),
    ("workloads.synth.busy_ms", "ms"),
    ("obs.trace_overhead_frac", "ratio"),
];

fn usage() -> String {
    format!(
        "usage: --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<(String, Params), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value; {}", usage()))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got '{value}'");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad(&WORKLOADS.join("|"))),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| bad("positive seconds"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}; {}", usage())),
        }
    }
    let missing = |name: &str| format!("missing --{name}; {}", usage());
    Ok((
        workload.ok_or_else(|| missing("workload"))?,
        Params {
            seed: seed.ok_or_else(|| missing("seed"))?,
            seconds: seconds.ok_or_else(|| missing("seconds"))?,
            trace: trace.ok_or_else(|| missing("trace"))?,
        },
    ))
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `sheet` reordered to `catalog`, with absent entries filled by `fill`
/// (or refused when `fill` is `None`).
fn ordered(
    sheet: &Sheet,
    catalog: &[(&'static str, &'static str)],
    fill: Option<f64>,
) -> Result<Sheet, String> {
    let mut out = Sheet::default();
    for &(name, unit) in catalog {
        match (sheet.get(name), fill) {
            (Some(v), _) => out.put(name, v, unit),
            (None, Some(v)) => out.put(name, v, unit),
            (None, None) => return Err(format!("workload did not report {name}")),
        }
    }
    if let Some(extra) = sheet
        .metrics
        .iter()
        .find(|m| !catalog.iter().any(|&(n, _)| n == m.name))
    {
        return Err(format!("metric {} is missing from the catalog", extra.name));
    }
    Ok(out)
}

fn run(workload: &str, params: Params) -> Result<Report, String> {
    match workload {
        "rush-adaa" => adaa::run(params),
        "easy-pod" => easy::run(params),
        "replay-saturated" => replay::run(params),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Runs one workload and renders the report line and the result line.
fn run_and_render(workload: &str, params: Params) -> Result<(String, String), String> {
    let report = run(workload, params)?;
    let e2e = ordered(&report.e2e, &END_TO_END, None)?;
    let layers = if params.trace {
        Some(ordered(&report.layers, &PER_LAYER, Some(0.0))?)
    } else {
        None
    };

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut info = vec![
        ("workload".to_string(), escape_str(workload)),
        ("seed".to_string(), params.seed.to_string()),
        ("seconds".to_string(), json_number(params.seconds)),
        ("trace".to_string(), u8::from(params.trace).to_string()),
        ("nproc".to_string(), nproc.to_string()),
        (
            "rustc".to_string(),
            escape_str(&command_line("rustc", &["-V"])),
        ),
        (
            "commit".to_string(),
            escape_str(&command_line(
                "git",
                &["--git-dir=.git", "rev-parse", "HEAD"],
            )),
        ),
    ];
    info.extend(report.info.iter().cloned());
    let checks: Vec<String> = report.checks.iter().map(|c| escape_str(c)).collect();
    let mut fields: Vec<String> = info.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    fields.push(format!("\"checks_passed\": [{}]", checks.join(", ")));
    fields.push(format!("\"end_to_end\": {}", e2e.to_json()));
    fields.push(format!(
        "\"end_to_end_ungated\": {}",
        report.ungated.to_json()
    ));
    if let Some(layers) = &layers {
        fields.push(format!("\"per_layer\": {}", layers.to_json()));
    }
    let report_line = format!("{{\"report\": {{{}}}}}", fields.join(", "));

    let metrics = layers.as_ref().unwrap_or(&e2e);
    let result_line = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted,
        report.failed,
        metrics.to_json()
    );
    Ok((report_line, result_line))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, params) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run_and_render(&workload, params) {
        Ok((report_line, result_line)) => {
            println!("{report_line}");
            println!("{result_line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload} seed {}: {e}", params.seed);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The `"name"` values of one array of `BENCHMARK.json`, in order.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let array = &json[start..];
        let array = &array[..array.find(']').expect("array closes")];
        array
            .split("\"name\"")
            .skip(1)
            .map(|entry| entry.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    fn names(catalog: &[(&str, &str)]) -> Vec<String> {
        catalog.iter().map(|(n, _)| n.to_string()).collect()
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .chain(WORKLOADS)
            .collect();
        for name in &all {
            assert!(well_formed(name), "bad metric name {name:?}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a name is used twice");
    }

    #[test]
    fn catalogs_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        assert_eq!(names_in(&json, "workloads"), WORKLOADS);
        assert_eq!(names_in(&json, "end_to_end"), names(&END_TO_END));
        assert_eq!(names_in(&json, "per_layer"), names(&PER_LAYER));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| -> Vec<String> { s.split(' ').map(str::to_string).collect() };
        let (workload, params) =
            parse_args(&args("--workload easy-pod --seed 3 --seconds 2 --trace 1")).unwrap();
        assert_eq!(workload, "easy-pod");
        assert_eq!((params.seed, params.seconds, params.trace), (3, 2.0, true));
        for bad in [
            "--workload nope --seed 3 --seconds 2 --trace 1",
            "--workload easy-pod --seed -3 --seconds 2 --trace 1",
            "--workload easy-pod --seed 3 --seconds 0 --trace 1",
            "--workload easy-pod --seed 3 --seconds 2 --trace 2",
            "--workload easy-pod --seed 3 --seconds 2",
            "--workload easy-pod --seed 3 --seconds 2 --trace 1 --extra 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "accepted {bad}");
        }
    }
}
