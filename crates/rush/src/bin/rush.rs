//! `rush` — the command-line face of the pipeline.
//!
//! The paper's deployment is a sequence of offline steps (collect counters,
//! train, pickle the model, point the scheduler at it); this binary exposes
//! the same steps over files:
//!
//! ```text
//! rush collect  --days 30 --out campaign.txt        # run the control-job campaign
//! rush evaluate --campaign campaign.txt             # Fig.-3 model comparison
//! rush train    --campaign campaign.txt --out model.txt
//! rush info     --model model.txt                   # inspect an exported model
//! rush schedule --campaign campaign.txt --experiment ADAA --trials 3
//! ```
//!
//! Every command is deterministic given `--seed`. Options are read by
//! [`rush_core::args::Args`]: a command reads all of its options before it
//! starts any work, and an unknown, repeated or malformed option exits 2.

use rush_core::args::{ArgError, Args};
use rush_core::campaign_io;
use rush_core::checkpoint::CheckpointManager;
use rush_core::collect::{run_campaign, CampaignData};
use rush_core::config::CampaignConfig;
use rush_core::experiments::{
    build_trial_engine, run_comparison, run_trial_raw, Experiment, ExperimentSettings, PolicyKind,
};
use rush_core::labels::{build_dataset, LabelScheme, NodeScope};
use rush_core::pipeline::{build_reference, train_final_with_scheme};
use rush_core::report::{fmt, robustness_table, TextTable};
use rush_ml::codec;
use rush_ml::model::{Classifier, ModelKind};
use rush_ml::select::{compare_models, select_best};
use rush_sched::audit::{AuditConfig, AuditPolicy};
use rush_sched::engine::ScheduleResult;
use rush_sched::service::ServiceConfig;
use rush_simkit::fault::FaultConfig;
use rush_simkit::time::{SimDuration, SimTime};
use std::num::NonZeroU64;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
rush — resource-utilization-aware scheduling pipeline

USAGE:
    rush <command> [options]

COMMANDS:
    collect    run the control-job campaign and write it to a file
               --days N (30)  --seed N  --out FILE (campaign.txt)
    evaluate   compare the four model families on a campaign (Fig. 3)
               --campaign FILE  --seed N
    train      train and export the scheduler's model
               --campaign FILE  --out FILE (model.txt)
               --kind adaboost|decision-forest|extra-trees|knn
               --scheme binary|three-class  --seed N
    info       describe an exported model file
               --model FILE
    schedule   run a FCFS+EASY vs RUSH comparison on a campaign
               --campaign FILE  --experiment ADAA|ADPA|PDPA|WS|SS
               --trials N (3)  --jobs N  --seed N
               fault injection (off unless enabled):
               --fault-seed N (0)        seed of the fault timeline
               --node-mtbf MINS          enable node crashes, mean time
                                         between failures per node
               --node-mttr MINS (5)      repair time of a crashed node
               --telemetry-blackout MINS enable telemetry blackouts, mean
                                         time between windows
               online predictor service (off unless enabled; Rush trials):
               --retrain-every SECS      enable the drift-aware service:
                                         retrain the deployed model on the
                                         completed-job label window every
                                         SECS of simulated time
               --drift-window N (64)     labeled decisions in the drift
                                         detector's rolling accuracy window
               --drift-threshold F (0.15) accuracy degradation that triggers
                                         an off-schedule retrain
               --shadow-decisions N (32) decisions a candidate shadows
                                         before the swap gate is judged
               --shift-at SECS           pin the congestion regime to Storm
                                         from SECS onward (seeded mid-
                                         campaign distribution shift)
               observability (off unless enabled):
               --trace-out FILE          write the RUSH trial-0 structured
                                         event trace as JSON lines; byte-
                                         identical for identical seeds
               --metrics-out FILE        write the trial-0 metrics registry
                                         (a .csv extension selects CSV,
                                         anything else JSON)
               --profile                 print per-scope wall-time totals
                                         to stderr after the run
               crash-safe campaigns (any of these selects a single
               checkpointed RUSH trial instead of the comparison):
               --checkpoint-every SECS   snapshot the engine every SECS of
                                         simulated time (atomic write+rename)
               --checkpoint-dir DIR      checkpoint directory (checkpoints)
               --checkpoint-keep K (3)   checkpoints retained
               --resume PATH             resume from a snapshot file, or from
                                         the newest valid checkpoint when
                                         PATH is a directory (corrupted or
                                         truncated files fall back to the
                                         previous good one)
               --stop-after SECS         stop (and checkpoint) once the sim
                                         clock passes SECS, for later resume
               --audit POLICY            runtime invariant auditor at
                                         checkpoint boundaries:
                                         off|log|fail-fast|repair
               --audit-every-event       audit after every event, not just
                                         at checkpoints
    replay     stream an SWF archive trace (or a synthesized stream tiled
               from it) through the FCFS+EASY engine in bounded memory and
               report utilization + bounded slowdown per estimate source
               --trace FILE              SWF trace to replay
               --lenient                 drop and count malformed trace
                                         lines instead of aborting on the
                                         first (diagnostics to stderr)
               --synthesize N            tile the trace (or the built-in
                                         seed when --trace is absent) into
                                         an N-job stream
               --arrival-scale F (1.0)   compress inter-arrival times by F
               --gap SECS (60)           idle gap between tiles
               --estimates MODE (factor) factor|user|learned|compare
                                         (compare runs all three)
               --train-jobs N (5000)     head-of-stream sample fitting the
                                         learned run-time estimator
               --window SECS (600)       out-of-order submit tolerance
               --cores-per-node N (36)   SWF processors mapped per node
               --max-nodes N (4096)      conversion ceiling; jobs larger
                                         than the machine reject at submit
               --est-factor F (1.5)      global over-estimation factor
               --seed N (7)              machine + engine seed
               --verify-prefix N         first check streaming ≡
                                         materialized on the first N
                                         requests (byte-identical traces)
               --max-rss-mib N           fail if peak RSS exceeds N MiB
    chaos      run a seeded chaos campaign: randomized performance-fault
               scenarios (crashes, stragglers, congestion storms, flaps)
               across the FCFS / FCFS+EASY / RUSH schemes, every run under
               the invariant auditor, folded into a resilience report
               --scenarios N (8)  --seed N (42)  --nodes N (64)
               --jobs N (500)     --out FILE (results/chaos_report.json)
               identical invocations write byte-identical reports; exits
               nonzero when the auditor records a violation
    train-policy  train a learned queue-ordering policy with the seeded
               cross-entropy method over the gym-style scheduling
               environment; identical invocations write byte-identical
               artifacts
               --seed N (42)      --nodes N (32)   --jobs N (120)
               --rounds N (10)    --population N (24)  --elite N (6)
               --episodes N (2)   per-candidate evaluation episodes
               --out FILE (results/policy.txt)
               --trace-out FILE   write per-round training events as
                                  JSON lines
    policy-eval   head-to-head evaluation: FCFS / EASY / RUSH / learned
               on the same seeded workloads, written as a canonical-JSON
               report (makespan, response, bounded slowdown, utilization)
               --policy FILE      trained artifact from train-policy
               --seed N (42)      --nodes N (32)   --jobs N (120)
               --episodes N (2)   --out FILE (results/policy_report.json)
               --assert-learned-beats-fcfs  exit nonzero unless the
                                  learned policy's mean bounded slowdown
                                  beats strict FCFS
               --trace-out FILE   write per-scheme evaluation events as
                                  JSON lines
    help       print this message

Options are --key VALUE or a bare --flag, each at most once. Exit status:
0 success; 1 the run failed; 2 usage error (unknown command, unknown or
repeated option, missing or malformed value), reported before any work.
";

/// Why a command failed. A usage error (exit 2) is found while reading
/// the options, before any work starts; a run error (exit 1) comes from the
/// work itself.
enum Failure {
    Usage(String),
    Run(String),
}

impl From<ArgError> for Failure {
    fn from(e: ArgError) -> Self {
        Failure::Usage(e.to_string())
    }
}

impl From<String> for Failure {
    fn from(e: String) -> Self {
        Failure::Run(e)
    }
}

/// A usage error for an option value the typed getters cannot judge.
fn usage(message: String) -> Failure {
    Failure::Usage(message)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let command: fn(Args) -> Result<(), Failure> = match command.as_str() {
        "collect" => cmd_collect,
        "evaluate" => cmd_evaluate,
        "train" => cmd_train,
        "info" => cmd_info,
        "schedule" => cmd_schedule,
        "replay" => cmd_replay,
        "chaos" => cmd_chaos,
        "train-policy" => cmd_train_policy,
        "policy-eval" => cmd_policy_eval,
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("error: unknown command '{other}'\nsee 'rush help' for the commands");
            return ExitCode::from(2);
        }
    };
    match Args::parse(argv).map_err(Failure::from).and_then(command) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(e)) => {
            eprintln!("error: {e}\nsee 'rush help' for the options of each command");
            ExitCode::from(2)
        }
        Err(Failure::Run(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A `--key FILE` option the command cannot run without.
fn required_file(args: &mut Args, key: &'static str) -> Result<String, Failure> {
    args.opt(key)?
        .ok_or_else(|| usage(format!("--{key} FILE is required")))
}

fn load_campaign(path: &str) -> Result<CampaignData, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // The file carries its own run data; the attached config only matters
    // for provenance, so reuse the default with the recorded day count
    // unknowable — decode requires *a* config.
    campaign_io::decode(&text, &CampaignConfig::default())
}

fn cmd_collect(mut args: Args) -> Result<(), Failure> {
    let days: u32 = args.get("days", 30)?;
    let seed: u64 = args.get("seed", 0xC0FFEE)?;
    let out = args.get("out", String::from("campaign.txt"))?;
    args.finish()?;
    let config = CampaignConfig {
        days,
        seed,
        storm_days: Some((days * 5 / 8, days * 3 / 4)),
        ..CampaignConfig::default()
    };
    eprintln!("collecting {days}-day campaign (seed {seed:#x})...");
    let data = run_campaign(&config);
    std::fs::write(&out, campaign_io::encode(&data))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {} control runs to {out}", data.runs.len());
    let stats = data.runtime_stats();
    let mut apps: Vec<_> = stats.iter().collect();
    apps.sort_by_key(|(app, _)| app.index());
    for (app, (mean, std)) in apps {
        println!(
            "  {app:8} mean {mean:7.1}s  std {std:6.1}s  rel {:.3}",
            std / mean
        );
    }
    Ok(())
}

fn cmd_evaluate(mut args: Args) -> Result<(), Failure> {
    let campaign = required_file(&mut args, "campaign")?;
    let seed: u64 = args.get("seed", 7)?;
    args.finish()?;
    let campaign = load_campaign(&campaign)?;
    println!(
        "campaign: {} runs; evaluating with leave-one-application-out CV...",
        campaign.runs.len()
    );
    let mut table = TextTable::new(["model", "f1_all_nodes", "f1_job_nodes"]);
    let all = build_dataset(&campaign, NodeScope::AllNodes, LabelScheme::Binary);
    let job = build_dataset(&campaign, NodeScope::JobNodes, LabelScheme::Binary);
    let scores_all = compare_models(&all, seed);
    let scores_job = compare_models(&job, seed);
    for (a, j) in scores_all.iter().zip(&scores_job) {
        table.row([
            a.kind.name().to_string(),
            fmt(a.mean_f1(), 3),
            fmt(j.mean_f1(), 3),
        ]);
    }
    println!("{}", table.render());
    println!("best (job scope): {}", select_best(&scores_job));
    Ok(())
}

fn cmd_train(mut args: Args) -> Result<(), Failure> {
    let campaign = required_file(&mut args, "campaign")?;
    let seed: u64 = args.get("seed", 7)?;
    let out = args.get("out", String::from("model.txt"))?;
    let kind = match args.opt::<String>("kind")? {
        None => ModelKind::AdaBoost,
        Some(name) => ModelKind::from_name(&name)
            .ok_or_else(|| usage(format!("unknown model kind '{name}'")))?,
    };
    let scheme = match args.get("scheme", String::from("three-class"))?.as_str() {
        "three-class" => LabelScheme::ThreeClass,
        "binary" => LabelScheme::Binary,
        other => return Err(usage(format!("unknown scheme '{other}'"))),
    };
    args.finish()?;
    let campaign = load_campaign(&campaign)?;
    eprintln!(
        "training {kind} ({scheme:?}) on {} runs...",
        campaign.runs.len()
    );
    let model = train_final_with_scheme(&campaign, None, kind, scheme, seed);
    std::fs::write(&out, codec::encode(&model)).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {} model ({} features, {} classes) to {out}",
        model.kind(),
        model.n_features(),
        model.n_classes()
    );
    Ok(())
}

fn cmd_info(mut args: Args) -> Result<(), Failure> {
    let path = required_file(&mut args, "model")?;
    args.finish()?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let model = codec::decode(&text).map_err(|e| e.to_string())?;
    println!("kind:       {}", model.kind());
    println!("features:   {}", model.n_features());
    println!("classes:    {}", model.n_classes());
    if let Some(imp) = model.feature_importances() {
        let schema = rush_telemetry::schema::FeatureSchema::table_one();
        let mut ranked: Vec<(usize, f64)> = imp.iter().copied().enumerate().collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite importances"));
        println!("top features by importance:");
        for (idx, value) in ranked.into_iter().take(10) {
            let name = if model.n_features() == schema.len() {
                schema.names()[idx].clone()
            } else {
                format!("feature {idx}")
            };
            println!("  {name:32} {value:.4}");
        }
    }
    Ok(())
}

/// Writes a schedule run's `--trace-out` event trace as JSON lines and its
/// `--metrics-out` registry (CSV for a `.csv` path, JSON otherwise).
fn export(
    result: &ScheduleResult,
    trace: Option<&str>,
    metrics: Option<&str>,
) -> Result<(), String> {
    if let Some(path) = trace {
        let body = rush_obs::records_to_jsonl(&result.events);
        std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {} trace events to {path}", result.events.len());
    }
    if let Some(path) = metrics {
        let body = if path.ends_with(".csv") {
            result.metrics.to_csv()
        } else {
            result.metrics.to_json()
        };
        std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote metrics registry to {path}");
    }
    Ok(())
}

/// The crash-safe campaign options of `rush schedule`.
struct Checkpointing {
    every: Option<SimDuration>,
    keep: usize,
    dir: Option<String>,
    resume: Option<String>,
    stop_at: Option<SimTime>,
}

impl Checkpointing {
    /// Whether any option selects the single checkpointed trial
    /// (`--checkpoint-keep` alone does not).
    fn enabled(&self) -> bool {
        self.every.is_some()
            || self.dir.is_some()
            || self.resume.is_some()
            || self.stop_at.is_some()
    }
}

fn cmd_schedule(mut args: Args) -> Result<(), Failure> {
    let campaign = required_file(&mut args, "campaign")?;
    let seed: u64 = args.get("seed", 0xE0)?;
    let trials: usize = args.get("trials", 3)?;
    let jobs: Option<usize> = args.opt("jobs")?;
    let experiment = match args
        .get("experiment", String::from("ADAA"))?
        .to_ascii_uppercase()
        .as_str()
    {
        "ADAA" => Experiment::Adaa,
        "ADPA" => Experiment::Adpa,
        "PDPA" => Experiment::Pdpa,
        "WS" => Experiment::Ws,
        "SS" => Experiment::Ss,
        other => return Err(usage(format!("unknown experiment '{other}'"))),
    };
    let mut faults = FaultConfig {
        seed: args.get("fault-seed", 0)?,
        node_mtbf: args.opt("node-mtbf")?.map(SimDuration::from_mins),
        blackout_mtbf: args.opt("telemetry-blackout")?.map(SimDuration::from_mins),
        ..FaultConfig::none()
    };
    if let Some(mttr) = args.opt("node-mttr")? {
        faults.node_mttr = SimDuration::from_mins(mttr);
    }
    let profile = args.flag("profile")?;
    let trace_out: Option<String> = args.opt("trace-out")?;
    let metrics_out: Option<String> = args.opt("metrics-out")?;
    let audit = AuditConfig {
        policy: match args.get("audit", String::from("off"))?.as_str() {
            "off" => AuditPolicy::Off,
            "log" => AuditPolicy::Log,
            "fail-fast" => AuditPolicy::FailFast,
            "repair" => AuditPolicy::Repair,
            other => return Err(usage(format!("unknown audit policy '{other}'"))),
        },
        every_event: args.flag("audit-every-event")?,
    };
    let defaults = ServiceConfig::default();
    let service = ServiceConfig {
        retrain_every: SimDuration::from_secs(args.get("retrain-every", 0)?),
        drift_window: args.get("drift-window", defaults.drift_window)?,
        drift_threshold: args.get("drift-threshold", defaults.drift_threshold)?,
        shadow_decisions: args.get("shadow-decisions", defaults.shadow_decisions)?,
        ..defaults
    };
    let shift_at = args.opt("shift-at")?.map(SimTime::from_secs);
    let ckpt = Checkpointing {
        every: args
            .opt::<NonZeroU64>("checkpoint-every")?
            .map(|secs| SimDuration::from_secs(secs.get())),
        keep: args.get("checkpoint-keep", 3)?,
        dir: args.opt("checkpoint-dir")?,
        resume: args.opt("resume")?,
        stop_at: args.opt("stop-after")?.map(SimTime::from_secs),
    };
    args.finish()?;
    let (trace_out, metrics_out) = (trace_out.as_deref(), metrics_out.as_deref());

    let campaign = load_campaign(&campaign)?;
    if profile {
        rush_obs::profile::set_enabled(true);
    }
    let settings = ExperimentSettings {
        trials,
        base_seed: seed,
        job_count_override: jobs,
        faults,
        audit,
        service,
        shift_at,
        ..ExperimentSettings::default()
    };
    if ckpt.enabled() {
        return run_checkpointed(
            &campaign,
            experiment,
            &settings,
            &ckpt,
            trace_out,
            metrics_out,
        );
    }
    eprintln!(
        "running {experiment}: {} jobs x {trials} trials x 2 policies...",
        jobs.unwrap_or(experiment.job_count())
    );
    let comparison = run_comparison(experiment, &campaign, &settings);

    let (fv, rv) = comparison.mean_variation_runs();
    let (fm, rm) = comparison.mean_makespan();
    let mut table = TextTable::new(["metric", "fcfs_easy", "rush"]);
    table.row(["variation runs".to_string(), fmt(fv, 1), fmt(rv, 1)]);
    table.row(["makespan (s)".to_string(), fmt(fm, 0), fmt(rm, 0)]);
    let wait = |outs: &[rush_core::experiments::TrialOutcome]| {
        outs.iter().map(|t| t.metrics.mean_wait_secs).sum::<f64>() / outs.len() as f64
    };
    table.row([
        "mean wait (s)".to_string(),
        fmt(wait(&comparison.fcfs), 1),
        fmt(wait(&comparison.rush), 1),
    ]);
    let skips = comparison.rush.iter().map(|t| t.total_skips).sum::<u64>() as f64
        / comparison.rush.len() as f64;
    table.row([
        "rush delays/trial".to_string(),
        "0".to_string(),
        fmt(skips, 1),
    ]);
    println!("{}", table.render());
    if !settings.faults.is_inert() {
        println!("fault robustness (means over trials):");
        println!("{}", robustness_table(&comparison).render());
    }
    if trace_out.is_some() || metrics_out.is_some() {
        // A dedicated re-run of trial 0 under the RUSH policy: the
        // comparison above discards per-trial traces, while this run is a
        // pure function of the seed — identical seeds yield byte-identical
        // exports.
        let reference = build_reference(&campaign);
        let (result, _) = run_trial_raw(
            experiment,
            PolicyKind::Rush,
            &campaign,
            &reference,
            &settings,
            0,
        );
        export(&result, trace_out, metrics_out)?;
    }
    if profile {
        eprint!("{}", rush_obs::profile::report());
    }
    Ok(())
}

/// Seeded chaos campaign (see [`rush_sched::chaos`]): samples randomized
/// performance-fault scenarios, runs each across the three scheduling
/// schemes under the invariant auditor, and writes the canonical-JSON resilience report atomically. A pure
/// function of the options: identical invocations produce byte-identical
/// report files.
fn cmd_chaos(mut args: Args) -> Result<(), Failure> {
    use rush_core::campaign::write_atomic;
    use rush_sched::chaos::{run_chaos, ChaosConfig};

    let config = ChaosConfig {
        seed: args.get("seed", 42)?,
        scenarios: args.get("scenarios", 8)?,
        nodes: args.get("nodes", 64)?,
        jobs: args.get("jobs", 500)?,
    };
    let out = args.get("out", String::from("results/chaos_report.json"))?;
    args.finish()?;
    if config.nodes < 8 || !config.nodes.is_multiple_of(8) {
        return Err(usage(format!(
            "--nodes must be a positive multiple of 8, got {}",
            config.nodes
        )));
    }
    if config.scenarios == 0 || config.jobs == 0 {
        return Err(usage("--scenarios and --jobs must be positive".into()));
    }
    eprintln!(
        "chaos: {} scenarios x 3 schemes, {} nodes, {} jobs (seed {})...",
        config.scenarios, config.nodes, config.jobs, config.seed
    );
    let report = run_chaos(&config);
    let json = report.to_json();
    write_atomic(Path::new(&out), json.as_bytes())
        .map_err(|e| format!("cannot write {out}: {e}"))?;

    let mut table = TextTable::new([
        "scheme",
        "base_bsld",
        "mean_ratio",
        "worst_ratio",
        "worst_seed",
        "util_drop",
        "violations",
    ]);
    for s in &report.summaries {
        table.row([
            s.scheme.name().to_string(),
            fmt(s.baseline.mean_bounded_slowdown, 3),
            fmt(s.mean_slowdown_ratio, 3),
            fmt(s.worst_slowdown_ratio, 3),
            format!("{:#x}", s.worst_fault_seed),
            fmt(s.worst_utilization_drop, 4),
            s.audit_violations.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("wrote {} bytes to {out}", json.len());

    let violations = report.total_violations();
    if violations > 0 {
        return Err(Failure::Run(format!(
            "auditor recorded {violations} invariant violations"
        )));
    }
    Ok(())
}

/// Shared environment options of the policy commands.
fn policy_env_config(args: &mut Args) -> Result<rush_sched::env::SchedEnvConfig, Failure> {
    let config = rush_sched::env::SchedEnvConfig {
        seed: args.get("seed", 42)?,
        nodes: args.get("nodes", 32)?,
        jobs: args.get("jobs", 120)?,
        ..rush_sched::env::SchedEnvConfig::default()
    };
    if config.nodes < 8 || !config.nodes.is_multiple_of(8) {
        return Err(usage(format!(
            "--nodes must be a positive multiple of 8, got {}",
            config.nodes
        )));
    }
    if config.jobs == 0 {
        return Err(usage("--jobs must be positive".into()));
    }
    Ok(config)
}

/// Renders observability events as a JSON-lines file (one canonical line
/// per event, sequence numbers from zero, timestamps at the epoch — these
/// are offline pipeline events, not simulation events).
fn write_event_lines(path: &str, events: &[rush_obs::event::ObsEvent]) -> Result<(), String> {
    use rush_obs::event::EventRecord;
    use rush_simkit::time::SimTime;
    let mut body = String::new();
    for (seq, event) in events.iter().enumerate() {
        let record = EventRecord {
            seq: seq as u64,
            at: SimTime::ZERO,
            event: *event,
        };
        body.push_str(&record.to_json_line());
        body.push('\n');
    }
    std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Mean bounded slowdown in milli-units for integer-only trace payloads.
fn bsld_milli(bsld: f64) -> u64 {
    (bsld.max(0.0) * 1000.0).round() as u64
}

/// Trains the learned queue-ordering policy (see [`rush_sched::env`]):
/// seeded CEM over sort-weight vectors, scored by negated mean bounded
/// slowdown on seeded episodes. Identical invocations write byte-identical
/// artifacts.
fn cmd_train_policy(mut args: Args) -> Result<(), Failure> {
    use rush_core::campaign::write_atomic;
    use rush_obs::event::ObsEvent;
    use rush_sched::env::{train_policy, TrainConfig};

    let config = TrainConfig {
        env: policy_env_config(&mut args)?,
        rounds: args.get("rounds", 10)?,
        population: args.get("population", 24)?,
        elite: args.get("elite", 6)?,
        episodes: args.get("episodes", 2)?,
    };
    let out = args.get("out", String::from("results/policy.txt"))?;
    let trace_out: Option<String> = args.opt("trace-out")?;
    args.finish()?;
    if config.rounds == 0 || config.population == 0 {
        return Err(usage("--rounds and --population must be positive".into()));
    }
    if config.elite == 0 || config.elite > config.population {
        return Err(usage(format!(
            "--elite must be in 1..=population, got {} of {}",
            config.elite, config.population
        )));
    }
    eprintln!(
        "train-policy: {} rounds x {} candidates x {} episodes, {} nodes, {} jobs (seed {})...",
        config.rounds,
        config.population,
        config.episodes,
        config.env.nodes,
        config.env.jobs,
        config.env.seed
    );
    let (artifact, outcome) = train_policy(&config);
    write_atomic(Path::new(&out), codec::encode_policy(&artifact).as_bytes())
        .map_err(|e| format!("cannot write {out}: {e}"))?;

    let mut table = TextTable::new(["round", "best_bsld", "elite_bsld"]);
    for r in &outcome.rounds {
        table.row([
            r.round.to_string(),
            fmt(-r.best_score, 3),
            fmt(-r.elite_score, 3),
        ]);
    }
    println!("{}", table.render());
    println!(
        "best mean bounded slowdown {} after {} evaluations",
        fmt(-outcome.best_score, 3),
        outcome.evaluations
    );
    println!("wrote policy artifact to {out}");

    if let Some(path) = &trace_out {
        let events: Vec<ObsEvent> = outcome
            .rounds
            .iter()
            .map(|r| ObsEvent::PolicyTrainRound {
                round: r.round,
                best_bsld_milli: bsld_milli(-r.best_score),
                elite_bsld_milli: bsld_milli(-r.elite_score),
            })
            .collect();
        write_event_lines(path, &events)?;
        println!("wrote training trace to {path}");
    }
    Ok(())
}

/// Head-to-head policy evaluation (see [`rush_sched::env::head_to_head`]):
/// FCFS, EASY, RUSH and the trained learned policy run the same seeded
/// workloads; the per-scheme service metrics land in a canonical-JSON
/// report. Identical invocations write byte-identical reports.
fn cmd_policy_eval(mut args: Args) -> Result<(), Failure> {
    use rush_core::campaign::write_atomic;
    use rush_obs::event::ObsEvent;
    use rush_sched::env::head_to_head;
    use rush_sched::SORT_FACTORS;

    let env = policy_env_config(&mut args)?;
    let episodes = args.get::<u64>("episodes", 2)?.max(1);
    let path = required_file(&mut args, "policy")?;
    let out = args.get("out", String::from("results/policy_report.json"))?;
    let trace_out: Option<String> = args.opt("trace-out")?;
    let assert_beats_fcfs = args.flag("assert-learned-beats-fcfs")?;
    args.finish()?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let artifact = codec::decode_policy(&text).map_err(|e| format!("{path}: {e}"))?;
    let weights: [f64; SORT_FACTORS] = artifact.weights.as_slice().try_into().map_err(|_| {
        format!(
            "{path}: artifact holds {} weights; this build scores {SORT_FACTORS} features",
            artifact.weights.len()
        )
    })?;
    eprintln!(
        "policy-eval: 4 schemes x {episodes} episodes, {} nodes, {} jobs (seed {})...",
        env.nodes, env.jobs, env.seed
    );
    let report = head_to_head(&env, weights, episodes);
    let json = report.to_json();
    write_atomic(Path::new(&out), json.as_bytes())
        .map_err(|e| format!("cannot write {out}: {e}"))?;

    let mut table = TextTable::new([
        "scheme",
        "makespan_s",
        "mean_response_s",
        "mean_bsld",
        "utilization",
    ]);
    for s in &report.schemes {
        table.row([
            s.scheme.name().to_string(),
            fmt(s.stats.makespan_s, 1),
            fmt(s.stats.mean_response_s, 1),
            fmt(s.stats.mean_bounded_slowdown, 3),
            fmt(s.stats.utilization, 4),
        ]);
    }
    println!("{}", table.render());
    println!("wrote {} bytes to {out}", json.len());

    if let Some(path) = &trace_out {
        let events: Vec<ObsEvent> = report
            .schemes
            .iter()
            .enumerate()
            .map(|(i, s)| ObsEvent::PolicyEvaluated {
                scheme: i as u32,
                bsld_milli: bsld_milli(s.stats.mean_bounded_slowdown),
                episodes: episodes as u32,
            })
            .collect();
        write_event_lines(path, &events)?;
        println!("wrote evaluation trace to {path}");
    }

    if assert_beats_fcfs && !report.learned_beats_fcfs() {
        let bsld = |scheme| fmt(report.scheme(scheme).mean_bounded_slowdown, 3);
        return Err(Failure::Run(format!(
            "learned policy did not beat FCFS on mean bounded slowdown ({} vs {})",
            bsld(rush_sched::env::EvalScheme::Learned),
            bsld(rush_sched::env::EvalScheme::Fcfs)
        )));
    }
    Ok(())
}

/// Streaming trace replay (see [`rush_core::replay`]): SWF file and/or
/// synthesized stream → reorder window → streaming engine, with per-job
/// result folding so memory tracks the live-job population. Ingest
/// diagnostics are printed here — the library stays silent.
fn cmd_replay(mut args: Args) -> Result<(), Failure> {
    use rush_core::replay::{self, EstimatesMode, JobStream, ReplaySettings, REPLAY_MACHINE_NODES};
    use rush_workloads::swf::SwfReader;
    use rush_workloads::synth::{synthesize, SynthSpec};
    use std::io::BufReader;

    let trace: Option<String> = args.opt("trace")?;
    let lenient = args.flag("lenient")?;
    let target: Option<u64> = args.opt("synthesize")?;
    let spec = SynthSpec {
        target_jobs: target.unwrap_or(0),
        arrival_scale: args.get("arrival-scale", 1.0)?,
        gap_secs: args.get("gap", 60)?,
    };
    let settings = ReplaySettings {
        seed: args.get("seed", 7)?,
        est_factor: args.get("est-factor", 1.5)?,
        cores_per_node: args.get("cores-per-node", 36)?,
        max_nodes: args.get("max-nodes", 4096)?,
        reorder_window: SimDuration::from_secs(args.get("window", 600)?),
        train_jobs: args.get("train-jobs", 5_000)?,
        fold: true,
    };
    let modes: Vec<EstimatesMode> = match args.get("estimates", String::from("factor"))?.as_str() {
        "factor" => vec![EstimatesMode::Factor],
        "user" => vec![EstimatesMode::User],
        "learned" => vec![EstimatesMode::Learned],
        "compare" => vec![
            EstimatesMode::Factor,
            EstimatesMode::User,
            EstimatesMode::Learned,
        ],
        other => return Err(usage(format!("unknown estimates mode '{other}'"))),
    };
    let verify_prefix: Option<usize> = args.opt("verify-prefix")?;
    let max_rss_mib: Option<u64> = args.opt("max-rss-mib")?;
    args.finish()?;
    if trace.is_none() && target.is_none() {
        return Err(usage(
            "replay needs --trace FILE, --synthesize N, or both".into(),
        ));
    }
    if spec.arrival_scale <= 0.0 || !spec.arrival_scale.is_finite() {
        return Err(usage("--arrival-scale must be a positive factor".into()));
    }

    // Ingest pass: validate the trace once, surface diagnostics here (the
    // parser never prints), and materialize the synthesis seed if tiling.
    let seed_jobs: Option<Vec<rush_workloads::swf::SwfJob>> = match &trace {
        None => target.map(|_| replay::builtin_seed()),
        Some(path) => {
            let open = || -> Result<_, String> {
                let file =
                    std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
                Ok(BufReader::new(file))
            };
            let mut jobs = Vec::new();
            if lenient {
                let mut reader = SwfReader::lenient(open()?);
                for item in &mut reader {
                    jobs.push(item.expect("lenient readers never yield Err"));
                }
                let summary = reader.into_summary();
                eprintln!(
                    "ingest: kept {} jobs, dropped {} malformed + {} unusable",
                    summary.kept, summary.dropped_malformed, summary.dropped_unusable
                );
                for e in &summary.errors {
                    eprintln!("  {e}");
                }
                if summary.errors_truncated() {
                    eprintln!(
                        "  ... and {} more",
                        summary.dropped_malformed - summary.errors.len() as u64
                    );
                }
            } else {
                for item in SwfReader::strict(open()?) {
                    jobs.push(item.map_err(|e| format!("{e} (use --lenient to continue)"))?);
                }
            }
            if jobs.is_empty() {
                return Err(Failure::Run(format!("{path}: no usable jobs")));
            }
            Some(jobs)
        }
    };

    let make_stream = || -> JobStream {
        let seed = seed_jobs.clone().expect("validated above");
        match target {
            Some(_) => Box::new(synthesize(seed, spec)),
            None => Box::new(seed.into_iter()),
        }
    };

    if let Some(prefix) = verify_prefix {
        let checked = replay::verify_prefix(make_stream(), &settings, prefix)?;
        println!("verified streaming ≡ materialized on a {checked}-request prefix");
    }

    let summaries = replay::compare_estimates(make_stream, &settings, &modes);

    let mut table = TextTable::new([
        "estimates",
        "settled",
        "completed",
        "rejected",
        "utilization",
        "mean_wait_s",
        "mean_bsld",
        "max_bsld",
    ]);
    for s in &summaries {
        table.row([
            s.mode.name().to_string(),
            s.stats.settled().to_string(),
            s.stats.completed.to_string(),
            s.stats.rejected.to_string(),
            fmt(s.utilization, 4),
            fmt(s.stats.mean_wait_secs(), 1),
            fmt(s.stats.mean_bounded_slowdown(), 3),
            fmt(s.stats.bounded_slowdown_max, 2),
        ]);
    }
    println!("{}", table.render());
    for s in &summaries {
        if s.clamped_submits > 0 || s.dropped_no_runtime > 0 {
            eprintln!(
                "{}: {} submits clamped by the reorder window, {} jobs dropped (no run time)",
                s.mode.name(),
                s.clamped_submits,
                s.dropped_no_runtime
            );
        }
        if let Some(mae) = s.model_mae_secs {
            println!(
                "learned estimator: trained on {} jobs, in-sample MAE {}s",
                settings.train_jobs.min(s.stats.settled() as usize),
                fmt(mae, 1)
            );
        }
    }

    let by_mode = |m: EstimatesMode| summaries.iter().find(|s| s.mode == m);
    if let (Some(user), Some(learned)) = (
        by_mode(EstimatesMode::User),
        by_mode(EstimatesMode::Learned),
    ) {
        println!(
            "learned vs user estimates: utilization {:+.4}, mean wait {:+.1}s, \
             mean bounded slowdown {:+.3}",
            learned.utilization - user.utilization,
            learned.stats.mean_wait_secs() - user.stats.mean_wait_secs(),
            learned.stats.mean_bounded_slowdown() - user.stats.mean_bounded_slowdown(),
        );
    }
    println!(
        "machine: {REPLAY_MACHINE_NODES} nodes; makespan {}s; peak queue {}",
        fmt(summaries[0].makespan_secs, 0),
        summaries.iter().map(|s| s.max_queue_len).max().unwrap_or(0)
    );

    if let Some(rss) = replay::peak_rss_mib() {
        println!("peak rss: {rss} MiB");
        if let Some(limit) = max_rss_mib.filter(|&limit| rss > limit) {
            return Err(Failure::Run(format!(
                "peak RSS {rss} MiB exceeds the {limit} MiB ceiling"
            )));
        }
    } else if max_rss_mib.is_some() {
        return Err(Failure::Run(
            "--max-rss-mib: /proc/self/status is unavailable".into(),
        ));
    }
    Ok(())
}

/// The crash-safe campaign path: a single RUSH trial driven event by event,
/// snapshotting the engine at simulated-time boundaries, optionally resuming
/// from an earlier snapshot, optionally stopping early for a later resume.
///
/// Resumption is exact: the engine rejects snapshots from a different seed
/// or configuration, and a resumed run's remaining event trace is identical
/// to the uninterrupted run's.
fn run_checkpointed(
    campaign: &CampaignData,
    experiment: Experiment,
    settings: &ExperimentSettings,
    ckpt: &Checkpointing,
    trace_out: Option<&str>,
    metrics_out: Option<&str>,
) -> Result<(), Failure> {
    let (mut engine, requests) =
        build_trial_engine(experiment, PolicyKind::Rush, campaign, settings, 0);
    engine.prepare(&requests);

    if let Some(path) = &ckpt.resume {
        let bytes = if Path::new(path).is_dir() {
            let mgr = CheckpointManager::new(path, ckpt.keep).map_err(|e| e.to_string())?;
            let (found, bytes) = mgr
                .load_latest_valid()
                .map_err(|e| e.to_string())?
                .ok_or_else(|| format!("no valid checkpoint in {path}"))?;
            eprintln!("resuming from {}", found.display());
            bytes
        } else {
            std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?
        };
        engine
            .resume(&bytes)
            .map_err(|e| format!("cannot resume: {e}"))?;
        let (settled, total) = engine.progress();
        eprintln!(
            "resumed at {} ({settled}/{total} jobs settled)",
            engine.now()
        );
    }

    let dir = ckpt.dir.as_deref().unwrap_or("checkpoints");
    let manager = ckpt
        .every
        .map(|_| CheckpointManager::new(dir, ckpt.keep))
        .transpose()
        .map_err(|e| e.to_string())?;
    let audit_at_checkpoints = settings.audit.enabled() && !settings.audit.every_event;
    let mut next_ckpt = ckpt.every.map(|d| engine.now() + d);

    let checkpoint =
        |engine: &mut rush_sched::SchedulerEngine, mgr: &CheckpointManager| -> Result<(), String> {
            let now = engine.now();
            if audit_at_checkpoints {
                engine.audit_now(now);
            }
            let bytes = engine.snapshot();
            let path = mgr
                .write(now.as_micros(), &bytes)
                .map_err(|e| e.to_string())?;
            let (settled, total) = engine.progress();
            eprintln!(
                "checkpoint at {now} ({settled}/{total} jobs settled) -> {}",
                path.display()
            );
            Ok(())
        };

    while let Some(now) = engine.step() {
        if let (Some(mgr), Some(next)) = (&manager, next_ckpt) {
            if now >= next {
                checkpoint(&mut engine, mgr)?;
                next_ckpt = Some(now + ckpt.every.expect("manager implies interval"));
            }
        }
        if ckpt.stop_at.is_some_and(|stop| now >= stop) && !engine.is_done() {
            if let Some(mgr) = &manager {
                checkpoint(&mut engine, mgr)?;
            }
            let (settled, total) = engine.progress();
            println!(
                "stopped at {} with {settled}/{total} jobs settled; resume with --resume",
                engine.now()
            );
            return Ok(());
        }
    }

    let result = engine.finalize();
    // Trace/metrics exports mirror the plain path: the event log rides in
    // every snapshot, so a resumed run's full export is byte-identical to
    // the uninterrupted run's — which is exactly what the CI drift lane
    // compares.
    export(&result, trace_out, metrics_out)?;
    let mut table = TextTable::new(["metric", "value"]);
    table.row(["completed".to_string(), result.completed.len().to_string()]);
    table.row(["failed".to_string(), result.failed.len().to_string()]);
    table.row([
        "makespan (s)".to_string(),
        fmt(result.makespan().as_secs_f64(), 0),
    ]);
    table.row(["rush delays".to_string(), result.total_skips.to_string()]);
    table.row(["requeues".to_string(), result.requeues.to_string()]);
    table.row([
        "node failures".to_string(),
        result.node_failures.to_string(),
    ]);
    if let Some(v) = result.metrics.counter_by_name("audit.violations") {
        table.row(["audit violations".to_string(), v.to_string()]);
    }
    println!("{}", table.render());
    Ok(())
}
