//! What every workload shares: the command-line parameters, the timed
//! repetition loop, the host metrics and the report a workload returns.

use crate::drive::{check_same, fingerprint, profiled, Outcome, Rep, STEP_CLOCK};
use crate::measure::{
    clock_read_ns, host_probe, json_number, median, thread_cpu_ns, Samples, Sheet, Slowness,
    PROBE_REFERENCE_NS,
};
use rush_sched::engine::ScheduleResult;
use std::time::Instant;

/// Untraced/traced pairs of repetitions behind `obs.trace_overhead_frac`.
pub const TRACE_PAIRS: usize = 3;
/// Set-ups per timed batch, for workloads whose set-up takes well under a
/// millisecond: one such set-up is too little work to time steadily.
pub const SETUP_BATCH: usize = 32;
/// Timed batches of set-ups per run.
pub const SETUP_BATCHES: usize = 15;

/// Times [`SETUP_BATCHES`] batches of [`SETUP_BATCH`] calls of `setup`, on
/// the CPU clock, each divided by the host's slowness around it. Returns
/// each batch's seconds per set-up; `setup_s` is their median.
pub fn batched_setup_s(mut setup: impl FnMut()) -> Vec<f64> {
    let mut slowness = Slowness::start();
    (0..SETUP_BATCHES)
        .map(|_| {
            let start = thread_cpu_ns();
            for _ in 0..SETUP_BATCH {
                setup();
            }
            let secs = (thread_cpu_ns() - start) as f64 / 1e9 / SETUP_BATCH as f64;
            secs / slowness.lap()
        })
        .collect()
}

/// Parameters of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Minimum measured time of the untraced repetitions.
    pub seconds: f64,
    /// Also make the traced run and report per-layer metrics.
    pub trace: bool,
}

impl Params {
    /// Seed of sub-workload `i`. A run simulates several sub-workloads so
    /// that its figures average over more than one draw of the inputs;
    /// sub-workloads of different run seeds never coincide.
    pub fn sub_seed(&self, i: usize) -> u64 {
        self.seed.wrapping_mul(1 << 16).wrapping_add(i as u64)
    }
}

/// The untraced measurement: repetitions cycling over the sub-workloads,
/// each a complete simulation, in whole cycles until `seconds` have
/// passed. Every sub-workload thus runs equally often, and the job mix
/// behind the pooled figures does not depend on the host's speed.
///
/// The host probe reads the host's slowness between repetitions, and each
/// repetition's CPU time and step times are divided by the mean of the
/// readings on either side of it: host-time figures are reported at the
/// reference host's speed.
///
/// Only summaries of the repetitions are kept, so the memory the benchmark
/// holds does not grow with their number.
pub struct Measured {
    /// The first repetition of sub-workload 0, the one later checks compare
    /// against.
    pub first: Rep,
    /// The simulated outcome of each sub-workload.
    pub outcomes: Vec<Outcome>,
    /// Step samples of every repetition at the reference host's speed,
    /// pooled.
    pub steps: Samples,
    pub wall_ns: u64,
    pub cpu_ns: u64,
    /// CPU time at the reference host's speed.
    pub reference_cpu_ns: f64,
    /// The host's slowness around each repetition.
    pub slowness: Vec<f64>,
    pub jobs: u64,
    /// Peak resident set during each repetition, MiB.
    pub peak_rss_mib: Vec<f64>,
    pub reps: usize,
}

pub fn measure(
    seconds: f64,
    subs: usize,
    mut rep: impl FnMut(usize) -> Result<Rep, String>,
) -> Result<Measured, String> {
    let start = Instant::now();
    let mut outcomes = Vec::with_capacity(subs);
    let mut fingerprints = Vec::with_capacity(subs);
    let (mut first, mut steps, mut peak_rss) = (None, Samples::default(), Vec::new());
    let (mut wall_ns, mut cpu_ns, mut jobs, mut reps) = (0, 0, 0, 0usize);
    let (mut reference_cpu_ns, mut slowness) = (0.0, Vec::new());
    let mut host = Slowness::start();
    while reps == 0 || !reps.is_multiple_of(subs) || start.elapsed().as_secs_f64() < seconds {
        let sub = reps % subs;
        reset_peak_rss();
        let mut r = rep(sub)?;
        peak_rss.push(peak_rss_mib()?);
        let slow = host.lap();
        r.steps.divide(slow);
        steps.append(&mut r.steps);
        wall_ns += r.wall_ns;
        cpu_ns += r.cpu_ns;
        reference_cpu_ns += r.cpu_ns as f64 / slow;
        slowness.push(slow);
        jobs += r.submitted;
        let print = fingerprint(&r.result);
        if reps < subs {
            fingerprints.push(print);
            outcomes.push(Outcome::of(&r.result, r.submitted));
        } else if print != fingerprints[sub] {
            return Err(format!(
                "determinism: sub-workload {sub} gave another schedule on repetition"
            ));
        }
        if reps == 0 {
            first = Some(r);
        }
        reps += 1;
    }
    Ok(Measured {
        first: first.expect("at least one repetition"),
        outcomes,
        steps,
        wall_ns,
        cpu_ns,
        reference_cpu_ns,
        slowness,
        jobs,
        peak_rss_mib: peak_rss,
        reps,
    })
}

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    /// End-to-end metrics, from the untraced repetitions.
    pub e2e: Sheet,
    /// End-to-end figures printed in the report line but not gated: they
    /// can read 0, exist on one workload only, jump between runs, or
    /// repeat a gated metric.
    pub ungated: Sheet,
    /// Per-layer metrics, from the traced run (empty without `--trace 1`).
    pub layers: Sheet,
    /// Context that is not a gated metric, as `(key, JSON value)`.
    pub info: Vec<(String, String)>,
    /// Checks that passed.
    pub checks: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn info(&mut self, key: &str, json_value: impl Into<String>) {
        self.info.push((key.to_string(), json_value.into()));
    }

    pub fn passed(&mut self, check: &str) {
        self.checks.push(check.to_string());
    }

    /// Host metrics of the untraced repetitions, the set-up time, and the
    /// simulated outcome averaged over the sub-workloads. Checks job
    /// conservation on every sub-workload.
    pub fn put_end_to_end(&mut self, m: &Measured, setup_s: &[f64]) -> Result<(), String> {
        for o in &m.outcomes {
            o.check_conservation()?;
        }
        self.passed("job_conservation");
        if m.reps > m.outcomes.len() {
            self.passed("repetitions_identical");
        }
        let outcome = Outcome::mean(&m.outcomes);

        self.info("reps", m.reps.to_string());
        self.info("sub_workloads", m.outcomes.len().to_string());
        self.info("setup_samples", setup_s.len().to_string());
        let steps = &m.steps;
        self.info("step_samples", steps.len().to_string());
        self.info("step_clock_read_ns", json_number(clock_read_ns(STEP_CLOCK)));
        self.info("rss_samples", m.peak_rss_mib.len().to_string());
        self.info(
            "jobs_per_wall_s",
            json_number(m.jobs as f64 / (m.wall_ns as f64 / 1e9)),
        );
        self.info(
            "jobs_per_cpu_s",
            json_number(m.jobs as f64 / (m.cpu_ns as f64 / 1e9)),
        );
        self.info("probe_reference_ns", json_number(PROBE_REFERENCE_NS));
        self.info("host_slowness_median", json_number(median(&m.slowness)));
        self.info("host_slowness_samples", m.slowness.len().to_string());
        let ungated = &mut self.ungated;
        ungated.put("step_p50_us", steps.percentile_us(50.0)?, "us");
        ungated.put("failed_frac", outcome.failed_frac(), "ratio");
        let e2e = &mut self.e2e;
        e2e.put(
            "jobs_per_s",
            m.jobs as f64 / (m.reference_cpu_ns / 1e9),
            "1/s",
        );
        e2e.put("setup_s", median(setup_s), "s");
        e2e.put("step_p99_us", steps.percentile_us(99.0)?, "us");
        e2e.put("peak_rss_mib", median(&m.peak_rss_mib), "MiB");
        outcome.put(e2e);
        self.attempted = outcome.submitted;
        self.failed = outcome.failed + outcome.rejected;
        Ok(())
    }

    /// The traced run. Runs sub-workload 0 untraced and then traced,
    /// [`TRACE_PAIRS`] times, so that each traced repetition has an
    /// untraced one beside it on the same host state. Checks that every
    /// traced repetition gives `untraced_result`'s schedule, puts
    /// `obs.trace_overhead_frac` and returns the last traced repetition
    /// with what `traced` gathered beside it.
    ///
    /// The overhead is the fastest traced wall time over the fastest
    /// untraced one, minus one. Other tenants' load only ever adds time,
    /// and it varies more between repetitions than the profiler costs, so
    /// the fastest of each side is the fairest pair; the figure can still
    /// read slightly below zero.
    pub fn trace_pairs<T>(
        &mut self,
        untraced_result: &ScheduleResult,
        mut untraced: impl FnMut() -> Result<Rep, String>,
        mut traced: impl FnMut() -> Result<(Rep, T), String>,
    ) -> Result<(Rep, T), String> {
        let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
        let mut last = None;
        for _ in 0..TRACE_PAIRS {
            plain_walls.push(untraced()?.wall_ns as f64);
            let (rep, gathered) = profiled(&mut traced)?;
            check_same("traced vs untraced run", untraced_result, &rep.result)?;
            traced_walls.push(rep.wall_ns as f64);
            last = Some((rep, gathered));
        }
        self.passed("traced_run_matches_untraced");
        self.info("trace_pairs", TRACE_PAIRS.to_string());
        self.layers.put(
            "obs.trace_overhead_frac",
            min_of(&traced_walls) / min_of(&plain_walls) - 1.0,
            "ratio",
        );
        Ok(last.expect("at least one pair"))
    }
}

/// Resets this process's peak resident set to its current size, so the
/// next [`peak_rss_mib`] covers one repetition only. Best effort: on a
/// kernel without the reset the peak stays cumulative.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`) in MiB, at the kB
/// resolution the kernel reports, less the host probe's table, which stays
/// resident for the whole run. `rush_core::replay::peak_rss_mib` reads
/// the same field but rounds down to whole MiB, and `replay-saturated`
/// peaks near 6 MiB: a 1 MiB step there is 0.17 of the figure, coarser
/// than the 0.15 bound on `peak_rss_mib`.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0 - host_probe().resident_mib())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn min_of(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}
