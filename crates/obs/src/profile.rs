//! Lightweight scoped profiling.
//!
//! A fixed set of [`ProfileScope`]s covers the hot paths (engine ticks,
//! the scheduling pass, the running-speed refresh, the network's link-table
//! rebuild, predictor evaluation, featurization, forest training, telemetry
//! sampling). The profiler is
//! process-global and disabled by default: entering a scope costs one
//! relaxed atomic load. When enabled (`--profile` on the CLI), each scope
//! accumulates call count and total wall nanoseconds into atomics,
//! summarized by [`report`].
//!
//! Wall-clock numbers are inherently nondeterministic, so profiling data
//! is **never** written into traces or metric exports — [`report`]
//! renders to a plain string the CLI prints to stderr.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The instrumented code regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileScope {
    /// One `SchedulerEngine` event dispatch.
    EngineTick,
    /// One backfill scheduling pass over the queue.
    SchedulePass,
    /// One predictor consultation (quality gate + predict).
    PredictorEval,
    /// Feature-vector assembly from the metric store.
    Featurize,
    /// Random-forest training.
    Train,
    /// Telemetry sampler advance.
    TelemetrySample,
    /// The engine's once-per-step refresh of running jobs' speeds.
    SpeedRefresh,
    /// Rebuild of the network's per-link load and utilization table.
    NetworkRefresh,
}

const SCOPE_COUNT: usize = 8;

const ALL_SCOPES: [ProfileScope; SCOPE_COUNT] = [
    ProfileScope::EngineTick,
    ProfileScope::SchedulePass,
    ProfileScope::PredictorEval,
    ProfileScope::Featurize,
    ProfileScope::Train,
    ProfileScope::TelemetrySample,
    ProfileScope::SpeedRefresh,
    ProfileScope::NetworkRefresh,
];

impl ProfileScope {
    fn index(self) -> usize {
        match self {
            ProfileScope::EngineTick => 0,
            ProfileScope::SchedulePass => 1,
            ProfileScope::PredictorEval => 2,
            ProfileScope::Featurize => 3,
            ProfileScope::Train => 4,
            ProfileScope::TelemetrySample => 5,
            ProfileScope::SpeedRefresh => 6,
            ProfileScope::NetworkRefresh => 7,
        }
    }

    /// Stable label used in the profile report.
    pub fn label(self) -> &'static str {
        match self {
            ProfileScope::EngineTick => "engine_tick",
            ProfileScope::SchedulePass => "schedule_pass",
            ProfileScope::PredictorEval => "predictor_eval",
            ProfileScope::Featurize => "featurize",
            ProfileScope::Train => "train",
            ProfileScope::TelemetrySample => "telemetry_sample",
            ProfileScope::SpeedRefresh => "speed_refresh",
            ProfileScope::NetworkRefresh => "network_refresh",
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Histogram buckets per scope: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 also absorbs 0 ns). 40 buckets
/// reach ~18 minutes, far beyond any single scope entry.
const BUCKETS: usize = 40;

struct ScopeCell {
    calls: AtomicU64,
    nanos: AtomicU64,
    hist: [AtomicU64; BUCKETS],
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_COUNT: AtomicU64 = AtomicU64::new(0);

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_CELL: ScopeCell = ScopeCell {
    calls: AtomicU64::new(0),
    nanos: AtomicU64::new(0),
    hist: [ZERO_COUNT; BUCKETS],
};

static CELLS: [ScopeCell; SCOPE_COUNT] = [ZERO_CELL; SCOPE_COUNT];

fn bucket_index(nanos: u64) -> usize {
    (63 - nanos.max(1).leading_zeros() as usize).min(BUCKETS - 1)
}

/// Geometric midpoint of a bucket, the value reported for samples in it.
fn bucket_mid(index: usize) -> f64 {
    let lo = (1u64 << index) as f64;
    lo * std::f64::consts::SQRT_2
}

/// Turns profiling on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether profiling is currently on.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes all accumulated counts, times and histograms.
pub fn reset() {
    for cell in &CELLS {
        cell.calls.store(0, Ordering::Relaxed);
        cell.nanos.store(0, Ordering::Relaxed);
        for bucket in &cell.hist {
            bucket.store(0, Ordering::Relaxed);
        }
    }
}

/// Enters `scope`; time from now until the returned guard drops is
/// attributed to it. Returns a no-op guard when profiling is off.
#[inline]
pub fn scope(scope: ProfileScope) -> ScopeGuard {
    if is_enabled() {
        ScopeGuard {
            scope: Some((scope, Instant::now())),
        }
    } else {
        ScopeGuard { scope: None }
    }
}

/// RAII guard returned by [`scope`].
#[must_use = "the scope ends when the guard drops"]
pub struct ScopeGuard {
    scope: Option<(ProfileScope, Instant)>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if let Some((scope, start)) = self.scope.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            record_sample(scope, ns);
        }
    }
}

fn record_sample(scope: ProfileScope, nanos: u64) {
    let cell = &CELLS[scope.index()];
    cell.calls.fetch_add(1, Ordering::Relaxed);
    cell.nanos.fetch_add(nanos, Ordering::Relaxed);
    cell.hist[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of a scope's recorded
/// durations, in nanoseconds, or `None` if the scope has no samples.
/// Resolution is one power-of-two bucket: the value returned is the
/// geometric midpoint of the bucket holding the requested rank.
pub fn percentile_nanos(scope: ProfileScope, p: f64) -> Option<f64> {
    let cell = &CELLS[scope.index()];
    let counts: Vec<u64> = cell
        .hist
        .iter()
        .map(|b| b.load(Ordering::Relaxed))
        .collect();
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * total as f64)
        .ceil()
        .max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return Some(bucket_mid(i));
        }
    }
    Some(bucket_mid(BUCKETS - 1))
}

/// Accumulated totals for one scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeTotals {
    /// Which scope.
    pub scope: ProfileScope,
    /// Times the scope was entered.
    pub calls: u64,
    /// Total wall nanoseconds inside the scope.
    pub nanos: u64,
}

/// Snapshot of every scope's totals, in fixed scope order.
pub fn snapshot() -> Vec<ScopeTotals> {
    ALL_SCOPES
        .iter()
        .map(|&scope| {
            let cell = &CELLS[scope.index()];
            ScopeTotals {
                scope,
                calls: cell.calls.load(Ordering::Relaxed),
                nanos: cell.nanos.load(Ordering::Relaxed),
            }
        })
        .collect()
}

/// Renders a human-readable table of per-scope totals (scopes that were
/// never entered are omitted; all-idle yields a one-line note).
pub fn report() -> String {
    let rows: Vec<ScopeTotals> = snapshot().into_iter().filter(|t| t.calls > 0).collect();
    if rows.is_empty() {
        return "profile: no instrumented scopes were entered\n".to_string();
    }
    let mut out = String::from("profile (wall time per scope):\n");
    out.push_str(&format!(
        "  {:<18} {:>10} {:>14} {:>12}\n",
        "scope", "calls", "total_ms", "avg_us"
    ));
    for t in rows {
        let total_ms = t.nanos as f64 / 1e6;
        let avg_us = t.nanos as f64 / 1e3 / t.calls as f64;
        out.push_str(&format!(
            "  {:<18} {:>10} {:>14.3} {:>12.3}\n",
            t.scope.label(),
            t.calls,
            total_ms,
            avg_us
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The profiler is process-global, so the tests below share state;
    // they run under a lock to avoid cross-test interference.
    use std::sync::Mutex;
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_scopes_record_nothing() {
        let _guard = LOCK.lock().unwrap();
        set_enabled(false);
        reset();
        {
            let _s = scope(ProfileScope::EngineTick);
        }
        let snap = snapshot();
        assert!(snap.iter().all(|t| t.calls == 0 && t.nanos == 0));
        assert!(report().contains("no instrumented scopes"));
    }

    #[test]
    fn enabled_scopes_accumulate() {
        let _guard = LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        for _ in 0..3 {
            let _s = scope(ProfileScope::Featurize);
        }
        {
            let _s = scope(ProfileScope::Train);
        }
        let snap = snapshot();
        let feat = snap
            .iter()
            .find(|t| t.scope == ProfileScope::Featurize)
            .unwrap();
        assert_eq!(feat.calls, 3);
        let train = snap
            .iter()
            .find(|t| t.scope == ProfileScope::Train)
            .unwrap();
        assert_eq!(train.calls, 1);
        let rep = report();
        assert!(rep.contains("featurize"), "{rep}");
        assert!(rep.contains("train"), "{rep}");
        assert!(!rep.contains("engine_tick"), "idle scopes omitted: {rep}");
        set_enabled(false);
        reset();
    }

    #[test]
    fn percentiles_follow_recorded_samples() {
        let _guard = LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        // 99 fast samples (~1 µs) and one slow outlier (~1 ms).
        for _ in 0..99 {
            record_sample(ProfileScope::SchedulePass, 1_000);
        }
        record_sample(ProfileScope::SchedulePass, 1_000_000);
        let p50 = percentile_nanos(ProfileScope::SchedulePass, 50.0).unwrap();
        let p99 = percentile_nanos(ProfileScope::SchedulePass, 99.0).unwrap();
        let p100 = percentile_nanos(ProfileScope::SchedulePass, 100.0).unwrap();
        assert!(
            (500.0..4_000.0).contains(&p50),
            "p50 should sit in the fast bucket, got {p50}"
        );
        assert!(
            (500.0..4_000.0).contains(&p99),
            "p99 rank 99/100 is still a fast sample, got {p99}"
        );
        assert!(
            p100 > 500_000.0,
            "p100 must land in the outlier bucket, got {p100}"
        );
        assert_eq!(percentile_nanos(ProfileScope::Train, 50.0), None);
        set_enabled(false);
        reset();
    }

    #[test]
    fn bucket_index_is_monotonic() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ProfileScope::EngineTick.label(), "engine_tick");
        assert_eq!(ProfileScope::SchedulePass.label(), "schedule_pass");
        assert_eq!(ProfileScope::PredictorEval.label(), "predictor_eval");
        assert_eq!(ProfileScope::TelemetrySample.label(), "telemetry_sample");
        assert_eq!(ProfileScope::SpeedRefresh.label(), "speed_refresh");
        assert_eq!(ProfileScope::NetworkRefresh.label(), "network_refresh");
    }
}
