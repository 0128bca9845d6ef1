//! Runtime invariant auditing for long campaigns.
//!
//! A multi-day simulated campaign that silently corrupts its scheduler
//! state produces *wrong numbers*, not a crash — the worst failure mode for
//! a reproduction study. The auditor re-derives a small catalog of global
//! invariants from the engine's live state and checks them at checkpoint
//! boundaries (and, under [`AuditConfig::every_event`], after every
//! delivered event). What happens on a violation is the [`AuditPolicy`]'s
//! choice: record it, abort the run, or repair the state where a safe
//! repair exists.
//!
//! The invariant catalog (see `DESIGN.md` §11 for the rationale):
//!
//! * [`Invariant::NodeConservation`] — pool slot states partition the
//!   machine (`free + busy + down == capacity`), running jobs hold disjoint
//!   node sets, none of them quarantined, and the busy count is explained
//!   by running jobs plus the permanent noise reservation.
//! * [`Invariant::JobConservation`] — every submitted job is in exactly
//!   one place: pending, queued, running, completed, or failed; the queue
//!   holds no duplicates and nothing that is simultaneously running.
//! * [`Invariant::EventMonotonicity`] — the next live event never fires
//!   before the current clock.
//! * [`Invariant::SkipBound`] — no job's RUSH skip count exceeds the
//!   configured starvation threshold.
//! * [`Invariant::RunningSanity`] — every running job has non-negative
//!   remaining work, a positive finite speed, and a finish event no
//!   earlier than its last progress update.

use rush_simkit::snapshot::{SnapshotError, Val};

/// What the engine does when an invariant check fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuditPolicy {
    /// No auditing at all (the zero-cost default).
    #[default]
    Off,
    /// Record the violation (stderr + `audit.violations` + log record)
    /// and keep going.
    Log,
    /// Panic on the first violation — for CI and bench matrices, where a
    /// corrupt state must stop the run at the point of corruption.
    FailFast,
    /// Repair the state where a safe repair exists (clamping a skip count,
    /// dropping a duplicate queue entry); unrepairable violations are
    /// logged as under [`AuditPolicy::Log`].
    Repair,
}

/// Auditor configuration, carried on
/// [`SchedulerConfig`](crate::engine::SchedulerConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AuditConfig {
    /// What to do on a violation.
    pub policy: AuditPolicy,
    /// Check after every delivered event instead of only at explicit
    /// [`audit_now`](crate::engine::SchedulerEngine::audit_now) calls
    /// (checkpoint boundaries). Thorough but hot-path-priced.
    pub every_event: bool,
}

impl AuditConfig {
    /// True when any checking is enabled.
    pub fn enabled(&self) -> bool {
        self.policy != AuditPolicy::Off
    }
}

/// The audited invariants. Indices are stable: they appear in snapshots,
/// log records, and CI output, and must never be renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// Pool slots partition the machine and busy nodes are accounted for.
    NodeConservation,
    /// Every job is in exactly one lifecycle state.
    JobConservation,
    /// The event heap never schedules into the past.
    EventMonotonicity,
    /// Skip counts respect the starvation threshold.
    SkipBound,
    /// Running-job progress state is numerically sane.
    RunningSanity,
}

impl Invariant {
    /// Number of invariants in the catalog.
    pub const COUNT: u64 = 5;

    /// Stable index (snapshot/log encoding).
    pub fn index(self) -> u32 {
        match self {
            Invariant::NodeConservation => 0,
            Invariant::JobConservation => 1,
            Invariant::EventMonotonicity => 2,
            Invariant::SkipBound => 3,
            Invariant::RunningSanity => 4,
        }
    }

    /// Short name for logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::NodeConservation => "node-conservation",
            Invariant::JobConservation => "job-conservation",
            Invariant::EventMonotonicity => "event-monotonicity",
            Invariant::SkipBound => "skip-bound",
            Invariant::RunningSanity => "running-sanity",
        }
    }
}

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which invariant failed.
    pub invariant: Invariant,
    /// Invariant-specific context (a job id, node id, or count), carried
    /// into the log record.
    pub detail: u64,
    /// Human-readable description.
    pub message: String,
}

impl Violation {
    /// Builds a violation record.
    pub fn new(invariant: Invariant, detail: u64, message: impl Into<String>) -> Self {
        Violation {
            invariant,
            detail,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.invariant.name(), self.message)
    }
}

/// Encodes the audit policy for snapshots (stable codes).
pub fn policy_code(policy: AuditPolicy) -> u64 {
    match policy {
        AuditPolicy::Off => 0,
        AuditPolicy::Log => 1,
        AuditPolicy::FailFast => 2,
        AuditPolicy::Repair => 3,
    }
}

/// Inverse of [`policy_code`].
pub fn policy_from_code(code: u64) -> Result<AuditPolicy, SnapshotError> {
    Ok(match code {
        0 => AuditPolicy::Off,
        1 => AuditPolicy::Log,
        2 => AuditPolicy::FailFast,
        3 => AuditPolicy::Repair,
        other => {
            return Err(SnapshotError::Schema(format!(
                "bad audit policy code {other}"
            )))
        }
    })
}

/// Renders a parsed policy code back to a `Val` (round-trip helper used by
/// config fingerprinting in tests).
pub fn policy_val(policy: AuditPolicy) -> Val {
    Val::U64(policy_code(policy))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off_and_disabled() {
        let cfg = AuditConfig::default();
        assert_eq!(cfg.policy, AuditPolicy::Off);
        assert!(!cfg.every_event);
        assert!(!cfg.enabled());
        assert!(AuditConfig {
            policy: AuditPolicy::Log,
            every_event: false
        }
        .enabled());
    }

    #[test]
    fn invariant_indices_are_stable_and_distinct() {
        let all = [
            Invariant::NodeConservation,
            Invariant::JobConservation,
            Invariant::EventMonotonicity,
            Invariant::SkipBound,
            Invariant::RunningSanity,
        ];
        assert_eq!(all.len() as u64, Invariant::COUNT);
        for (i, inv) in all.iter().enumerate() {
            assert_eq!(inv.index() as usize, i, "indices must stay stable");
            assert!(!inv.name().is_empty());
        }
    }

    #[test]
    fn policy_codes_round_trip() {
        for p in [
            AuditPolicy::Off,
            AuditPolicy::Log,
            AuditPolicy::FailFast,
            AuditPolicy::Repair,
        ] {
            assert_eq!(policy_from_code(policy_code(p)).unwrap(), p);
            assert_eq!(policy_val(p), Val::U64(policy_code(p)));
        }
        assert!(policy_from_code(9).is_err());
    }

    #[test]
    fn violation_displays_invariant_name() {
        let v = Violation::new(Invariant::SkipBound, 7, "job7 skipped 12 > 10");
        assert_eq!(v.to_string(), "skip-bound: job7 skipped 12 > 10");
        assert_eq!(v.detail, 7);
    }
}
