//! The structured event schema.
//!
//! Every decision point in the scheduler and ML pipeline emits exactly one
//! [`ObsEvent`] describing *what was decided*, stamped with simulation
//! time and a sequence number equal to its index in the run's append-only
//! log. Payloads are integers and enums only — no floats derived from wall
//! time, no hash-ordered collections — so a log is a pure function of the
//! run's seeds and serializes to byte-identical JSONL across runs and
//! platforms.

use crate::json::JsonObject;
use rush_simkit::snapshot::{SnapshotError, Val};
use rush_simkit::time::SimTime;
use serde::{Deserialize, Serialize};

/// Why a `Start()` decision bypassed the predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FallbackReason {
    /// Telemetry coverage of the feature window was below the quality
    /// gate's threshold; the predictor was never consulted.
    TelemetryGap,
    /// The predictor was consulted and returned an error.
    ModelError,
}

impl FallbackReason {
    /// Stable label used in trace output.
    pub fn label(self) -> &'static str {
        match self {
            FallbackReason::TelemetryGap => "telemetry_gap",
            FallbackReason::ModelError => "model_error",
        }
    }
}

/// One structured observability event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObsEvent {
    /// A job arrived in the queue.
    JobSubmitted {
        /// Job id.
        job: u64,
    },
    /// A job began execution on `nodes` nodes after `skips` RUSH delays.
    JobStarted {
        /// Job id.
        job: u64,
        /// Allocated node count.
        nodes: u32,
        /// RUSH delays the job absorbed before launching.
        skips: u32,
    },
    /// RUSH pushed a job back; `skips` is its new skip count.
    JobSkipped {
        /// Job id.
        job: u64,
        /// Skip count after this delay.
        skips: u32,
    },
    /// A node failure killed the job mid-run.
    JobKilled {
        /// Job id.
        job: u64,
    },
    /// A killed job re-entered the queue for attempt `attempt`.
    JobRequeued {
        /// Job id.
        job: u64,
        /// Kill count so far.
        attempt: u32,
    },
    /// A killed job exhausted its retry budget.
    JobFailed {
        /// Job id.
        job: u64,
        /// Total kills absorbed.
        attempts: u32,
    },
    /// A job completed.
    JobFinished {
        /// Job id.
        job: u64,
    },
    /// A job was rejected at submission: its node demand exceeds the
    /// schedulable pool, so it can never start. Rejection is an explicit
    /// outcome — one dirty record must not abort a million-job replay.
    JobRejected {
        /// Job id.
        job: u64,
        /// Nodes the job asked for.
        nodes: u32,
        /// The schedulable pool's capacity it exceeded.
        capacity: u32,
    },
    /// The predictor produced a class for a prospective launch.
    PredictorVerdict {
        /// Job id.
        job: u64,
        /// `VariabilityClass::index()` of the verdict (0/1/2).
        class: u32,
    },
    /// The engine bypassed the predictor and scheduled as plain EASY.
    PredictorFallback {
        /// Job id.
        job: u64,
        /// Why the predictor was bypassed.
        reason: FallbackReason,
    },
    /// EASY computed a reservation for the blocked head-of-queue job.
    BackfillReservation {
        /// The blocked job holding the reservation.
        job: u64,
        /// Shadow start time, microseconds.
        shadow_start_us: u64,
        /// Extra nodes available to long backfill candidates.
        extra_nodes: u32,
    },
    /// A node crashed.
    NodeDown {
        /// Node index.
        node: u32,
    },
    /// A node was repaired (telemetry resumes; placement still quarantined).
    NodeUp {
        /// Node index.
        node: u32,
    },
    /// A repaired node finished probation and rejoined the placement pool.
    NodeTrusted {
        /// Node index.
        node: u32,
    },
    /// The runtime auditor found an invariant violation.
    AuditViolation {
        /// Index of the violated invariant (see `rush_sched::audit`).
        invariant: u32,
        /// Invariant-specific context (a job id, node count, or time in
        /// microseconds, depending on the invariant).
        detail: u64,
    },
    /// The predictor service's drift detector fired: rolling accuracy fell
    /// more than the configured threshold below the reference accuracy.
    PredictorDrift {
        /// Drift score (reference − rolling accuracy) in milli-units.
        score_milli: u32,
    },
    /// The predictor service trained a candidate model on its window.
    PredictorRetrain {
        /// Version the candidate will take if it is promoted.
        version: u32,
        /// Labeled samples the candidate trained on.
        samples: u32,
    },
    /// A candidate model began shadow evaluation alongside the live model.
    PredictorShadowStart {
        /// Candidate version under evaluation.
        version: u32,
        /// Decisions the shadow phase will observe.
        decisions: u32,
    },
    /// The candidate beat the incumbent and was atomically hot-swapped in.
    PredictorSwap {
        /// Version that was serving before the swap.
        from_version: u32,
        /// Version now serving.
        to_version: u32,
    },
    /// A post-swap regression was detected; the previous version is back.
    PredictorRollback {
        /// The regressed version being evicted.
        from_version: u32,
        /// Version now serving (a fresh number, restoring the old model).
        to_version: u32,
    },
    /// A node became a straggler: still in service, running slow.
    NodeDegraded {
        /// Node index.
        node: u32,
        /// Speed factor while degraded, milli-units of nominal.
        factor_milli: u32,
    },
    /// A straggler node recovered nominal speed.
    NodeRestored {
        /// Node index.
        node: u32,
    },
    /// An injected fabric-contention storm began in a region (pod).
    StormStarted {
        /// Region (pod) index.
        region: u32,
        /// Added link utilization, milli-units.
        intensity_milli: u32,
    },
    /// The contention storm in a region subsided.
    StormEnded {
        /// Region (pod) index.
        region: u32,
    },
    /// A node started a crash/repair flap burst (each cycle also emits its
    /// own `node_down`/`node_up` pair).
    NodeFlapped {
        /// Node index.
        node: u32,
        /// Remaining down/up cycles including this one.
        cycles: u32,
    },
    /// The policy trainer finished one CEM round. Scores are mean bounded
    /// slowdowns in milli-units (the trainer maximizes their negation;
    /// lower is better here).
    PolicyTrainRound {
        /// Round index, from 0.
        round: u32,
        /// Best candidate's mean bounded slowdown this round, milli-units.
        best_bsld_milli: u64,
        /// Elite-set mean bounded slowdown this round, milli-units.
        elite_bsld_milli: u64,
    },
    /// A head-to-head evaluation scored one scheme.
    PolicyEvaluated {
        /// Scheme index in `EvalScheme::ALL` order (0 = FCFS, 1 = EASY,
        /// 2 = RUSH, 3 = learned).
        scheme: u32,
        /// Mean bounded slowdown across episodes, milli-units.
        bsld_milli: u64,
        /// Episodes averaged.
        episodes: u32,
    },
}

/// Payload field count of each [`ObsEvent::to_val`] tag, indexed by tag.
const ARITY: [usize; 27] = [
    1, 3, 2, 1, 2, 2, 1, 2, 2, 3, 1, 1, 1, 2, 1, 2, 2, 2, 2, 3, 2, 1, 2, 1, 2, 3, 3,
];

impl ObsEvent {
    /// Stable `kind` label used in trace output.
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::JobSubmitted { .. } => "job_submitted",
            ObsEvent::JobStarted { .. } => "job_started",
            ObsEvent::JobSkipped { .. } => "job_skipped",
            ObsEvent::JobKilled { .. } => "job_killed",
            ObsEvent::JobRequeued { .. } => "job_requeued",
            ObsEvent::JobFailed { .. } => "job_failed",
            ObsEvent::JobFinished { .. } => "job_finished",
            ObsEvent::JobRejected { .. } => "job_rejected",
            ObsEvent::PredictorVerdict { .. } => "predictor_verdict",
            ObsEvent::PredictorFallback { .. } => "predictor_fallback",
            ObsEvent::BackfillReservation { .. } => "backfill_reservation",
            ObsEvent::NodeDown { .. } => "node_down",
            ObsEvent::NodeUp { .. } => "node_up",
            ObsEvent::NodeTrusted { .. } => "node_trusted",
            ObsEvent::AuditViolation { .. } => "audit_violation",
            ObsEvent::PredictorDrift { .. } => "predictor_drift",
            ObsEvent::PredictorRetrain { .. } => "predictor_retrain",
            ObsEvent::PredictorShadowStart { .. } => "predictor_shadow_start",
            ObsEvent::PredictorSwap { .. } => "predictor_swap",
            ObsEvent::PredictorRollback { .. } => "predictor_rollback",
            ObsEvent::NodeDegraded { .. } => "node_degraded",
            ObsEvent::NodeRestored { .. } => "node_restored",
            ObsEvent::StormStarted { .. } => "storm_started",
            ObsEvent::StormEnded { .. } => "storm_ended",
            ObsEvent::NodeFlapped { .. } => "node_flapped",
            ObsEvent::PolicyTrainRound { .. } => "policy_train_round",
            ObsEvent::PolicyEvaluated { .. } => "policy_evaluated",
        }
    }

    /// The job this event concerns; `None` for node-level events.
    pub fn job(&self) -> Option<u64> {
        match *self {
            ObsEvent::JobSubmitted { job }
            | ObsEvent::JobStarted { job, .. }
            | ObsEvent::JobSkipped { job, .. }
            | ObsEvent::JobKilled { job }
            | ObsEvent::JobRequeued { job, .. }
            | ObsEvent::JobFailed { job, .. }
            | ObsEvent::JobFinished { job }
            | ObsEvent::JobRejected { job, .. }
            | ObsEvent::PredictorVerdict { job, .. }
            | ObsEvent::PredictorFallback { job, .. }
            | ObsEvent::BackfillReservation { job, .. } => Some(job),
            ObsEvent::NodeDown { .. }
            | ObsEvent::NodeUp { .. }
            | ObsEvent::NodeTrusted { .. }
            | ObsEvent::AuditViolation { .. }
            | ObsEvent::PredictorDrift { .. }
            | ObsEvent::PredictorRetrain { .. }
            | ObsEvent::PredictorShadowStart { .. }
            | ObsEvent::PredictorSwap { .. }
            | ObsEvent::PredictorRollback { .. }
            | ObsEvent::NodeDegraded { .. }
            | ObsEvent::NodeRestored { .. }
            | ObsEvent::StormStarted { .. }
            | ObsEvent::StormEnded { .. }
            | ObsEvent::NodeFlapped { .. }
            | ObsEvent::PolicyTrainRound { .. }
            | ObsEvent::PolicyEvaluated { .. } => None,
        }
    }

    /// True for the ten job and node lifecycle kinds (submitted, started,
    /// skipped, killed, requeued, failed, finished, rejected, node down,
    /// node up): the instants at which the engine samples its queue-length
    /// and busy-node series.
    pub fn is_lifecycle(&self) -> bool {
        matches!(
            self,
            ObsEvent::JobSubmitted { .. }
                | ObsEvent::JobStarted { .. }
                | ObsEvent::JobSkipped { .. }
                | ObsEvent::JobKilled { .. }
                | ObsEvent::JobRequeued { .. }
                | ObsEvent::JobFailed { .. }
                | ObsEvent::JobFinished { .. }
                | ObsEvent::JobRejected { .. }
                | ObsEvent::NodeDown { .. }
                | ObsEvent::NodeUp { .. }
        )
    }

    /// Encodes the event as a compact integer list `[tag, fields...]` for
    /// snapshots. The tag values are part of the snapshot format and must
    /// never be renumbered.
    pub fn to_val(&self) -> Val {
        let v = |items: Vec<u64>| Val::List(items.into_iter().map(Val::U64).collect());
        match *self {
            ObsEvent::JobSubmitted { job } => v(vec![0, job]),
            ObsEvent::JobStarted { job, nodes, skips } => {
                v(vec![1, job, u64::from(nodes), u64::from(skips)])
            }
            ObsEvent::JobSkipped { job, skips } => v(vec![2, job, u64::from(skips)]),
            ObsEvent::JobKilled { job } => v(vec![3, job]),
            ObsEvent::JobRequeued { job, attempt } => v(vec![4, job, u64::from(attempt)]),
            ObsEvent::JobFailed { job, attempts } => v(vec![5, job, u64::from(attempts)]),
            ObsEvent::JobFinished { job } => v(vec![6, job]),
            ObsEvent::PredictorVerdict { job, class } => v(vec![7, job, u64::from(class)]),
            ObsEvent::PredictorFallback { job, reason } => {
                let r = match reason {
                    FallbackReason::TelemetryGap => 0,
                    FallbackReason::ModelError => 1,
                };
                v(vec![8, job, r])
            }
            ObsEvent::BackfillReservation {
                job,
                shadow_start_us,
                extra_nodes,
            } => v(vec![9, job, shadow_start_us, u64::from(extra_nodes)]),
            ObsEvent::NodeDown { node } => v(vec![10, u64::from(node)]),
            ObsEvent::NodeUp { node } => v(vec![11, u64::from(node)]),
            ObsEvent::NodeTrusted { node } => v(vec![12, u64::from(node)]),
            ObsEvent::AuditViolation { invariant, detail } => {
                v(vec![13, u64::from(invariant), detail])
            }
            ObsEvent::PredictorDrift { score_milli } => v(vec![14, u64::from(score_milli)]),
            ObsEvent::PredictorRetrain { version, samples } => {
                v(vec![15, u64::from(version), u64::from(samples)])
            }
            ObsEvent::PredictorShadowStart { version, decisions } => {
                v(vec![16, u64::from(version), u64::from(decisions)])
            }
            ObsEvent::PredictorSwap {
                from_version,
                to_version,
            } => v(vec![17, u64::from(from_version), u64::from(to_version)]),
            ObsEvent::PredictorRollback {
                from_version,
                to_version,
            } => v(vec![18, u64::from(from_version), u64::from(to_version)]),
            ObsEvent::JobRejected {
                job,
                nodes,
                capacity,
            } => v(vec![19, job, u64::from(nodes), u64::from(capacity)]),
            ObsEvent::NodeDegraded { node, factor_milli } => {
                v(vec![20, u64::from(node), u64::from(factor_milli)])
            }
            ObsEvent::NodeRestored { node } => v(vec![21, u64::from(node)]),
            ObsEvent::StormStarted {
                region,
                intensity_milli,
            } => v(vec![22, u64::from(region), u64::from(intensity_milli)]),
            ObsEvent::StormEnded { region } => v(vec![23, u64::from(region)]),
            ObsEvent::NodeFlapped { node, cycles } => {
                v(vec![24, u64::from(node), u64::from(cycles)])
            }
            ObsEvent::PolicyTrainRound {
                round,
                best_bsld_milli,
                elite_bsld_milli,
            } => v(vec![
                25,
                u64::from(round),
                best_bsld_milli,
                elite_bsld_milli,
            ]),
            ObsEvent::PolicyEvaluated {
                scheme,
                bsld_milli,
                episodes,
            } => v(vec![26, u64::from(scheme), bsld_milli, u64::from(episodes)]),
        }
    }

    /// Decodes an event encoded by [`ObsEvent::to_val`]. A list whose length
    /// does not match its tag, or a `u32` field above `u32::MAX`, is a
    /// [`SnapshotError::Schema`] error.
    pub fn from_val(v: &Val) -> Result<Self, SnapshotError> {
        let items = v.as_list()?;
        let field = |i: usize| -> Result<u64, SnapshotError> {
            items
                .get(i)
                .ok_or_else(|| SnapshotError::Schema("short event".to_string()))?
                .as_u64()
        };
        let small = |i: usize| -> Result<u32, SnapshotError> {
            let x = field(i)?;
            u32::try_from(x)
                .map_err(|_| SnapshotError::Schema(format!("event field {i} = {x} exceeds u32")))
        };
        let tag = field(0)?;
        match usize::try_from(tag).ok().and_then(|t| ARITY.get(t)) {
            Some(&n) if items.len() == n + 1 => {}
            Some(&n) => {
                return Err(SnapshotError::Schema(format!(
                    "event tag {tag} takes {n} fields, got {}",
                    items.len() - 1
                )));
            }
            None => return Err(SnapshotError::Schema(format!("event tag {tag}"))),
        }
        Ok(match tag {
            0 => ObsEvent::JobSubmitted { job: field(1)? },
            1 => ObsEvent::JobStarted {
                job: field(1)?,
                nodes: small(2)?,
                skips: small(3)?,
            },
            2 => ObsEvent::JobSkipped {
                job: field(1)?,
                skips: small(2)?,
            },
            3 => ObsEvent::JobKilled { job: field(1)? },
            4 => ObsEvent::JobRequeued {
                job: field(1)?,
                attempt: small(2)?,
            },
            5 => ObsEvent::JobFailed {
                job: field(1)?,
                attempts: small(2)?,
            },
            6 => ObsEvent::JobFinished { job: field(1)? },
            7 => ObsEvent::PredictorVerdict {
                job: field(1)?,
                class: small(2)?,
            },
            8 => ObsEvent::PredictorFallback {
                job: field(1)?,
                reason: match field(2)? {
                    0 => FallbackReason::TelemetryGap,
                    1 => FallbackReason::ModelError,
                    other => {
                        return Err(SnapshotError::Schema(format!("fallback reason {other}")));
                    }
                },
            },
            9 => ObsEvent::BackfillReservation {
                job: field(1)?,
                shadow_start_us: field(2)?,
                extra_nodes: small(3)?,
            },
            10 => ObsEvent::NodeDown { node: small(1)? },
            11 => ObsEvent::NodeUp { node: small(1)? },
            12 => ObsEvent::NodeTrusted { node: small(1)? },
            13 => ObsEvent::AuditViolation {
                invariant: small(1)?,
                detail: field(2)?,
            },
            14 => ObsEvent::PredictorDrift {
                score_milli: small(1)?,
            },
            15 => ObsEvent::PredictorRetrain {
                version: small(1)?,
                samples: small(2)?,
            },
            16 => ObsEvent::PredictorShadowStart {
                version: small(1)?,
                decisions: small(2)?,
            },
            17 => ObsEvent::PredictorSwap {
                from_version: small(1)?,
                to_version: small(2)?,
            },
            18 => ObsEvent::PredictorRollback {
                from_version: small(1)?,
                to_version: small(2)?,
            },
            19 => ObsEvent::JobRejected {
                job: field(1)?,
                nodes: small(2)?,
                capacity: small(3)?,
            },
            20 => ObsEvent::NodeDegraded {
                node: small(1)?,
                factor_milli: small(2)?,
            },
            21 => ObsEvent::NodeRestored { node: small(1)? },
            22 => ObsEvent::StormStarted {
                region: small(1)?,
                intensity_milli: small(2)?,
            },
            23 => ObsEvent::StormEnded { region: small(1)? },
            24 => ObsEvent::NodeFlapped {
                node: small(1)?,
                cycles: small(2)?,
            },
            25 => ObsEvent::PolicyTrainRound {
                round: small(1)?,
                best_bsld_milli: field(2)?,
                elite_bsld_milli: field(3)?,
            },
            26 => ObsEvent::PolicyEvaluated {
                scheme: small(1)?,
                bsld_milli: field(2)?,
                episodes: small(3)?,
            },
            _ => unreachable!("ARITY covers exactly the known tags"),
        })
    }
}

/// One entry of a run's event log: sequence number, simulation timestamp,
/// payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventRecord {
    /// The record's index in its log (0-based, contiguous).
    pub seq: u64,
    /// Simulation time of the event.
    pub at: SimTime,
    /// The event payload.
    pub event: ObsEvent,
}

impl EventRecord {
    /// Renders the record as one canonical JSON line (no trailing newline).
    ///
    /// Key order is fixed: `seq`, `t_us`, `kind`, then payload fields in
    /// declaration order.
    pub fn to_json_line(&self) -> String {
        let base = JsonObject::new()
            .u64("seq", self.seq)
            .u64("t_us", self.at.as_micros())
            .str("kind", self.event.kind());
        let obj = match self.event {
            ObsEvent::JobSubmitted { job }
            | ObsEvent::JobKilled { job }
            | ObsEvent::JobFinished { job } => base.u64("job", job),
            ObsEvent::JobStarted { job, nodes, skips } => base
                .u64("job", job)
                .u64("nodes", nodes as u64)
                .u64("skips", skips as u64),
            ObsEvent::JobSkipped { job, skips } => base.u64("job", job).u64("skips", skips as u64),
            ObsEvent::JobRequeued { job, attempt } => {
                base.u64("job", job).u64("attempt", attempt as u64)
            }
            ObsEvent::JobFailed { job, attempts } => {
                base.u64("job", job).u64("attempts", attempts as u64)
            }
            ObsEvent::PredictorVerdict { job, class } => {
                base.u64("job", job).u64("class", class as u64)
            }
            ObsEvent::PredictorFallback { job, reason } => {
                base.u64("job", job).str("reason", reason.label())
            }
            ObsEvent::JobRejected {
                job,
                nodes,
                capacity,
            } => base
                .u64("job", job)
                .u64("nodes", nodes as u64)
                .u64("capacity", capacity as u64),
            ObsEvent::BackfillReservation {
                job,
                shadow_start_us,
                extra_nodes,
            } => base
                .u64("job", job)
                .u64("shadow_start_us", shadow_start_us)
                .u64("extra_nodes", extra_nodes as u64),
            ObsEvent::NodeDown { node }
            | ObsEvent::NodeUp { node }
            | ObsEvent::NodeTrusted { node } => base.u64("node", node as u64),
            ObsEvent::AuditViolation { invariant, detail } => base
                .u64("invariant", invariant as u64)
                .u64("detail", detail),
            ObsEvent::PredictorDrift { score_milli } => base.u64("score_milli", score_milli as u64),
            ObsEvent::PredictorRetrain { version, samples } => base
                .u64("version", version as u64)
                .u64("samples", samples as u64),
            ObsEvent::PredictorShadowStart { version, decisions } => base
                .u64("version", version as u64)
                .u64("decisions", decisions as u64),
            ObsEvent::PredictorSwap {
                from_version,
                to_version,
            } => base
                .u64("from_version", from_version as u64)
                .u64("to_version", to_version as u64),
            ObsEvent::PredictorRollback {
                from_version,
                to_version,
            } => base
                .u64("from_version", from_version as u64)
                .u64("to_version", to_version as u64),
            ObsEvent::NodeDegraded { node, factor_milli } => base
                .u64("node", node as u64)
                .u64("factor_milli", factor_milli as u64),
            ObsEvent::NodeRestored { node } => base.u64("node", node as u64),
            ObsEvent::StormStarted {
                region,
                intensity_milli,
            } => base
                .u64("region", region as u64)
                .u64("intensity_milli", intensity_milli as u64),
            ObsEvent::StormEnded { region } => base.u64("region", region as u64),
            ObsEvent::NodeFlapped { node, cycles } => {
                base.u64("node", node as u64).u64("cycles", cycles as u64)
            }
            ObsEvent::PolicyTrainRound {
                round,
                best_bsld_milli,
                elite_bsld_milli,
            } => base
                .u64("round", round as u64)
                .u64("best_bsld_milli", best_bsld_milli)
                .u64("elite_bsld_milli", elite_bsld_milli),
            ObsEvent::PolicyEvaluated {
                scheme,
                bsld_milli,
                episodes,
            } => base
                .u64("scheme", scheme as u64)
                .u64("bsld_milli", bsld_milli)
                .u64("episodes", episodes as u64),
        };
        obj.finish()
    }
}

/// Renders records as JSON Lines (one `\n`-terminated object per record).
/// Byte-deterministic for identical logs.
pub fn records_to_jsonl(records: &[EventRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json_line());
        out.push('\n');
    }
    out
}

/// Snapshot encoding of a log: one `[t_us, event]` pair per record. The
/// sequence numbers are not stored, since each equals its record's index.
pub fn records_to_val(records: &[EventRecord]) -> Val {
    Val::List(
        records
            .iter()
            .map(|r| Val::List(vec![Val::U64(r.at.as_micros()), r.event.to_val()]))
            .collect(),
    )
}

/// Inverse of [`records_to_val`]; each record's `seq` is its index.
pub fn records_from_val(v: &Val) -> Result<Vec<EventRecord>, SnapshotError> {
    v.as_list()?
        .iter()
        .enumerate()
        .map(|(i, pair)| match pair.as_list()? {
            [at, event] => Ok(EventRecord {
                seq: i as u64,
                at: SimTime::from_micros(at.as_u64()?),
                event: ObsEvent::from_val(event)?,
            }),
            _ => Err(SnapshotError::Schema(format!("log record {i}"))),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(event: ObsEvent) -> EventRecord {
        EventRecord {
            seq: 7,
            at: SimTime::from_secs(2),
            event,
        }
    }

    #[test]
    fn kinds_and_jobs() {
        assert_eq!(ObsEvent::JobSubmitted { job: 1 }.kind(), "job_submitted");
        assert_eq!(ObsEvent::JobSubmitted { job: 1 }.job(), Some(1));
        assert_eq!(ObsEvent::NodeDown { node: 3 }.job(), None);
        assert_eq!(ObsEvent::NodeTrusted { node: 3 }.kind(), "node_trusted");
        assert_eq!(FallbackReason::TelemetryGap.label(), "telemetry_gap");
        assert_eq!(FallbackReason::ModelError.label(), "model_error");
    }

    #[test]
    fn json_lines_have_fixed_key_order() {
        let line = record(ObsEvent::JobStarted {
            job: 4,
            nodes: 16,
            skips: 2,
        })
        .to_json_line();
        assert_eq!(
            line,
            "{\"seq\":7,\"t_us\":2000000,\"kind\":\"job_started\",\"job\":4,\"nodes\":16,\"skips\":2}"
        );
    }

    #[test]
    fn fallback_line_carries_reason() {
        let line = record(ObsEvent::PredictorFallback {
            job: 9,
            reason: FallbackReason::ModelError,
        })
        .to_json_line();
        assert!(
            line.ends_with("\"job\":9,\"reason\":\"model_error\"}"),
            "{line}"
        );
    }

    #[test]
    fn every_variant_renders_its_kind() {
        let variants = [
            ObsEvent::JobSubmitted { job: 0 },
            ObsEvent::JobStarted {
                job: 0,
                nodes: 1,
                skips: 0,
            },
            ObsEvent::JobSkipped { job: 0, skips: 1 },
            ObsEvent::JobKilled { job: 0 },
            ObsEvent::JobRequeued { job: 0, attempt: 1 },
            ObsEvent::JobFailed {
                job: 0,
                attempts: 2,
            },
            ObsEvent::JobFinished { job: 0 },
            ObsEvent::JobRejected {
                job: 0,
                nodes: 4096,
                capacity: 64,
            },
            ObsEvent::PredictorVerdict { job: 0, class: 2 },
            ObsEvent::PredictorFallback {
                job: 0,
                reason: FallbackReason::TelemetryGap,
            },
            ObsEvent::BackfillReservation {
                job: 0,
                shadow_start_us: 5,
                extra_nodes: 3,
            },
            ObsEvent::NodeDown { node: 0 },
            ObsEvent::NodeUp { node: 0 },
            ObsEvent::NodeTrusted { node: 0 },
            ObsEvent::AuditViolation {
                invariant: 2,
                detail: 99,
            },
            ObsEvent::PredictorDrift { score_milli: 180 },
            ObsEvent::PredictorRetrain {
                version: 2,
                samples: 64,
            },
            ObsEvent::PredictorShadowStart {
                version: 2,
                decisions: 32,
            },
            ObsEvent::PredictorSwap {
                from_version: 1,
                to_version: 2,
            },
            ObsEvent::PredictorRollback {
                from_version: 2,
                to_version: 3,
            },
            ObsEvent::NodeDegraded {
                node: 4,
                factor_milli: 500,
            },
            ObsEvent::NodeRestored { node: 4 },
            ObsEvent::StormStarted {
                region: 1,
                intensity_milli: 700,
            },
            ObsEvent::StormEnded { region: 1 },
            ObsEvent::NodeFlapped { node: 6, cycles: 3 },
            ObsEvent::PolicyTrainRound {
                round: 2,
                best_bsld_milli: 1_250,
                elite_bsld_milli: 1_900,
            },
            ObsEvent::PolicyEvaluated {
                scheme: 3,
                bsld_milli: 1_100,
                episodes: 4,
            },
        ];
        for e in variants {
            let line = record(e).to_json_line();
            assert!(
                line.contains(&format!("\"kind\":\"{}\"", e.kind())),
                "{line}"
            );
        }
    }

    #[test]
    fn every_variant_round_trips_through_val() {
        let variants = [
            ObsEvent::JobSubmitted { job: 3 },
            ObsEvent::JobStarted {
                job: 1,
                nodes: 64,
                skips: 2,
            },
            ObsEvent::JobSkipped { job: 5, skips: 1 },
            ObsEvent::JobKilled { job: 8 },
            ObsEvent::JobRequeued { job: 8, attempt: 1 },
            ObsEvent::JobFailed {
                job: 8,
                attempts: 3,
            },
            ObsEvent::JobFinished { job: 1 },
            ObsEvent::JobRejected {
                job: 6,
                nodes: 100_000,
                capacity: 480,
            },
            ObsEvent::PredictorVerdict { job: 2, class: 2 },
            ObsEvent::PredictorFallback {
                job: 2,
                reason: FallbackReason::TelemetryGap,
            },
            ObsEvent::PredictorFallback {
                job: 2,
                reason: FallbackReason::ModelError,
            },
            ObsEvent::BackfillReservation {
                job: 4,
                shadow_start_us: 123_456,
                extra_nodes: 7,
            },
            ObsEvent::NodeDown { node: 12 },
            ObsEvent::NodeUp { node: 12 },
            ObsEvent::NodeTrusted { node: 12 },
            ObsEvent::AuditViolation {
                invariant: 4,
                detail: 17,
            },
            ObsEvent::PredictorDrift { score_milli: 250 },
            ObsEvent::PredictorRetrain {
                version: 3,
                samples: 128,
            },
            ObsEvent::PredictorShadowStart {
                version: 3,
                decisions: 16,
            },
            ObsEvent::PredictorSwap {
                from_version: 2,
                to_version: 3,
            },
            ObsEvent::PredictorRollback {
                from_version: 3,
                to_version: 4,
            },
            ObsEvent::NodeDegraded {
                node: 9,
                factor_milli: 250,
            },
            ObsEvent::NodeRestored { node: 9 },
            ObsEvent::StormStarted {
                region: 2,
                intensity_milli: 900,
            },
            ObsEvent::StormEnded { region: 2 },
            ObsEvent::NodeFlapped {
                node: 15,
                cycles: 5,
            },
            ObsEvent::PolicyTrainRound {
                round: 5,
                best_bsld_milli: 3_000,
                elite_bsld_milli: 4_500,
            },
            ObsEvent::PolicyEvaluated {
                scheme: 0,
                bsld_milli: 9_000,
                episodes: 2,
            },
        ];
        for e in variants {
            assert_eq!(ObsEvent::from_val(&e.to_val()).unwrap(), e);
        }

        let list = |items: &[u64]| Val::List(items.iter().copied().map(Val::U64).collect());
        let rejected = |v: Val| {
            assert!(
                matches!(ObsEvent::from_val(&v), Err(SnapshotError::Schema(_))),
                "{v:?} must be a schema error"
            );
        };
        // A u32 field above u32::MAX is rejected, not truncated.
        let too_big = u64::from(u32::MAX) + 1;
        rejected(list(&[1, 1, too_big, 0]));
        rejected(list(&[10, too_big]));
        assert_eq!(
            ObsEvent::from_val(&list(&[10, u64::from(u32::MAX)])).unwrap(),
            ObsEvent::NodeDown { node: u32::MAX }
        );
        // The list length must match the tag: no trailing items, none short.
        rejected(list(&[0, 3, 0]));
        rejected(list(&[9, 4, 123_456, 7, 1]));
        rejected(list(&[1, 1, 64]));
        rejected(list(&[0]));
        // Unknown tags and enum values stay errors.
        rejected(list(&[27, 0]));
        rejected(list(&[8, 2, 2]));
    }

    #[test]
    fn records_render_as_json_lines_and_round_trip() {
        let records: Vec<EventRecord> = [
            ObsEvent::JobSubmitted { job: 1 },
            ObsEvent::JobStarted {
                job: 1,
                nodes: 4,
                skips: 0,
            },
            ObsEvent::JobFinished { job: 1 },
        ]
        .into_iter()
        .enumerate()
        .map(|(i, event)| EventRecord {
            seq: i as u64,
            at: SimTime::from_secs(5 * i as u64),
            event,
        })
        .collect();
        let jsonl = records_to_jsonl(&records);
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.starts_with("{\"seq\":0,\"t_us\":0,\"kind\":\"job_submitted\""));
        assert!(jsonl.ends_with("\"kind\":\"job_finished\",\"job\":1}\n"));
        assert_eq!(
            records_from_val(&records_to_val(&records)).unwrap(),
            records
        );

        // A record that is not a `[t_us, event]` pair is a schema error.
        let bad = Val::List(vec![Val::List(vec![Val::U64(0)])]);
        assert!(matches!(
            records_from_val(&bad),
            Err(SnapshotError::Schema(_))
        ));
    }
}
