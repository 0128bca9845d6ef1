//! Property-based tests for scheduler invariants: EASY reservations, full
//! engine runs on arbitrary (small) workloads, and the structured event
//! stream / metrics registry the engine exports.

use proptest::prelude::*;
use rush_cluster::machine::{Machine, MachineConfig};
use rush_obs::{EventRecord, ObsEvent};
use rush_sched::easy::{backfill_allowed, compute_reservation, RunningSnapshot};
use rush_sched::engine::{BackfillPolicy, ScheduleResult, SchedulerConfig, SchedulerEngine};
use rush_sched::predictor::{AlwaysFails, CongestionOracle, NeverVaries};
use rush_sched::trace::TraceEvent;
use rush_sched::{AuditConfig, AuditPolicy, RetryPolicy};
use rush_simkit::fault::FaultConfig;
use rush_simkit::time::{SimDuration, SimTime};
use rush_workloads::apps::AppId;
use rush_workloads::jobgen::JobRequest;
use rush_workloads::scaling::ScalingMode;

/// Number of events in the stream matching `pred`.
fn count_events(events: &[EventRecord], pred: impl Fn(&ObsEvent) -> bool) -> u64 {
    events.iter().filter(|r| pred(&r.event)).count() as u64
}

/// Reads a registry counter that must exist on every traced run.
fn counter(result: &ScheduleResult, name: &str) -> u64 {
    result
        .metrics
        .counter_by_name(name)
        .unwrap_or_else(|| panic!("registry must carry {name}"))
}

fn snapshot() -> impl Strategy<Value = RunningSnapshot> {
    (0u64..1000, 1u32..16).prop_map(|(end, nodes)| RunningSnapshot {
        est_end: SimTime::from_secs(end),
        nodes,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reservation_shadow_is_feasible(
        free in 0u32..16,
        needed in 1u32..32,
        running in proptest::collection::vec(snapshot(), 0..8),
    ) {
        let now = SimTime::from_secs(10);
        match compute_reservation(now, free, needed, &running) {
            None => {
                // Either it fits now, or it can never fit.
                let total: u32 = free + running.iter().map(|r| r.nodes).sum::<u32>();
                prop_assert!(needed <= free || needed > total);
            }
            Some(res) => {
                prop_assert!(res.shadow_start >= now);
                // At the shadow time, enough nodes are free by estimate:
                // free + everything estimated to end by then >= needed.
                let released: u32 = running
                    .iter()
                    .filter(|r| r.est_end.max(now) <= res.shadow_start)
                    .map(|r| r.nodes)
                    .sum();
                prop_assert!(free + released >= needed);
                prop_assert_eq!(res.extra_nodes, free + released - needed);
            }
        }
    }

    #[test]
    fn backfill_decision_is_monotone_in_estimate(
        free in 1u32..16,
        needed in 1u32..32,
        running in proptest::collection::vec(snapshot(), 1..8),
        cand_nodes in 1u32..8,
        short_end in 0u64..500,
        extra in 1u64..500,
    ) {
        let now = SimTime::from_secs(0);
        if let Some(res) = compute_reservation(now, free, needed, &running) {
            let short = SimTime::from_secs(short_end);
            let long = SimTime::from_secs(short_end + extra);
            // If the longer job may backfill, the shorter one must too.
            if backfill_allowed(now, long, cand_nodes, &res) {
                prop_assert!(backfill_allowed(now, short, cand_nodes, &res));
            }
        }
    }
}

proptest! {
    // Full engine runs are slower; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engine_completes_arbitrary_workloads(
        jobs in proptest::collection::vec(
            (0usize..7, 1u32..16, 0u64..300), 1..10),
        seed in 0u64..1000,
    ) {
        let requests: Vec<JobRequest> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(app, nodes, submit))| JobRequest {
                id: i as u64,
                app: AppId::ALL[app],
                nodes,
                submit_at: SimTime::from_secs(submit),
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            })
            .collect();
        let machine = Machine::new(MachineConfig::tiny(seed));
        let mut engine = SchedulerEngine::new(
            machine,
            SchedulerConfig::default(),
            Box::new(NeverVaries),
            seed,
        );
        let result = engine.run(&requests);

        // Everything completes exactly once.
        prop_assert_eq!(result.completed.len(), requests.len());
        let mut ids: Vec<u64> = result.completed.iter().map(|c| c.job.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), requests.len());

        for c in &result.completed {
            // Causality.
            prop_assert!(c.start_at >= c.job.submit_at);
            prop_assert!(c.end_at > c.start_at);
            // A job never finishes much faster than nominal: OS noise only
            // slows, and the two-sided intrinsic noise is a few percent.
            prop_assert!(
                c.runtime().as_secs_f64() >= c.base_runtime.as_secs_f64() * 0.85,
                "job ran implausibly fast"
            );
            prop_assert_eq!(c.nodes.len(), c.job.nodes_requested as usize);
        }

        // Capacity is never exceeded at any instant.
        let mut points: Vec<(SimTime, i64)> = Vec::new();
        for c in &result.completed {
            points.push((c.start_at, c.job.nodes_requested as i64));
            points.push((c.end_at, -(c.job.nodes_requested as i64)));
        }
        points.sort_by_key(|&(t, delta)| (t, delta));
        let mut used = 0i64;
        for (_, delta) in points {
            used += delta;
            prop_assert!(used <= 16);
        }
    }

    /// The EASY guarantee, observed end to end: once a blocked job's
    /// reservation is announced with some `shadow_start`, backfilled jobs
    /// must never push its actual start past that shadow. Estimates are
    /// made generous (`est_factor: 4.0`) so no job overruns its estimate
    /// and the reservation arithmetic is exact; shadows can then only move
    /// earlier as reality beats the estimates, so the start must come in
    /// at or before *every* shadow announced for the job. Under
    /// `BackfillPolicy::None` the same workload must announce no
    /// reservations at all.
    #[test]
    fn backfill_never_pushes_a_start_past_its_shadow(
        jobs in proptest::collection::vec(
            (0usize..7, 1u32..13, 0u64..240), 2..12),
        seed in 0u64..1000,
    ) {
        let requests: Vec<JobRequest> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(app, nodes, submit))| JobRequest {
                id: i as u64,
                app: AppId::ALL[app],
                nodes,
                submit_at: SimTime::from_secs(submit),
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            })
            .collect();
        let run = |backfill: BackfillPolicy| {
            let machine = Machine::new(MachineConfig::tiny(seed));
            let config = SchedulerConfig {
                backfill,
                est_factor: 4.0,
                ..SchedulerConfig::default()
            };
            let mut engine =
                SchedulerEngine::new(machine, config, Box::new(NeverVaries), seed)
                    .with_tracing(1 << 16);
            engine.run(&requests)
        };

        let easy = run(BackfillPolicy::Easy);
        prop_assert_eq!(easy.completed.len(), requests.len());
        // No job overran its (4x) estimate, so every reservation the
        // engine announced was computed from valid worst-case ends.
        for c in &easy.completed {
            prop_assert!(
                c.runtime() <= c.job.est_runtime,
                "estimate overrun breaks the test's premise"
            );
        }
        let start_of = |job: u64| {
            easy.completed
                .iter()
                .find(|c| c.job.id.0 == job)
                .expect("all jobs complete")
                .start_at
        };
        let mut reservations = 0u64;
        for rec in &easy.events {
            if let ObsEvent::BackfillReservation { job, shadow_start_us, .. } = rec.event {
                reservations += 1;
                let shadow = SimTime::from_micros(shadow_start_us);
                prop_assert!(
                    start_of(job) <= shadow,
                    "job {} started at {} past its announced shadow {}",
                    job,
                    start_of(job),
                    shadow
                );
            }
        }

        let none = run(BackfillPolicy::None);
        prop_assert_eq!(none.completed.len(), requests.len());
        let none_reservations = count_events(&none.events, |e| {
            matches!(e, ObsEvent::BackfillReservation { .. })
        });
        prop_assert_eq!(none_reservations, 0, "no-backfill runs reserve nothing");
        // Keep the property honest: the generator must actually produce
        // head-of-line blocking in most cases, or the assertions above are
        // vacuous. (Not asserted per-case; a single all-tiny workload can
        // legitimately never block.)
        let _ = reservations;
    }

    #[test]
    fn faulty_runs_are_deterministic_and_lose_no_jobs(
        fault_seed in 0u64..1000,
        mtbf_mins in 10u64..60,
        max_retries in 0u32..4,
        job_count in 2u64..8,
    ) {
        let config = SchedulerConfig {
            retry: RetryPolicy {
                max_retries,
                ..RetryPolicy::default()
            },
            faults: FaultConfig {
                seed: fault_seed,
                horizon: SimDuration::from_hours(2),
                node_mtbf: Some(SimDuration::from_mins(mtbf_mins)),
                node_mttr: SimDuration::from_mins(3),
                ..FaultConfig::default()
            },
            ..SchedulerConfig::default()
        };
        let requests: Vec<JobRequest> = (0..job_count)
            .map(|i| JobRequest {
                id: i,
                app: AppId::Amg,
                nodes: 4,
                submit_at: SimTime::from_secs(i),
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            })
            .collect();
        let run = || {
            let machine = Machine::new(MachineConfig::tiny(5));
            let mut engine =
                SchedulerEngine::new(machine, config, Box::new(NeverVaries), 17);
            engine.run(&requests)
        };
        let a = run();
        let b = run();

        // Same fault seed, same everything.
        let key = |r: &rush_sched::ScheduleResult| {
            (
                r.completed
                    .iter()
                    .map(|c| (c.job.id, c.start_at, c.end_at, c.nodes.clone()))
                    .collect::<Vec<_>>(),
                r.failed
                    .iter()
                    .map(|f| (f.job.id, f.attempts, f.last_killed_at))
                    .collect::<Vec<_>>(),
                r.requeues,
                r.node_failures,
                r.fallback_decisions,
            )
        };
        prop_assert_eq!(key(&a), key(&b));

        // Faults never lose a job: completed + failed == submitted.
        prop_assert_eq!(a.completed.len() + a.failed.len(), requests.len());

        // Requeue counts never exceed the retry budget, and a failed job
        // records exactly max_retries + 1 kills.
        for (_, event) in a.trace.events() {
            if let TraceEvent::Requeued(_, attempt) = event {
                prop_assert!(*attempt <= max_retries);
            }
        }
        for f in &a.failed {
            prop_assert_eq!(f.attempts, max_retries + 1);
        }
    }

    /// The structured event stream and the metrics registry must agree with
    /// each other, with the legacy trace, and with the schedule outcome on
    /// arbitrary faulty workloads.
    #[test]
    fn event_stream_and_registry_agree_with_the_schedule(
        fault_seed in 0u64..500,
        mtbf_mins in 15u64..90,
        job_count in 3u64..10,
        seed in 0u64..500,
    ) {
        let config = SchedulerConfig {
            faults: FaultConfig {
                seed: fault_seed,
                horizon: SimDuration::from_hours(2),
                node_mtbf: Some(SimDuration::from_mins(mtbf_mins)),
                node_mttr: SimDuration::from_mins(3),
                ..FaultConfig::default()
            },
            ..SchedulerConfig::default()
        };
        let requests: Vec<JobRequest> = (0..job_count)
            .map(|i| JobRequest {
                id: i,
                app: AppId::ALL[(i % 7) as usize],
                nodes: 4,
                submit_at: SimTime::from_secs(i * 30),
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            })
            .collect();
        let machine = Machine::new(MachineConfig::tiny(seed));
        let mut engine = SchedulerEngine::new(
            machine,
            config,
            Box::new(CongestionOracle::default()),
            seed,
        )
        .with_noise_job((12..16).map(rush_cluster::topology::NodeId).collect(), 8.0)
        .with_tracing(1 << 16);
        let result = engine.run(&requests);
        let events = &result.events;

        // Sequence numbers are contiguous from zero and timestamps are
        // monotone in simulation time.
        for (i, r) in events.iter().enumerate() {
            prop_assert_eq!(r.seq, i as u64);
        }
        for pair in events.windows(2) {
            prop_assert!(pair[0].at <= pair[1].at, "event time went backwards");
        }

        // Every kill is eventually resolved: a later requeue or failure of
        // the same job.
        for (i, r) in events.iter().enumerate() {
            if let ObsEvent::JobKilled { job } = r.event {
                let resolved = events[i + 1..].iter().any(|later| matches!(
                    later.event,
                    ObsEvent::JobRequeued { job: j, .. } | ObsEvent::JobFailed { job: j, .. }
                        if j == job
                ));
                prop_assert!(resolved, "kill of job {} never resolved", job);
            }
        }

        // Conservation re-asserted through the event stream: every
        // submission ends as exactly one finish or failure.
        let submitted = count_events(events, |e| matches!(e, ObsEvent::JobSubmitted { .. }));
        let finished = count_events(events, |e| matches!(e, ObsEvent::JobFinished { .. }));
        let failed = count_events(events, |e| matches!(e, ObsEvent::JobFailed { .. }));
        prop_assert_eq!(submitted, job_count);
        prop_assert_eq!(finished + failed, submitted);
        prop_assert_eq!(finished, result.completed.len() as u64);
        prop_assert_eq!(failed, result.failed.len() as u64);

        // Registry counters equal event-stream counts for every family the
        // engine emits.
        let pairs: [(&str, u64); 9] = [
            ("sched.jobs_submitted", submitted),
            ("sched.jobs_finished", finished),
            ("sched.jobs_failed", failed),
            ("sched.jobs_started",
             count_events(events, |e| matches!(e, ObsEvent::JobStarted { .. }))),
            ("sched.jobs_killed",
             count_events(events, |e| matches!(e, ObsEvent::JobKilled { .. }))),
            ("sched.requeues",
             count_events(events, |e| matches!(e, ObsEvent::JobRequeued { .. }))),
            ("sched.skips",
             count_events(events, |e| matches!(e, ObsEvent::JobSkipped { .. }))),
            ("sched.backfill_reservations",
             count_events(events, |e| matches!(e, ObsEvent::BackfillReservation { .. }))),
            ("sched.node_failures",
             count_events(events, |e| matches!(e, ObsEvent::NodeDown { .. }))),
        ];
        for (name, expected) in pairs {
            prop_assert_eq!(counter(&result, name), expected, "{} disagrees", name);
        }

        // The legacy result fields are registry-backed views of the same
        // totals, and the legacy trace agrees on delays.
        prop_assert_eq!(result.total_skips, counter(&result, "sched.skips"));
        prop_assert_eq!(result.requeues, counter(&result, "sched.requeues"));
        prop_assert_eq!(result.node_failures, counter(&result, "sched.node_failures"));
        prop_assert_eq!(
            result.trace.delay_count() as u64,
            count_events(events, |e| matches!(e, ObsEvent::JobSkipped { .. }))
        );

        // Exactly one consultation outcome per Start() decision: fallbacks
        // and verdicts partition the consultations, and only a Variation
        // verdict may skip.
        let fallbacks =
            count_events(events, |e| matches!(e, ObsEvent::PredictorFallback { .. }));
        prop_assert_eq!(result.fallback_decisions, fallbacks);
        prop_assert_eq!(
            counter(&result, "sched.predictor_verdicts"),
            count_events(events, |e| matches!(e, ObsEvent::PredictorVerdict { .. }))
        );
        prop_assert_eq!(
            counter(&result, "sched.fallback_telemetry_gap")
                + counter(&result, "sched.fallback_model_error"),
            fallbacks
        );
        prop_assert_eq!(
            count_events(events, |e| matches!(e, ObsEvent::JobSkipped { .. })),
            count_events(
                events,
                |e| matches!(e, ObsEvent::PredictorVerdict { class: 2, .. })
            ),
            "every skip must come from a Variation verdict and vice versa"
        );
    }
}

/// Regression for the PR-1 double-count bug: a `Start()` consultation that
/// falls back to plain EASY (predictor error) must count as a fallback and
/// never *also* as a RUSH skip, in both the legacy trace and the tracer.
#[test]
fn fallback_starts_never_count_as_skips() {
    let requests: Vec<JobRequest> = (0..6)
        .map(|i| JobRequest {
            id: i,
            app: AppId::Amg,
            nodes: 4,
            submit_at: SimTime::from_secs(i * 60),
            scaling: ScalingMode::Reference,
            user_est_secs: None,
        })
        .collect();
    let machine = Machine::new(MachineConfig::tiny(9));
    let mut engine = SchedulerEngine::new(
        machine,
        SchedulerConfig::default(),
        Box::new(AlwaysFails),
        9,
    )
    .with_tracing(1 << 16);
    let result = engine.run(&requests);

    let fallbacks = count_events(&result.events, |e| {
        matches!(e, ObsEvent::PredictorFallback { .. })
    });
    let started = count_events(&result.events, |e| matches!(e, ObsEvent::JobStarted { .. }));
    assert_eq!(started, 6, "every job launches under graceful degradation");
    assert_eq!(fallbacks, started, "one fallback per launch, none double");
    assert_eq!(result.fallback_decisions, fallbacks);
    assert_eq!(counter(&result, "sched.fallback_model_error"), fallbacks);
    assert_eq!(counter(&result, "sched.fallback_telemetry_gap"), 0);
    // No skip is recorded anywhere: tracer, registry, legacy trace.
    assert_eq!(
        count_events(&result.events, |e| matches!(e, ObsEvent::JobSkipped { .. })),
        0
    );
    assert_eq!(result.total_skips, 0);
    assert_eq!(counter(&result, "sched.skips"), 0);
    assert_eq!(result.trace.delay_count(), 0);
}

/// Same regression from the telemetry side: blackout windows degrade the
/// counter coverage mid-run, those consultations fall back with reason
/// `telemetry_gap`, and the skip accounting stays consistent throughout.
#[test]
fn telemetry_gap_fallbacks_do_not_double_count_skips() {
    let requests: Vec<JobRequest> = (0..20)
        .map(|i| JobRequest {
            id: i,
            app: AppId::ALL[(i % 7) as usize],
            nodes: 4,
            submit_at: SimTime::from_mins(i * 5),
            scaling: ScalingMode::Reference,
            user_est_secs: None,
        })
        .collect();
    let machine = Machine::new(MachineConfig::tiny(3));
    let mut engine = SchedulerEngine::new(
        machine,
        SchedulerConfig {
            faults: FaultConfig {
                seed: 7,
                horizon: SimDuration::from_hours(4),
                blackout_mtbf: Some(SimDuration::from_mins(15)),
                blackout_duration: SimDuration::from_mins(6),
                ..FaultConfig::default()
            },
            ..SchedulerConfig::default()
        },
        Box::new(CongestionOracle::default()),
        3,
    )
    .with_tracing(1 << 16);
    let result = engine.run(&requests);

    let gap_fallbacks = count_events(&result.events, |e| {
        matches!(
            e,
            ObsEvent::PredictorFallback {
                reason: rush_obs::FallbackReason::TelemetryGap,
                ..
            }
        )
    });
    assert!(
        gap_fallbacks > 0,
        "scenario must exercise the mid-window degradation path"
    );
    assert_eq!(
        counter(&result, "sched.fallback_telemetry_gap"),
        gap_fallbacks
    );
    // Each consultation produced exactly one outcome: fallbacks plus
    // verdicts, with skips drawn only from Variation verdicts.
    let verdicts = count_events(&result.events, |e| {
        matches!(e, ObsEvent::PredictorVerdict { .. })
    });
    let all_fallbacks = count_events(&result.events, |e| {
        matches!(e, ObsEvent::PredictorFallback { .. })
    });
    assert_eq!(result.fallback_decisions, all_fallbacks);
    assert_eq!(counter(&result, "sched.predictor_verdicts"), verdicts);
    let skipped = count_events(&result.events, |e| matches!(e, ObsEvent::JobSkipped { .. }));
    assert_eq!(
        skipped,
        count_events(&result.events, |e| {
            matches!(e, ObsEvent::PredictorVerdict { class: 2, .. })
        })
    );
    assert_eq!(result.total_skips, skipped);
    assert_eq!(result.trace.delay_count() as u64, skipped);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Crash safety, the core guarantee: for random (seed, workload,
    /// checkpoint-time) triples, checkpoint → fresh engine → resume →
    /// continue produces exactly the same schedule, trace, and metrics as
    /// running straight to the end. Faults are on, so the snapshot carries
    /// non-trivial retry, skip, and node-health state.
    #[test]
    fn checkpoint_restore_continue_equals_run_to_end(
        fault_seed in 0u64..500,
        machine_seed in 0u64..500,
        jobs in proptest::collection::vec((0usize..7, 1u32..12, 0u64..300), 1..8),
        cut_pct in 1u64..100,
    ) {
        let config = SchedulerConfig {
            faults: FaultConfig {
                seed: fault_seed,
                horizon: SimDuration::from_hours(2),
                node_mtbf: Some(SimDuration::from_mins(20)),
                node_mttr: SimDuration::from_mins(3),
                ..FaultConfig::default()
            },
            ..SchedulerConfig::default()
        };
        let requests: Vec<JobRequest> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(app, nodes, submit))| JobRequest {
                id: i as u64,
                app: AppId::ALL[app],
                nodes,
                submit_at: SimTime::from_secs(submit),
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            })
            .collect();
        let build = || {
            let machine = Machine::new(MachineConfig::tiny(machine_seed));
            SchedulerEngine::new(
                machine,
                config,
                Box::new(CongestionOracle::default()),
                17,
            )
        };
        let key = |r: &ScheduleResult| {
            (
                r.completed
                    .iter()
                    .map(|c| (c.job.id, c.start_at, c.end_at, c.nodes.clone(), c.skips))
                    .collect::<Vec<_>>(),
                r.failed
                    .iter()
                    .map(|f| (f.job.id, f.attempts, f.last_killed_at))
                    .collect::<Vec<_>>(),
                format!("{:?}", r.trace.events()),
                r.metrics.to_json(),
                (r.total_skips, r.requeues, r.node_failures, r.fallback_decisions),
            )
        };

        let mut base = build();
        base.prepare(&requests);
        while base.step().is_some() {}
        let baseline = base.finalize();

        // The checkpoint lands anywhere in the run, including (for high
        // cut_pct with an idle tail) possibly right at the end.
        let span = baseline.last_end.as_micros() - baseline.first_submit.as_micros();
        let cut = SimTime::from_micros(
            baseline.first_submit.as_micros() + span * cut_pct / 100,
        );
        let mut victim = build();
        victim.prepare(&requests);
        while victim.now() < cut && victim.step().is_some() {}
        let bytes = victim.snapshot();
        drop(victim);

        let mut fresh = build();
        fresh.prepare(&requests);
        prop_assert!(fresh.resume(&bytes).is_ok());
        while fresh.step().is_some() {}
        let resumed = fresh.finalize();

        prop_assert_eq!(key(&baseline), key(&resumed));
    }

    /// The invariant auditor, evaluated after every single event in
    /// fail-fast mode, stays silent across arbitrary un-faulted workloads:
    /// the catalog holds on every reachable engine state, and the checks
    /// actually ran.
    #[test]
    fn auditor_passes_every_reachable_state_of_unfaulted_runs(
        jobs in proptest::collection::vec((0usize..7, 1u32..16, 0u64..300), 1..8),
        seed in 0u64..1000,
    ) {
        let requests: Vec<JobRequest> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(app, nodes, submit))| JobRequest {
                id: i as u64,
                app: AppId::ALL[app],
                nodes,
                submit_at: SimTime::from_secs(submit),
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            })
            .collect();
        let config = SchedulerConfig {
            audit: AuditConfig {
                policy: AuditPolicy::FailFast,
                every_event: true,
            },
            ..SchedulerConfig::default()
        };
        let machine = Machine::new(MachineConfig::tiny(seed));
        let mut engine = SchedulerEngine::new(machine, config, Box::new(NeverVaries), seed);
        // FailFast panics on the first violation, so completion IS the
        // assertion; the counters confirm the auditor was really on.
        let result = engine.run(&requests);
        prop_assert_eq!(result.completed.len(), requests.len());
        prop_assert_eq!(result.metrics.counter_by_name("audit.violations"), Some(0));
        prop_assert!(result.metrics.counter_by_name("audit.checks").unwrap_or(0) > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The Policy trait contract, for every shipped policy including
    /// arbitrary learned weight vectors: sort keys form a strict total
    /// order over jobs with unique ids (antisymmetry via distinct keys),
    /// the order is permutation-invariant, and incremental insertion via
    /// `insertion_point` reproduces the stable full sort exactly.
    #[test]
    fn every_policy_orders_totally_and_deterministically(
        jobs in proptest::collection::vec(
            (1u32..64, 0u64..3600, 1u64..7200), 1..24),
        weights_v in proptest::collection::vec(-1e6f64..1e6, 6),
        rotate in 0usize..24,
    ) {
        use rush_sched::{Job, JobId, LearnedPolicy, PolicySpec, SORT_FACTORS};

        let mut weights = [0.0; SORT_FACTORS];
        weights.copy_from_slice(&weights_v);
        let queue: Vec<Job> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(nodes, submit, est))| Job {
                id: JobId(i as u64),
                app: AppId::ALL[i % AppId::ALL.len()],
                nodes_requested: nodes,
                submit_at: SimTime::from_secs(submit),
                scaling: ScalingMode::Reference,
                est_runtime: SimDuration::from_secs(est),
                skip_threshold: 10,
            })
            .collect();
        let specs = [
            PolicySpec::Fcfs,
            PolicySpec::Sjf,
            PolicySpec::Learned(LearnedPolicy::new(weights)),
        ];
        for spec in specs {
            let policy = spec.as_policy();
            // Strict total order: unique ids force distinct keys, which
            // gives antisymmetry (exactly one of a<b, b<a holds).
            for a in &queue {
                for b in &queue {
                    if a.id != b.id {
                        prop_assert_ne!(policy.sort_key(a), policy.sort_key(b));
                    }
                }
            }
            // Permutation invariance: sorting any rotation of the queue
            // lands in the same order.
            let mut sorted = queue.clone();
            spec.sort(&mut sorted);
            let mut rotated = queue.clone();
            rotated.rotate_left(rotate % queue.len().max(1));
            spec.sort(&mut rotated);
            let ids = |q: &[Job]| q.iter().map(|j| j.id).collect::<Vec<_>>();
            prop_assert_eq!(ids(&sorted), ids(&rotated));
            // Incremental insertion reproduces the stable sort: keys are
            // static per job, so inserting in any arrival order converges
            // to the same sequence — also when the insertions resume on a
            // prefix that was re-sorted wholesale, as the engine's queue
            // does after an out-of-order re-queue.
            for arrivals in [&queue, &rotated] {
                let mut incremental: Vec<Job> = Vec::new();
                for job in arrivals.iter() {
                    let at = spec.insertion_point(&incremental, job);
                    incremental.insert(at, job.clone());
                }
                prop_assert_eq!(ids(&sorted), ids(&incremental));
            }
            let split = rotate % (queue.len() + 1);
            let mut resumed = queue[..split].to_vec();
            spec.sort(&mut resumed);
            for job in &queue[split..] {
                let at = spec.insertion_point(&resumed, job);
                resumed.insert(at, job.clone());
            }
            prop_assert_eq!(ids(&sorted), ids(&resumed));
        }
    }

    /// Mid-episode policy retargeting survives checkpoint/resume byte-
    /// identically: an engine whose queue order was switched to a learned
    /// policy while running, snapshotted, and resumed into a fresh engine
    /// (still configured FCFS) finishes with exactly the schedule of the
    /// uninterrupted run — the live policy specs travel in the snapshot.
    #[test]
    fn learned_policy_checkpoint_resumes_byte_identically_mid_episode(
        machine_seed in 0u64..500,
        jobs in proptest::collection::vec((0usize..7, 1u32..12, 0u64..300), 2..8),
        weights_v in proptest::collection::vec(-10.0f64..10.0, 6),
        switch_pct in 1u64..60,
        cut_pct in 40u64..99,
    ) {
        use rush_sched::{LearnedPolicy, PolicySpec, SORT_FACTORS};

        let mut weights = [0.0; SORT_FACTORS];
        weights.copy_from_slice(&weights_v);
        let requests: Vec<JobRequest> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(app, nodes, submit))| JobRequest {
                id: i as u64,
                app: AppId::ALL[app],
                nodes,
                submit_at: SimTime::from_secs(submit),
                scaling: ScalingMode::Reference,
                user_est_secs: None,
            })
            .collect();
        let build = || {
            let machine = Machine::new(MachineConfig::tiny(machine_seed));
            SchedulerEngine::new(
                machine,
                SchedulerConfig::default(),
                Box::new(NeverVaries),
                23,
            )
        };
        let key = |r: &ScheduleResult| {
            (
                r.completed
                    .iter()
                    .map(|c| (c.job.id, c.start_at, c.end_at, c.nodes.clone()))
                    .collect::<Vec<_>>(),
                format!("{:?}", r.trace.events()),
                r.metrics.to_json(),
            )
        };
        let learned = PolicySpec::Learned(LearnedPolicy::new(weights));

        // Probe run: find the time span so switch/cut land inside it.
        let mut probe = build();
        probe.prepare(&requests);
        while probe.step().is_some() {}
        let probed = probe.finalize();
        let span = probed.last_end.as_micros() - probed.first_submit.as_micros();
        let at = |pct: u64| {
            SimTime::from_micros(probed.first_submit.as_micros() + span * pct / 100)
        };
        let (switch, cut) = (at(switch_pct), at(cut_pct));

        // Baseline: run straight through, retargeting the policy once the
        // clock passes `switch`.
        let run_with_switch = |engine: &mut SchedulerEngine| {
            let mut switched = false;
            loop {
                if !switched && engine.now() >= switch {
                    engine.set_queue_policy(learned, learned);
                    switched = true;
                }
                if engine.step().is_none() {
                    break;
                }
            }
        };
        let mut base = build();
        base.prepare(&requests);
        run_with_switch(&mut base);
        let baseline = base.finalize();

        // Victim: same run, snapshotted somewhere after the switch.
        let mut victim = build();
        victim.prepare(&requests);
        let mut switched = false;
        loop {
            if !switched && victim.now() >= switch {
                victim.set_queue_policy(learned, learned);
                switched = true;
            }
            if victim.now() >= cut || victim.step().is_none() {
                break;
            }
        }
        let bytes = victim.snapshot();
        drop(victim);

        // Fresh engine, default (FCFS) config: resume must restore the
        // learned specs from the snapshot body before continuing.
        let mut fresh = build();
        fresh.prepare(&requests);
        prop_assert!(fresh.resume(&bytes).is_ok());
        run_with_switch(&mut fresh);
        let resumed = fresh.finalize();

        prop_assert_eq!(key(&baseline), key(&resumed));
    }
}
