//! Property-based tests for the observability layer: the event-log codec,
//! JSONL determinism, and registry export stability.

use proptest::prelude::*;
use rush_obs::event::{records_from_val, records_to_val};
use rush_obs::{records_to_jsonl, EventRecord, MetricsRegistry, ObsEvent};
use rush_simkit::time::SimTime;

fn arb_event() -> impl Strategy<Value = ObsEvent> {
    prop_oneof![
        (0u64..100).prop_map(|job| ObsEvent::JobSubmitted { job }),
        (0u64..100, 1u32..64, 0u32..8).prop_map(|(job, nodes, skips)| ObsEvent::JobStarted {
            job,
            nodes,
            skips
        }),
        (0u64..100, 1u32..8).prop_map(|(job, skips)| ObsEvent::JobSkipped { job, skips }),
        (0u64..100).prop_map(|job| ObsEvent::JobKilled { job }),
        (0u64..100, 1u32..4).prop_map(|(job, attempt)| ObsEvent::JobRequeued { job, attempt }),
        (0u64..100).prop_map(|job| ObsEvent::JobFinished { job }),
        (0u64..100, 0u32..3).prop_map(|(job, class)| ObsEvent::PredictorVerdict { job, class }),
        (0u32..64).prop_map(|node| ObsEvent::NodeDown { node }),
        (0u32..64).prop_map(|node| ObsEvent::NodeUp { node }),
    ]
}

/// The log a run would keep for `events`: one record per event, `seq` equal
/// to its index, timestamps in simulation order.
fn log_of(events: &[(u64, ObsEvent)]) -> Vec<EventRecord> {
    let mut sorted = events.to_vec();
    sorted.sort_by_key(|&(t, _)| t);
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, (t, event))| EventRecord {
            seq: i as u64,
            at: SimTime::from_secs(t),
            event,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn log_codec_round_trips_every_record(
        events in proptest::collection::vec((0u64..10_000, arb_event()), 0..200),
    ) {
        // The snapshot codec stores no sequence numbers: decoding restores
        // each as its index, so a log survives the round trip exactly.
        let log = log_of(&events);
        let decoded = records_from_val(&records_to_val(&log)).expect("valid log decodes");
        prop_assert_eq!(&decoded, &log);
        for (i, r) in decoded.iter().enumerate() {
            prop_assert_eq!(r.seq, i as u64);
        }
    }

    #[test]
    fn identical_streams_serialize_to_identical_bytes(
        events in proptest::collection::vec((0u64..10_000, arb_event()), 0..100),
    ) {
        let a = records_to_jsonl(&log_of(&events));
        let b = records_to_jsonl(&log_of(&events));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.lines().count(), events.len());
    }

    #[test]
    fn jsonl_lines_are_parseable_shape(
        events in proptest::collection::vec((0u64..10_000, arb_event()), 1..50),
    ) {
        for line in records_to_jsonl(&log_of(&events)).lines() {
            prop_assert!(line.starts_with("{\"seq\":"), "{}", line);
            prop_assert!(line.ends_with('}'), "{}", line);
            prop_assert!(line.contains("\"t_us\":"), "{}", line);
            prop_assert!(line.contains("\"kind\":\""), "{}", line);
        }
    }

    #[test]
    fn registry_counter_sums_match_event_stream(
        events in proptest::collection::vec(arb_event(), 0..200),
    ) {
        // Counting through the registry must agree with counting the raw
        // stream — the invariant the scheduler integration relies on.
        let mut reg = MetricsRegistry::new();
        let submitted = reg.register_counter("sched.jobs_submitted");
        let started = reg.register_counter("sched.jobs_started");
        let finished = reg.register_counter("sched.jobs_finished");
        for e in &events {
            match e {
                ObsEvent::JobSubmitted { .. } => reg.inc(submitted),
                ObsEvent::JobStarted { .. } => reg.inc(started),
                ObsEvent::JobFinished { .. } => reg.inc(finished),
                _ => {}
            }
        }
        let count = |pred: fn(&ObsEvent) -> bool| events.iter().filter(|e| pred(e)).count() as u64;
        prop_assert_eq!(
            reg.counter(submitted),
            count(|e| matches!(e, ObsEvent::JobSubmitted { .. }))
        );
        prop_assert_eq!(
            reg.counter(started),
            count(|e| matches!(e, ObsEvent::JobStarted { .. }))
        );
        prop_assert_eq!(
            reg.counter(finished),
            count(|e| matches!(e, ObsEvent::JobFinished { .. }))
        );
    }

    #[test]
    fn registry_export_is_registration_order_independent(
        values in proptest::collection::vec(0u64..1_000, 2..10),
    ) {
        let names: Vec<String> = (0..values.len())
            .map(|i| format!("prop.metric_{i}"))
            .collect();
        let forward = {
            let mut reg = MetricsRegistry::new();
            for (name, &v) in names.iter().zip(&values) {
                let id = reg.register_counter(name);
                reg.add(id, v);
            }
            (reg.to_json(), reg.to_csv())
        };
        let backward = {
            let mut reg = MetricsRegistry::new();
            for (name, &v) in names.iter().zip(&values).rev() {
                let id = reg.register_counter(name);
                reg.add(id, v);
            }
            (reg.to_json(), reg.to_csv())
        };
        prop_assert_eq!(forward, backward);
    }
}
