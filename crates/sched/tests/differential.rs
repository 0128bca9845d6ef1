//! Differential equivalence proptests: randomized seeded scenarios driven
//! two ways — materialized vs. streamed requests, serial vs. parallel
//! sharded execution — must produce byte-identical traces and identical
//! outcome structs. On failure the harness's [`Divergence`] report names
//! the first diverging trace event, so a shrunk counterexample points
//! straight at the earliest decision where the two runs disagreed.
//!
//! [`Divergence`]: rush_sched::difftest::Divergence

use proptest::prelude::*;
use rush_sched::difftest::{diff_results, DiffOutcome, DiffScenario};
use rush_sched::predictor::{NeverVaries, VariabilityPredictor};
use rush_sched::shard::{shard_seed, ShardExecution, ShardSpec, ShardedCampaign};

/// Asserts a clean diff, rendering every divergence on failure (the
/// vendored proptest stub reports failures as `Err(String)`).
fn assert_identical(outcome: DiffOutcome, label: &str) -> Result<(), String> {
    match outcome {
        DiffOutcome::Identical => Ok(()),
        DiffOutcome::Diverged(diffs) => {
            let rendered: Vec<String> = diffs.iter().map(|d| d.to_string()).collect();
            Err(format!(
                "{label}: runs diverged:\n  {}",
                rendered.join("\n  ")
            ))
        }
    }
}

fn never() -> Box<dyn VariabilityPredictor> {
    Box::new(NeverVaries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Engine-seeding equivalence: pulling the request stream one job at a
    /// time through a `JobSource` must replay the identical trajectory the
    /// materialized job table produces — same trace bytes, same outcomes —
    /// across job counts and fault injection.
    #[test]
    fn streaming_and_materialized_seeding_are_equivalent(
        seed in 0u64..1_000_000,
        jobs in 4usize..30,
        faults in any::<bool>(),
        perf_faults in any::<bool>(),
    ) {
        let scenario = DiffScenario { seed, nodes: 16, jobs, faults, perf_faults, online_predictor: false, learned_policy: false };
        assert_identical(
            rush_sched::difftest::diff_seeding(&scenario),
            &format!("{scenario:?}"),
        )?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sharded execution is schedule-invariant: running the same shard set
    /// serially and in parallel yields identical per-shard results.
    #[test]
    fn serial_and_parallel_campaigns_are_equivalent(
        master in 0u64..1_000_000,
        shard_count in 2usize..4,
        jobs in 6usize..18,
        faults in any::<bool>(),
    ) {
        let specs: Vec<ShardSpec> = (0..shard_count)
            .map(|i| {
                let scenario = DiffScenario {
                    seed: shard_seed(master, i),
                    nodes: 16,
                    jobs,
                    faults,
                    perf_faults: false,
                    online_predictor: false,
                    learned_policy: false,
                };
                ShardSpec {
                    name: format!("pod{i}"),
                    seed: scenario.seed,
                    machine: scenario.machine_config(),
                    sched: scenario.sched_config(),
                    requests: scenario.workload(),
                    predictor: never,
                }
            })
            .collect();
        let campaign = ShardedCampaign::new(specs);
        let serial = campaign.run(ShardExecution::Serial);
        let parallel = campaign.run(ShardExecution::Parallel);
        prop_assert_eq!(&serial.summary, &parallel.summary);
        for (i, (a, b)) in serial.shards.iter().zip(&parallel.shards).enumerate() {
            assert_identical(diff_results(a, b), &format!("shard {i}"))?;
        }
    }
}
