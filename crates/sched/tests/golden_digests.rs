//! Outcome goldens: a fixed grid of differential scenarios must reproduce
//! the digests committed under `tests/golden/diff_digests.txt`.
//!
//! The grid crosses all 16 combinations of the scenario switches (node
//! crashes, performance faults, online predictor, learned policy), each at
//! two (seed, nodes, jobs) points over 16/32/64-node machines. Each line
//! holds one [`outcome_digest`]: the encoded schedule trace, the placement
//! and timing of every job, and the outcome scalars — everything
//! [`diff_results`](rush_sched::difftest::diff_results) compares. No grid
//! scenario delays a job, so three RUSH runs under a predictor that delays
//! most consults are pinned by digests in the test itself (edited by hand
//! after an intentional change; `GOLDEN_BLESS` does not touch them).
//!
//! To regenerate the file after an *intentional* change of scheduling
//! behaviour:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p rush-sched --test golden_digests
//! ```
//!
//! and commit it together with the change that motivated it.

use rand::Rng;
use rush_cluster::machine::Machine;
use rush_cluster::topology::NodeId;
use rush_sched::difftest::{outcome_digest, DiffScenario};
use rush_sched::engine::SchedulerEngine;
use rush_sched::job::Job;
use rush_sched::predictor::{PredictError, PredictorCtx, VariabilityClass, VariabilityPredictor};
use std::path::PathBuf;

/// The pinned grid, in file order.
fn grid() -> Vec<DiffScenario> {
    let nodes = [16u32, 32, 64];
    let mut out = Vec::new();
    for combo in 0..16u64 {
        for (point, (seed_base, jobs)) in [(1000u64, 24usize), (2000, 40)].into_iter().enumerate() {
            out.push(DiffScenario {
                seed: seed_base + combo,
                nodes: nodes[(combo as usize + point) % nodes.len()],
                jobs,
                faults: combo & 1 != 0,
                perf_faults: combo & 2 != 0,
                online_predictor: combo & 4 != 0,
                learned_policy: combo & 8 != 0,
            });
        }
    }
    out
}

fn line(s: &DiffScenario, digest: u64) -> String {
    format!(
        "seed={} nodes={} jobs={} faults={} perf_faults={} online={} learned={} digest={digest:016x}",
        s.seed,
        s.nodes,
        s.jobs,
        u8::from(s.faults),
        u8::from(s.perf_faults),
        u8::from(s.online_predictor),
        u8::from(s.learned_policy),
    )
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/diff_digests.txt")
}

#[test]
fn diff_scenarios_match_committed_digests() {
    let grid = grid();
    let mut actual = String::new();
    for s in &grid {
        actual.push_str(&line(s, outcome_digest(&s.run())));
        actual.push('\n');
    }

    let path = golden_path();
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &actual).expect("write golden digests");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden digests {}: {e}\n\
             regenerate with: GOLDEN_BLESS=1 cargo test -p rush-sched --test golden_digests",
            path.display()
        )
    });
    assert_eq!(expected.lines().count(), grid.len(), "golden grid size");
    for (want, got) in expected.lines().zip(actual.lines()) {
        assert_eq!(
            want, got,
            "outcome digest changed; if intentional, re-bless with:\n\
             GOLDEN_BLESS=1 cargo test -p rush-sched --test golden_digests"
        );
    }
}

/// Delays a seeded 60% of the consults it sees.
struct CoinFlip;

impl VariabilityPredictor for CoinFlip {
    fn predict(
        &mut self,
        _job: &Job,
        _nodes: &[NodeId],
        ctx: &mut PredictorCtx<'_>,
    ) -> Result<VariabilityClass, PredictError> {
        Ok(if ctx.rng.gen_bool(0.6) {
            VariabilityClass::Variation
        } else {
            VariabilityClass::NoVariation
        })
    }

    fn name(&self) -> &str {
        "coin-flip"
    }
}

/// RUSH delays over a deep queue: the grid's scenarios have no delaying
/// predictor, so these pin what they leave out, the delay path of the
/// scheduling pass (consults at every queue position, pushes behind the
/// front, cooldowns, skip budgets) and the load series it samples.
#[test]
fn rush_delay_scenarios_match_pinned_digests() {
    // (seed, nodes, jobs, faults, digest)
    let pinned: [(u64, u32, usize, bool, u64); 3] = [
        (3000, 16, 60, false, 0x18b8_5a09_e8a9_41cb),
        (3001, 32, 80, false, 0xda79_f69e_7e3e_1930),
        (3002, 16, 60, true, 0xc917_73cf_3341_94c6),
    ];
    for (seed, nodes, jobs, faults, want) in pinned {
        let s = DiffScenario {
            seed,
            nodes,
            jobs,
            faults,
            perf_faults: faults,
            online_predictor: false,
            learned_policy: false,
        };
        let machine = Machine::new(s.machine_config());
        let mut engine = SchedulerEngine::new(machine, s.sched_config(), Box::new(CoinFlip), seed);
        let result = engine.run(&s.workload());
        assert!(result.total_skips > 60, "seed {seed}: delays must dominate");
        assert_eq!(
            outcome_digest(&result),
            want,
            "seed {seed}: outcome digest changed under RUSH delays"
        );
    }
}
