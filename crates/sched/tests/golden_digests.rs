//! Outcome goldens: a fixed grid of differential scenarios must reproduce
//! the digests committed under `tests/golden/diff_digests.txt`.
//!
//! The grid crosses all 16 combinations of the scenario switches (node
//! crashes, performance faults, online predictor, learned policy), each at
//! two (seed, nodes, jobs) points over 16/32/64-node machines. Each line
//! holds one [`outcome_digest`]: the encoded schedule trace, the placement
//! and timing of every job, and the outcome scalars — everything
//! [`diff_results`](rush_sched::difftest::diff_results) compares.
//!
//! To regenerate the file after an *intentional* change of scheduling
//! behaviour:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p rush-sched --test golden_digests
//! ```
//!
//! and commit it together with the change that motivated it.

use rush_sched::difftest::{outcome_digest, DiffScenario};
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
