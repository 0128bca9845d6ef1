//! Decoder fuzz campaign: arbitrary bytes, and structure-aware mutations of
//! valid documents, fed to every decoder of persisted input.
//!
//! The valid documents are models of all four families (both forest
//! flavours, AdaBoost, KNN, logistic), a policy artifact and a test-sized
//! campaign. Each mutation — truncate, flip a bit, splice in a slice of
//! another document, duplicate a list item, set an integer to `u64::MAX` —
//! goes through the model, policy and campaign decoders and `Val::parse`.
//! A decoder may accept a mutant (a duplicated campaign run is still a
//! campaign) but must never panic, and any model it accepts must predict
//! on random finite rows of its width. The SWF readers get arbitrary bytes
//! and lines of hostile numeric fields.

use proptest::collection;
use proptest::prelude::*;
use rush_core::collect::run_campaign;
use rush_core::config::CampaignConfig;
use rush_core::persist::{
    decode_campaign, decode_model, decode_policy, encode_campaign, encode_model, encode_policy,
};
use rush_ml::cem::PolicyArtifact;
use rush_ml::dataset::Dataset;
use rush_ml::model::{Classifier, ModelKind, TrainedModel};
use rush_simkit::snapshot::{SnapshotError, Val};
use rush_workloads::swf::{self, SwfReader};
use std::sync::OnceLock;

/// The valid documents every mutation starts from.
fn seeds() -> &'static [String] {
    static SEEDS: OnceLock<Vec<String>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let mut data = Dataset::new(vec!["a".into(), "b".into(), "c".into()]);
        for i in 0..48u32 {
            let x = f64::from(i);
            data.push(vec![x, (x * 7.0) % 11.0, -x / 3.0], i % 3, i % 4);
        }
        let mut docs: Vec<String> = ModelKind::EXTENDED
            .into_iter()
            .map(|kind| encode_model(&kind.train(&data, 5)))
            .collect();
        docs.push(encode_policy(&PolicyArtifact {
            weights: vec![0.25, -1.5, 3.0, 0.0, 1e-9, -2.0],
            seed: 42,
            rounds: 10,
            population: 24,
            score: -3.9,
        }));
        docs.push(encode_campaign(
            &run_campaign(&CampaignConfig::test_sized()),
        ));
        docs
    })
}

/// Feeds `text` to every decoder. A model that decodes must predict on
/// random finite rows of its width, huge magnitudes included.
fn decode_all(text: &str, noise: u64) -> [bool; 4] {
    let model = decode_model(text);
    if let Ok(model) = &model {
        predict_random_rows(model, noise);
    }
    [
        Val::parse(text).is_ok(),
        model.is_ok(),
        decode_policy(text).is_ok(),
        decode_campaign(text).is_ok(),
    ]
}

fn predict_random_rows(model: &TrainedModel, mut state: u64) {
    let mut next = || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for _ in 0..4 {
        let row: Vec<f64> = (0..model.n_features())
            .map(|_| {
                let r = next();
                let unit = (r >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                match r % 4 {
                    0 => 0.0,
                    1 => unit * 1e300,
                    _ => unit * 100.0,
                }
            })
            .collect();
        model.predict(&row);
    }
}

/// How many nodes of `v`, itself included, `pick` selects.
fn count_nodes(v: &Val, pick: fn(&Val) -> bool) -> u64 {
    u64::from(pick(v))
        + match v {
            Val::List(items) => items.iter().map(|i| count_nodes(i, pick)).sum(),
            Val::Map(entries) => entries.iter().map(|(_, i)| count_nodes(i, pick)).sum(),
            _ => 0,
        }
}

/// Applies `edit` to the `n`-th (modulo their count) node of `doc`, in
/// preorder, among those `pick` selects. Returns false when none qualify.
fn edit_nth(doc: &mut Val, pick: fn(&Val) -> bool, n: u64, edit: impl FnOnce(&mut Val)) -> bool {
    fn visit<F: FnOnce(&mut Val)>(
        v: &mut Val,
        pick: fn(&Val) -> bool,
        target: &mut u64,
        edit: &mut Option<F>,
    ) -> bool {
        if pick(v) {
            if *target == 0 {
                (edit.take().expect("edited once"))(v);
                return true;
            }
            *target -= 1;
        }
        match v {
            Val::List(items) => items.iter_mut().any(|i| visit(i, pick, target, edit)),
            Val::Map(entries) => entries
                .iter_mut()
                .any(|(_, i)| visit(i, pick, target, edit)),
            _ => false,
        }
    }
    let total = count_nodes(doc, pick);
    if total == 0 {
        return false;
    }
    visit(doc, pick, &mut (n % total), &mut Some(edit))
}

fn seed_val(index: usize) -> Val {
    Val::parse(seeds()[index].trim_end()).expect("seed documents parse")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(any::<u8>(), 0..400), noise in any::<u64>()) {
        decode_all(&String::from_utf8_lossy(&bytes), noise);
    }

    /// Printable bytes drawn from the documents' own alphabet reach deeper
    /// into the parser than uniform bytes do.
    #[test]
    fn document_alphabet_never_panics(picks in collection::vec(0usize..24, 0..200), noise in any::<u64>()) {
        const ALPHABET: &[u8] = b"{}[],:\"ui-0123456789\\fk";
        let text: String = picks.iter().map(|&i| char::from(ALPHABET[i % ALPHABET.len()])).collect();
        decode_all(&text, noise);
    }

    #[test]
    fn truncated_documents_are_errors(seed in 0usize..7, cut in any::<u64>(), noise in any::<u64>()) {
        let text = &seeds()[seed];
        // Cutting at least the closing brace and newline always breaks the
        // one top-level map.
        let cut = (cut % (text.len() as u64 - 1)) as usize;
        prop_assert_eq!(decode_all(&text[..cut], noise), [false; 4]);
    }

    #[test]
    fn bit_flips_never_panic(seed in 0usize..7, at in any::<u64>(), bit in 0u32..8, noise in any::<u64>()) {
        let mut bytes = seeds()[seed].clone().into_bytes();
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] ^= 1 << bit;
        decode_all(&String::from_utf8_lossy(&bytes), noise);
    }

    #[test]
    fn splices_never_panic(
        (into, from) in (0usize..7, 0usize..7),
        (a, b, c, d) in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        noise in any::<u64>(),
    ) {
        let (host, donor) = (&seeds()[into], &seeds()[from]);
        let span = |x: u64, y: u64, len: usize| {
            let (x, y) = ((x % len as u64) as usize, (y % len as u64) as usize);
            (x.min(y), x.max(y))
        };
        let (h0, h1) = span(a, b, host.len());
        let (d0, d1) = span(c, d, donor.len());
        let text = format!("{}{}{}", &host[..h0], &donor[d0..d1], &host[h1..]);
        decode_all(&text, noise);
    }

    #[test]
    fn duplicated_list_items_never_panic(seed in 0usize..7, n in any::<u64>(), item in any::<u64>(), noise in any::<u64>()) {
        let mut doc = seed_val(seed);
        let non_empty_list = |v: &Val| matches!(v, Val::List(items) if !items.is_empty());
        prop_assert!(edit_nth(&mut doc, non_empty_list, n, |v| {
            if let Val::List(items) = v {
                let at = (item % items.len() as u64) as usize;
                items.insert(at, items[at].clone());
            }
        }));
        decode_all(&doc.render(), noise);
    }

    #[test]
    fn u64_max_integers_never_panic(seed in 0usize..7, n in any::<u64>(), noise in any::<u64>()) {
        let mut doc = seed_val(seed);
        prop_assert!(edit_nth(&mut doc, |v| matches!(v, Val::U64(_)), n, |v| {
            *v = Val::U64(u64::MAX);
        }));
        decode_all(&doc.render(), noise);
    }

    #[test]
    fn swf_readers_never_panic(bytes in collection::vec(any::<u8>(), 0..400)) {
        let _ = SwfReader::strict(bytes.as_slice()).count();
        let _ = SwfReader::lenient(bytes.as_slice()).count();
        let text = String::from_utf8_lossy(&bytes);
        let _ = swf::parse(&text);
        let _ = swf::parse_lenient(&text);
    }

    /// SWF lines of 18 fields drawn from hostile numerals: overflow,
    /// negative, non-finite, fractional and non-numeric.
    #[test]
    fn swf_hostile_fields_never_panic(picks in collection::vec(0usize..12, 18..=72)) {
        const FIELDS: [&str; 12] = [
            "-1", "0", "1", "16", "3.5", "1e308", "-1e308", "nan", "inf",
            "18446744073709551616", "-9223372036854775809", "x",
        ];
        let text: String = picks
            .chunks(18)
            .map(|line| line.iter().map(|&i| FIELDS[i]).collect::<Vec<_>>().join(" ") + "\n")
            .collect();
        let _ = swf::parse(&text);
        let _ = swf::parse_lenient(&text);
    }
}

/// Every integer of the small documents (KNN, logistic, policy), one at
/// a time, set to `u64::MAX`: the exhaustive counterpart of the sampled
/// mutation above, which rarely lands on a given field of a large
/// document.
#[test]
fn every_integer_of_small_documents_at_u64_max_never_panics() {
    let is_int: fn(&Val) -> bool = |v| matches!(v, Val::U64(_));
    for (seed, text) in seeds().iter().enumerate() {
        if text.len() > 8 * 1024 {
            continue;
        }
        let doc = seed_val(seed);
        for n in 0..count_nodes(&doc, is_int) {
            let mut mutant = doc.clone();
            edit_nth(&mut mutant, is_int, n, |v| *v = Val::U64(u64::MAX));
            decode_all(&mutant.render(), n);
        }
    }
}

/// A one-tree, one-feature AdaBoost document whose tree has `nodes`.
fn one_tree_model(nodes: Vec<Val>, n_classes: u64, n_features: u64) -> String {
    let one = Val::from_f64(1.0);
    Val::map()
        .with("format", Val::Str("rush-model/2".into()))
        .with("kind", Val::Str("adaboost".into()))
        .with("n_classes", Val::U64(n_classes))
        .with("n_features", Val::U64(n_features))
        .with(
            "config",
            Val::map()
                .with("n_estimators", Val::U64(1))
                .with("max_depth", Val::U64(1))
                .with("learning_rate", one.clone()),
        )
        .with("alphas", Val::List(vec![one]))
        .with(
            "trees",
            Val::List(vec![Val::map()
                .with("nodes", Val::List(nodes))
                .with("importances", Val::List(vec![Val::from_f64(0.0)]))]),
        )
        .render()
}

fn split(feature: u64, left: u64, right: u64) -> Val {
    Val::map().with(
        "split",
        Val::List(vec![
            Val::U64(feature),
            Val::from_f64(0.5),
            Val::U64(left),
            Val::U64(right),
        ]),
    )
}

fn leaf(class: usize) -> Val {
    let probs = (0..2).map(|c| Val::from_f64(f64::from(u8::from(c == class))));
    Val::map().with("leaf", Val::List(probs.collect()))
}

#[test]
fn hand_built_stump_decodes_and_predicts() {
    let model = decode_model(&one_tree_model(
        vec![split(0, 1, 2), leaf(0), leaf(1)],
        2,
        1,
    ))
    .expect("a well-formed stump decodes");
    assert_eq!(model.predict(&[0.0]), 0);
    assert_eq!(model.predict(&[1.0]), 1);
}

/// Motivation case 1: a count of `u64::MAX` once sized an allocation and
/// panicked with "capacity overflow". The v1 text is now a parse error,
/// and no size field of the new document sizes anything.
#[test]
fn u64_max_counts_are_errors() {
    for v1 in [
        "RUSHMODEL v1\nkind adaboost\nadaboost 2 3 50 2 1\nalphas 1\ntree 18446744073709551615 2 3\n",
        "RUSHMODEL v1\nkind knn\nknn 2 1 5 18446744073709551615\nmeans 0\nstds 1\n",
    ] {
        assert!(matches!(decode_model(v1), Err(SnapshotError::Parse(_))));
    }
    let stump = || vec![split(0, 1, 2), leaf(0), leaf(1)];
    assert!(decode_model(&one_tree_model(stump(), u64::MAX, 1)).is_err());
    assert!(decode_model(&one_tree_model(stump(), 2, u64::MAX)).is_err());
}

/// Motivation case 2: a split on feature 999 of a 1-feature model once
/// decoded and then panicked in `predict`.
#[test]
fn out_of_range_split_feature_is_an_error() {
    let text = one_tree_model(vec![split(999, 1, 2), leaf(0), leaf(1)], 2, 1);
    assert_eq!(
        decode_model(&text),
        Err(SnapshotError::Schema(
            "split 0 tests feature 999 of 1".into()
        ))
    );
}

/// Motivation case 3: a root split pointing at itself once decoded and
/// then made `predict` loop forever.
#[test]
fn self_looping_tree_is_an_error() {
    let text = one_tree_model(vec![split(0, 0, 0), leaf(0), leaf(1)], 2, 1);
    assert_eq!(
        decode_model(&text),
        Err(SnapshotError::Schema(
            "split 0 points to node 0 (want 0 < child < 3)".into()
        ))
    );
}

/// Motivation case 4: 100,000 nested `[` once overflowed the stack and
/// aborted the process.
#[test]
fn deeply_nested_input_is_an_error() {
    let deep = "[".repeat(100_000);
    assert!(matches!(Val::parse(&deep), Err(SnapshotError::Parse(_))));
    assert_eq!(decode_all(&deep, 0), [false; 4]);
}
