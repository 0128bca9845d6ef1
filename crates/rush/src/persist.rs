//! The files the pipeline hands from one step to the next: trained models,
//! learned policies and collected campaigns.
//!
//! The paper pickles its trained model for the scheduler (Section V-A).
//! Here each of these files is one canonical [`Val`] document — the codec
//! engine snapshots already use — rendered as a single line of text: a map
//! whose first key, `format`, names the document and its version
//! ([`MODEL_FORMAT`], [`POLICY_FORMAT`], [`CAMPAIGN_FORMAT`]). Floats travel
//! as IEEE-754 bit patterns, so `decode(encode(x)) == x` bit for bit, and
//! lists carry their own lengths, so no count read from a file sizes an
//! allocation. This module is the only code that knows how the files look.
//!
//! Every decoder returns a [`SnapshotError`] on any input it cannot use —
//! malformed text, another document's `format`, a field out of range, or a
//! model whose parts break the invariants its `from_parts` checks — and
//! never panics.
//!
//! ```
//! use rush_core::persist::{decode_model, encode_model};
//! use rush_ml::dataset::Dataset;
//! use rush_ml::model::{Classifier, ModelKind};
//!
//! let mut data = Dataset::new(vec!["x".into()]);
//! for i in 0..10 {
//!     data.push(vec![i as f64], u32::from(i >= 5), 0);
//! }
//! let model = ModelKind::Knn.train(&data, 1);
//! let text = encode_model(&model);
//! assert!(text.starts_with("{\"format\":\"rush-model/2\""));
//! assert_eq!(decode_model(&text).unwrap(), model);
//! assert!(decode_model("RUSHMODEL v1\n").is_err());
//! ```

use crate::collect::{CampaignData, ControlRun};
use crate::config::{app_named, to_u32, CampaignConfig};
use rush_ml::adaboost::{AdaBoost, AdaBoostConfig};
use rush_ml::cem::PolicyArtifact;
use rush_ml::forest::{Forest, ForestConfig};
use rush_ml::knn::{Knn, KnnConfig};
use rush_ml::logistic::{Logistic, LogisticConfig};
use rush_ml::model::TrainedModel;
use rush_ml::scale::Standardizer;
use rush_ml::tree::{DecisionTree, MaxFeatures, Node, SplitMode, TreeConfig};
use rush_simkit::snapshot::{SnapshotError, Val};
use rush_simkit::time::SimTime;
use rush_telemetry::schema::FeatureSchema;

/// `format` of a trained-model document.
pub const MODEL_FORMAT: &str = "rush-model/2";
/// `format` of a learned-policy document.
pub const POLICY_FORMAT: &str = "rush-policy/2";
/// `format` of a campaign document.
pub const CAMPAIGN_FORMAT: &str = "rush-campaign/2";

/// Serializes a trained model.
pub fn encode_model(model: &TrainedModel) -> String {
    let doc = Val::map().with("format", Val::Str(MODEL_FORMAT.into()));
    let doc = match model {
        TrainedModel::Forest(f) => doc
            .with("kind", Val::Str("forest".into()))
            .with("n_classes", size(f.n_classes()))
            .with("n_features", size(f.n_features()))
            .with("bootstrap", Val::U64(u64::from(f.config().bootstrap)))
            .with("tree_config", tree_config_val(&f.config().tree))
            .with("trees", Val::List(f.trees().iter().map(tree_val).collect())),
        TrainedModel::AdaBoost(a) => {
            let (trees, alphas) = a.parts();
            let cfg = a.config();
            doc.with("kind", Val::Str("adaboost".into()))
                .with("n_classes", size(a.n_classes()))
                .with("n_features", size(a.n_features()))
                .with(
                    "config",
                    Val::map()
                        .with("n_estimators", size(cfg.n_estimators))
                        .with("max_depth", size(cfg.max_depth))
                        .with("learning_rate", Val::from_f64(cfg.learning_rate)),
                )
                .with("alphas", floats(alphas))
                .with("trees", Val::List(trees.iter().map(tree_val).collect()))
        }
        TrainedModel::Knn(k) => {
            let (scaler, rows, labels) = k.parts();
            doc.with("kind", Val::Str("knn".into()))
                .with("n_classes", size(k.n_classes()))
                .with("k", size(k.config().k))
                .with("scaler", scaler_val(scaler))
                .with("rows", Val::List(rows.iter().map(|r| floats(r)).collect()))
                .with(
                    "labels",
                    Val::List(labels.iter().map(|&l| Val::U64(u64::from(l))).collect()),
                )
        }
        TrainedModel::Logistic(l) => {
            let (scaler, weights, biases, cfg) = l.parts();
            doc.with("kind", Val::Str("logistic".into()))
                .with(
                    "config",
                    Val::map()
                        .with("iterations", size(cfg.iterations))
                        .with("learning_rate", Val::from_f64(cfg.learning_rate))
                        .with("l2", Val::from_f64(cfg.l2)),
                )
                .with("scaler", scaler_val(scaler))
                .with(
                    "weights",
                    Val::List(weights.iter().map(|w| floats(w)).collect()),
                )
                .with("biases", floats(biases))
        }
    };
    finish(&doc)
}

/// Deserializes a trained model written by [`encode_model`].
pub fn decode_model(text: &str) -> Result<TrainedModel, SnapshotError> {
    let doc = open(text, MODEL_FORMAT)?;
    match doc.s("kind")? {
        "forest" => {
            let (n_classes, n_features) =
                (usize_at(&doc, "n_classes")?, usize_at(&doc, "n_features")?);
            let trees = trees_of(doc.l("trees")?, n_classes, n_features)?;
            let config = ForestConfig {
                n_trees: trees.len(),
                bootstrap: match doc.u("bootstrap")? {
                    0 => false,
                    1 => true,
                    other => return Err(SnapshotError::Schema(format!("bootstrap flag {other}"))),
                },
                tree: tree_config_of(doc.get("tree_config")?)?,
            };
            Forest::from_parts(trees, config, n_classes, n_features)
                .map(TrainedModel::Forest)
                .map_err(SnapshotError::Schema)
        }
        "adaboost" => {
            let (n_classes, n_features) =
                (usize_at(&doc, "n_classes")?, usize_at(&doc, "n_features")?);
            let cfg = doc.get("config")?;
            let config = AdaBoostConfig {
                n_estimators: usize_at(cfg, "n_estimators")?,
                max_depth: usize_at(cfg, "max_depth")?,
                learning_rate: cfg.f("learning_rate")?,
            };
            let alphas = floats_of(doc.get("alphas")?)?;
            let trees = trees_of(doc.l("trees")?, n_classes, n_features)?;
            AdaBoost::from_parts(trees, alphas, config, n_classes, n_features)
                .map(TrainedModel::AdaBoost)
                .map_err(SnapshotError::Schema)
        }
        "knn" => {
            let rows = doc
                .l("rows")?
                .iter()
                .map(floats_of)
                .collect::<Result<_, _>>()?;
            let labels = doc
                .l("labels")?
                .iter()
                .map(to_u32)
                .collect::<Result<_, _>>()?;
            let config = KnnConfig {
                k: usize_at(&doc, "k")?,
            };
            let scaler = scaler_of(doc.get("scaler")?)?;
            Knn::from_parts(scaler, rows, labels, config, usize_at(&doc, "n_classes")?)
                .map(TrainedModel::Knn)
                .map_err(SnapshotError::Schema)
        }
        "logistic" => {
            let cfg = doc.get("config")?;
            let config = LogisticConfig {
                iterations: usize_at(cfg, "iterations")?,
                learning_rate: cfg.f("learning_rate")?,
                l2: cfg.f("l2")?,
            };
            let weights = doc
                .l("weights")?
                .iter()
                .map(floats_of)
                .collect::<Result<_, _>>()?;
            let biases = floats_of(doc.get("biases")?)?;
            let scaler = scaler_of(doc.get("scaler")?)?;
            Logistic::from_parts(scaler, weights, biases, config)
                .map(TrainedModel::Logistic)
                .map_err(SnapshotError::Schema)
        }
        other => Err(SnapshotError::Schema(format!(
            "unknown model kind '{other}'"
        ))),
    }
}

/// Serializes a learned-policy artifact.
///
/// ```
/// use rush_core::persist::{decode_policy, encode_policy};
/// use rush_ml::cem::PolicyArtifact;
///
/// let artifact = PolicyArtifact {
///     weights: vec![0.5, -1.25, 3.0],
///     seed: 42,
///     rounds: 12,
///     population: 32,
///     score: -4.875,
/// };
/// assert_eq!(decode_policy(&encode_policy(&artifact)), Ok(artifact));
/// ```
pub fn encode_policy(artifact: &PolicyArtifact) -> String {
    finish(
        &Val::map()
            .with("format", Val::Str(POLICY_FORMAT.into()))
            .with("weights", floats(&artifact.weights))
            .with("seed", Val::U64(artifact.seed))
            .with("rounds", Val::U64(u64::from(artifact.rounds)))
            .with("population", Val::U64(u64::from(artifact.population)))
            .with("score", Val::from_f64(artifact.score)),
    )
}

/// Deserializes a policy artifact written by [`encode_policy`]; an artifact
/// without weights is an error.
pub fn decode_policy(text: &str) -> Result<PolicyArtifact, SnapshotError> {
    let doc = open(text, POLICY_FORMAT)?;
    let weights = floats_of(doc.get("weights")?)?;
    if weights.is_empty() {
        return Err(SnapshotError::Schema(
            "policy artifact has no weights".into(),
        ));
    }
    Ok(PolicyArtifact {
        weights,
        seed: doc.u("seed")?,
        rounds: to_u32(doc.get("rounds")?)?,
        population: to_u32(doc.get("population")?)?,
        score: doc.f("score")?,
    })
}

/// Serializes a campaign together with the config that collected it.
pub fn encode_campaign(data: &CampaignData) -> String {
    let runs = data
        .runs
        .iter()
        .map(|run| {
            Val::map()
                .with("app", Val::Str(run.app.name().into()))
                .with("start_us", Val::U64(run.start.as_micros()))
                .with("runtime_secs", Val::from_f64(run.runtime_secs))
                .with("features_all", floats(&run.features_all))
                .with("features_job", floats(&run.features_job))
                .with("probe_features", floats(&run.probe_features))
        })
        .collect();
    finish(
        &Val::map()
            .with("format", Val::Str(CAMPAIGN_FORMAT.into()))
            .with("config", data.config.to_val())
            .with("runs", Val::List(runs)),
    )
}

/// Deserializes a campaign written by [`encode_campaign`], config included.
/// Every run must carry the full counter and probe feature widths.
pub fn decode_campaign(text: &str) -> Result<CampaignData, SnapshotError> {
    let doc = open(text, CAMPAIGN_FORMAT)?;
    let counters = FeatureSchema::table_one().counter_range().len();
    let sized = |v: &Val, key: &str, want: usize| -> Result<Vec<f64>, SnapshotError> {
        let values = floats_of(v.get(key)?)?;
        if values.len() != want {
            return Err(SnapshotError::Schema(format!(
                "{key} holds {} values, want {want}",
                values.len()
            )));
        }
        Ok(values)
    };
    let runs = doc
        .l("runs")?
        .iter()
        .map(|run| {
            let probes = sized(run, "probe_features", 9)?;
            Ok(ControlRun {
                app: app_named(run.s("app")?)?,
                start: SimTime::from_micros(run.u("start_us")?),
                runtime_secs: run.f("runtime_secs")?,
                features_all: sized(run, "features_all", counters)?,
                features_job: sized(run, "features_job", counters)?,
                probe_features: probes.try_into().expect("nine probe values"),
            })
        })
        .collect::<Result<_, SnapshotError>>()?;
    Ok(CampaignData {
        config: CampaignConfig::from_val(doc.get("config")?)?,
        runs,
    })
}

/// Renders a document as one line of text.
fn finish(doc: &Val) -> String {
    let mut text = doc.render();
    text.push('\n');
    text
}

/// Parses a document (one trailing newline allowed) and checks its format.
fn open(text: &str, format: &str) -> Result<Val, SnapshotError> {
    let doc = Val::parse(text.strip_suffix('\n').unwrap_or(text))?;
    match doc.s("format")? {
        found if found == format => Ok(doc),
        found => Err(SnapshotError::Schema(format!(
            "a '{found}' document, want '{format}'"
        ))),
    }
}

fn size(n: usize) -> Val {
    Val::U64(n as u64)
}

fn to_usize(v: &Val) -> Result<usize, SnapshotError> {
    let x = v.as_u64()?;
    usize::try_from(x).map_err(|_| SnapshotError::Schema(format!("{x} exceeds usize")))
}

fn usize_at(v: &Val, key: &str) -> Result<usize, SnapshotError> {
    to_usize(v.get(key)?)
}

fn floats(values: &[f64]) -> Val {
    Val::List(values.iter().map(|&x| Val::from_f64(x)).collect())
}

fn floats_of(v: &Val) -> Result<Vec<f64>, SnapshotError> {
    v.as_list()?.iter().map(Val::as_f64).collect()
}

fn scaler_val(scaler: &Standardizer) -> Val {
    Val::map()
        .with("means", floats(scaler.means()))
        .with("stds", floats(scaler.stds()))
}

fn scaler_of(v: &Val) -> Result<Standardizer, SnapshotError> {
    Standardizer::from_parts(floats_of(v.get("means")?)?, floats_of(v.get("stds")?)?)
        .map_err(SnapshotError::Schema)
}

fn tree_config_val(cfg: &TreeConfig) -> Val {
    let max_features = match cfg.max_features {
        MaxFeatures::All => Val::Str("all".into()),
        MaxFeatures::Sqrt => Val::Str("sqrt".into()),
        MaxFeatures::Exact(n) => size(n),
    };
    let split_mode = match cfg.split_mode {
        SplitMode::Best => "best",
        SplitMode::RandomThreshold => "random",
    };
    Val::map()
        .with("max_depth", size(cfg.max_depth))
        .with("min_samples_leaf", size(cfg.min_samples_leaf))
        .with("min_samples_split", size(cfg.min_samples_split))
        .with("max_features", max_features)
        .with("split_mode", Val::Str(split_mode.into()))
}

fn tree_config_of(v: &Val) -> Result<TreeConfig, SnapshotError> {
    let max_features = match v.get("max_features")? {
        Val::Str(s) if s == "all" => MaxFeatures::All,
        Val::Str(s) if s == "sqrt" => MaxFeatures::Sqrt,
        n => MaxFeatures::Exact(to_usize(n)?),
    };
    let split_mode = match v.s("split_mode")? {
        "best" => SplitMode::Best,
        "random" => SplitMode::RandomThreshold,
        other => return Err(SnapshotError::Schema(format!("split mode '{other}'"))),
    };
    Ok(TreeConfig {
        max_depth: usize_at(v, "max_depth")?,
        min_samples_leaf: usize_at(v, "min_samples_leaf")?,
        min_samples_split: usize_at(v, "min_samples_split")?,
        max_features,
        split_mode,
    })
}

fn tree_val(tree: &DecisionTree) -> Val {
    let nodes = tree
        .nodes()
        .iter()
        .map(|node| match node {
            Node::Leaf { probs } => Val::map().with("leaf", floats(probs)),
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => Val::map().with(
                "split",
                Val::List(vec![
                    size(*feature),
                    Val::from_f64(*threshold),
                    size(*left),
                    size(*right),
                ]),
            ),
        })
        .collect();
    Val::map()
        .with("nodes", Val::List(nodes))
        .with("importances", floats(tree.raw_importances()))
}

fn trees_of(
    trees: &[Val],
    n_classes: usize,
    n_features: usize,
) -> Result<Vec<DecisionTree>, SnapshotError> {
    trees
        .iter()
        .map(|tree| {
            let nodes = tree
                .l("nodes")?
                .iter()
                .map(node_of)
                .collect::<Result<_, _>>()?;
            let importances = floats_of(tree.get("importances")?)?;
            DecisionTree::from_parts(nodes, n_classes, n_features, importances)
                .map_err(SnapshotError::Schema)
        })
        .collect()
}

fn node_of(v: &Val) -> Result<Node, SnapshotError> {
    let Val::Map(entries) = v else {
        return Err(SnapshotError::Schema(format!("tree node {v:?}")));
    };
    match entries.as_slice() {
        [(tag, probs)] if tag == "leaf" => Ok(Node::Leaf {
            probs: floats_of(probs)?,
        }),
        [(tag, split)] if tag == "split" => match split.as_list()? {
            [feature, threshold, left, right] => Ok(Node::Split {
                feature: to_usize(feature)?,
                threshold: threshold.as_f64()?,
                left: to_usize(left)?,
                right: to_usize(right)?,
            }),
            other => Err(SnapshotError::Schema(format!(
                "split holds {} values, want 4",
                other.len()
            ))),
        },
        _ => Err(SnapshotError::Schema(
            "tree node is neither a leaf nor a split".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rush_ml::dataset::Dataset;
    use rush_ml::model::ModelKind;

    fn toy_dataset() -> Dataset {
        let mut d = Dataset::new(vec!["x".into(), "y".into()]);
        for i in 0..40 {
            d.push(
                vec![i as f64 + 0.125, ((i * 7) % 13) as f64],
                u32::from(i >= 20),
                (i % 3) as u32,
            );
        }
        d
    }

    #[test]
    fn every_kind_round_trips_bit_exactly() {
        let data = toy_dataset();
        for kind in ModelKind::EXTENDED {
            let model = kind.train(&data, 11);
            let text = encode_model(&model);
            let back = decode_model(&text).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(back, model, "{kind}");
            assert_eq!(encode_model(&back), text, "{kind}: encoding is canonical");
        }
    }

    #[test]
    fn documents_are_one_line_and_name_their_format() {
        let model = ModelKind::AdaBoost.train(&toy_dataset(), 2);
        let text = encode_model(&model);
        assert!(text.starts_with("{\"format\":\"rush-model/2\",\"kind\":\"adaboost\""));
        assert_eq!(text.lines().count(), 1);
        assert!(text.ends_with('\n'));
        // The newline is optional; another document's format is not.
        assert!(decode_model(text.trim_end()).is_ok());
        let policy = text.replace(MODEL_FORMAT, POLICY_FORMAT);
        assert_eq!(
            decode_model(&policy),
            Err(SnapshotError::Schema(
                "a 'rush-policy/2' document, want 'rush-model/2'".into()
            ))
        );
    }

    #[test]
    fn knn_round_trip_is_structurally_exact() {
        let model = ModelKind::Knn.train(&toy_dataset(), 1);
        assert_eq!(decode_model(&encode_model(&model)), Ok(model));
    }

    #[test]
    fn logistic_round_trip_is_structurally_exact() {
        let model = ModelKind::Logistic.train(&toy_dataset(), 1);
        assert_eq!(decode_model(&encode_model(&model)), Ok(model));
    }

    #[test]
    fn float_precision_survives() {
        let data = toy_dataset(); // has 0.125 offsets — exact in binary
        let model = ModelKind::Knn.train(&data, 5);
        let back = decode_model(&encode_model(&model)).unwrap();
        let (TrainedModel::Knn(a), TrainedModel::Knn(b)) = (&model, &back) else {
            panic!("expected knn")
        };
        let (_, rows_a, _) = a.parts();
        let (_, rows_b, _) = b.parts();
        let bits = |rows: &[Vec<f64>]| -> Vec<u64> {
            rows.iter().flatten().map(|v| v.to_bits()).collect()
        };
        assert_eq!(
            bits(rows_a),
            bits(rows_b),
            "floats must round-trip bit-exactly"
        );
    }

    #[test]
    fn header_is_validated() {
        let text = encode_model(&ModelKind::AdaBoost.train(&toy_dataset(), 2));
        assert!(decode_model("").is_err());
        assert!(decode_model("BOGUS\n").is_err());
        assert!(decode_model("RUSHMODEL v1\nkind knn\n").is_err());
        let martian = text.replace("\"kind\":\"adaboost\"", "\"kind\":\"martian\"");
        assert_ne!(martian, text);
        assert!(decode_model(&martian).is_err());
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let text = encode_model(&ModelKind::AdaBoost.train(&toy_dataset(), 2));
        let truncated = &text[..text.len() / 2];
        assert!(
            matches!(decode_model(truncated), Err(SnapshotError::Parse(_))),
            "{truncated}"
        );
    }

    #[test]
    fn policy_artifact_round_trips_bit_exactly() {
        let artifact = PolicyArtifact {
            weights: vec![0.1 + 0.2, -1e-300, 3.5, f64::MIN_POSITIVE],
            seed: u64::MAX,
            rounds: 40,
            population: 64,
            score: -7.062499999999999,
        };
        assert_eq!(decode_policy(&encode_policy(&artifact)), Ok(artifact));
    }

    #[test]
    fn policy_artifact_rejects_malformed_input() {
        let good = encode_policy(&PolicyArtifact {
            weights: vec![1.0],
            seed: 1,
            rounds: 2,
            population: 3,
            score: 0.0,
        });
        assert!(decode_policy(&good).is_ok());
        assert!(decode_policy("RUSHPOLICY v1\nweights 1\n").is_err());
        for (from, to) in [
            ("\"weights\":[u4607182418800017408]", "\"weights\":[]"),
            ("\"rounds\":u2", "\"rounds\":u4294967296"),
            ("\"seed\":u1,", ""),
        ] {
            let bad = good.replace(from, to);
            assert_ne!(bad, good, "{from} not found in {good}");
            assert!(decode_policy(&bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn campaign_round_trips_with_its_config() {
        let data = crate::collect::run_campaign(&CampaignConfig::test_sized());
        assert_eq!(decode_campaign(&encode_campaign(&data)), Ok(data));
    }

    #[test]
    fn corrupt_campaign_input_rejected() {
        assert!(decode_campaign("garbage").is_err());
        assert!(decode_campaign("RUSHCAMPAIGN v1\nruns 0\nend\n").is_err());

        // A run one probe short fails on its width, not on its syntax.
        let data = crate::collect::run_campaign(&CampaignConfig::test_sized());
        let mut doc = Val::parse(encode_campaign(&data).trim_end()).unwrap();
        let Val::Map(entries) = &mut doc else {
            panic!("a campaign is a map")
        };
        let Val::List(runs) = &mut entries[2].1 else {
            panic!("runs is a list")
        };
        let Val::Map(run) = &mut runs[0] else {
            panic!("a run is a map")
        };
        let Val::List(probes) = &mut run[5].1 else {
            panic!("probe_features is a list")
        };
        probes.pop();
        assert_eq!(
            decode_campaign(&doc.render()),
            Err(SnapshotError::Schema(
                "probe_features holds 8 values, want 9".into()
            ))
        );
    }
}
