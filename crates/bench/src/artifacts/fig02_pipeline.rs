//! Fig. 2: the RUSH pipeline architecture.
//!
//! The paper's Fig. 2 is a block diagram, not a data plot; this artifact
//! prints the reproduced pipeline's components, their inputs/outputs, and
//! where each lives in this workspace — and verifies the advertised data
//! shapes against the live code.

use super::ArtifactCtx;
use rush_cluster::counters::CounterTable;
use rush_telemetry::schema::FeatureSchema;

/// Renders Fig. 2. Needs no campaign.
pub fn render(_ctx: &ArtifactCtx) -> String {
    let mut out = String::new();
    let schema = FeatureSchema::table_one();
    let counters: usize = CounterTable::ALL.iter().map(|t| t.counter_count()).sum();
    outln!(
        out,
        "\
# Fig. 2 — the RUSH pipeline (architecture)

  [cluster]                [variability predictor]          [scheduler]
  ---------                -----------------------          -----------
  proxy app runs     --->  model & feature selection  --->  queue + ML model
  (rush-workloads,         (rush-ml::select, ::rfe)         (rush-sched::engine,
   rush-core::collect)          |                            Algorithm 1)
       |                        v                                |
  LDMS counters    --->   train 3-class model   --->   Start() gate with
  90 counters              (rush-core::pipeline)        SkipTable (Algorithm 2)
  x min/max/mean                |                                |
  (rush-telemetry)              v                                v
       |                  exported model              delayed or launched jobs
  MPI probes  ------>     (rush-core::persist,        (rush-core::predictor
  ring + AllReduce         282-feature input)           reads counters + probes)
  (rush-workloads::probes)

data contracts verified against the code:
"
    );
    outln!(out, "  counters per node:            {counters} (sysclassib 22 + opa_info 34 + lustre_client 34)");
    outln!(
        out,
        "  features in the model input:  {} (Table I)",
        schema.len()
    );
    outln!(
        out,
        "  counter aggregates:           {:?}",
        rush_telemetry::schema::AGG_PREFIXES
    );
    outln!(
        out,
        "  probe features:               {:?}",
        rush_telemetry::schema::MPI_BENCH_NAMES
    );
    outln!(
        out,
        "  intensity one-hots:           {:?}",
        rush_telemetry::schema::INTENSITY_NAMES
    );
    assert_eq!(counters, 90);
    assert_eq!(schema.len(), 282);
    outln!(out, "\nall shapes match the paper.");
    out
}
