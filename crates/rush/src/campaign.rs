//! The campaign orchestrator: a dependency-aware, parallel, resumable
//! artifact pipeline.
//!
//! The paper's evaluation is ~20 tables and figures over one shared
//! campaign dataset. Regenerating them used to mean launching one binary
//! per artifact serially, each re-loading the campaign cache and
//! re-training its models from scratch. This module replaces that with a
//! small static DAG of [`ArtifactNode`]s (campaign dataset → trained
//! models → figures/tables/ablations) executed by [`execute`] on a bounded
//! worker pool:
//!
//! * **Parallel** — independent nodes run concurrently on
//!   [`RunOptions::workers`] OS threads, one per core by default (see
//!   [`default_workers`]); the trials inside a node run sequentially.
//! * **Atomic** — each node's `results/<output>` is written to a `.tmp`
//!   sibling and renamed into place (the [`crate::checkpoint`] discipline),
//!   so a crash mid-write never leaves a truncated artifact.
//! * **Resumable** — every run records provenance per node in a
//!   [`Manifest`] (`results/manifest.json`): seed, configuration
//!   fingerprint, content hash, wall time, status. A re-run skips any node
//!   whose fingerprint, dependencies and on-disk output are unchanged.
//! * **Fault-tolerant** — a failed node (error or panic) is retried once;
//!   a hard failure marks its dependents [`NodeStatus::Blocked`] and the
//!   rest of the DAG keeps going, so one broken ablation no longer kills
//!   the whole campaign.
//!
//! The DAG is validated up front ([`Dag::new`] rejects duplicate names,
//! unknown dependencies and cycles). Node work functions return the
//! artifact text; the orchestrator owns all I/O, which is what makes the
//! outputs byte-identical to the serial per-binary runs.

use rush_simkit::snapshot::fnv1a;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::fs;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What a node's work function produces: `Some(text)` for artifact nodes
/// (written to `results/<output>`), `None` for resource nodes that only
/// materialize shared in-process state (the campaign, trained models).
pub type NodeOutput = Option<String>;

/// A node's work function. Runs on a worker thread; panics are caught and
/// treated as failures. Shared (`Arc`) so the watchdog can hand a clone to
/// a detached thread when [`RunOptions::node_timeout`] is set.
pub type NodeFn = Arc<dyn Fn() -> Result<NodeOutput, String> + Send + Sync>;

/// One node of the artifact DAG.
pub struct ArtifactNode {
    /// Unique node name (`fig05_adaa_variation`, `campaign_data`, …).
    pub name: String,
    /// Output file name under the results directory (`fig05.txt`), or
    /// `None` for resource nodes.
    pub output: Option<String>,
    /// Names of nodes that must complete before this one starts.
    pub deps: Vec<String>,
    /// The work function.
    pub run: NodeFn,
    /// Extra skip-validity predicate: even when the manifest says the node
    /// is up to date, skipping also requires `check()` (used by the
    /// campaign node to demand that its disk cache still exists). `None`
    /// means no extra condition.
    pub check: Option<Box<dyn Fn() -> bool + Send + Sync>>,
    /// Version fingerprint of the predictor model this node's output
    /// depends on (0 when the node is model-independent). Recorded in the
    /// manifest so a rerun after the deployed model changed — a different
    /// training seed, label scheme, or online-service configuration whose
    /// hot-swaps produce different decisions — invalidates the cached
    /// artifact even when the campaign fingerprint alone is unchanged.
    pub model_version: u64,
}

impl ArtifactNode {
    /// An artifact node writing `output` under the results directory.
    pub fn artifact(
        name: &str,
        output: &str,
        deps: &[&str],
        run: impl Fn() -> Result<String, String> + Send + Sync + 'static,
    ) -> Self {
        ArtifactNode {
            name: name.to_string(),
            output: Some(output.to_string()),
            deps: deps.iter().map(|d| d.to_string()).collect(),
            run: Arc::new(move || run().map(Some)),
            check: None,
            model_version: 0,
        }
    }

    /// A resource node: no output file, only shared in-process state.
    pub fn resource(
        name: &str,
        deps: &[&str],
        run: impl Fn() -> Result<(), String> + Send + Sync + 'static,
    ) -> Self {
        ArtifactNode {
            name: name.to_string(),
            output: None,
            deps: deps.iter().map(|d| d.to_string()).collect(),
            run: Arc::new(move || run().map(|()| None)),
            check: None,
            model_version: 0,
        }
    }

    /// Attaches an extra skip-validity predicate (builder style).
    pub fn with_check(mut self, check: impl Fn() -> bool + Send + Sync + 'static) -> Self {
        self.check = Some(Box::new(check));
        self
    }

    /// Tags the node with the predictor model version its output depends
    /// on (builder style).
    pub fn with_model_version(mut self, version: u64) -> Self {
        self.model_version = version;
        self
    }
}

impl std::fmt::Debug for ArtifactNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactNode")
            .field("name", &self.name)
            .field("output", &self.output)
            .field("deps", &self.deps)
            .field("model_version", &self.model_version)
            .finish_non_exhaustive()
    }
}

/// A validated artifact DAG.
#[derive(Debug)]
pub struct Dag {
    nodes: Vec<ArtifactNode>,
    /// `index_of[name]` — resolved once at validation.
    index_of: HashMap<String, usize>,
    /// `dependents[i]` — indices of nodes that depend on node `i`.
    dependents: Vec<Vec<usize>>,
}

impl Dag {
    /// Validates the node set: names must be unique, dependencies must
    /// resolve, and the graph must be acyclic.
    pub fn new(nodes: Vec<ArtifactNode>) -> Result<Dag, String> {
        let mut index_of = HashMap::new();
        for (i, node) in nodes.iter().enumerate() {
            if index_of.insert(node.name.clone(), i).is_some() {
                return Err(format!("duplicate node name '{}'", node.name));
            }
        }
        let mut dependents = vec![Vec::new(); nodes.len()];
        let mut indegree = vec![0usize; nodes.len()];
        for (i, node) in nodes.iter().enumerate() {
            for dep in &node.deps {
                let &j = index_of
                    .get(dep)
                    .ok_or_else(|| format!("node '{}' depends on unknown '{dep}'", node.name))?;
                if j == i {
                    return Err(format!("node '{}' depends on itself", node.name));
                }
                dependents[j].push(i);
                indegree[i] += 1;
            }
        }
        // Kahn's algorithm: every node must be reachable from the sources.
        let mut queue: VecDeque<usize> = (0..nodes.len()).filter(|&i| indegree[i] == 0).collect();
        let mut seen = 0usize;
        let mut remaining = indegree.clone();
        while let Some(i) = queue.pop_front() {
            seen += 1;
            for &d in &dependents[i] {
                remaining[d] -= 1;
                if remaining[d] == 0 {
                    queue.push_back(d);
                }
            }
        }
        if seen != nodes.len() {
            let stuck: Vec<&str> = (0..nodes.len())
                .filter(|&i| remaining[i] > 0)
                .map(|i| nodes[i].name.as_str())
                .collect();
            return Err(format!("dependency cycle involving {stuck:?}"));
        }
        Ok(Dag {
            nodes,
            index_of,
            dependents,
        })
    }

    /// The nodes, in insertion order.
    pub fn nodes(&self) -> &[ArtifactNode] {
        &self.nodes
    }

    /// Index of the named node.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.index_of.get(name).copied()
    }

    /// The named nodes plus, transitively, everything they depend on —
    /// the execution set for `--only`.
    pub fn closure_of(&self, names: &[&str]) -> Result<Vec<usize>, String> {
        let mut selected = vec![false; self.nodes.len()];
        let mut stack = Vec::new();
        for name in names {
            let i = self
                .index_of(name)
                .ok_or_else(|| format!("unknown artifact '{name}'"))?;
            stack.push(i);
        }
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut selected[i], true) {
                continue;
            }
            for dep in &self.nodes[i].deps {
                stack.push(self.index_of[dep]);
            }
        }
        Ok((0..self.nodes.len()).filter(|&i| selected[i]).collect())
    }
}

/// How a node's run resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStatus {
    /// Ran and produced (or refreshed) its output.
    Fresh,
    /// Up to date — inputs and output unchanged since the manifest entry.
    Skipped,
    /// Ran (including the retry) and failed.
    Failed,
    /// Exceeded [`RunOptions::node_timeout`]; the hung work thread was
    /// abandoned and the node failed without a retry.
    TimedOut,
    /// Not run because a dependency failed or was blocked.
    Blocked,
}

impl NodeStatus {
    /// Manifest string form.
    pub fn as_str(self) -> &'static str {
        match self {
            NodeStatus::Fresh => "fresh",
            NodeStatus::Skipped => "skipped",
            NodeStatus::Failed => "failed",
            NodeStatus::TimedOut => "timed_out",
            NodeStatus::Blocked => "blocked",
        }
    }

    /// Parses the manifest string form.
    pub fn parse(s: &str) -> Option<NodeStatus> {
        match s {
            "fresh" => Some(NodeStatus::Fresh),
            "skipped" => Some(NodeStatus::Skipped),
            "failed" => Some(NodeStatus::Failed),
            "timed_out" => Some(NodeStatus::TimedOut),
            "blocked" => Some(NodeStatus::Blocked),
            _ => None,
        }
    }
}

/// One node's provenance record in the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Node name.
    pub name: String,
    /// Output file name (empty for resource nodes).
    pub output: Option<String>,
    /// Configuration fingerprint the node ran under.
    pub fingerprint: u64,
    /// FNV-1a hash of the artifact text (0 for resource nodes).
    pub content_hash: u64,
    /// Version fingerprint of the predictor model the node ran under
    /// (0 for model-independent nodes, and for manifests written before
    /// the field existed — those never match a versioned node, forcing a
    /// rerun once, which is the safe direction).
    pub model_version: u64,
    /// Wall time of the run in milliseconds (0 when skipped).
    pub wall_ms: u64,
    /// How the node resolved.
    pub status: NodeStatus,
    /// Error message for failed/blocked nodes.
    pub error: Option<String>,
    /// Dependency names, for provenance.
    pub deps: Vec<String>,
}

/// The on-disk manifest: one entry per node plus run-level provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Master seed the campaign ran under.
    pub seed: u64,
    /// Configuration fingerprint of the whole run.
    pub fingerprint: u64,
    /// Per-node records.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// File name under the results directory.
    pub const FILE_NAME: &'static str = "manifest.json";

    /// Looks up the entry for `name`.
    pub fn entry(&self, name: &str) -> Option<&ManifestEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Renders the manifest as canonical JSON (fixed key order, no
    /// whitespace — the [`rush_obs::json`] discipline).
    pub fn to_json(&self) -> String {
        let entries: Vec<String> = self
            .entries
            .iter()
            .map(|e| {
                let deps: Vec<String> = e
                    .deps
                    .iter()
                    .map(|d| rush_obs::json::escape_str(d))
                    .collect();
                let mut obj = rush_obs::json::JsonObject::new()
                    .str("name", &e.name)
                    .str("output", e.output.as_deref().unwrap_or(""))
                    .str("fingerprint", &format!("{:016x}", e.fingerprint))
                    .str("content_hash", &format!("{:016x}", e.content_hash))
                    .str("model_version", &format!("{:016x}", e.model_version))
                    .u64("wall_ms", e.wall_ms)
                    .str("status", e.status.as_str());
                if let Some(err) = &e.error {
                    obj = obj.str("error", err);
                }
                obj.raw("deps", &format!("[{}]", deps.join(","))).finish()
            })
            .collect();
        rush_obs::json::JsonObject::new()
            .u64("version", 1)
            .u64("seed", self.seed)
            .str("fingerprint", &format!("{:016x}", self.fingerprint))
            .raw("artifacts", &format!("[{}]", entries.join(",")))
            .finish()
    }

    /// Parses [`Manifest::to_json`] output (a strict subset of JSON: the
    /// exact shape this module writes).
    pub fn from_json(text: &str) -> Result<Manifest, String> {
        let root = json_parse(text)?;
        let seed = root.u64_field("seed")?;
        let fingerprint = parse_hex(root.str_field("fingerprint")?)?;
        let mut entries = Vec::new();
        for item in root.list_field("artifacts")? {
            let output = item.str_field("output")?;
            entries.push(ManifestEntry {
                name: item.str_field("name")?.to_string(),
                output: if output.is_empty() {
                    None
                } else {
                    Some(output.to_string())
                },
                fingerprint: parse_hex(item.str_field("fingerprint")?)?,
                content_hash: parse_hex(item.str_field("content_hash")?)?,
                // Absent in manifests written before the field existed;
                // default 0 so they still parse (and force a rerun of any
                // node that now carries a version).
                model_version: match item.opt_str_field("model_version") {
                    Some(hex) => parse_hex(hex)?,
                    None => 0,
                },
                wall_ms: item.u64_field("wall_ms")?,
                status: NodeStatus::parse(item.str_field("status")?)
                    .ok_or_else(|| "bad status".to_string())?,
                error: item.opt_str_field("error").map(str::to_string),
                deps: item
                    .list_field("deps")?
                    .iter()
                    .map(|d| d.as_str().map(str::to_string))
                    .collect::<Result<_, _>>()?,
            });
        }
        Ok(Manifest {
            seed,
            fingerprint,
            entries,
        })
    }

    /// Loads the manifest from `dir`, returning `None` when absent or
    /// unreadable (a corrupt manifest just disables skipping).
    pub fn load(dir: &Path) -> Option<Manifest> {
        let text = fs::read_to_string(dir.join(Self::FILE_NAME)).ok()?;
        match Manifest::from_json(&text) {
            Ok(m) => Some(m),
            Err(e) => {
                eprintln!("[campaign] ignoring unreadable manifest: {e}");
                None
            }
        }
    }

    /// Writes the manifest into `dir` atomically.
    pub fn store(&self, dir: &Path) -> io::Result<()> {
        write_atomic(&dir.join(Self::FILE_NAME), self.to_json().as_bytes())
    }
}

/// Writes `bytes` to `path` via a `.tmp` sibling + rename, creating parent
/// directories as needed. The tmp name embeds the pid so concurrent
/// writers never clobber each other's partial files; rename settles the
/// race with a complete file either way.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("artifact");
    let tmp = path.with_file_name(format!(".{file_name}.{}.tmp", std::process::id()));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

/// Picks the worker-pool size for a machine with `cores` logical cores:
/// one worker per core, at least one. Each node runs on a single thread.
pub fn default_workers(cores: usize) -> usize {
    cores.max(1)
}

/// Options for one [`execute`] run.
pub struct RunOptions {
    /// Directory artifacts and the manifest are written into.
    pub results_dir: PathBuf,
    /// Worker threads (see [`default_workers`]).
    pub workers: usize,
    /// Ignore the previous manifest: run every selected node.
    pub force: bool,
    /// Configuration fingerprint of this run (seed, scale, config).
    pub fingerprint: u64,
    /// Master seed, recorded in the manifest.
    pub seed: u64,
    /// Node indices to execute (typically [`Dag::closure_of`]); `None`
    /// runs the whole DAG.
    pub only: Option<Vec<usize>>,
    /// Print per-node progress lines to stderr.
    pub verbose: bool,
    /// Per-node wall-clock budget. When set, each work function runs under
    /// a watchdog: a node that has not finished within the budget resolves
    /// [`NodeStatus::TimedOut`] (no retry — a hang is not transient), its
    /// dependents are blocked, and the DAG keeps draining instead of
    /// wedging `run_all`. The hung thread is abandoned, not killed: it
    /// must not hold the results directory hostage, which artifact nodes
    /// never do (the orchestrator owns all I/O). `None` disables the
    /// watchdog.
    pub node_timeout: Option<Duration>,
}

/// One node's outcome in a [`RunReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// Node name.
    pub name: String,
    /// How it resolved.
    pub status: NodeStatus,
    /// Wall milliseconds spent running it (0 when skipped/blocked).
    pub wall_ms: u64,
    /// Error message for failed/blocked nodes.
    pub error: Option<String>,
    /// Whether the node ran twice (first attempt failed, retry succeeded
    /// or failed again).
    pub retried: bool,
}

/// The outcome of one orchestrator run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Per-node outcomes, in DAG insertion order (selected nodes only).
    pub nodes: Vec<NodeReport>,
    /// The manifest as written to disk (includes preserved entries of
    /// unselected nodes).
    pub manifest: Manifest,
}

impl RunReport {
    /// Count of nodes with the given status.
    pub fn count(&self, status: NodeStatus) -> usize {
        self.nodes.iter().filter(|n| n.status == status).count()
    }

    /// True when every selected node resolved fresh or skipped.
    pub fn all_ok(&self) -> bool {
        self.nodes
            .iter()
            .all(|n| matches!(n.status, NodeStatus::Fresh | NodeStatus::Skipped))
    }
}

/// Per-node scheduling state inside the execution loop.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    /// Not selected by `--only`; its previous manifest entry is preserved.
    Pruned,
    /// Waiting on `usize` unresolved dependencies.
    Waiting(usize),
    /// In the ready queue or running on a worker.
    Active,
    /// Resolved; `unchanged` = safe for dependents to skip over (skipped,
    /// or a fresh artifact whose content hash equals the previous run's; a
    /// fresh resource node has no output to compare, so it never is).
    Done { status: NodeStatus, unchanged: bool },
}

struct ExecState {
    slots: Vec<Slot>,
    ready: VecDeque<usize>,
    /// Resolved outcomes, filled as nodes finish.
    outcomes: Vec<Option<(NodeReport, ManifestEntry)>>,
    running: usize,
}

/// Executes the selected portion of `dag` under `opts`.
///
/// Returns an error only for setup problems (unreadable results dir);
/// node failures are reported per node, not as an `Err`.
pub fn execute(dag: &Dag, opts: &RunOptions) -> Result<RunReport, String> {
    fs::create_dir_all(&opts.results_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.results_dir.display()))?;
    let previous = Manifest::load(&opts.results_dir);
    let selected: Vec<bool> = match &opts.only {
        None => vec![true; dag.nodes.len()],
        Some(indices) => {
            let mut s = vec![false; dag.nodes.len()];
            for &i in indices {
                s[i] = true;
            }
            s
        }
    };

    let mut slots = Vec::with_capacity(dag.nodes.len());
    let mut ready = VecDeque::new();
    for (i, node) in dag.nodes.iter().enumerate() {
        if !selected[i] {
            slots.push(Slot::Pruned);
            continue;
        }
        let waiting = node
            .deps
            .iter()
            .filter(|d| selected[dag.index_of[*d]])
            .count();
        if waiting == 0 {
            slots.push(Slot::Active);
            ready.push_back(i);
        } else {
            slots.push(Slot::Waiting(waiting));
        }
    }

    let state = Mutex::new(ExecState {
        slots,
        ready,
        outcomes: (0..dag.nodes.len()).map(|_| None).collect(),
        running: 0,
    });
    let work_available = Condvar::new();

    let workers = opts.workers.max(1);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| worker_loop(dag, opts, previous.as_ref(), &state, &work_available));
        }
    });

    let state = state.into_inner().unwrap();
    let mut nodes = Vec::new();
    let mut entries = Vec::new();
    for (i, outcome) in state.outcomes.into_iter().enumerate() {
        match outcome {
            Some((report, entry)) => {
                nodes.push(report);
                entries.push(entry);
            }
            None => {
                // Pruned: preserve the previous manifest entry so a later
                // full run can still skip the node.
                if let Some(prev) = previous.as_ref().and_then(|m| m.entry(&dag.nodes[i].name)) {
                    entries.push(prev.clone());
                }
            }
        }
    }
    // Manifest order follows the DAG; entries of nodes the DAG no longer
    // contains are dropped.
    entries.sort_by_key(|e| dag.index_of(&e.name).unwrap_or(usize::MAX));
    let manifest = Manifest {
        seed: opts.seed,
        fingerprint: opts.fingerprint,
        entries,
    };
    manifest
        .store(&opts.results_dir)
        .map_err(|e| format!("cannot write manifest: {e}"))?;
    Ok(RunReport { nodes, manifest })
}

fn worker_loop(
    dag: &Dag,
    opts: &RunOptions,
    previous: Option<&Manifest>,
    state: &Mutex<ExecState>,
    work_available: &Condvar,
) {
    loop {
        let i = {
            let mut st = state.lock().unwrap();
            loop {
                if let Some(i) = st.ready.pop_front() {
                    st.running += 1;
                    break i;
                }
                if st.running == 0 {
                    return; // queue drained and nobody can refill it
                }
                st = work_available.wait(st).unwrap();
            }
        };

        let node = &dag.nodes[i];
        let resolution = resolve_node(node, dag, opts, previous, state);

        let mut st = state.lock().unwrap();
        let unchanged = match resolution.0.status {
            NodeStatus::Skipped => true,
            NodeStatus::Fresh if node.output.is_some() => {
                let prev_hash = previous
                    .and_then(|m| m.entry(&node.name))
                    .map(|e| e.content_hash);
                prev_hash == Some(resolution.1.content_hash)
            }
            _ => false,
        };
        let failed = matches!(
            resolution.0.status,
            NodeStatus::Failed | NodeStatus::TimedOut | NodeStatus::Blocked
        );
        st.slots[i] = Slot::Done {
            status: resolution.0.status,
            unchanged,
        };
        st.outcomes[i] = Some(resolution);
        for &d in &dag.dependents[i] {
            match st.slots[d] {
                Slot::Waiting(ref mut n) => {
                    *n -= 1;
                    if *n == 0 {
                        if failed {
                            block_node(dag, d, &node.name, &mut st);
                        } else {
                            st.slots[d] = Slot::Active;
                            st.ready.push_back(d);
                        }
                    } else if failed {
                        block_node(dag, d, &node.name, &mut st);
                    }
                }
                Slot::Pruned | Slot::Active | Slot::Done { .. } => {}
            }
        }
        st.running -= 1;
        work_available.notify_all();
    }
}

/// Marks `d` (and transitively its own dependents) blocked on `dep_name`.
fn block_node(dag: &Dag, d: usize, dep_name: &str, st: &mut ExecState) {
    let error = format!("dependency '{dep_name}' failed");
    st.slots[d] = Slot::Done {
        status: NodeStatus::Blocked,
        unchanged: false,
    };
    let node = &dag.nodes[d];
    st.outcomes[d] = Some((
        NodeReport {
            name: node.name.clone(),
            status: NodeStatus::Blocked,
            wall_ms: 0,
            error: Some(error.clone()),
            retried: false,
        },
        ManifestEntry {
            name: node.name.clone(),
            output: node.output.clone(),
            fingerprint: 0,
            content_hash: 0,
            model_version: node.model_version,
            wall_ms: 0,
            status: NodeStatus::Blocked,
            error: Some(error),
            deps: node.deps.clone(),
        },
    ));
    for &dd in &dag.dependents[d].clone() {
        if matches!(st.slots[dd], Slot::Waiting(_)) {
            block_node(dag, dd, &dag.nodes[d].name, st);
        }
    }
}

/// Decides skip-vs-run for a ready node and, when running, executes it
/// with one retry. Called without the state lock held; only reads
/// dependency resolutions through short re-locks.
fn resolve_node(
    node: &ArtifactNode,
    dag: &Dag,
    opts: &RunOptions,
    previous: Option<&Manifest>,
    state: &Mutex<ExecState>,
) -> (NodeReport, ManifestEntry) {
    if let Some(prev) = (!opts.force)
        .then(|| previous.and_then(|m| m.entry(&node.name)))
        .flatten()
    {
        if can_skip(node, prev, dag, opts, state) {
            if opts.verbose {
                eprintln!("[campaign] {:<28} up to date, skipped", node.name);
            }
            return (
                NodeReport {
                    name: node.name.clone(),
                    status: NodeStatus::Skipped,
                    wall_ms: 0,
                    error: None,
                    retried: false,
                },
                ManifestEntry {
                    name: node.name.clone(),
                    output: node.output.clone(),
                    fingerprint: prev.fingerprint,
                    content_hash: prev.content_hash,
                    model_version: node.model_version,
                    wall_ms: 0,
                    status: NodeStatus::Skipped,
                    error: None,
                    deps: node.deps.clone(),
                },
            );
        }
    }

    if opts.verbose {
        eprintln!("[campaign] {:<28} running...", node.name);
    }
    let started = Instant::now();
    let mut retried = false;
    let mut attempt = run_guarded(node, opts.node_timeout);
    if let Attempt::Err(e) = &attempt {
        retried = true;
        if opts.verbose {
            eprintln!("[campaign] {:<28} failed ({e}), retrying once", node.name);
        }
        attempt = run_guarded(node, opts.node_timeout);
    }
    let wall_ms = started.elapsed().as_millis() as u64;

    match attempt {
        Attempt::TimedOut => {
            // A hang is not transient: no retry, and the manifest records
            // the distinct status so `run_all` output names the wedge.
            let error = format!(
                "timed out after {:.1}s",
                opts.node_timeout.unwrap_or_default().as_secs_f64()
            );
            if opts.verbose {
                eprintln!("[campaign] {:<28} TIMED OUT ({error})", node.name);
            }
            let (mut report, mut entry) = failure(node, wall_ms, retried, error);
            report.status = NodeStatus::TimedOut;
            entry.status = NodeStatus::TimedOut;
            (report, entry)
        }
        Attempt::Ok(content) => {
            let content_hash = match (&node.output, &content) {
                (Some(file), Some(text)) => {
                    let hash = fnv1a(text.as_bytes());
                    if let Err(e) = write_atomic(&opts.results_dir.join(file), text.as_bytes()) {
                        return failure(node, wall_ms, retried, format!("write {file}: {e}"));
                    }
                    hash
                }
                _ => 0,
            };
            if opts.verbose {
                eprintln!("[campaign] {:<28} fresh in {wall_ms} ms", node.name);
            }
            (
                NodeReport {
                    name: node.name.clone(),
                    status: NodeStatus::Fresh,
                    wall_ms,
                    error: None,
                    retried,
                },
                ManifestEntry {
                    name: node.name.clone(),
                    output: node.output.clone(),
                    fingerprint: opts.fingerprint,
                    content_hash,
                    model_version: node.model_version,
                    wall_ms,
                    status: NodeStatus::Fresh,
                    error: None,
                    deps: node.deps.clone(),
                },
            )
        }
        Attempt::Err(e) => {
            if opts.verbose {
                eprintln!("[campaign] {:<28} FAILED: {e}", node.name);
            }
            failure(node, wall_ms, retried, e)
        }
    }
}

fn failure(
    node: &ArtifactNode,
    wall_ms: u64,
    retried: bool,
    error: String,
) -> (NodeReport, ManifestEntry) {
    (
        NodeReport {
            name: node.name.clone(),
            status: NodeStatus::Failed,
            wall_ms,
            error: Some(error.clone()),
            retried,
        },
        ManifestEntry {
            name: node.name.clone(),
            output: node.output.clone(),
            fingerprint: 0,
            content_hash: 0,
            model_version: node.model_version,
            wall_ms,
            status: NodeStatus::Failed,
            error: Some(error),
            deps: node.deps.clone(),
        },
    )
}

/// A node may be skipped when its previous entry ran under the same
/// fingerprint and predictor model version, its recorded output is still
/// on disk and unmodified, every dependency resolved unchanged, and its
/// extra `check` (if any) holds.
fn can_skip(
    node: &ArtifactNode,
    prev: &ManifestEntry,
    dag: &Dag,
    opts: &RunOptions,
    state: &Mutex<ExecState>,
) -> bool {
    if prev.fingerprint != opts.fingerprint
        || prev.model_version != node.model_version
        || !matches!(prev.status, NodeStatus::Fresh | NodeStatus::Skipped)
        || prev.deps != node.deps
    {
        return false;
    }
    if let Some(file) = &node.output {
        match fs::read(opts.results_dir.join(file)) {
            Ok(bytes) => {
                if fnv1a(&bytes) != prev.content_hash {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
    if let Some(check) = &node.check {
        if !check() {
            return false;
        }
    }
    let st = state.lock().unwrap();
    node.deps.iter().all(|dep| {
        match st.slots[dag.index_of[dep]] {
            // Unselected deps are treated as unchanged: the manifest entry
            // comparison above already pinned this node's own inputs.
            Slot::Pruned => true,
            Slot::Done { unchanged, .. } => unchanged,
            _ => false,
        }
    })
}

/// How one guarded attempt of a node's work function resolved.
enum Attempt {
    Ok(NodeOutput),
    Err(String),
    /// The watchdog expired; the work thread may still be running, but the
    /// orchestrator has moved on.
    TimedOut,
}

fn run_guarded(node: &ArtifactNode, timeout: Option<Duration>) -> Attempt {
    let Some(timeout) = timeout else {
        return attempt_of(catch_unwind(AssertUnwindSafe(|| (node.run)())));
    };
    // Watchdog: run the work function on a detached thread and wait with a
    // deadline. On timeout the thread is abandoned — it holds only a clone
    // of the `Arc`'d work closure, so dropping our side leaks nothing the
    // node doesn't own, and a later process exit reaps it.
    let run = node.run.clone();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let result = catch_unwind(AssertUnwindSafe(|| run()));
        let _ = tx.send(result); // receiver gone = watchdog already fired
    });
    match rx.recv_timeout(timeout) {
        Ok(result) => attempt_of(result),
        Err(mpsc::RecvTimeoutError::Timeout) => Attempt::TimedOut,
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            Attempt::Err("work thread vanished without a result".to_string())
        }
    }
}

fn attempt_of(caught: std::thread::Result<Result<NodeOutput, String>>) -> Attempt {
    match caught {
        Ok(Ok(output)) => Attempt::Ok(output),
        Ok(Err(e)) => Attempt::Err(e),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_string());
            Attempt::Err(format!("panicked: {msg}"))
        }
    }
}

// ---------------------------------------------------------------------
// Minimal JSON reader for the manifest (the exact subset `to_json` emits:
// objects, arrays, strings, unsigned integers).
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum JsonVal {
    Str(String),
    U64(u64),
    List(Vec<JsonVal>),
    Obj(Vec<(String, JsonVal)>),
}

impl JsonVal {
    fn as_str(&self) -> Result<&str, String> {
        match self {
            JsonVal::Str(s) => Ok(s),
            other => Err(format!("expected string, got {other:?}")),
        }
    }

    fn field(&self, name: &str) -> Result<&JsonVal, String> {
        match self {
            JsonVal::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field '{name}'")),
            other => Err(format!("expected object, got {other:?}")),
        }
    }

    fn str_field(&self, name: &str) -> Result<&str, String> {
        self.field(name)?.as_str()
    }

    fn opt_str_field(&self, name: &str) -> Option<&str> {
        self.field(name).ok().and_then(|v| v.as_str().ok())
    }

    fn u64_field(&self, name: &str) -> Result<u64, String> {
        match self.field(name)? {
            JsonVal::U64(v) => Ok(*v),
            other => Err(format!("field '{name}': expected integer, got {other:?}")),
        }
    }

    fn list_field(&self, name: &str) -> Result<&[JsonVal], String> {
        match self.field(name)? {
            JsonVal::List(items) => Ok(items),
            other => Err(format!("field '{name}': expected array, got {other:?}")),
        }
    }
}

fn parse_hex(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|e| format!("bad hex '{s}': {e}"))
}

fn json_parse(text: &str) -> Result<JsonVal, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let val = json_val(bytes, &mut pos)?;
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(val)
}

fn json_val(bytes: &[u8], pos: &mut usize) -> Result<JsonVal, String> {
    match bytes.get(*pos) {
        Some(b'"') => Ok(JsonVal::Str(json_str(bytes, pos)?)),
        Some(b'0'..=b'9') => {
            let start = *pos;
            while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
                *pos += 1;
            }
            std::str::from_utf8(&bytes[start..*pos])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(JsonVal::U64)
                .ok_or_else(|| format!("bad number at offset {start}"))
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonVal::List(items));
            }
            loop {
                items.push(json_val(bytes, pos)?);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonVal::List(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonVal::Obj(fields));
            }
            loop {
                let key = json_str(bytes, pos)?;
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at offset {pos}"));
                }
                *pos += 1;
                fields.push((key, json_val(bytes, pos)?));
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonVal::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        _ => Err(format!("unexpected byte at offset {pos}")),
    }
}

fn json_str(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at offset {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or_else(|| format!("bad \\u escape at offset {pos}"))?;
                        out.push(hex);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
                *pos += 1;
            }
            Some(&b) => {
                // Multi-byte UTF-8 sequences pass through unmodified.
                let start = *pos;
                let len = match b {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let s = bytes
                    .get(start..start + len)
                    .and_then(|chunk| std::str::from_utf8(chunk).ok())
                    .ok_or_else(|| format!("bad utf-8 at offset {start}"))?;
                out.push_str(s);
                *pos += len;
            }
            None => return Err("unterminated string".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rush-campaign-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn opts(dir: &Path) -> RunOptions {
        RunOptions {
            results_dir: dir.to_path_buf(),
            workers: 2,
            force: false,
            fingerprint: 0xABCD,
            seed: 7,
            only: None,
            verbose: false,
            node_timeout: None,
        }
    }

    fn const_node(name: &str, deps: &[&str], text: &str) -> ArtifactNode {
        let text = text.to_string();
        ArtifactNode::artifact(name, &format!("{name}.txt"), deps, move || Ok(text.clone()))
    }

    #[test]
    fn dag_rejects_duplicates_unknowns_and_cycles() {
        let dup = Dag::new(vec![const_node("a", &[], "x"), const_node("a", &[], "y")]);
        assert!(dup.unwrap_err().contains("duplicate"));
        let unknown = Dag::new(vec![const_node("a", &["ghost"], "x")]);
        assert!(unknown.unwrap_err().contains("unknown"));
        let cycle = Dag::new(vec![
            const_node("a", &["b"], "x"),
            const_node("b", &["a"], "y"),
        ]);
        assert!(cycle.unwrap_err().contains("cycle"));
        let self_dep = Dag::new(vec![const_node("a", &["a"], "x")]);
        assert!(self_dep.unwrap_err().contains("itself"));
    }

    #[test]
    fn closure_pulls_transitive_deps() {
        let dag = Dag::new(vec![
            const_node("a", &[], "x"),
            const_node("b", &["a"], "y"),
            const_node("c", &["b"], "z"),
            const_node("d", &[], "w"),
        ])
        .unwrap();
        let closure = dag.closure_of(&["c"]).unwrap();
        assert_eq!(closure, vec![0, 1, 2]);
        assert!(dag.closure_of(&["ghost"]).is_err());
    }

    #[test]
    fn executes_writes_outputs_and_manifest() {
        let dir = tmp_dir("exec");
        let dag = Dag::new(vec![
            const_node("a", &[], "alpha\n"),
            const_node("b", &["a"], "beta\n"),
        ])
        .unwrap();
        let report = execute(&dag, &opts(&dir)).unwrap();
        assert!(report.all_ok());
        assert_eq!(report.count(NodeStatus::Fresh), 2);
        assert_eq!(fs::read_to_string(dir.join("a.txt")).unwrap(), "alpha\n");
        assert_eq!(fs::read_to_string(dir.join("b.txt")).unwrap(), "beta\n");
        let manifest = Manifest::load(&dir).unwrap();
        assert_eq!(manifest, report.manifest);
        assert_eq!(manifest.entries.len(), 2);
        assert_eq!(manifest.entry("a").unwrap().status, NodeStatus::Fresh);
        // A literal, so manifests written by earlier builds stay skippable.
        assert_eq!(
            manifest.entry("b").unwrap().content_hash,
            0x0b0b_885e_a629_85f7
        );
        // No stray tmp files.
        assert!(fs::read_dir(&dir).unwrap().all(|e| !e
            .unwrap()
            .path()
            .to_str()
            .unwrap()
            .ends_with(".tmp")));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn second_run_skips_everything() {
        let dir = tmp_dir("skip");
        let runs = Arc::new(AtomicUsize::new(0));
        let make = |runs: Arc<AtomicUsize>| {
            Dag::new(vec![
                {
                    let runs = runs.clone();
                    ArtifactNode::artifact("a", "a.txt", &[], move || {
                        runs.fetch_add(1, Ordering::SeqCst);
                        Ok("alpha\n".to_string())
                    })
                },
                {
                    let runs = runs.clone();
                    ArtifactNode::artifact("b", "b.txt", &["a"], move || {
                        runs.fetch_add(1, Ordering::SeqCst);
                        Ok("beta\n".to_string())
                    })
                },
            ])
            .unwrap()
        };
        let dag = make(runs.clone());
        let first = execute(&dag, &opts(&dir)).unwrap();
        assert_eq!(first.count(NodeStatus::Fresh), 2);
        assert_eq!(runs.load(Ordering::SeqCst), 2);
        let second = execute(&dag, &opts(&dir)).unwrap();
        assert_eq!(second.count(NodeStatus::Skipped), 2);
        assert_eq!(runs.load(Ordering::SeqCst), 2, "no node re-ran");
        // force re-runs everything.
        let mut forced = opts(&dir);
        forced.force = true;
        let third = execute(&dag, &forced).unwrap();
        assert_eq!(third.count(NodeStatus::Fresh), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn changed_fingerprint_or_deleted_output_reruns() {
        let dir = tmp_dir("invalidate");
        let dag = Dag::new(vec![const_node("a", &[], "alpha\n")]).unwrap();
        execute(&dag, &opts(&dir)).unwrap();
        // Fingerprint change: re-run.
        let mut other = opts(&dir);
        other.fingerprint = 0x9999;
        let rerun = execute(&dag, &other).unwrap();
        assert_eq!(rerun.count(NodeStatus::Fresh), 1);
        // Output deleted: re-run even with matching fingerprint.
        fs::remove_file(dir.join("a.txt")).unwrap();
        let rerun = execute(&dag, &other).unwrap();
        assert_eq!(rerun.count(NodeStatus::Fresh), 1);
        // Output edited by hand: hash mismatch, re-run (and repair).
        fs::write(dir.join("a.txt"), "tampered").unwrap();
        let rerun = execute(&dag, &other).unwrap();
        assert_eq!(rerun.count(NodeStatus::Fresh), 1);
        assert_eq!(fs::read_to_string(dir.join("a.txt")).unwrap(), "alpha\n");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failure_is_retried_once_then_blocks_dependents_only() {
        let dir = tmp_dir("fail");
        let attempts = Arc::new(AtomicUsize::new(0));
        let attempts_in = attempts.clone();
        let dag = Dag::new(vec![
            ArtifactNode::artifact("bad", "bad.txt", &[], move || {
                attempts_in.fetch_add(1, Ordering::SeqCst);
                Err("boom".to_string())
            }),
            const_node("child", &["bad"], "never\n"),
            const_node("grandchild", &["child"], "never\n"),
            const_node("independent", &[], "fine\n"),
        ])
        .unwrap();
        let report = execute(&dag, &opts(&dir)).unwrap();
        assert_eq!(attempts.load(Ordering::SeqCst), 2, "one retry");
        assert_eq!(report.count(NodeStatus::Failed), 1);
        assert_eq!(report.count(NodeStatus::Blocked), 2);
        assert_eq!(report.count(NodeStatus::Fresh), 1);
        assert!(!report.all_ok());
        assert!(dir.join("independent.txt").exists());
        assert!(!dir.join("bad.txt").exists());
        let manifest = Manifest::load(&dir).unwrap();
        assert_eq!(manifest.entry("bad").unwrap().status, NodeStatus::Failed);
        assert!(manifest
            .entry("child")
            .unwrap()
            .error
            .as_deref()
            .unwrap()
            .contains("'bad' failed"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hung_node_times_out_without_wedging_the_dag() {
        let dir = tmp_dir("watchdog");
        let dag = Dag::new(vec![
            ArtifactNode::artifact("hung", "hung.txt", &[], || {
                std::thread::sleep(Duration::from_secs(60));
                Ok("never\n".to_string())
            }),
            const_node("child", &["hung"], "never\n"),
            const_node("independent", &[], "fine\n"),
        ])
        .unwrap();
        let mut o = opts(&dir);
        o.node_timeout = Some(Duration::from_millis(100));
        let started = Instant::now();
        let report = execute(&dag, &o).unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "the watchdog must not wait for the hung node"
        );
        assert_eq!(report.count(NodeStatus::TimedOut), 1);
        assert_eq!(report.count(NodeStatus::Blocked), 1);
        assert_eq!(report.count(NodeStatus::Fresh), 1);
        assert!(!report.all_ok());
        let timed_out = report.nodes.iter().find(|n| n.name == "hung").unwrap();
        assert!(!timed_out.retried, "a hang is not retried");
        assert!(timed_out.error.as_deref().unwrap().contains("timed out"));
        let manifest = Manifest::load(&dir).unwrap();
        assert_eq!(manifest.entry("hung").unwrap().status, NodeStatus::TimedOut);
        assert!(!dir.join("hung.txt").exists());
        assert!(dir.join("independent.txt").exists());
        // A timed-out entry never satisfies a later skip check: the node
        // re-runs (and succeeds) once the timeout allows it.
        let quick = Dag::new(vec![
            ArtifactNode::artifact("hung", "hung.txt", &[], || Ok("done\n".to_string())),
            const_node("child", &["hung"], "ok\n"),
            const_node("independent", &[], "fine\n"),
        ])
        .unwrap();
        let report = execute(&quick, &opts(&dir)).unwrap();
        assert_eq!(
            report.manifest.entry("hung").unwrap().status,
            NodeStatus::Fresh
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn timed_out_status_round_trips_in_the_manifest() {
        assert_eq!(NodeStatus::parse("timed_out"), Some(NodeStatus::TimedOut));
        assert_eq!(NodeStatus::TimedOut.as_str(), "timed_out");
    }

    #[test]
    fn panic_is_caught_and_retried() {
        let dir = tmp_dir("panic");
        let attempts = Arc::new(AtomicUsize::new(0));
        let attempts_in = attempts.clone();
        let dag = Dag::new(vec![ArtifactNode::artifact(
            "flaky",
            "flaky.txt",
            &[],
            move || {
                if attempts_in.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("transient");
                }
                Ok("recovered\n".to_string())
            },
        )])
        .unwrap();
        let report = execute(&dag, &opts(&dir)).unwrap();
        assert_eq!(report.count(NodeStatus::Fresh), 1);
        assert!(report.nodes[0].retried);
        assert_eq!(
            fs::read_to_string(dir.join("flaky.txt")).unwrap(),
            "recovered\n"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn only_selection_preserves_unselected_manifest_entries() {
        let dir = tmp_dir("only");
        let dag = Dag::new(vec![
            const_node("a", &[], "alpha\n"),
            const_node("b", &[], "beta\n"),
        ])
        .unwrap();
        execute(&dag, &opts(&dir)).unwrap();
        // Run only "a" again under a new fingerprint; "b"'s entry must
        // survive untouched.
        let mut o = opts(&dir);
        o.fingerprint = 0x1111;
        o.only = Some(dag.closure_of(&["a"]).unwrap());
        let report = execute(&dag, &o).unwrap();
        assert_eq!(report.nodes.len(), 1);
        let manifest = Manifest::load(&dir).unwrap();
        assert_eq!(manifest.entries.len(), 2);
        assert_eq!(manifest.entry("b").unwrap().fingerprint, 0xABCD);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resource_node_with_failing_check_reruns() {
        let dir = tmp_dir("check");
        let runs = Arc::new(AtomicUsize::new(0));
        let make = |ok: bool, runs: Arc<AtomicUsize>| {
            Dag::new(vec![ArtifactNode::resource("res", &[], move || {
                runs.fetch_add(1, Ordering::SeqCst);
                Ok(())
            })
            .with_check(move || ok)])
            .unwrap()
        };
        execute(&make(true, runs.clone()), &opts(&dir)).unwrap();
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        // check() holds: skipped.
        execute(&make(true, runs.clone()), &opts(&dir)).unwrap();
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        // check() fails (e.g. cache file deleted): re-run.
        execute(&make(false, runs.clone()), &opts(&dir)).unwrap();
        assert_eq!(runs.load(Ordering::SeqCst), 2);
        fs::remove_dir_all(&dir).ok();
    }

    /// A resource node that re-runs (say, its campaign cache came from
    /// another build) may have produced different state, and has no output
    /// hash to prove otherwise: its dependents re-run too.
    #[test]
    fn rerun_resource_node_invalidates_dependents() {
        let dir = tmp_dir("resource-rerun");
        let make = |ok: bool| {
            Dag::new(vec![
                ArtifactNode::resource("res", &[], || Ok(())).with_check(move || ok),
                const_node("down", &["res"], "same\n"),
            ])
            .unwrap()
        };
        execute(&make(true), &opts(&dir)).unwrap();
        let report = execute(&make(true), &opts(&dir)).unwrap();
        assert_eq!(report.count(NodeStatus::Skipped), 2);
        let report = execute(&make(false), &opts(&dir)).unwrap();
        assert_eq!(
            report.manifest.entry("down").unwrap().status,
            NodeStatus::Fresh,
            "the resource re-ran, so its dependent must too"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn changed_dep_content_invalidates_dependents() {
        let dir = tmp_dir("depchange");
        let make = |text: &str| {
            let text = text.to_string();
            Dag::new(vec![
                ArtifactNode::artifact("up", "up.txt", &[], move || Ok(text.clone())),
                const_node("down", &["up"], "same\n"),
            ])
            .unwrap()
        };
        execute(&make("v1\n"), &opts(&dir)).unwrap();
        // Upstream content changes while the fingerprint stays equal (the
        // conservative case: fingerprints should change too, but content
        // hashes are the backstop). Delete up.txt to force "up" fresh with
        // different bytes.
        fs::remove_file(dir.join("up.txt")).unwrap();
        let report = execute(&make("v2\n"), &opts(&dir)).unwrap();
        assert_eq!(
            report.manifest.entry("up").unwrap().status,
            NodeStatus::Fresh
        );
        assert_eq!(
            report.manifest.entry("down").unwrap().status,
            NodeStatus::Fresh,
            "downstream re-ran because upstream bytes changed"
        );
        // And when the upstream re-run reproduces identical bytes, the
        // downstream may skip.
        fs::remove_file(dir.join("up.txt")).unwrap();
        let report = execute(&make("v2\n"), &opts(&dir)).unwrap();
        assert_eq!(
            report.manifest.entry("up").unwrap().status,
            NodeStatus::Fresh
        );
        assert_eq!(
            report.manifest.entry("down").unwrap().status,
            NodeStatus::Skipped
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_json_round_trips() {
        let manifest = Manifest {
            seed: 0xC0FFEE,
            fingerprint: 0xDEAD_BEEF,
            entries: vec![
                ManifestEntry {
                    name: "fig05_adaa_variation".into(),
                    output: Some("fig05.txt".into()),
                    fingerprint: 0xDEAD_BEEF,
                    content_hash: 0x1234,
                    model_version: 0xFACE,
                    wall_ms: 420,
                    status: NodeStatus::Fresh,
                    error: None,
                    deps: vec!["campaign_data".into(), "model_default".into()],
                },
                ManifestEntry {
                    name: "campaign_data".into(),
                    output: None,
                    fingerprint: 0xDEAD_BEEF,
                    content_hash: 0,
                    model_version: 0,
                    wall_ms: 0,
                    status: NodeStatus::Skipped,
                    error: None,
                    deps: vec![],
                },
                ManifestEntry {
                    name: "broken \"quote\"".into(),
                    output: Some("x.txt".into()),
                    fingerprint: 1,
                    content_hash: 2,
                    model_version: 0,
                    wall_ms: 3,
                    status: NodeStatus::Failed,
                    error: Some("boom\nline2".into()),
                    deps: vec![],
                },
            ],
        };
        let json = manifest.to_json();
        let back = Manifest::from_json(&json).unwrap();
        assert_eq!(back, manifest);
        assert!(Manifest::from_json("garbage").is_err());
        assert!(Manifest::from_json("{}").is_err());
    }

    #[test]
    fn manifest_without_model_version_still_parses() {
        // A manifest written before the field existed: every entry parses
        // with model_version 0.
        let legacy = r#"{"version":1,"seed":7,"fingerprint":"000000000000abcd","artifacts":[{"name":"a","output":"a.txt","fingerprint":"000000000000abcd","content_hash":"0000000000000001","wall_ms":5,"status":"fresh","deps":[]}]}"#;
        let manifest = Manifest::from_json(legacy).unwrap();
        assert_eq!(manifest.entry("a").unwrap().model_version, 0);
    }

    #[test]
    fn changed_model_version_invalidates_node() {
        let dir = tmp_dir("modelver");
        let make = |version: u64| {
            Dag::new(vec![ArtifactNode::artifact("a", "a.txt", &[], || {
                Ok("alpha\n".to_string())
            })
            .with_model_version(version)])
            .unwrap()
        };
        execute(&make(1), &opts(&dir)).unwrap();
        // Same model version: skip.
        let report = execute(&make(1), &opts(&dir)).unwrap();
        assert_eq!(report.count(NodeStatus::Skipped), 1);
        assert_eq!(report.manifest.entry("a").unwrap().model_version, 1);
        // Deployed predictor model changed (hot-swap producing a different
        // version fingerprint): the cached artifact is stale even though
        // the campaign fingerprint and output bytes are unchanged.
        let report = execute(&make(2), &opts(&dir)).unwrap();
        assert_eq!(report.count(NodeStatus::Fresh), 1);
        assert_eq!(report.manifest.entry("a").unwrap().model_version, 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn default_workers_budget() {
        assert_eq!(default_workers(8), 8);
        assert_eq!(default_workers(1), 1);
        assert_eq!(default_workers(0), 1);
    }

    #[test]
    fn write_atomic_creates_parents_and_replaces() {
        let dir = tmp_dir("atomic");
        let path = dir.join("deep").join("file.txt");
        write_atomic(&path, b"one").unwrap();
        write_atomic(&path, b"two").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "two");
        fs::remove_dir_all(&dir).ok();
    }
}
