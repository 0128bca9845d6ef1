//! Schedule tracing: what happened, when.
//!
//! The engine keeps one append-only log of [`EventRecord`]s per run
//! (`ScheduleResult::events`) and, beside it, a [`ScheduleTrace`]: the
//! queue-length and busy-node series sampled at every job and node
//! lifecycle record ([`ObsEvent::is_lifecycle`]). The series power the
//! utilization analyses of Section VI-C; a text Gantt renderer eyeballs
//! schedules.
//!
//! [`ObsEvent::is_lifecycle`]: rush_obs::ObsEvent::is_lifecycle

use crate::job::CompletedJob;
use rush_obs::event::{records_from_val, records_to_val};
use rush_obs::EventRecord;
use rush_simkit::series::TimeSeries;
use rush_simkit::snapshot::{Restorable, Snapshot, SnapshotError, Val};
use rush_simkit::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The queue-length and busy-node series of one run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ScheduleTrace {
    queue_len: TimeSeries,
    busy_nodes: TimeSeries,
}

impl ScheduleTrace {
    /// Empty series.
    pub fn new() -> Self {
        ScheduleTrace::default()
    }

    /// Samples the instantaneous queue/busy state at `at`.
    pub fn sample(&mut self, at: SimTime, queue_len: usize, busy_nodes: usize) {
        self.queue_len.push(at, queue_len as f64);
        self.busy_nodes.push(at, busy_nodes as f64);
    }

    /// The queue-length series.
    pub fn queue_len_series(&self) -> &TimeSeries {
        &self.queue_len
    }

    /// The busy-node series.
    pub fn busy_nodes_series(&self) -> &TimeSeries {
        &self.busy_nodes
    }

    /// Mean busy nodes over `[from, to)` — time-weighted would be exact;
    /// this event-weighted mean is the standard quick estimate.
    pub fn mean_busy_nodes(&self, from: SimTime, to: SimTime) -> f64 {
        self.busy_nodes.aggregate(from, to).mean
    }
}

impl Snapshot for ScheduleTrace {
    fn to_val(&self) -> Val {
        Val::map()
            .with("queue_len", self.queue_len.to_val())
            .with("busy_nodes", self.busy_nodes.to_val())
    }
}

impl Restorable for ScheduleTrace {
    fn from_val(v: &Val) -> Result<Self, SnapshotError> {
        Ok(ScheduleTrace {
            queue_len: TimeSeries::from_val(v.get("queue_len")?)?,
            busy_nodes: TimeSeries::from_val(v.get("busy_nodes")?)?,
        })
    }
}

/// The encoding of a run's log and its series: the `log` key of an engine
/// snapshot, and what `difftest::outcome_digest` hashes.
pub fn log_to_val(records: &[EventRecord], trace: &ScheduleTrace) -> Val {
    trace.to_val().with("records", records_to_val(records))
}

/// Inverse of [`log_to_val`].
pub fn log_from_val(v: &Val) -> Result<(Vec<EventRecord>, ScheduleTrace), SnapshotError> {
    Ok((
        records_from_val(v.get("records")?)?,
        ScheduleTrace::from_val(v)?,
    ))
}

/// Renders completed jobs as a text Gantt chart: one row per job (earliest
/// start first, at most `max_rows`), `width` columns spanning the full
/// schedule. `.` = queued, `#` = running.
pub fn gantt(completed: &[CompletedJob], width: usize, max_rows: usize) -> String {
    if completed.is_empty() || width == 0 {
        return String::new();
    }
    let t0 = completed
        .iter()
        .map(|c| c.job.submit_at)
        .min()
        .expect("non-empty");
    let t1 = completed.iter().map(|c| c.end_at).max().expect("non-empty");
    let span = t1.since(t0).as_secs_f64().max(1e-9);
    let col_of = |t: SimTime| -> usize {
        let frac = t.since(t0).as_secs_f64() / span;
        ((frac * width as f64) as usize).min(width - 1)
    };

    let mut rows: Vec<&CompletedJob> = completed.iter().collect();
    rows.sort_by_key(|c| (c.start_at, c.job.id));
    rows.truncate(max_rows);

    let mut out = String::new();
    out.push_str(&format!(
        "gantt: {} jobs over {}; '.' queued, '#' running\n",
        completed.len(),
        SimDuration::from_secs_f64(span)
    ));
    for c in rows {
        let submit = col_of(c.job.submit_at);
        let start = col_of(c.start_at);
        let end = col_of(c.end_at);
        let mut bar = vec![b' '; width];
        for slot in bar.iter_mut().take(start).skip(submit) {
            *slot = b'.';
        }
        for slot in bar.iter_mut().take(end + 1).skip(start) {
            *slot = b'#';
        }
        out.push_str(&format!(
            "{:>8} {:>7} |{}|\n",
            c.job.id.to_string(),
            c.job.app.name(),
            String::from_utf8(bar).expect("ascii")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Job, JobId};
    use rush_cluster::topology::NodeId;
    use rush_obs::ObsEvent;
    use rush_workloads::apps::AppId;
    use rush_workloads::scaling::ScalingMode;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn completed(id: u64, submit: u64, start: u64, end: u64) -> CompletedJob {
        let job = Job {
            id: JobId(id),
            app: AppId::Amg,
            nodes_requested: 4,
            submit_at: t(submit),
            scaling: ScalingMode::Reference,
            est_runtime: SimDuration::from_secs(100),
            skip_threshold: 10,
        };
        CompletedJob {
            base_runtime: job.base_runtime(),
            job,
            start_at: t(start),
            end_at: t(end),
            nodes: vec![NodeId(0)],
            skips: 0,
            launch_prediction: None,
        }
    }

    #[test]
    fn log_round_trips_through_val() {
        let mut trace = ScheduleTrace::new();
        trace.sample(t(0), 1, 0);
        trace.sample(t(10), 0, 4);
        let records = vec![
            EventRecord {
                seq: 0,
                at: t(0),
                event: ObsEvent::JobSubmitted { job: 1 },
            },
            EventRecord {
                seq: 1,
                at: t(10),
                event: ObsEvent::JobStarted {
                    job: 1,
                    nodes: 4,
                    skips: 0,
                },
            },
        ];
        let v = log_to_val(&records, &trace);
        let (back, series) = log_from_val(&v).unwrap();
        assert_eq!(back, records);
        assert_eq!(log_to_val(&back, &series), v);
        assert!(
            log_from_val(&trace.to_val()).is_err(),
            "records are required"
        );
    }

    #[test]
    fn series_follow_recorded_state() {
        let mut trace = ScheduleTrace::new();
        trace.sample(t(0), 3, 0);
        trace.sample(t(10), 2, 8);
        trace.sample(t(20), 2, 4);
        assert_eq!(trace.queue_len_series().len(), 3);
        let mean = trace.mean_busy_nodes(t(0), t(30));
        assert!((mean - 4.0).abs() < 1e-9);
    }

    #[test]
    fn gantt_shapes_bars() {
        let jobs = vec![completed(0, 0, 0, 50), completed(1, 0, 50, 100)];
        let chart = gantt(&jobs, 20, 10);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 rows");
        // Job 0 runs in the first half.
        assert!(lines[1].contains('#'));
        // Job 1 queues (dots) then runs in the second half.
        assert!(lines[2].contains('.'));
        let hash_pos = lines[2].find('#').unwrap();
        let dot_pos = lines[2].find('.').unwrap();
        assert!(dot_pos < hash_pos, "queued before running");
    }

    #[test]
    fn gantt_truncates_rows() {
        let jobs: Vec<CompletedJob> = (0..10)
            .map(|i| completed(i, 0, i * 10, i * 10 + 5))
            .collect();
        let chart = gantt(&jobs, 30, 4);
        assert_eq!(chart.lines().count(), 5, "header + max_rows");
        assert!(chart.starts_with("gantt: 10 jobs"));
    }

    #[test]
    fn gantt_handles_empty() {
        assert_eq!(gantt(&[], 20, 5), "");
        assert_eq!(gantt(&[completed(0, 0, 0, 10)], 0, 5), "");
    }
}
