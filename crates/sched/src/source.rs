//! Job sources: the engine's one arrival path.
//!
//! A [`JobSource`] hands the engine one arrival-ordered [`JobRequest`] at a
//! time. The engine keeps a single-request lookahead (mirroring its chained
//! `Submit(k)` events), so the event heap and the live jobs stay bounded by
//! the busiest instant — a million-job archive trace replays in the memory
//! footprint of that instant, not of its length.
//!
//! The contract: requests come back in nondecreasing `submit_at` order with
//! unique ids, and a source built from the same inputs yields the same
//! sequence again (resume re-pulls a snapshot's arrivals).
//! [`SliceSource`] adapts an in-memory slice and is what
//! `SchedulerEngine::prepare` runs on; [`IterSource`] lifts any
//! already-ordered iterator;
//! [`ReorderWindow`] repairs mild disorder — real traces are numbered by
//! *completion* records, so submissions drift a little — by buffering a
//! bounded time window and clamping stragglers that fall outside it.

use rush_simkit::time::{SimDuration, SimTime};
use rush_workloads::jobgen::JobRequest;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A stream of arrival-ordered job requests.
///
/// `Send` so an engine, which owns its source, can move to another thread.
pub trait JobSource: Send {
    /// The next request in nondecreasing `submit_at` order, or `None` when
    /// the stream is exhausted.
    fn next_request(&mut self) -> Option<JobRequest>;

    /// Total requests this source will yield, when cheaply knowable. The
    /// engine reports it as progress and puts it in its snapshot
    /// fingerprint, so a resume over a request list of another length is
    /// rejected.
    fn total_hint(&self) -> Option<u64> {
        None
    }
}

/// A [`JobSource`] over a request slice. Requests are cloned once and
/// stable-sorted by submission time, so arrivals come in
/// `(submit_at, slice position)` order.
pub struct SliceSource {
    requests: std::vec::IntoIter<JobRequest>,
    total: u64,
}

impl SliceSource {
    /// Builds the source from any request slice (need not be pre-sorted).
    pub fn new(requests: &[JobRequest]) -> Self {
        let mut sorted = requests.to_vec();
        sorted.sort_by_key(|r| r.submit_at);
        SliceSource {
            total: sorted.len() as u64,
            requests: sorted.into_iter(),
        }
    }
}

impl JobSource for SliceSource {
    fn next_request(&mut self) -> Option<JobRequest> {
        self.requests.next()
    }

    fn total_hint(&self) -> Option<u64> {
        Some(self.total)
    }
}

/// Lifts an already arrival-ordered iterator into a [`JobSource`].
pub struct IterSource<I> {
    inner: I,
}

impl<I> IterSource<I>
where
    I: Iterator<Item = JobRequest> + Send,
{
    /// Wraps `inner`, which must yield nondecreasing submit times (wrap it
    /// in a [`ReorderWindow`] first if it might not).
    pub fn new(inner: I) -> Self {
        IterSource { inner }
    }
}

impl<I> JobSource for IterSource<I>
where
    I: Iterator<Item = JobRequest> + Send,
{
    fn next_request(&mut self) -> Option<JobRequest> {
        self.inner.next()
    }
}

/// Heap entry ordered by `(submit_at, pull sequence)` — the sequence makes
/// ties deterministic and the ordering total.
struct Buffered {
    at: SimTime,
    seq: u64,
    req: JobRequest,
}

impl PartialEq for Buffered {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Buffered {}
impl PartialOrd for Buffered {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Buffered {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Repairs mildly out-of-order streams with a bounded buffer.
///
/// Requests are buffered until the stream has advanced `window` past them;
/// only then are they released, in submit order — so any record no more
/// than `window` early/late lands in its true position while memory stays
/// O(jobs inside one window). A straggler worse than the window (its
/// submit time precedes something already released) cannot be reordered
/// any more; its submit time is clamped to the last released time and
/// counted in [`ReorderWindow::clamped`] rather than dropped or allowed to
/// break the engine's arrival-order invariant.
pub struct ReorderWindow<I> {
    inner: Option<I>,
    window: SimDuration,
    heap: BinaryHeap<Reverse<Buffered>>,
    /// The latest submit time pulled from `inner` so far.
    horizon: SimTime,
    /// The last released submit time (release floor).
    released: SimTime,
    seq: u64,
    clamped: u64,
}

impl<I> ReorderWindow<I>
where
    I: Iterator<Item = JobRequest> + Send,
{
    /// Wraps `inner` with an out-of-order tolerance of `window`.
    pub fn new(inner: I, window: SimDuration) -> Self {
        ReorderWindow {
            inner: Some(inner),
            window,
            heap: BinaryHeap::new(),
            horizon: SimTime::ZERO,
            released: SimTime::ZERO,
            seq: 0,
            clamped: 0,
        }
    }

    /// Stragglers whose submit time had to be clamped forward because they
    /// arrived more than a window late.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Pulls from `inner` until the heap's minimum is safely releasable.
    fn fill(&mut self) {
        while let Some(inner) = self.inner.as_mut() {
            if let Some(Reverse(min)) = self.heap.peek() {
                if self.horizon >= min.at + self.window {
                    return; // the stream has moved past it; safe to release
                }
            }
            match inner.next() {
                Some(req) => {
                    self.horizon = self.horizon.max(req.submit_at);
                    self.heap.push(Reverse(Buffered {
                        at: req.submit_at,
                        seq: self.seq,
                        req,
                    }));
                    self.seq += 1;
                }
                None => {
                    self.inner = None; // drain whatever is buffered
                }
            }
        }
    }
}

impl<I> JobSource for ReorderWindow<I>
where
    I: Iterator<Item = JobRequest> + Send,
{
    fn next_request(&mut self) -> Option<JobRequest> {
        self.fill();
        let Reverse(mut entry) = self.heap.pop()?;
        if entry.at < self.released {
            // Worse than the window: clamp forward instead of emitting an
            // out-of-order arrival.
            entry.req.submit_at = self.released;
            self.clamped += 1;
        } else {
            self.released = entry.at;
        }
        Some(entry.req)
    }
}

/// A source that re-ids requests densely in emission order. Useful after
/// truncating or filtering a stream, where the engine still wants ids that
/// double as dense table indices downstream.
pub struct DenseIds<S> {
    inner: S,
    next: u64,
}

impl<S: JobSource> DenseIds<S> {
    /// Wraps `inner`, renumbering from 0.
    pub fn new(inner: S) -> Self {
        DenseIds { inner, next: 0 }
    }
}

impl<S: JobSource> JobSource for DenseIds<S> {
    fn next_request(&mut self) -> Option<JobRequest> {
        let mut req = self.inner.next_request()?;
        req.id = self.next;
        self.next += 1;
        Some(req)
    }

    fn total_hint(&self) -> Option<u64> {
        self.inner.total_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rush_workloads::apps::AppId;
    use rush_workloads::scaling::ScalingMode;

    fn req(id: u64, submit_secs: u64) -> JobRequest {
        JobRequest {
            id,
            app: AppId::Amg,
            nodes: 4,
            submit_at: SimTime::from_secs(submit_secs),
            scaling: ScalingMode::Reference,
            user_est_secs: None,
        }
    }

    #[test]
    fn slice_source_matches_prepare_order() {
        // Ties on submit time must preserve slice position.
        let requests = vec![req(3, 50), req(1, 10), req(2, 10), req(0, 99)];
        let mut src = SliceSource::new(&requests);
        assert_eq!(src.total_hint(), Some(4));
        let mut out = Vec::new();
        while let Some(r) = src.next_request() {
            out.push(r.id);
        }
        assert_eq!(out, vec![1, 2, 3, 0]);
    }

    #[test]
    fn reorder_window_restores_mild_disorder() {
        let stream = vec![
            req(0, 100),
            req(1, 40),
            req(2, 130),
            req(3, 90),
            req(4, 200),
        ];
        let mut src = ReorderWindow::new(stream.into_iter(), SimDuration::from_secs(120));
        let mut order = Vec::new();
        while let Some(r) = src.next_request() {
            order.push((r.id, r.submit_at.as_micros() / 1_000_000));
        }
        assert_eq!(order, vec![(1, 40), (3, 90), (0, 100), (2, 130), (4, 200)]);
        assert_eq!(src.clamped(), 0);
    }

    #[test]
    fn reorder_window_clamps_stragglers_beyond_window() {
        // Job 3 (t=100) surfaces only after t=600 was already released
        // against a 60s window: too late to reorder, so its submit time is
        // clamped to the release floor and counted.
        let stream = vec![
            req(0, 100),
            req(1, 600),
            req(2, 700),
            req(3, 100),
            req(4, 800),
        ];
        let mut src = ReorderWindow::new(stream.into_iter(), SimDuration::from_secs(60));
        let mut out = Vec::new();
        let mut last = SimTime::ZERO;
        while let Some(r) = src.next_request() {
            assert!(r.submit_at >= last, "released stream must be ordered");
            last = r.submit_at;
            out.push((r.id, r.submit_at.as_micros() / 1_000_000));
        }
        assert_eq!(src.clamped(), 1);
        assert_eq!(out, vec![(0, 100), (1, 600), (3, 600), (2, 700), (4, 800)]);
    }

    #[test]
    fn dense_ids_renumber_in_emission_order() {
        let mut src = DenseIds::new(SliceSource::new(&[req(9, 30), req(7, 10)]));
        let first = src.next_request().unwrap();
        let second = src.next_request().unwrap();
        assert_eq!((first.id, second.id), (0, 1));
        assert_eq!(src.total_hint(), Some(2));
    }
}
