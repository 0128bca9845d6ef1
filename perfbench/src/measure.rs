//! Timing primitives and the metric sheet every workload fills in.

use std::sync::OnceLock;
use std::time::Instant;

/// Raw duration samples in nanoseconds, kept whole so percentiles are
/// exact order statistics rather than histogram bucket edges.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    /// Moves every sample of `other` into `self`.
    pub fn append(&mut self, other: &mut Samples) {
        self.ns.append(&mut other.ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn iter_ns(&self) -> impl Iterator<Item = u64> + '_ {
        self.ns.iter().copied()
    }

    /// Divides every sample by `factor`.
    pub fn divide(&mut self, factor: f64) {
        for ns in &mut self.ns {
            *ns = (*ns as f64 / factor).round() as u64;
        }
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    pub fn total_ms(&self) -> f64 {
        self.total_ns() as f64 / 1e6
    }

    /// Nearest-rank percentile in nanoseconds. Refuses a percentile with
    /// fewer than ten samples above it: such a tail is one or two unlucky
    /// samples, not a measurement.
    pub fn percentile_ns(&self, p: f64) -> Result<f64, String> {
        let n = self.ns.len();
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        if n == 0 || n - rank < 10 {
            return Err(format!(
                "p{p} needs at least 10 samples beyond it; have {n} samples"
            ));
        }
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        Ok(sorted[rank - 1] as f64)
    }

    pub fn percentile_us(&self, p: f64) -> Result<f64, String> {
        Ok(self.percentile_ns(p)? / 1e3)
    }
}

/// CPU time this thread has run, in nanoseconds. Unlike wall time it
/// leaves out time the host gave to other tenants (steal); it still
/// includes the slowdown their load causes while this thread runs, which
/// [`HostProbe`] measures. Linux serves this clock by a system call, not
/// the vDSO, so it is read once per repetition, never per step.
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and clock_gettime writes
    // nothing outside it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Entries of the host probe's table: 64 MiB, well past the private
/// caches, so the chase pays the shared cache, memory and page-walk
/// latencies that other tenants' load inflates.
const PROBE_ENTRIES: usize = 16 << 20;
/// Steps of the chase per reading (about 50 ms).
const PROBE_STEPS: usize = 250_000;
/// Nanoseconds per chase step on the reference host. Host-time metrics
/// are reported as they would read on a host this fast.
pub const PROBE_REFERENCE_NS: f64 = 200.0;

/// The benchmark's own measure of host speed: a pointer chase along one
/// random cycle through a fixed table, timed on the thread CPU clock.
///
/// On a shared virtual machine other tenants slow the program by up to
/// 1.7× in phases lasting seconds to minutes, mostly through the shared
/// cache and memory, and the chase slows with it. Dividing the CPU time
/// of the work between two readings by their mean [`HostProbe::slowness`]
/// (see [`Slowness`]) removes most of that drift while leaving the
/// program's own speed: the probe's code and table never change with the
/// program's.
pub struct HostProbe {
    next: Vec<u32>,
}

impl HostProbe {
    /// Builds the table: Sattolo's shuffle from a fixed seed, so every
    /// entry lies on one cycle and every run chases the same path.
    fn new() -> HostProbe {
        let mut next: Vec<u32> = (0..PROBE_ENTRIES as u32).collect();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in (1..PROBE_ENTRIES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        HostProbe { next }
    }

    /// How much slower the host is now than the reference host: the
    /// chase's nanoseconds per step over [`PROBE_REFERENCE_NS`].
    pub fn slowness(&self) -> f64 {
        let start = thread_cpu_ns();
        let mut at = 0u32;
        for _ in 0..PROBE_STEPS {
            at = self.next[at as usize];
        }
        std::hint::black_box(at);
        (thread_cpu_ns() - start) as f64 / PROBE_STEPS as f64 / PROBE_REFERENCE_NS
    }

    /// Memory the table keeps resident, in MiB.
    pub fn resident_mib(&self) -> f64 {
        std::mem::size_of_val(self.next.as_slice()) as f64 / (1 << 20) as f64
    }
}

/// The process's host probe, built on first use.
pub fn host_probe() -> &'static HostProbe {
    static PROBE: OnceLock<HostProbe> = OnceLock::new();
    PROBE.get_or_init(HostProbe::new)
}

/// The host's slowness over consecutive stretches of work: each stretch
/// gets the mean of the probe readings just before and just after it, and
/// each reading serves the stretches on both sides of it.
pub struct Slowness {
    last: f64,
}

impl Slowness {
    /// Takes the reading before the first stretch.
    pub fn start() -> Slowness {
        Slowness {
            last: host_probe().slowness(),
        }
    }

    /// Slowness over the work done since the previous call, or since
    /// [`Slowness::start`].
    pub fn lap(&mut self) -> f64 {
        let now = host_probe().slowness();
        let mean = (self.last + now) / 2.0;
        self.last = now;
        mean
    }
}

/// Monotonic wall-clock nanoseconds since the first call.
pub fn wall_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    elapsed_ns(*EPOCH.get_or_init(Instant::now))
}

/// Nanoseconds since `start`.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Cost of one reading of `clock`, in nanoseconds: the median over nine
/// batches of back-to-back readings. Every step sample carries about this
/// much timer cost.
pub fn clock_read_ns(clock: fn() -> u64) -> f64 {
    const READS: u64 = 10_000;
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            let mut sink = 0u64;
            for _ in 0..READS {
                sink = sink.wrapping_add(clock());
            }
            std::hint::black_box(sink);
            elapsed_ns(start) as f64 / READS as f64
        })
        .collect();
    median(&batches)
}

/// Times `f` and appends its duration to `into`.
pub fn timed<T>(into: &mut Samples, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    into.push(elapsed_ns(start));
    out
}

/// Median of a non-empty slice of floats.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Ordered metric list; names are unique.
#[derive(Debug, Clone, Default)]
pub struct Sheet {
    pub metrics: Vec<Metric>,
}

impl Sheet {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` in insertion order.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A float as JSON with every digit Rust's shortest round-trip form
/// keeps; non-finite values (never expected) become `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_an_exact_order_statistic() {
        let mut s = Samples::default();
        for v in 1..=1000 {
            s.push(v);
        }
        assert_eq!(s.percentile_ns(50.0).unwrap(), 500.0);
        assert_eq!(s.percentile_ns(99.0).unwrap(), 990.0);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let mut s = Samples::default();
        for v in 0..500 {
            s.push(v);
        }
        assert!(s.percentile_ns(99.0).is_err());
        assert!(s.percentile_ns(50.0).is_ok());
    }

    #[test]
    fn host_probe_chases_one_cycle_through_the_whole_table() {
        // A shorter cycle would fit in cache and stop measuring memory.
        let probe = HostProbe::new();
        let mut at = probe.next[0];
        let mut steps = 1;
        while at != 0 {
            at = probe.next[at as usize];
            steps += 1;
        }
        assert_eq!(steps, PROBE_ENTRIES);
        assert_eq!(probe.resident_mib(), 64.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
