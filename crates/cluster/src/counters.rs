//! Synthesis of LDMS-style monitoring counters from machine state.
//!
//! The paper's dataset (Table I) draws on three counter tables sampled on
//! every node: `sysclassib` (22 InfiniBand endpoint counters), `opa_info`
//! (34 Omni-Path switch counters) and `lustre_client` (34 Lustre client
//! metrics). We reproduce the same tables — same names-per-table counts —
//! and synthesize their values from the *hidden* simulator state plus
//! measurement noise.
//!
//! The synthesis is deliberately indirect: the ML models never see the
//! simulator's true congestion variable, only counters that correlate with
//! it (transmit rates, `xmit_wait`-style congestion signals, error counts,
//! I/O call volumes), each corrupted by multiplicative lognormal noise. This
//! keeps the learning problem honest.
//!
//! A counter's noise is a pure function of the machine seed, the node, the
//! sample time in microseconds and the counter's index ([`noise_seed`],
//! [`row_key`], [`noise_z`]). No stream is drawn from, so a value does not
//! depend on which other rows or counters were synthesized before it, and a
//! reader can synthesize just the counters it needs.

use rush_simkit::rng::{splitmix64, RngStreams};
use serde::{Deserialize, Serialize};

/// Counters per node across the three tables (22 + 34 + 34).
pub const COUNTER_COUNT: usize = 90;

/// The golden-ratio increment of the splitmix64 stream.
const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 outputs per noisy counter; their twelve 16-bit lanes are the
/// twelve uniforms of the Irwin–Hall sum.
const HASH_WORDS: u64 = 3;

/// What one node can observe about the machine at a sampling instant.
///
/// Produced by [`crate::machine::Machine::observe`]; consumed by
/// [`counter_value`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeObservation {
    /// Traffic injected by this node onto its access link, GB/s.
    pub xmit_gbps: f64,
    /// Traffic received by this node, GB/s.
    pub recv_gbps: f64,
    /// Utilization of the edge-switch uplink above this node (0..).
    pub edge_uplink_util: f64,
    /// Utilization of this pod's core uplink (0..).
    pub pod_uplink_util: f64,
    /// Read bandwidth this node's workload is pulling from Lustre, GB/s.
    pub read_gbps: f64,
    /// Write bandwidth this node's workload is pushing to Lustre, GB/s.
    pub write_gbps: f64,
    /// Metadata operation rate from this node, kOps/s.
    pub meta_kops: f64,
    /// Global filesystem saturation (demand / capacity).
    pub fs_saturation: f64,
}

impl NodeObservation {
    /// The fields in declaration order.
    pub fn to_array(&self) -> [f64; 8] {
        [
            self.xmit_gbps,
            self.recv_gbps,
            self.edge_uplink_util,
            self.pod_uplink_util,
            self.read_gbps,
            self.write_gbps,
            self.meta_kops,
            self.fs_saturation,
        ]
    }

    /// Inverse of [`NodeObservation::to_array`].
    pub fn from_array(a: [f64; 8]) -> Self {
        NodeObservation {
            xmit_gbps: a[0],
            recv_gbps: a[1],
            edge_uplink_util: a[2],
            pod_uplink_util: a[3],
            read_gbps: a[4],
            write_gbps: a[5],
            meta_kops: a[6],
            fs_saturation: a[7],
        }
    }
}

/// The three counter tables of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CounterTable {
    /// InfiniBand endpoint counters (22).
    SysClassIb,
    /// Omni-Path switch counters (34).
    OpaInfo,
    /// Lustre client metrics (34).
    LustreClient,
}

impl CounterTable {
    /// All tables, in Table-I order.
    pub const ALL: [CounterTable; 3] = [
        CounterTable::SysClassIb,
        CounterTable::OpaInfo,
        CounterTable::LustreClient,
    ];

    /// The table's name as it appears in LDMS.
    pub fn name(self) -> &'static str {
        match self {
            CounterTable::SysClassIb => "sysclassib",
            CounterTable::OpaInfo => "opa_info",
            CounterTable::LustreClient => "lustre_client",
        }
    }

    /// Counter names in this table.
    pub fn counters(self) -> &'static [CounterSpec] {
        match self {
            CounterTable::SysClassIb => &SYSCLASSIB,
            CounterTable::OpaInfo => &OPA_INFO,
            CounterTable::LustreClient => &LUSTRE_CLIENT,
        }
    }

    /// Number of counters in this table (22 / 34 / 34, per Table I).
    pub fn counter_count(self) -> usize {
        self.counters().len()
    }
}

/// The physical quantity a counter tracks, i.e. its synthesis rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Basis {
    /// Proportional to node transmit bandwidth.
    XmitBytes,
    /// Proportional to node receive bandwidth.
    RcvBytes,
    /// Packet counts: bandwidth / mean packet size.
    XmitPkts,
    /// Receive-side packet counts.
    RcvPkts,
    /// Congestion wait: grows quadratically once the uplink passes ~50%
    /// utilization — the `port_xmit_wait` signature that makes switch
    /// counters predictive.
    CongestionWait,
    /// Explicit congestion notifications: proportional to uplink overload.
    CongestionNotif,
    /// Rare error events; rate rises only under severe congestion.
    ErrorEvents,
    /// Read bytes from the filesystem.
    ReadBytes,
    /// Write bytes to the filesystem.
    WriteBytes,
    /// Metadata operations.
    MetaOps,
    /// Global filesystem pressure (saturation-driven latency proxies).
    FsPressure,
    /// A static configuration value (link rate etc.).
    Constant,
}

/// A named counter with its synthesis rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CounterSpec {
    /// Counter name within its table.
    pub name: &'static str,
    /// What it measures.
    pub basis: Basis,
    /// Scale factor applied to the basis value.
    pub scale: f64,
    /// Log-std of the multiplicative measurement noise.
    pub noise: f64,
}

const fn c(name: &'static str, basis: Basis, scale: f64, noise: f64) -> CounterSpec {
    CounterSpec {
        name,
        basis,
        scale,
        noise,
    }
}

/// `sysclassib`: 22 InfiniBand endpoint counters.
pub static SYSCLASSIB: [CounterSpec; 22] = [
    c("port_xmit_data", Basis::XmitBytes, 1.0e9, 0.05),
    c("port_rcv_data", Basis::RcvBytes, 1.0e9, 0.05),
    c("port_xmit_pkts", Basis::XmitPkts, 1.0, 0.05),
    c("port_rcv_pkts", Basis::RcvPkts, 1.0, 0.05),
    c("unicast_xmit_pkts", Basis::XmitPkts, 0.9, 0.06),
    c("unicast_rcv_pkts", Basis::RcvPkts, 0.9, 0.06),
    c("multicast_xmit_pkts", Basis::XmitPkts, 0.02, 0.25),
    c("multicast_rcv_pkts", Basis::RcvPkts, 0.02, 0.25),
    c("port_xmit_wait", Basis::CongestionWait, 5.0e5, 0.15),
    c("port_xmit_discards", Basis::ErrorEvents, 4.0, 0.4),
    c("port_rcv_errors", Basis::ErrorEvents, 2.0, 0.4),
    c("symbol_error", Basis::ErrorEvents, 0.5, 0.5),
    c("link_error_recovery", Basis::ErrorEvents, 0.1, 0.5),
    c("link_downed", Basis::ErrorEvents, 0.01, 0.5),
    c(
        "port_rcv_remote_physical_errors",
        Basis::ErrorEvents,
        0.2,
        0.5,
    ),
    c("port_rcv_switch_relay_errors", Basis::ErrorEvents, 0.3, 0.5),
    c("port_rcv_constraint_errors", Basis::ErrorEvents, 0.05, 0.5),
    c("port_xmit_constraint_errors", Basis::ErrorEvents, 0.05, 0.5),
    c("local_link_integrity_errors", Basis::ErrorEvents, 0.02, 0.5),
    c(
        "excessive_buffer_overrun_errors",
        Basis::ErrorEvents,
        0.8,
        0.45,
    ),
    c("vl15_dropped", Basis::ErrorEvents, 0.3, 0.5),
    c("link_rate", Basis::Constant, 100.0, 0.0),
];

/// `opa_info`: 34 Omni-Path switch counters.
pub static OPA_INFO: [CounterSpec; 34] = [
    c("opa_xmit_data", Basis::XmitBytes, 1.1e9, 0.06),
    c("opa_rcv_data", Basis::RcvBytes, 1.1e9, 0.06),
    c("opa_xmit_pkts", Basis::XmitPkts, 1.05, 0.06),
    c("opa_rcv_pkts", Basis::RcvPkts, 1.05, 0.06),
    c("opa_mcast_xmit_pkts", Basis::XmitPkts, 0.015, 0.3),
    c("opa_mcast_rcv_pkts", Basis::RcvPkts, 0.015, 0.3),
    c("opa_xmit_wait", Basis::CongestionWait, 8.0e5, 0.12),
    c(
        "opa_congestion_discards",
        Basis::CongestionNotif,
        2.0e3,
        0.2,
    ),
    c("opa_rcv_fecn", Basis::CongestionNotif, 5.0e3, 0.2),
    c("opa_rcv_becn", Basis::CongestionNotif, 3.0e3, 0.2),
    c("opa_mark_fecn", Basis::CongestionNotif, 2.5e3, 0.2),
    c("opa_xmit_time_cong", Basis::CongestionWait, 6.0e5, 0.15),
    c("opa_xmit_wasted_bw", Basis::CongestionWait, 2.0e5, 0.2),
    c("opa_xmit_wait_data", Basis::CongestionWait, 4.0e5, 0.15),
    c("opa_rcv_bubble", Basis::CongestionWait, 1.5e5, 0.25),
    c("opa_link_qual_indicator", Basis::Constant, 5.0, 0.0),
    c("opa_link_width_downgrade", Basis::ErrorEvents, 0.01, 0.5),
    c("opa_link_error_recovery", Basis::ErrorEvents, 0.1, 0.5),
    c("opa_link_downed", Basis::ErrorEvents, 0.01, 0.5),
    c("opa_rcv_errors", Basis::ErrorEvents, 1.5, 0.4),
    c("opa_rcv_constraint_errors", Basis::ErrorEvents, 0.05, 0.5),
    c("opa_rcv_switch_relay_errors", Basis::ErrorEvents, 0.2, 0.5),
    c("opa_xmit_discards", Basis::ErrorEvents, 3.0, 0.4),
    c("opa_xmit_constraint_errors", Basis::ErrorEvents, 0.05, 0.5),
    c("opa_local_link_integrity", Basis::ErrorEvents, 0.02, 0.5),
    c(
        "opa_excessive_buffer_overrun",
        Basis::ErrorEvents,
        0.6,
        0.45,
    ),
    c("opa_fm_config_errors", Basis::ErrorEvents, 0.01, 0.5),
    c("opa_uncorrectable_errors", Basis::ErrorEvents, 0.005, 0.5),
    c("opa_sw_portion_bw", Basis::XmitBytes, 0.5e9, 0.1),
    c("opa_buffer_occupancy", Basis::CongestionWait, 3.0e4, 0.2),
    c("opa_vl_xmit_wait", Basis::CongestionWait, 2.0e5, 0.18),
    c("opa_vl_congestion", Basis::CongestionNotif, 1.0e3, 0.25),
    c("opa_pkey_violations", Basis::ErrorEvents, 0.01, 0.5),
    c("opa_sma_pkts", Basis::Constant, 12.0, 0.1),
];

/// `lustre_client`: 34 Lustre client metrics.
pub static LUSTRE_CLIENT: [CounterSpec; 34] = [
    c("read_bytes", Basis::ReadBytes, 1.0e9, 0.06),
    c("write_bytes", Basis::WriteBytes, 1.0e9, 0.06),
    c("read_calls", Basis::ReadBytes, 2.5e5, 0.08),
    c("write_calls", Basis::WriteBytes, 2.5e5, 0.08),
    c("brw_read", Basis::ReadBytes, 1.0e6, 0.1),
    c("brw_write", Basis::WriteBytes, 1.0e6, 0.1),
    c("open", Basis::MetaOps, 300.0, 0.15),
    c("close", Basis::MetaOps, 300.0, 0.15),
    c("seek", Basis::MetaOps, 150.0, 0.2),
    c("fsync", Basis::WriteBytes, 5.0e3, 0.25),
    c("getattr", Basis::MetaOps, 500.0, 0.15),
    c("setattr", Basis::MetaOps, 80.0, 0.2),
    c("create", Basis::MetaOps, 40.0, 0.25),
    c("link", Basis::MetaOps, 2.0, 0.4),
    c("unlink", Basis::MetaOps, 30.0, 0.3),
    c("symlink", Basis::MetaOps, 1.0, 0.4),
    c("mkdir", Basis::MetaOps, 10.0, 0.3),
    c("rmdir", Basis::MetaOps, 8.0, 0.3),
    c("mknod", Basis::MetaOps, 0.5, 0.5),
    c("rename", Basis::MetaOps, 12.0, 0.3),
    c("statfs", Basis::MetaOps, 20.0, 0.25),
    c("alloc_inode", Basis::MetaOps, 35.0, 0.25),
    c("getxattr", Basis::MetaOps, 90.0, 0.2),
    c("setxattr", Basis::MetaOps, 5.0, 0.4),
    c("listxattr", Basis::MetaOps, 15.0, 0.3),
    c("removexattr", Basis::MetaOps, 1.0, 0.5),
    c("inode_permission", Basis::MetaOps, 900.0, 0.12),
    c("readdir", Basis::MetaOps, 60.0, 0.25),
    c("truncate", Basis::WriteBytes, 2.0e3, 0.3),
    c("flock", Basis::MetaOps, 4.0, 0.4),
    c("dirty_pages_hits", Basis::WriteBytes, 8.0e5, 0.12),
    c("dirty_pages_misses", Basis::FsPressure, 3.0e5, 0.15),
    c("osc_read_latency", Basis::FsPressure, 2.0e4, 0.12),
    c("osc_write_latency", Basis::FsPressure, 2.5e4, 0.12),
];

/// Mean packet size used to turn bandwidth into packet counts (bytes).
const MEAN_PACKET_BYTES: f64 = 4096.0;

/// Evaluates a counter's noiseless basis value for one node observation.
pub fn basis_value(basis: Basis, obs: &NodeObservation) -> f64 {
    match basis {
        Basis::XmitBytes => obs.xmit_gbps,
        Basis::RcvBytes => obs.recv_gbps,
        Basis::XmitPkts => obs.xmit_gbps * 1.0e9 / MEAN_PACKET_BYTES,
        Basis::RcvPkts => obs.recv_gbps * 1.0e9 / MEAN_PACKET_BYTES,
        Basis::CongestionWait => {
            // Queueing wait builds well before saturation; the quadratic
            // knee starts at 30% utilization so the counters carry signal
            // across the whole congestion range, not just at saturation.
            let u = obs.edge_uplink_util.max(obs.pod_uplink_util);
            let excess = (u - 0.3).max(0.0);
            excess * excess
        }
        Basis::CongestionNotif => {
            let u = obs.edge_uplink_util.max(obs.pod_uplink_util);
            (u - 0.55).max(0.0)
        }
        Basis::ErrorEvents => {
            let u = obs.edge_uplink_util.max(obs.pod_uplink_util);
            0.01 + (u - 0.75).max(0.0) * 2.0
        }
        Basis::ReadBytes => obs.read_gbps,
        Basis::WriteBytes => obs.write_gbps,
        Basis::MetaOps => obs.meta_kops,
        Basis::FsPressure => {
            let s = obs.fs_saturation;
            s * s
        }
        Basis::Constant => 1.0,
    }
}

/// The spec of counter `index` in row order: the three tables in Table-I
/// order (`sysclassib`, `opa_info`, `lustre_client`).
///
/// # Panics
/// Panics if `index >= COUNTER_COUNT`.
pub fn counter_spec(index: usize) -> &'static CounterSpec {
    let ib = SYSCLASSIB.len();
    let opa = ib + OPA_INFO.len();
    match index {
        i if i < ib => &SYSCLASSIB[i],
        i if i < opa => &OPA_INFO[i - ib],
        i => &LUSTRE_CLIENT[i - opa],
    }
}

/// The seed all counter noise of the machine seeded with `machine_seed`
/// derives from.
pub fn noise_seed(machine_seed: u64) -> u64 {
    RngStreams::new(machine_seed).stream_seed("machine/counters")
}

/// The noise key of the row `node` sampled at `at_us` microseconds, under
/// the [`noise_seed`] `noise_seed`.
#[inline]
pub fn row_key(noise_seed: u64, node: u32, at_us: u64) -> u64 {
    splitmix64(splitmix64(noise_seed ^ u64::from(node)) ^ at_us)
}

/// An approximate standard normal for counter `counter` of the row keyed
/// `row_key`: the Irwin–Hall sum of twelve uniforms, minus 6.
///
/// The uniforms are the 16-bit lanes of outputs `3c + 1 ..= 3c + 3` of the
/// splitmix64 stream seeded with `row_key`, so every counter of a row reads
/// its own words of one stream. Lane `l` stands for the uniform
/// `(l + 0.5) / 65536`, which has mean exactly 1/2.
#[inline]
pub fn noise_z(row_key: u64, counter: usize) -> f64 {
    let base = row_key.wrapping_add((counter as u64 * HASH_WORDS).wrapping_mul(SPLITMIX_GAMMA));
    let mut lanes = 0u32;
    for w in 0..HASH_WORDS {
        let h = splitmix64(base.wrapping_add(w.wrapping_mul(SPLITMIX_GAMMA)));
        // Four 16-bit lanes summed in two steps: pairs, then halves.
        let pairs = (h & 0x0000_ffff_0000_ffff) + ((h >> 16) & 0x0000_ffff_0000_ffff);
        lanes += (pairs as u32) + ((pairs >> 32) as u32);
    }
    (f64::from(lanes) + 6.0) / 65536.0 - 6.0
}

/// Counter `counter` of the row keyed `row_key` that observed `obs`:
/// `scale * basis * exp(noise * z)`, with `z` from [`noise_z`].
#[inline]
pub fn counter_value(counter: usize, obs: &NodeObservation, row_key: u64) -> f64 {
    let spec = counter_spec(counter);
    let base = basis_value(spec.basis, obs) * spec.scale;
    if spec.noise == 0.0 {
        return base;
    }
    base * (spec.noise * noise_z(row_key, counter)).exp()
}

/// Appends all [`COUNTER_COUNT`] counters of the row keyed `row_key` that
/// observed `obs` to `out`, in row order (see [`counter_spec`]).
pub fn synthesize_row_into(obs: &NodeObservation, row_key: u64, out: &mut Vec<f64>) {
    out.extend((0..COUNTER_COUNT).map(|c| counter_value(c, obs, row_key)));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All counters of the row keyed `key` that observed `obs`.
    fn row(obs: &NodeObservation, key: u64) -> Vec<f64> {
        let mut out = Vec::new();
        synthesize_row_into(obs, key, &mut out);
        out
    }

    #[test]
    fn table_sizes_match_table_one() {
        assert_eq!(CounterTable::SysClassIb.counter_count(), 22);
        assert_eq!(CounterTable::OpaInfo.counter_count(), 34);
        assert_eq!(CounterTable::LustreClient.counter_count(), 34);
    }

    #[test]
    fn counter_names_are_unique_within_tables() {
        for table in CounterTable::ALL {
            let mut names: Vec<_> = table.counters().iter().map(|c| c.name).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(names.len(), before, "duplicate counter in {table:?}");
        }
    }

    #[test]
    fn counter_specs_follow_table_one_order() {
        let flat: Vec<&CounterSpec> = CounterTable::ALL
            .iter()
            .flat_map(|t| t.counters())
            .collect();
        assert_eq!(flat.len(), COUNTER_COUNT);
        for (i, spec) in flat.into_iter().enumerate() {
            assert_eq!(counter_spec(i), spec, "counter {i}");
        }
    }

    #[test]
    fn idle_node_produces_near_zero_traffic_counters() {
        let vals = row(&NodeObservation::default(), 7);
        // port_xmit_data is index 0
        assert_eq!(vals[0], 0.0);
        // link_rate constant is last of sysclassib
        assert_eq!(vals[21], 100.0);
    }

    #[test]
    fn traffic_moves_traffic_counters() {
        let obs = NodeObservation {
            xmit_gbps: 5.0,
            recv_gbps: 4.0,
            ..Default::default()
        };
        let vals = row(&obs, 7);
        assert!(vals[0] > 1.0e9, "xmit_data should scale with bandwidth");
        assert!(vals[1] > 1.0e9);
        assert!(vals[2] > 1.0e5, "packet counters scale too");
    }

    #[test]
    fn congestion_wait_kicks_in_past_half_utilization() {
        let calm = NodeObservation {
            edge_uplink_util: 0.3,
            ..Default::default()
        };
        let hot = NodeObservation {
            edge_uplink_util: 0.95,
            ..Default::default()
        };
        assert_eq!(basis_value(Basis::CongestionWait, &calm), 0.0);
        assert!(basis_value(Basis::CongestionWait, &hot) > 0.1);
        // monotone in utilization
        let mid = NodeObservation {
            edge_uplink_util: 0.7,
            ..Default::default()
        };
        assert!(
            basis_value(Basis::CongestionWait, &mid) < basis_value(Basis::CongestionWait, &hot)
        );
    }

    #[test]
    fn pod_uplink_also_drives_congestion_signals() {
        let obs = NodeObservation {
            pod_uplink_util: 0.9,
            ..Default::default()
        };
        assert!(basis_value(Basis::CongestionWait, &obs) > 0.0);
        assert!(basis_value(Basis::CongestionNotif, &obs) > 0.0);
    }

    #[test]
    fn io_counters_track_io_demand() {
        let obs = NodeObservation {
            read_gbps: 2.0,
            write_gbps: 1.0,
            meta_kops: 3.0,
            fs_saturation: 1.5,
            ..Default::default()
        };
        assert_eq!(basis_value(Basis::ReadBytes, &obs), 2.0);
        assert_eq!(basis_value(Basis::WriteBytes, &obs), 1.0);
        assert_eq!(basis_value(Basis::MetaOps, &obs), 3.0);
        assert!(basis_value(Basis::FsPressure, &obs) > 2.0);
    }

    #[test]
    fn noise_is_multiplicative_and_centered() {
        // port_xmit_data: scale 1e9, log-std 0.05.
        let obs = NodeObservation {
            xmit_gbps: 10.0,
            ..Default::default()
        };
        let seed = noise_seed(3);
        let vals: Vec<f64> = (0..2000)
            .map(|t| counter_value(0, &obs, row_key(seed, 1, t * 30_000_000)) / 1.0e9)
            .collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((mean - 10.0).abs() < 0.5, "noisy mean {mean} should be ~10");
        assert!(
            vals.iter().any(|&v| (v - 10.0).abs() > 0.1),
            "noise should vary"
        );
    }

    #[test]
    fn zero_noise_is_deterministic() {
        // link_rate (21) and opa_link_qual_indicator (37) are noise-free.
        let obs = NodeObservation::default();
        for key in [0, 1, u64::MAX] {
            assert_eq!(counter_value(21, &obs, key), 100.0);
            assert_eq!(counter_value(37, &obs, key), 5.0);
        }
    }

    #[test]
    fn z_has_zero_mean_and_unit_variance_over_many_keys() {
        let seed = noise_seed(11);
        let mut stats = rush_simkit::stats::OnlineStats::new();
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for node in 0..64u32 {
            for round in 0..250u64 {
                let key = row_key(seed, node, round * 30_000_000);
                for counter in [0, 8, 45, 89] {
                    let z = noise_z(key, counter);
                    lo = lo.min(z);
                    hi = hi.max(z);
                    stats.push(z);
                }
            }
        }
        // 64 000 draws: the mean's standard error is 0.004, the variance's
        // about 0.0055 (Irwin–Hall excess kurtosis -0.1).
        assert!(stats.mean().abs() < 0.02, "mean {}", stats.mean());
        assert!(
            (stats.variance() - 1.0).abs() < 0.03,
            "variance {}",
            stats.variance()
        );
        assert!(lo > -6.0 && hi < 6.0, "Irwin–Hall support, got {lo}..{hi}");
    }

    #[test]
    fn noise_depends_on_every_key_part_only() {
        let obs = NodeObservation::from_array([3.0, 2.5, 0.9, 0.4, 1.0, 0.5, 2.0, 1.3]);
        let seed = noise_seed(9);
        let key = row_key(seed, 4, 600_000_000);
        let base = row(&obs, key);
        // The same key gives the same bits however often it is read, and
        // one counter alone equals its place in the row.
        assert_eq!(row(&obs, key), base);
        for (c, &v) in base.iter().enumerate() {
            assert_eq!(counter_value(c, &obs, key).to_bits(), v.to_bits());
        }
        // Machine seed, node and time each move the noise.
        for other in [
            row_key(noise_seed(10), 4, 600_000_000),
            row_key(seed, 5, 600_000_000),
            row_key(seed, 4, 600_000_001),
        ] {
            assert_ne!(row(&obs, other)[0], base[0]);
        }
        // Counters of one row draw different noise.
        assert_ne!(noise_z(key, 0), noise_z(key, 1));
    }

    #[test]
    fn observation_array_round_trips() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        assert_eq!(NodeObservation::from_array(a).to_array(), a);
    }

    #[test]
    fn total_feature_budget_matches_paper() {
        // 22 + 34 + 34 counters, each expanded to min/max/mean = 270
        // features, plus 9 MPI benchmark features and 3 one-hots = 282.
        let counters: usize = CounterTable::ALL.iter().map(|t| t.counter_count()).sum();
        assert_eq!(counters, COUNTER_COUNT);
        assert_eq!(counters * 3 + 9 + 3, 282);
    }
}
