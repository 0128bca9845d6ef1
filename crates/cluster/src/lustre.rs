//! Shared parallel-filesystem model (Lustre stand-in).
//!
//! The filesystem is a set of object storage targets (OSTs) behind one
//! namespace. Jobs and background activity register I/O demand in GB/s;
//! each stream is striped over a deterministic subset of OSTs (id-hashed,
//! like Lustre's default striping). *Saturation* is demand over capacity,
//! globally and per OST; I/O-bound work slows down once saturation
//! approaches one — the same mechanism behind the Lustre-driven variability
//! the paper's `lustre_client` counters observe. The global saturation
//! drives the application slowdown model (wide stripes see the pool);
//! per-OST loads expose the hotspots a narrow-striped stream would feel,
//! via [`LustreState::stream_delivered_fraction`].
//!
//! Streams are kept in id order and their summed demand is cached, so
//! [`LustreState::saturation`] is O(1) and its value does not depend on the
//! order streams were registered in.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Configuration of the filesystem pool.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LustreConfig {
    /// Aggregate bandwidth of all OSTs, GB/s.
    pub aggregate_gbps: f64,
    /// Fraction of metadata overhead charged per client operation unit.
    pub metadata_weight: f64,
    /// Number of object storage targets sharing the aggregate bandwidth.
    pub ost_count: u32,
    /// OSTs each stream stripes over (clamped to `ost_count`).
    pub stripe_count: u32,
}

impl Default for LustreConfig {
    fn default() -> Self {
        LustreConfig {
            aggregate_gbps: 80.0,
            metadata_weight: 0.05,
            ost_count: 16,
            stripe_count: 4,
        }
    }
}

impl LustreConfig {
    /// Bandwidth of one OST, GB/s.
    pub fn ost_gbps(&self) -> f64 {
        self.aggregate_gbps / self.ost_count.max(1) as f64
    }
}

/// One registered demand stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IoDemand {
    /// Sustained read bandwidth, GB/s.
    pub read_gbps: f64,
    /// Sustained write bandwidth, GB/s.
    pub write_gbps: f64,
    /// Metadata operation rate, kOps/s (opens, stats, etc.).
    pub metadata_kops: f64,
}

impl IoDemand {
    /// A stream with no activity.
    pub const IDLE: IoDemand = IoDemand {
        read_gbps: 0.0,
        write_gbps: 0.0,
        metadata_kops: 0.0,
    };

    /// Total effective bandwidth demand including metadata weight.
    pub fn effective_gbps(&self, metadata_weight: f64) -> f64 {
        self.read_gbps + self.write_gbps + metadata_weight * self.metadata_kops
    }
}

/// Mutable filesystem state.
#[derive(Debug, Clone)]
pub struct LustreState {
    config: LustreConfig,
    demands: BTreeMap<u64, IoDemand>,
    /// Effective demand of all streams, summed in id order. Recomputed on
    /// every stream change, so it is always the fresh sum, bit for bit.
    stream_gbps: f64,
    /// Background demand (GB/s) from the rest of the machine, regime-driven.
    background_gbps: f64,
}

impl LustreState {
    /// An idle filesystem.
    pub fn new(config: LustreConfig) -> Self {
        assert!(config.aggregate_gbps > 0.0, "filesystem needs capacity");
        assert!(config.ost_count > 0, "filesystem needs OSTs");
        LustreState {
            config,
            demands: BTreeMap::new(),
            stream_gbps: 0.0,
            background_gbps: 0.0,
        }
    }

    /// The OST indices stream `id` stripes over (deterministic id hash,
    /// `stripe_count` consecutive OSTs from the hashed offset — Lustre's
    /// round-robin default).
    pub fn stripe_osts(&self, id: u64) -> Vec<u32> {
        let count = self.config.ost_count;
        let stripes = self.config.stripe_count.clamp(1, count);
        // splitmix-style hash for the starting OST
        let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let start = (z % u64::from(count)) as u32;
        (0..stripes).map(|k| (start + k) % count).collect()
    }

    /// Demand placed on one OST, GB/s: each stream spreads its effective
    /// demand evenly over its stripes; background spreads over all OSTs.
    pub fn ost_demand_gbps(&self, ost: u32) -> f64 {
        assert!(ost < self.config.ost_count, "OST {ost} out of range");
        let w = self.config.metadata_weight;
        let mut demand = self.background_gbps / self.config.ost_count as f64;
        for (&id, d) in &self.demands {
            let stripes = self.stripe_osts(id);
            if stripes.contains(&ost) {
                demand += d.effective_gbps(w) / stripes.len() as f64;
            }
        }
        demand
    }

    /// Saturation of one OST (demand / per-OST capacity).
    pub fn ost_saturation(&self, ost: u32) -> f64 {
        self.ost_demand_gbps(ost) / self.config.ost_gbps()
    }

    /// The hottest OST's saturation — the hotspot a narrow stripe can hit
    /// even when the pool as a whole is underloaded.
    pub fn max_ost_saturation(&self) -> f64 {
        (0..self.config.ost_count)
            .map(|o| self.ost_saturation(o))
            .fold(0.0, f64::max)
    }

    /// Fraction of requested bandwidth stream `id` actually receives given
    /// the load on *its* OSTs: 1 when all its stripes are unsaturated,
    /// `1/worst_stripe_saturation` otherwise. Unknown ids see the pool.
    pub fn stream_delivered_fraction(&self, id: u64) -> f64 {
        if !self.demands.contains_key(&id) {
            return self.delivered_fraction();
        }
        let worst = self
            .stripe_osts(id)
            .into_iter()
            .map(|o| self.ost_saturation(o))
            .fold(0.0f64, f64::max);
        if worst <= 1.0 {
            1.0
        } else {
            1.0 / worst
        }
    }

    /// The configuration.
    pub fn config(&self) -> &LustreConfig {
        &self.config
    }

    /// Registers (or replaces) demand stream `id`.
    pub fn add_demand(&mut self, id: u64, demand: IoDemand) {
        self.demands.insert(id, demand);
        self.stream_gbps = self.sum_streams();
    }

    /// Removes stream `id`; ignores unknown ids.
    pub fn remove_demand(&mut self, id: u64) {
        if self.demands.remove(&id).is_some() {
            self.stream_gbps = self.sum_streams();
        }
    }

    /// The streams' effective demand, summed in id order.
    fn sum_streams(&self) -> f64 {
        let w = self.config.metadata_weight;
        self.demands
            .values()
            .map(|d| d.effective_gbps(w))
            .sum::<f64>()
    }

    /// Sets the background demand in GB/s.
    pub fn set_background_gbps(&mut self, gbps: f64) {
        self.background_gbps = gbps.max(0.0);
    }

    /// Current background demand in GB/s.
    pub fn background_gbps(&self) -> f64 {
        self.background_gbps
    }

    /// Total demand currently placed on the pool, GB/s. O(1): the stream
    /// sum is cached.
    pub fn total_demand_gbps(&self) -> f64 {
        self.background_gbps + self.stream_gbps
    }

    /// Saturation: demand / capacity. Values ≥ 1 mean clients are throttled.
    pub fn saturation(&self) -> f64 {
        self.total_demand_gbps() / self.config.aggregate_gbps
    }

    /// The fraction of requested bandwidth a client actually receives:
    /// 1 when unsaturated, `1/saturation` under fair-share throttling.
    pub fn delivered_fraction(&self) -> f64 {
        let s = self.saturation();
        if s <= 1.0 {
            1.0
        } else {
            1.0 / s
        }
    }

    /// Demand registered for stream `id`, if present.
    pub fn demand_of(&self, id: u64) -> Option<IoDemand> {
        self.demands.get(&id).copied()
    }

    /// Number of registered streams.
    pub fn stream_count(&self) -> usize {
        self.demands.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> LustreState {
        LustreState::new(LustreConfig {
            aggregate_gbps: 100.0,
            metadata_weight: 0.1,
            ost_count: 10,
            stripe_count: 2,
        })
    }

    #[test]
    fn idle_filesystem_is_unsaturated() {
        let fs = fs();
        assert_eq!(fs.saturation(), 0.0);
        assert_eq!(fs.delivered_fraction(), 1.0);
    }

    #[test]
    fn demand_accumulates() {
        let mut fs = fs();
        fs.add_demand(
            1,
            IoDemand {
                read_gbps: 20.0,
                write_gbps: 10.0,
                metadata_kops: 0.0,
            },
        );
        fs.add_demand(
            2,
            IoDemand {
                read_gbps: 0.0,
                write_gbps: 30.0,
                metadata_kops: 100.0,
            },
        );
        // 20 + 10 + 30 + 0.1*100 = 70
        assert!((fs.total_demand_gbps() - 70.0).abs() < 1e-12);
        assert!((fs.saturation() - 0.7).abs() < 1e-12);
        assert_eq!(fs.delivered_fraction(), 1.0);
    }

    #[test]
    fn oversaturation_throttles() {
        let mut fs = fs();
        fs.add_demand(
            1,
            IoDemand {
                read_gbps: 150.0,
                write_gbps: 50.0,
                metadata_kops: 0.0,
            },
        );
        assert!((fs.saturation() - 2.0).abs() < 1e-12);
        assert!((fs.delivered_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn background_contributes() {
        let mut fs = fs();
        fs.set_background_gbps(50.0);
        assert!((fs.saturation() - 0.5).abs() < 1e-12);
        fs.set_background_gbps(-10.0);
        assert_eq!(fs.saturation(), 0.0);
    }

    #[test]
    fn remove_restores_idle() {
        let mut fs = fs();
        fs.add_demand(
            9,
            IoDemand {
                read_gbps: 40.0,
                write_gbps: 0.0,
                metadata_kops: 0.0,
            },
        );
        assert!(fs.saturation() > 0.0);
        assert_eq!(fs.stream_count(), 1);
        fs.remove_demand(9);
        assert_eq!(fs.saturation(), 0.0);
        fs.remove_demand(9); // idempotent
        assert_eq!(fs.stream_count(), 0);
    }

    #[test]
    fn replacing_a_stream_overwrites() {
        let mut fs = fs();
        fs.add_demand(
            1,
            IoDemand {
                read_gbps: 10.0,
                write_gbps: 0.0,
                metadata_kops: 0.0,
            },
        );
        fs.add_demand(
            1,
            IoDemand {
                read_gbps: 20.0,
                write_gbps: 0.0,
                metadata_kops: 0.0,
            },
        );
        assert!((fs.total_demand_gbps() - 20.0).abs() < 1e-12);
        assert_eq!(fs.demand_of(1).unwrap().read_gbps, 20.0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        LustreState::new(LustreConfig {
            aggregate_gbps: 0.0,
            metadata_weight: 0.0,
            ost_count: 4,
            stripe_count: 1,
        });
    }

    #[test]
    fn stripes_are_deterministic_and_sized() {
        let fs = fs();
        for id in 0..50u64 {
            let a = fs.stripe_osts(id);
            assert_eq!(a.len(), 2);
            assert_eq!(a, fs.stripe_osts(id), "stable per id");
            assert!(a.iter().all(|&o| o < 10));
            let unique: std::collections::HashSet<_> = a.iter().collect();
            assert_eq!(unique.len(), 2, "distinct OSTs");
        }
        // different ids land on different stripes at least sometimes
        let distinct: std::collections::HashSet<Vec<u32>> =
            (0..50u64).map(|id| fs.stripe_osts(id)).collect();
        assert!(distinct.len() > 5, "striping should spread");
    }

    #[test]
    fn ost_demand_sums_to_total() {
        let mut fs = fs();
        fs.set_background_gbps(10.0);
        fs.add_demand(
            1,
            IoDemand {
                read_gbps: 20.0,
                write_gbps: 0.0,
                metadata_kops: 0.0,
            },
        );
        fs.add_demand(
            2,
            IoDemand {
                read_gbps: 0.0,
                write_gbps: 15.0,
                metadata_kops: 0.0,
            },
        );
        let per_ost: f64 = (0..10).map(|o| fs.ost_demand_gbps(o)).sum();
        assert!((per_ost - fs.total_demand_gbps()).abs() < 1e-9);
    }

    #[test]
    fn hotspots_exceed_global_saturation() {
        let mut fs = fs();
        // One narrow stream hammering its 2 stripes: global 40/100 = 0.4,
        // but each of its OSTs carries 20 GB/s against 10 GB/s capacity.
        fs.add_demand(
            7,
            IoDemand {
                read_gbps: 40.0,
                write_gbps: 0.0,
                metadata_kops: 0.0,
            },
        );
        assert!((fs.saturation() - 0.4).abs() < 1e-12);
        assert!((fs.max_ost_saturation() - 2.0).abs() < 1e-12);
        // The stream itself is throttled by its own hotspot.
        assert!((fs.stream_delivered_fraction(7) - 0.5).abs() < 1e-12);
        // A stream on cold OSTs is not (find an id with disjoint stripes).
        let hot = fs.stripe_osts(7);
        let cold_id = (0..100u64)
            .find(|&id| fs.stripe_osts(id).iter().all(|o| !hot.contains(o)))
            .expect("some disjoint stripe exists");
        fs.add_demand(
            cold_id,
            IoDemand {
                read_gbps: 1.0,
                write_gbps: 0.0,
                metadata_kops: 0.0,
            },
        );
        assert_eq!(fs.stream_delivered_fraction(cold_id), 1.0);
    }

    #[test]
    fn unknown_stream_sees_pool_fraction() {
        let fs = fs();
        assert_eq!(fs.stream_delivered_fraction(999), 1.0);
    }

    #[test]
    fn cached_demand_sum_matches_a_fresh_sum_through_churn() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(19);
        let mut fs = fs();
        fs.set_background_gbps(3.7);
        for _ in 0..2000 {
            // Ids from a small range, so adds often replace a live stream
            // and removes often hit one.
            let id = rng.gen_range(0..48u64);
            if rng.gen_bool(0.4) {
                fs.remove_demand(id);
            } else {
                fs.add_demand(
                    id,
                    IoDemand {
                        read_gbps: rng.gen::<f64>() * 7.0,
                        write_gbps: rng.gen::<f64>() * 3.0,
                        metadata_kops: rng.gen::<f64>() * 90.0,
                    },
                );
            }
            let w = fs.config().metadata_weight;
            let fresh = fs.background_gbps()
                + fs.demands
                    .values()
                    .map(|d| d.effective_gbps(w))
                    .sum::<f64>();
            assert_eq!(fs.total_demand_gbps().to_bits(), fresh.to_bits());
        }
        assert!(fs.stream_count() > 0, "churn should leave live streams");
    }
}
