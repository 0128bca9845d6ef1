//! Named, independently seeded RNG streams.
//!
//! A simulation draws randomness from many places: workload noise, OS jitter,
//! traffic regimes, job arrival times. If they all shared one generator,
//! adding a single draw anywhere would shift every downstream value and make
//! results impossible to compare across code versions. Instead, every
//! consumer asks [`RngStreams`] for a stream by name; the stream's seed is a
//! hash of `(master_seed, name)`, so streams are mutually independent and a
//! stream's draws depend only on the master seed and its own usage.

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// Derives independent [`SmallRng`] streams from a master seed.
#[derive(Debug, Clone)]
pub struct RngStreams {
    master: u64,
}

impl RngStreams {
    /// Creates a factory for streams derived from `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        RngStreams {
            master: master_seed,
        }
    }

    /// The master seed.
    pub fn master_seed(&self) -> u64 {
        self.master
    }

    /// Returns the RNG stream for `name`. Calling twice with the same name
    /// returns an identical generator (same state, independent copies).
    pub fn stream(&self, name: &str) -> SmallRng {
        SmallRng::seed_from_u64(derive_seed(self.master, name))
    }

    /// Returns a stream for `name` further split by an index — e.g. one
    /// stream per node or per trial.
    pub fn indexed_stream(&self, name: &str, index: u64) -> SmallRng {
        let base = derive_seed(self.master, name);
        SmallRng::seed_from_u64(splitmix64(
            base ^ (index.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        ))
    }

    /// The derived seed for `name` — the value [`stream`](Self::stream)
    /// seeds its generator with. Exposed so checkpointing can record a
    /// stream as `(seed, draw_count)` and later reconstruct it with
    /// [`CountedRng::restore`].
    pub fn stream_seed(&self, name: &str) -> u64 {
        derive_seed(self.master, name)
    }

    /// Returns the draw-counting stream for `name`: identical draws to
    /// [`stream`](Self::stream), but snapshot-restorable.
    pub fn counted_stream(&self, name: &str) -> CountedRng {
        CountedRng::seeded(derive_seed(self.master, name))
    }
}

/// A [`SmallRng`] that counts its draws, making it snapshot-restorable.
///
/// Every derived `rand` method (`gen`, `gen_range`, `fill_bytes`,
/// distribution sampling, shuffling) funnels through `next_u64`, so counting
/// there captures the generator's exact position in its stream. A stream is
/// then fully described by `(seed, draws)`: [`CountedRng::restore`] reseeds
/// and burns `draws` values to land on the identical state, which is what
/// makes a resumed run's remaining random draws byte-for-byte identical to
/// the uninterrupted run's.
#[derive(Debug, Clone)]
pub struct CountedRng {
    seed: u64,
    draws: u64,
    inner: SmallRng,
}

impl CountedRng {
    /// A fresh stream at position zero.
    pub fn seeded(seed: u64) -> Self {
        CountedRng {
            seed,
            draws: 0,
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Reconstructs the stream at position `draws`.
    pub fn restore(seed: u64, draws: u64) -> Self {
        let mut rng = CountedRng::seeded(seed);
        rng.advance(draws);
        rng
    }

    /// Discards the next `n` draws, one at a time: the stream lands where
    /// `n` draws of any kind would have left it.
    pub fn advance(&mut self, n: u64) {
        for _ in 0..n {
            self.inner.next_u64();
        }
        self.draws += n;
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of `u64` values drawn so far.
    pub fn draws(&self) -> u64 {
        self.draws
    }
}

impl RngCore for CountedRng {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

/// FNV-1a hash of the name mixed with the master seed through splitmix64.
fn derive_seed(master: u64, name: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x100_0000_01b3;
    let mut h = FNV_OFFSET;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    splitmix64(h ^ master)
}

/// One splitmix64 output: the state `z` advanced by the golden-ratio
/// increment and finalized. A cheap, well-distributed 64-bit mixer, and
/// `splitmix64(seed + k * 0x9E37_79B9_7F4A_7C15)` is output `k + 1` of the
/// splitmix64 stream seeded with `seed`.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_name_same_stream() {
        let streams = RngStreams::new(42);
        let a: Vec<u64> = streams
            .stream("noise")
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        let b: Vec<u64> = streams
            .stream("noise")
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_names_differ() {
        let streams = RngStreams::new(42);
        let a: u64 = streams.stream("noise").gen();
        let b: u64 = streams.stream("traffic").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn different_master_seeds_differ() {
        let a: u64 = RngStreams::new(1).stream("x").gen();
        let b: u64 = RngStreams::new(2).stream("x").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn indexed_streams_are_distinct_and_stable() {
        let streams = RngStreams::new(7);
        let a: u64 = streams.indexed_stream("node", 0).gen();
        let b: u64 = streams.indexed_stream("node", 1).gen();
        let a2: u64 = streams.indexed_stream("node", 0).gen();
        assert_ne!(a, b);
        assert_eq!(a, a2);
    }

    #[test]
    fn counted_stream_matches_plain_stream() {
        let streams = RngStreams::new(0xA5);
        let mut plain = streams.stream("sched/place");
        let mut counted = streams.counted_stream("sched/place");
        for _ in 0..64 {
            assert_eq!(plain.gen::<u64>(), counted.gen::<u64>());
        }
        // Derived methods count too: gen::<f64> and gen_range draw u64s.
        let _: f64 = counted.gen();
        let _ = counted.gen_range(0.25..0.75);
        assert!(counted.draws() >= 66);
    }

    #[test]
    fn restore_lands_on_the_identical_state() {
        let mut a = CountedRng::seeded(17);
        for _ in 0..100 {
            let _: u64 = a.gen();
        }
        let mut b = CountedRng::restore(a.seed(), a.draws());
        assert_eq!(b.draws(), a.draws());
        for _ in 0..32 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn advance_matches_drawing_mid_stream() {
        let mut drawn = CountedRng::seeded(5);
        let mut advanced = CountedRng::seeded(5);
        let _: f64 = drawn.gen();
        let _: f64 = advanced.gen();
        for _ in 0..40 {
            let _: f64 = drawn.gen();
        }
        advanced.advance(40);
        assert_eq!(advanced.draws(), drawn.draws());
        assert_eq!(advanced.gen::<u64>(), drawn.gen::<u64>());
    }

    #[test]
    fn stream_seed_matches_counted_stream() {
        let streams = RngStreams::new(3);
        let seed = streams.stream_seed("x");
        let mut via_seed = CountedRng::seeded(seed);
        let mut via_name = streams.counted_stream("x");
        assert_eq!(via_seed.gen::<u64>(), via_name.gen::<u64>());
    }

    #[test]
    fn stream_isolation_adding_a_stream_does_not_perturb_others() {
        let streams = RngStreams::new(99);
        let before: u64 = streams.stream("jobs").gen();
        // "create" another stream in between
        let _ = streams.stream("brand-new-consumer");
        let after: u64 = streams.stream("jobs").gen();
        assert_eq!(before, after);
    }
}
