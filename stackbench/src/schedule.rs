//! Seeded open-loop arrival schedules. Everything here is a pure function of
//! the workload seed, so two runs with one seed offer the same load.

/// SplitMix64: a tiny counter-based generator, good enough for jitter and
/// input selection and independent of the crates under test.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `(seed, stream)`; distinct streams decorrelate.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        g.next_u64();
        g
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Due times, in nanoseconds from the phase start, of one generator
/// offering `rate` requests per second for `seconds`: a fixed period with
/// each arrival jittered uniformly by up to half a period.
pub fn arrivals(seed: u64, stream: u64, rate: f64, seconds: f64) -> Vec<u64> {
    assert!(rate > 0.0 && seconds > 0.0, "empty schedule");
    let period = 1e9 / rate;
    let count = (rate * seconds).floor() as usize;
    let mut g = SplitMix::new(seed, stream);
    (0..count)
        .map(|k| {
            let jitter = (g.unit() - 0.5) * period;
            ((k as f64 + 0.5) * period + jitter) as u64
        })
        .collect()
}

/// One resident stream's clock: first due time and period, nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamClock {
    /// Due time of the stream's first chunk in a phase.
    pub first_ns: u64,
    /// Time between the stream's chunks.
    pub period_ns: u64,
}

/// Clocks for `streams` sessions that together offer about `rate` chunks per
/// second: each stream gets its own period (±20 % around `streams / rate`)
/// and a random phase within it.
pub fn stream_clocks(seed: u64, streams: usize, rate: f64) -> Vec<StreamClock> {
    assert!(streams > 0 && rate > 0.0, "empty clock set");
    let mean = streams as f64 / rate * 1e9;
    let mut g = SplitMix::new(seed, 0x636C_6F63);
    (0..streams)
        .map(|_| {
            let period = mean * (0.8 + 0.4 * g.unit());
            StreamClock {
                first_ns: (g.unit() * period) as u64,
                period_ns: period as u64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_per_seed() {
        assert_eq!(arrivals(7, 1, 2000.0, 1.0), arrivals(7, 1, 2000.0, 1.0));
        assert_ne!(arrivals(7, 1, 2000.0, 1.0), arrivals(8, 1, 2000.0, 1.0));
        assert_ne!(arrivals(7, 1, 2000.0, 1.0), arrivals(7, 2, 2000.0, 1.0));
        assert_eq!(stream_clocks(3, 100, 5e4), stream_clocks(3, 100, 5e4));
        assert_ne!(stream_clocks(3, 100, 5e4), stream_clocks(4, 100, 5e4));
    }

    #[test]
    fn arrivals_are_ordered_and_hold_the_rate() {
        let a = arrivals(11, 0, 4000.0, 2.0);
        assert_eq!(a.len(), 8000);
        assert!(
            a.windows(2).all(|w| w[0] <= w[1]),
            "jitter reordered arrivals"
        );
        assert!(*a.last().unwrap() < 2_000_000_000);
    }

    #[test]
    fn stream_clocks_offer_about_the_rate() {
        let clocks = stream_clocks(5, 20_000, 150_000.0);
        let offered: f64 = clocks.iter().map(|c| 1e9 / c.period_ns as f64).sum();
        assert!(
            (offered / 150_000.0 - 1.0).abs() < 0.03,
            "offered {offered}"
        );
        assert!(clocks.iter().all(|c| c.first_ns < c.period_ns));
    }

    #[test]
    fn unit_stays_in_range() {
        let mut g = SplitMix::new(1, 2);
        for _ in 0..10_000 {
            let u = g.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(g.below(7) < 7);
        }
    }
}
