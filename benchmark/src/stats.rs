//! The benchmark's own statistics: percentiles, quartiles and generator lag.
//!
//! These are deliberately independent of the program's `dmt_metrics`
//! histograms: the benchmark checks the program, so it computes its figures
//! from raw samples it collected itself.

/// Nearest-rank percentile `p` (in 0..=100) of `samples`; `None` when empty.
///
/// Nearest rank returns an observed sample, never an interpolation, so a
/// percentile of integer microseconds stays an observed latency.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly beyond the nearest-rank percentile `p` of `count` samples.
#[must_use]
pub fn samples_beyond(count: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * count as f64).ceil() as usize;
    count.saturating_sub(rank.max(1))
}

/// Median of `samples` (mean of the middle pair for even counts).
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    quartiles(samples).map(|q| q[1])
}

/// The three quartile cut points of `samples`, computed like Python's
/// `statistics.quantiles(samples, n=4)` (the default "exclusive" method), so
/// the spreads the benchmark reports match those a reader computes from the
/// printed values. A single sample is its own quartiles.
#[must_use]
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        1 => Some([sorted[0]; 3]),
        _ => {
            // Python's exclusive method, integer arithmetic included: the
            // cut sits at 1-based position i*(n+1)/4, clamped to [1, n-1].
            let cut = |i: usize| {
                let m = i * (n + 1);
                let j = (m / 4).clamp(1, n - 1);
                let delta = m as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            Some([cut(1), cut(2), cut(3)])
        }
    }
}

/// How late an open-loop generator sent its requests: each send is compared
/// with the instant the schedule said it was due.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct GeneratorLag {
    /// Largest delay of a send past its scheduled instant, microseconds.
    pub max_us: u64,
}

impl GeneratorLag {
    /// Accounts one send that was due at `scheduled_us` and left at
    /// `sent_us`; an early send (never expected) counts as on time.
    pub fn record(&mut self, scheduled_us: u64, sent_us: u64) {
        self.max_us = self.max_us.max(sent_us.saturating_sub(scheduled_us));
    }

    /// Largest lag in milliseconds.
    #[must_use]
    pub fn max_ms(&self) -> f64 {
        self.max_us as f64 * 1e-3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        let mut r = v.clone();
        r.reverse();
        assert_eq!(percentile(&r, 90.0), Some(90.0));
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        // 100 samples: p90 leaves 10 beyond, p99 only 1.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(100, 99.0), 1);
        // 99 samples: p90 is rank 90, so only 9 lie beyond it.
        assert_eq!(samples_beyond(99, 90.0), 9);
        // 1000 samples: p99 leaves 10 beyond; 999 leave 9.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(0, 99.0), 0);
        // The count agrees with the nearest-rank percentile itself.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&v, 99.0).unwrap();
        assert_eq!(
            v.iter().filter(|&&x| x > p99).count(),
            samples_beyond(1000, 99.0)
        );
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), Some([1.25, 2.5, 3.75]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[7.0]), Some([7.0, 7.0, 7.0]));
        assert_eq!(quartiles(&[]), None);
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
    }

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        use dmt_serve::ArrivalProcess;
        let at = |seed| ArrivalProcess::Poisson { qps: 2_000.0, seed }.schedule(500);
        assert_eq!(at(11), at(11), "same seed, same schedule");
        assert_ne!(at(11), at(12), "another seed, another schedule");
        let s = at(11);
        assert!(s.windows(2).all(|w| w[0] <= w[1]), "arrivals are ordered");
        let mean_gap_us = *s.last().unwrap() as f64 / (s.len() - 1) as f64;
        assert!((400.0..=600.0).contains(&mean_gap_us), "{mean_gap_us}");
    }

    #[test]
    fn generator_lag_accounts_late_sends_only() {
        let mut lag = GeneratorLag::default();
        lag.record(1_000, 1_000);
        assert_eq!(lag.max_us, 0);
        lag.record(2_000, 2_750);
        lag.record(3_000, 900); // early: on time
        lag.record(4_000, 4_100);
        assert_eq!(lag.max_us, 750);
        assert_eq!(lag.max_ms(), 0.75);
    }
}
