//! Order statistics for timing samples and for sets of runs.
//!
//! Two rules live here because every reported number depends on them:
//! a percentile is only as good as the samples beyond it, and two sets of
//! runs are compared by median and quartile distance, never by mean.

/// The percentiles a timing may be reported at, lowest first.
pub const PERCENTILE_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`PERCENTILE_LADDER`] that still has at least
/// ten samples beyond it in a sample of `n`; 50 when even the median does
/// not (the median is always reported, with its count).
pub fn highest_supported_percentile(n: usize) -> f64 {
    let mut best = PERCENTILE_LADDER[0];
    for p in PERCENTILE_LADDER {
        // Integer arithmetic in tenths of a percent: 99.9 must not round.
        let beyond = n as u128 * (1000 - (p * 10.0).round() as u128) / 1000;
        if beyond >= 10 {
            best = p;
        }
    }
    best
}

/// Nearest-rank percentile of an ascending-sorted sample (`p` in 0..=100).
/// Returns 0 for an empty sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a sample of floats (the mean of the middle two when even).
/// Returns 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive" method:
/// the i-th cut sits at position `i * (len + 1) / 4`, interpolated
/// linearly, extrapolating past the ends of a tiny sample as Python does).
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let pos = i * (len + 1);
        let j = (pos / 4).clamp(1, len - 1);
        let delta = pos as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// A sorted timing sample in nanoseconds with the accessors reports use.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted_ns: Vec<u64>,
}

impl Samples {
    pub fn from_ns(mut ns: Vec<u64>) -> Self {
        ns.sort_unstable();
        Self { sorted_ns: ns }
    }

    pub fn len(&self) -> usize {
        self.sorted_ns.len()
    }

    /// Percentile in nanoseconds.
    pub fn p_ns(&self, p: f64) -> f64 {
        percentile(&self.sorted_ns, p) as f64
    }

    pub fn p_us(&self, p: f64) -> f64 {
        self.p_ns(p) / 1e3
    }

    pub fn p_ms(&self, p: f64) -> f64 {
        self.p_ns(p) / 1e6
    }
}

/// The p50 of each complete slice of `every` consecutive samples, in
/// sample order; of the whole sample when it is shorter than one slice.
pub fn slice_p50s(ns: &[u64], every: usize) -> Vec<f64> {
    let every = every.max(1);
    if ns.len() < every {
        return vec![Samples::from_ns(ns.to_vec()).p_ns(50.0)];
    }
    ns.chunks_exact(every)
        .map(|c| Samples::from_ns(c.to_vec()).p_ns(50.0))
        .collect()
}

/// Which end of a metric's slices is the undisturbed one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quiet {
    /// A time or a cost: interference only ever adds to it.
    Lowest,
    /// A rate: interference only ever takes from it.
    Highest,
}

/// The value of a run's quietest slice.
///
/// Interference from outside the system (a busy hyperthread sibling, a
/// preempted thread) makes a slice slower and never faster, so over slices
/// of equal work spread across a run the best one is the closest the run
/// came to the system's own speed. The median over slices follows the
/// host instead: on the reference container it moved by 15-25% between
/// windows of 25 s where the best slice of the same windows moved by 3-9%
/// (README, "Steadiness"). Returns 0 for no slices.
pub fn quietest(slices: &[f64], quiet: Quiet) -> f64 {
    let best = match quiet {
        Quiet::Lowest => slices.iter().copied().reduce(f64::min),
        Quiet::Highest => slices.iter().copied().reduce(f64::max),
    };
    best.unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_are_complete_chunks_in_order() {
        let ns: Vec<u64> = vec![1, 2, 3, 10, 20, 30, 100];
        // Two complete slices of three; the odd sample at the end is left out.
        assert_eq!(slice_p50s(&ns, 3), vec![2.0, 20.0]);
        // Shorter than one slice: the whole sample is the slice.
        assert_eq!(slice_p50s(&ns[..2], 3), vec![1.0]);
        assert_eq!(slice_p50s(&[], 3), vec![0.0]);
    }

    #[test]
    fn the_quietest_slice_ignores_disturbed_ones() {
        // Three undisturbed slices and two that a busy neighbour stretched.
        let times = [4.1, 6.9, 4.0, 5.8, 4.2];
        assert_eq!(quietest(&times, Quiet::Lowest), 4.0);
        let rates = [61e3, 36e3, 62e3, 43e3, 60e3];
        assert_eq!(quietest(&rates, Quiet::Highest), 62e3);
        assert_eq!(quietest(&[], Quiet::Lowest), 0.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), 50.0);
        assert_eq!(highest_supported_percentile(19), 50.0);
        assert_eq!(highest_supported_percentile(20), 50.0);
        assert_eq!(highest_supported_percentile(40), 75.0);
        assert_eq!(highest_supported_percentile(99), 75.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        // The issue's example: ~130 audit samples support p90, not p95.
        assert_eq!(highest_supported_percentile(130), 90.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(999), 95.0);
        assert_eq!(highest_supported_percentile(1_000), 99.0);
        assert_eq!(highest_supported_percentile(9_999), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 90.0), 90);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
