//! Small order statistics and the run digest.
//!
//! Quantiles use the nearest-rank (ceiling) convention the program itself
//! uses for its service latencies: the `q`-quantile of `n` sorted samples is
//! the sample at 1-based rank `ceil(n·q)`.

/// The number of samples that must lie strictly beyond a reported
/// percentile for it to count as measured rather than read off one or two
/// extreme receivers.
pub const MIN_TAIL: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((n as f64 * p / 100.0).ceil() as usize).clamp(1, n)
}

/// The `p`-th percentile (0 < p ≤ 100) of `samples` by nearest rank.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// The median of `samples` (the mean of the two middle samples for an even
/// count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The highest whole percentile of `n` samples with at least `min_tail`
/// samples strictly beyond it, or `None` if even the 1st percentile has
/// fewer. With the default tail of 10, a p90 needs at least 100 samples.
pub fn highest_percentile_with_tail(n: usize, min_tail: usize) -> Option<u32> {
    if n == 0 {
        return None;
    }
    (1..=99u32)
        .rev()
        .find(|&p| n - rank(n, f64::from(p)) >= min_tail)
}

/// FNV-1a over a canonical rendering: a compact identity for "every run of
/// a workload produced the same output".
pub fn digest(canonical: &str) -> u64 {
    canonical.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
