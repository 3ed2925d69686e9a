//! Order statistics over raw samples (exact, no binning).

/// Median of a sample; the mean of the two middle values when even.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len().is_multiple_of(2) { (v[mid - 1] + v[mid]) / 2.0 } else { v[mid] })
}

/// Nearest-rank quantile of integer samples (latencies in ns).
pub fn quantile_u64(values: &mut [u64], q: f64) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    Some(values[rank - 1])
}

/// The highest percentile with at least ten samples beyond it is p99
/// from 1,000 samples up; below that the report says so.
pub fn p99_supported(samples: usize) -> bool {
    samples >= 1000
}
