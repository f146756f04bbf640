//! Order statistics over timing samples.

/// Median of `xs`; `0.0` for no samples.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The nearest-rank `q`-quantile of `xs` (`0 < q ≤ 1`); `0.0` for no
/// samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(median(&xs), 10.0);
        assert_eq!(quantile(&xs, 0.95), 19.0);
        assert_eq!(quantile(&xs, 1.0), 20.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
