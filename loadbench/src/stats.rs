//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) by nearest rank; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or 0 when there is no base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The median over rounds of each round's `q`-quantile, so a round hit by
/// a burst of outside load moves the figure less than pooling would.
pub fn per_round(rounds: &[Vec<f64>], q: f64) -> f64 {
    let per: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| quantile(r, q))
        .collect();
    median(&per)
}
