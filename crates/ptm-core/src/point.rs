//! Point persistent traffic estimation (paper Sec. III).
//!
//! Given `t` records `{B_1, …, B_t}` from one location, estimate the number
//! of *common* vehicles — those that passed in **all** `t` periods.
//!
//! The derivation: split the (expanded) records into `Π_a` / `Π_b`, AND-join
//! each into `E_a` / `E_b`, and AND those into `E_*`. Modelling each joined
//! half as `n_a` (resp. `n_b`) independent abstract vehicles that contain
//! the `n_*` common vehicles, the expected one-fraction of `E_*` solves to
//! Eq. (12):
//!
//! ```text
//! n̂_* = [ln V_a,0 + ln V_b,0 − ln(V_*,1 + V_a,0 + V_b,0 − 1)] / ln(1 − 1/m)
//! ```
//!
//! # One join per half, one sweep
//!
//! Each half is AND-joined straight at `m`, the size common to both halves,
//! and the three counts behind `V_a,0`, `V_b,0` and `V_*,1` are read in one
//! sweep over the two joined halves; `E_*` itself is never built. This is
//! bit-exact against joining each half at its own size, replicating both to
//! `m` and ANDing them: replication commutes with AND at power-of-two
//! lengths, so the joined halves hold the same words either way, and the
//! three fractions are read at `m` in both cases (see [`crate::join`]). The
//! `f64` expressions and the order of the errors are unchanged.

use crate::bitmap::Bitmap;
use crate::error::EstimateError;
use crate::join::{
    and_join, common_len, counted_join, fraction, join_at, location_bitmaps, ones_in_one_sweep,
    JoinOp, SplitStrategy,
};
use crate::record::TrafficRecord;
use std::borrow::Borrow;

/// The proposed point persistent estimator (Eq. 12).
#[derive(Debug, Clone, Copy, Default)]
pub struct PointEstimator {
    split: SplitStrategy,
}

impl PointEstimator {
    /// Creates the estimator with the paper's halves split.
    pub fn new() -> Self {
        Self::default()
    }

    /// Uses an alternative split strategy (ablation).
    pub fn with_split(split: SplitStrategy) -> Self {
        Self { split }
    }

    /// Estimates the persistent traffic volume from single-location records
    /// (owned, or shared handles such as `Arc<TrafficRecord>`).
    ///
    /// # Errors
    ///
    /// * [`EstimateError::TooFewRecords`] — fewer than two records; with one
    ///   record "persistent" degenerates to plain cardinality, use
    ///   [`crate::lpc::estimate_cardinality`] instead.
    /// * [`EstimateError::LocationMismatch`] — records from several
    ///   locations.
    /// * [`EstimateError::Saturated`] — one of the joined halves has no zero
    ///   bits (undersized records).
    /// * [`EstimateError::Degenerate`] — the observed fractions violate
    ///   `V_*,1 + V_a,0 + V_b,0 > 1`, which happens with tiny bitmaps when
    ///   sampling noise dominates; larger `m` (higher `f`) avoids it.
    pub fn estimate<R: Borrow<TrafficRecord>>(&self, records: &[R]) -> Result<f64, EstimateError> {
        at_least_two(records.len())?;
        self.estimate_bitmaps(&location_bitmaps(records)?)
    }

    /// Estimates directly from bitmaps (no metadata checks); the building
    /// block for both [`PointEstimator::estimate`] and the point-to-point
    /// pipeline.
    ///
    /// # Errors
    ///
    /// Same as [`PointEstimator::estimate`] minus the metadata checks.
    pub fn estimate_bitmaps(&self, bitmaps: &[&Bitmap]) -> Result<f64, EstimateError> {
        let _t = ptm_obs::span!("core.point.estimate");
        ptm_obs::counter!("core.point.ops").inc();
        at_least_two(bitmaps.len())?;
        let (e_a, e_b) = self.join_halves(bitmaps)?;
        Ok(Fractions::sweep(&e_a, &e_b)?.value())
    }

    /// AND-joins `Π_a` and `Π_b` each straight at the size common to both
    /// halves: one counted join per half.
    fn join_halves(&self, bitmaps: &[&Bitmap]) -> Result<(Bitmap, Bitmap), EstimateError> {
        let (idx_a, idx_b) = self.split.split(bitmaps.len());
        let half_a: Vec<&Bitmap> = idx_a.iter().map(|&i| bitmaps[i]).collect();
        let half_b: Vec<&Bitmap> = idx_b.iter().map(|&i| bitmaps[i]).collect();
        let m = common_len(&half_a)?.max(common_len(&half_b)?);
        Ok((
            counted_join(&half_a, m, JoinOp::And),
            counted_join(&half_b, m, JoinOp::And),
        ))
    }
}

fn at_least_two(actual: usize) -> Result<(), EstimateError> {
    if actual < 2 {
        return Err(EstimateError::TooFewRecords {
            required: 2,
            actual,
        });
    }
    Ok(())
}

/// Applies Eq. (12) to the two AND-joined halves.
///
/// # Errors
///
/// See [`PointEstimator::estimate`].
pub fn estimate_from_halves(e_a: &Bitmap, e_b: &Bitmap) -> Result<f64, EstimateError> {
    let (e_a, e_b) = at_common_size(e_a, e_b)?;
    Ok(Fractions::sweep(&e_a, &e_b)?.value())
}

/// The halves replicated to their common size `m` (they differ in size
/// when the original records did).
fn at_common_size(e_a: &Bitmap, e_b: &Bitmap) -> Result<(Bitmap, Bitmap), EstimateError> {
    let m = common_len(&[e_a, e_b])?;
    Ok((
        join_at(&[e_a], m, JoinOp::And),
        join_at(&[e_b], m, JoinOp::And),
    ))
}

/// The three fractions Eq. (12) reads, from one sweep over two halves
/// joined at their common size `m`, checked against the estimator's domain.
struct Fractions {
    m: usize,
    v_a0: f64,
    v_b0: f64,
    v_star1: f64,
    /// `V_*,1 + V_a,0 + V_b,0 − 1`, positive.
    arg: f64,
}

impl Fractions {
    /// # Errors
    ///
    /// [`EstimateError::Saturated`] for `E_a`, then for `E_b`, then
    /// [`EstimateError::Degenerate`].
    fn sweep(e_a: &Bitmap, e_b: &Bitmap) -> Result<Self, EstimateError> {
        let m = e_a.len();
        let (ones_a, ones_b, ones_star) = ones_in_one_sweep(e_a, e_b, JoinOp::And);
        let v_a0 = fraction(m - ones_a, m);
        let v_b0 = fraction(m - ones_b, m);
        let v_star1 = fraction(ones_star, m);
        if v_a0 <= 0.0 {
            return Err(EstimateError::Saturated { which: "E_a" });
        }
        if v_b0 <= 0.0 {
            return Err(EstimateError::Saturated { which: "E_b" });
        }
        let arg = v_star1 + v_a0 + v_b0 - 1.0;
        if arg <= 0.0 {
            return Err(EstimateError::Degenerate);
        }
        Ok(Self {
            m,
            v_a0,
            v_b0,
            v_star1,
            arg,
        })
    }

    /// `ln(1 − 1/m)`.
    fn ln_q(&self) -> f64 {
        (1.0 - 1.0 / self.m as f64).ln()
    }

    /// Eq. (12).
    fn value(&self) -> f64 {
        (self.v_a0.ln() + self.v_b0.ln() - self.arg.ln()) / self.ln_q()
    }

    /// Eq. (12) with its delta-method standard error (see
    /// [`estimate_from_halves_with_error`]).
    fn with_error(&self) -> EstimateWithError {
        let Self {
            m,
            v_a0,
            v_b0,
            v_star1,
            arg,
        } = *self;
        let ln_q = self.ln_q();
        let value = self.value();

        // Partial derivatives of g w.r.t. (V_a0, V_b0, V_*1).
        let d_va = (1.0 / v_a0 - 1.0 / arg) / ln_q;
        let d_vb = (1.0 / v_b0 - 1.0 / arg) / ln_q;
        let d_v1 = (-1.0 / arg) / ln_q;
        let mf = m as f64;
        let var = d_va * d_va * v_a0 * (1.0 - v_a0) / mf
            + d_vb * d_vb * v_b0 * (1.0 - v_b0) / mf
            + d_v1 * d_v1 * v_star1 * (1.0 - v_star1) / mf;
        EstimateWithError {
            value,
            std_error: var.max(0.0).sqrt(),
        }
    }
}

/// A point estimate together with its delta-method standard error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateWithError {
    /// The estimated persistent volume `n̂_*`.
    pub value: f64,
    /// First-order standard error propagated from the sampling noise of
    /// the three observed fractions.
    pub std_error: f64,
}

impl EstimateWithError {
    /// A symmetric `value ± z·std_error` interval.
    pub fn interval(&self, z: f64) -> (f64, f64) {
        (
            self.value - z * self.std_error,
            self.value + z * self.std_error,
        )
    }
}

/// Applies Eq. (12) and propagates a first-order (delta-method) standard
/// error.
///
/// The estimator is a function `g(V_a,0, V_b,0, V_*,1)`; treating each
/// fraction as a mean of `m` weakly dependent Bernoulli bits with variance
/// `V(1−V)/m`, the variance of `n̂_*` is approximately
/// `Σ (∂g/∂V_i)² · Var(V_i)`. The fractions are positively correlated (the
/// same bits feed all three), which the independence assumption ignores, so
/// the propagated error is **conservative** — empirically ~3× the observed
/// spread at the paper's operating point (a unit test pins the band). Error
/// bars built from it are safe, not tight.
///
/// # Errors
///
/// Same conditions as [`estimate_from_halves`].
pub fn estimate_from_halves_with_error(
    e_a: &Bitmap,
    e_b: &Bitmap,
) -> Result<EstimateWithError, EstimateError> {
    let (e_a, e_b) = at_common_size(e_a, e_b)?;
    Ok(Fractions::sweep(&e_a, &e_b)?.with_error())
}

impl PointEstimator {
    /// [`PointEstimator::estimate`] with a propagated standard error.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PointEstimator::estimate`].
    pub fn estimate_with_error<R: Borrow<TrafficRecord>>(
        &self,
        records: &[R],
    ) -> Result<EstimateWithError, EstimateError> {
        at_least_two(records.len())?;
        let (e_a, e_b) = self.join_halves(&location_bitmaps(records)?)?;
        Ok(Fractions::sweep(&e_a, &e_b)?.with_error())
    }
}

/// The benchmark estimator from the evaluation (Sec. VI-B): apply plain
/// linear probabilistic counting to the AND of **all** `t` records,
/// `n̂_* = ln V_*,0 / ln(1 − 1/m)`.
///
/// It over-estimates because transient hash collisions surviving the AND are
/// counted as persistent vehicles; Fig. 4 quantifies the gap.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveAndEstimator;

impl NaiveAndEstimator {
    /// Creates the benchmark estimator.
    pub fn new() -> Self {
        Self
    }

    /// Estimates persistent traffic as the LPC cardinality of the full AND.
    ///
    /// # Errors
    ///
    /// * [`EstimateError::NoRecords`] — empty input;
    /// * [`EstimateError::LocationMismatch`] — mixed locations;
    /// * [`EstimateError::Saturated`] — the AND has no zero bits.
    pub fn estimate<R: Borrow<TrafficRecord>>(&self, records: &[R]) -> Result<f64, EstimateError> {
        self.estimate_bitmaps(&location_bitmaps(records)?)
    }

    /// Bitmap-level variant of [`NaiveAndEstimator::estimate`].
    ///
    /// # Errors
    ///
    /// Same as [`NaiveAndEstimator::estimate`] minus metadata checks.
    pub fn estimate_bitmaps(&self, bitmaps: &[&Bitmap]) -> Result<f64, EstimateError> {
        ptm_obs::counter!("core.point.naive.ops").inc();
        let e_star = and_join(bitmaps.iter().copied())?;
        crate::lpc::from_zero_fraction(e_star.fraction_zeros(), e_star.len(), "E_*")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{EncodingScheme, LocationId, VehicleSecrets};
    use crate::params::BitmapSize;
    use crate::record::{PeriodId, TrafficRecord};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Builds t records at one location with `common` persistent vehicles
    /// and `transient_per_period` fresh vehicles per period.
    fn build_records(
        seed: u64,
        t: usize,
        m: usize,
        common: usize,
        transient_per_period: usize,
    ) -> Vec<TrafficRecord> {
        let scheme = EncodingScheme::new(0x5EED, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let location = LocationId::new(99);
        let size = BitmapSize::new(m).expect("pow2");
        let commons: Vec<VehicleSecrets> = (0..common)
            .map(|_| VehicleSecrets::generate(&mut rng, 3))
            .collect();
        (0..t)
            .map(|p| {
                let mut record = TrafficRecord::new(location, PeriodId::new(p as u32), size);
                for v in &commons {
                    record.encode(&scheme, v);
                }
                for _ in 0..transient_per_period {
                    let v = VehicleSecrets::generate(&mut rng, 3);
                    record.encode(&scheme, &v);
                }
                record
            })
            .collect()
    }

    #[test]
    fn recovers_persistent_volume() {
        let records = build_records(1, 5, 1 << 14, 1000, 4000);
        let est = PointEstimator::new().estimate(&records).expect("estimate");
        let rel = (est - 1000.0).abs() / 1000.0;
        assert!(rel < 0.1, "estimate {est}, relative error {rel}");
    }

    #[test]
    fn beats_naive_benchmark_at_small_volume() {
        // The headline Fig. 4 behaviour: with few persistent vehicles, the
        // naive AND estimator is swamped by transient collisions.
        let truth = 100.0;
        let records = build_records(2, 5, 1 << 14, 100, 6000);
        let proposed = PointEstimator::new().estimate(&records).expect("proposed");
        let naive = NaiveAndEstimator::new().estimate(&records).expect("naive");
        let err_p = (proposed - truth).abs() / truth;
        let err_n = (naive - truth).abs() / truth;
        assert!(
            err_p < err_n,
            "proposed {proposed} (err {err_p}) should beat naive {naive} (err {err_n})"
        );
    }

    #[test]
    fn more_periods_reduce_naive_bias() {
        // AND of more bitmaps filters more transient noise.
        let r5 = build_records(3, 5, 1 << 13, 200, 3000);
        let r10 = build_records(3, 10, 1 << 13, 200, 3000);
        let naive5 = NaiveAndEstimator::new().estimate(&r5).expect("t=5");
        let naive10 = NaiveAndEstimator::new().estimate(&r10).expect("t=10");
        assert!(
            (naive10 - 200.0).abs() <= (naive5 - 200.0).abs(),
            "t=10 naive {naive10} should be no worse than t=5 naive {naive5}"
        );
    }

    #[test]
    fn works_with_mixed_record_sizes() {
        // Period 0 gets a half-size record (as in the paper's Fig. 3).
        let scheme = EncodingScheme::new(0x5EED, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let location = LocationId::new(7);
        let commons: Vec<VehicleSecrets> = (0..500)
            .map(|_| VehicleSecrets::generate(&mut rng, 3))
            .collect();
        let sizes = [1 << 12, 1 << 13, 1 << 13, 1 << 13, 1 << 13];
        let records: Vec<TrafficRecord> = sizes
            .iter()
            .enumerate()
            .map(|(p, &m)| {
                let mut record = TrafficRecord::new(
                    location,
                    PeriodId::new(p as u32),
                    BitmapSize::new(m).expect("pow2"),
                );
                for v in &commons {
                    record.encode(&scheme, v);
                }
                for _ in 0..2000 {
                    let v = VehicleSecrets::generate(&mut rng, 3);
                    record.encode(&scheme, &v);
                }
                record
            })
            .collect();
        let est = PointEstimator::new().estimate(&records).expect("estimate");
        let rel = (est - 500.0).abs() / 500.0;
        assert!(rel < 0.15, "estimate {est}, relative error {rel}");
    }

    #[test]
    fn zero_persistent_traffic() {
        let records = build_records(5, 5, 1 << 14, 0, 3000);
        let est = PointEstimator::new().estimate(&records).expect("estimate");
        assert!(est.abs() < 60.0, "estimate {est} should be near zero");
    }

    #[test]
    fn all_persistent_no_transient() {
        let records = build_records(6, 4, 1 << 13, 2000, 0);
        let est = PointEstimator::new().estimate(&records).expect("estimate");
        let rel = (est - 2000.0).abs() / 2000.0;
        assert!(rel < 0.05, "estimate {est}");
    }

    #[test]
    fn too_few_records() {
        let records = build_records(7, 1, 1 << 10, 10, 10);
        assert_eq!(
            PointEstimator::new().estimate(&records),
            Err(EstimateError::TooFewRecords {
                required: 2,
                actual: 1
            })
        );
        assert_eq!(
            PointEstimator::new().estimate::<TrafficRecord>(&[]),
            Err(EstimateError::TooFewRecords {
                required: 2,
                actual: 0
            })
        );
    }

    #[test]
    fn location_mismatch_detected() {
        let mut records = build_records(8, 3, 1 << 10, 10, 10);
        let other = TrafficRecord::new(
            LocationId::new(1234),
            PeriodId::new(9),
            BitmapSize::new(1 << 10).expect("pow2"),
        );
        records.push(other);
        assert_eq!(
            PointEstimator::new().estimate(&records),
            Err(EstimateError::LocationMismatch)
        );
        assert_eq!(
            NaiveAndEstimator::new().estimate(&records),
            Err(EstimateError::LocationMismatch)
        );
    }

    #[test]
    fn saturated_half_detected() {
        let mut full = Bitmap::new(8);
        for i in 0..8 {
            full.set(i);
        }
        let sparse = Bitmap::new(8);
        assert_eq!(
            estimate_from_halves(&full, &sparse),
            Err(EstimateError::Saturated { which: "E_a" })
        );
        assert_eq!(
            estimate_from_halves(&sparse, &full),
            Err(EstimateError::Saturated { which: "E_b" })
        );
    }

    #[test]
    fn interleaved_split_also_works() {
        let records = build_records(9, 6, 1 << 14, 800, 3000);
        let est = PointEstimator::with_split(SplitStrategy::Interleaved)
            .estimate(&records)
            .expect("estimate");
        let rel = (est - 800.0).abs() / 800.0;
        assert!(rel < 0.1, "estimate {est}");
    }

    #[test]
    fn estimate_with_error_matches_point_estimate() {
        let records = build_records(20, 6, 1 << 13, 500, 2500);
        let plain = PointEstimator::new().estimate(&records).expect("estimate");
        let with_err = PointEstimator::new()
            .estimate_with_error(&records)
            .expect("estimate");
        assert_eq!(with_err.value, plain);
        assert!(with_err.std_error > 0.0);
        let (lo, hi) = with_err.interval(2.0);
        assert!(lo < plain && plain < hi);
    }

    #[test]
    fn predicted_std_error_tracks_empirical_spread() {
        // Run many independent scenarios and compare the delta-method
        // prediction with the observed spread of the estimates.
        let truth = 600.0;
        let mut estimates = Vec::new();
        let mut predicted = Vec::new();
        for seed in 0..30u64 {
            let records = build_records(100 + seed, 4, 1 << 13, 600, 3000);
            let e = PointEstimator::new()
                .estimate_with_error(&records)
                .expect("estimate");
            estimates.push(e.value);
            predicted.push(e.std_error);
        }
        let mean_est: f64 = estimates.iter().sum::<f64>() / estimates.len() as f64;
        let empirical_var: f64 = estimates
            .iter()
            .map(|e| (e - mean_est).powi(2))
            .sum::<f64>()
            / (estimates.len() - 1) as f64;
        let empirical_std = empirical_var.sqrt();
        let mean_predicted: f64 = predicted.iter().sum::<f64>() / predicted.len() as f64;
        // The delta method ignores the positive correlation between the
        // fractions, making the prediction conservative: it must never
        // under-state the spread, and should stay within ~4x above it.
        assert!(
            empirical_std <= 1.2 * mean_predicted,
            "prediction {mean_predicted} understates empirical spread {empirical_std}"
        );
        assert!(
            mean_predicted < 4.0 * empirical_std,
            "prediction {mean_predicted} uselessly loose vs empirical {empirical_std}"
        );
        // And the estimates themselves track the truth.
        assert!(
            (mean_est - truth).abs() / truth < 0.05,
            "mean estimate {mean_est}"
        );
    }

    #[test]
    fn error_api_rejects_bad_inputs_like_plain_api() {
        let records = build_records(21, 1, 1 << 10, 10, 10);
        assert_eq!(
            PointEstimator::new().estimate_with_error(&records),
            Err(EstimateError::TooFewRecords {
                required: 2,
                actual: 1
            })
        );
    }

    #[test]
    fn naive_estimator_on_single_record_is_plain_lpc() {
        let records = build_records(10, 1, 1 << 12, 0, 1500);
        let naive = NaiveAndEstimator::new()
            .estimate(&records)
            .expect("estimate");
        let lpc = crate::lpc::estimate_cardinality(records[0].bitmap()).expect("lpc");
        assert_eq!(naive, lpc);
    }
}
