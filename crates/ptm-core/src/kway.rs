//! K-way generalization of the point persistent estimator.
//!
//! The paper divides the record set `Π` into **two** halves and notes that
//! "dividing Π into more than two sets is possible, \[but\] we find the
//! two-set solution is not only simple but works effectively" (Sec. III-B).
//! This module implements the general k-way estimator so that claim can be
//! tested quantitatively (see the `kway` ablation).
//!
//! # Derivation
//!
//! Split `Π` into `k` groups; AND-join group `i` into `E_i` with zero
//! fraction `V_i,0 = (1 − 1/m)^{n_i}`, where `n_i` is the abstract
//! cardinality of the group join. All groups contain the `n_*` common
//! vehicles. A bit of `E_* = E_1 ∧ … ∧ E_k` is one iff a common vehicle
//! set it, or *every* group had it set by transients:
//!
//! ```text
//! P{X=1}(n_*) = q^{-n_*}·Π_i V_i,0  −  Π_i (V_i,0 − q^{n_*})·q^{-n_*}·(−1)^k …
//! ```
//!
//! written directly with `q = 1 − 1/m`:
//!
//! ```text
//! P{X=1} = 1 − q^{n_*} + q^{n_*} · Π_i (1 − q^{n_i − n_*})
//! ```
//!
//! For `k = 2` this reduces to the paper's Eq. (6). There is no closed-form
//! inverse for general `k`, so the estimator finds the `n_*` matching the
//! observed one-fraction `V_*,1` by bisection — `P{X=1}` is continuous and
//! strictly decreasing in `n_*` on `[0, min_i n_i]` whenever transients are
//! present, because raising `n_*` moves mass from k independent transient
//! coin flips (which only align with probability `Π(1 − q^{…})`) to a
//! single common coin flip... in fact monotonicity can fail in corner
//! cases, so the solver brackets the root defensively and falls back to
//! the closest endpoint.

use crate::bitmap::Bitmap;
use crate::error::EstimateError;
use crate::join::{common_len, counted_join, join_at, location_bitmaps, JoinOp};
use crate::record::TrafficRecord;
use std::borrow::Borrow;

/// The k-way point persistent estimator.
#[derive(Debug, Clone, Copy)]
pub struct KwayEstimator {
    k: usize,
}

impl KwayEstimator {
    /// Creates an estimator that splits the records into `k` groups
    /// round-robin.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "k-way split needs k >= 2");
        Self { k }
    }

    /// Number of groups.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Estimates the persistent traffic volume.
    ///
    /// # Errors
    ///
    /// * [`EstimateError::TooFewRecords`] — fewer records than groups;
    /// * [`EstimateError::LocationMismatch`] — mixed locations;
    /// * [`EstimateError::Saturated`] — a group join has no zeros;
    /// * [`EstimateError::Degenerate`] — the observed one-fraction lies
    ///   outside the model's attainable range.
    pub fn estimate<R: Borrow<TrafficRecord>>(&self, records: &[R]) -> Result<f64, EstimateError> {
        if records.len() < self.k {
            return Err(EstimateError::TooFewRecords {
                required: self.k,
                actual: records.len(),
            });
        }
        self.estimate_bitmaps(&location_bitmaps(records)?)
    }

    /// Bitmap-level variant without metadata checks.
    ///
    /// # Errors
    ///
    /// As [`KwayEstimator::estimate`] minus the metadata conditions.
    pub fn estimate_bitmaps(&self, bitmaps: &[&Bitmap]) -> Result<f64, EstimateError> {
        let _t = ptm_obs::span!("core.kway.estimate");
        ptm_obs::counter!("core.kway.ops").inc();
        ptm_obs::histogram!("core.kway.k").record(self.k as u64);
        if bitmaps.len() < self.k {
            return Err(EstimateError::TooFewRecords {
                required: self.k,
                actual: bitmaps.len(),
            });
        }
        // Round-robin grouping, then AND-join each group straight at the
        // size common to all groups, and AND the group joins into E*.
        let mut groups: Vec<Vec<&Bitmap>> = vec![Vec::new(); self.k];
        for (i, &bm) in bitmaps.iter().enumerate() {
            groups[i % self.k].push(bm);
        }
        let mut m = 0;
        for group in &groups {
            m = m.max(common_len(group)?);
        }
        let joins: Vec<Bitmap> = groups
            .iter()
            .map(|group| counted_join(group, m, JoinOp::And))
            .collect();
        let e_star = join_at(&joins.iter().collect::<Vec<_>>(), m, JoinOp::And);

        let v0: Vec<f64> = joins.iter().map(Bitmap::fraction_zeros).collect();
        for (i, &v) in v0.iter().enumerate() {
            if v <= 0.0 {
                let which: &'static str = match i {
                    0 => "E_1",
                    1 => "E_2",
                    _ => "E_i",
                };
                return Err(EstimateError::Saturated { which });
            }
        }
        let v_star1 = e_star.fraction_ones();

        let q = 1.0 - 1.0 / m as f64;
        // Abstract per-group cardinalities n_i = ln V_i,0 / ln q.
        let n_groups: Vec<f64> = v0.iter().map(|v| v.ln() / q.ln()).collect();
        let n_max = n_groups.iter().copied().fold(f64::INFINITY, f64::min);

        // P{X=1} as a function of the candidate n*.
        let predicted = |n_star: f64| -> f64 {
            let qc = q.powf(n_star);
            let transient_align: f64 = n_groups
                .iter()
                .map(|&n_i| 1.0 - q.powf((n_i - n_star).max(0.0)))
                .product();
            1.0 - qc + qc * transient_align
        };

        // The attainable range: n* = n_max gives the minimum one-fraction?
        // Evaluate both endpoints and bisect toward the observed value.
        let lo_val = predicted(0.0);
        let hi_val = predicted(n_max);
        // predicted is increasing in n*: more common vehicles => more ones.
        if v_star1 <= lo_val.min(hi_val) {
            return Ok(if lo_val <= hi_val { 0.0 } else { n_max });
        }
        if v_star1 >= lo_val.max(hi_val) {
            return Ok(if lo_val <= hi_val { n_max } else { 0.0 });
        }
        let (mut lo, mut hi) = if lo_val <= hi_val {
            (0.0, n_max)
        } else {
            (n_max, 0.0)
        };
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if predicted(mid) < v_star1 {
                lo = mid;
            } else {
                hi = mid;
            }
            if (hi - lo).abs() < 1e-9 * n_max.max(1.0) {
                break;
            }
        }
        Ok(0.5 * (lo + hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{EncodingScheme, LocationId, VehicleSecrets};
    use crate::params::BitmapSize;
    use crate::point::PointEstimator;
    use crate::record::PeriodId;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn build(seed: u64, t: usize, m: usize, common: usize, transient: usize) -> Vec<TrafficRecord> {
        let scheme = EncodingScheme::new(0x4A11, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let location = LocationId::new(1);
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
                for _ in 0..transient {
                    let v = VehicleSecrets::generate(&mut rng, 3);
                    record.encode(&scheme, &v);
                }
                record
            })
            .collect()
    }

    #[test]
    fn two_way_matches_closed_form_estimator() {
        // With k = 2 and an even record count the round-robin grouping
        // differs from the paper's halves split, but both must land close
        // to the truth and to each other.
        let records = build(1, 6, 1 << 14, 900, 4000);
        let kway = KwayEstimator::new(2).estimate(&records).expect("estimate");
        let halves = PointEstimator::new().estimate(&records).expect("estimate");
        assert!((kway - 900.0).abs() / 900.0 < 0.1, "kway {kway}");
        assert!((halves - 900.0).abs() / 900.0 < 0.1, "halves {halves}");
    }

    #[test]
    fn three_and_four_way_recover_truth() {
        let records = build(2, 12, 1 << 14, 700, 5000);
        for k in [3usize, 4] {
            let est = KwayEstimator::new(k).estimate(&records).expect("estimate");
            let rel = (est - 700.0).abs() / 700.0;
            assert!(rel < 0.12, "k={k}: estimate {est}, error {rel}");
        }
    }

    #[test]
    fn zero_common_vehicles_estimates_near_zero() {
        let records = build(3, 9, 1 << 13, 0, 3000);
        let est = KwayEstimator::new(3).estimate(&records).expect("estimate");
        assert!(est.abs() < 80.0, "estimate {est}");
    }

    #[test]
    fn all_common_no_transients_clamps_to_n_max() {
        let records = build(4, 6, 1 << 13, 1500, 0);
        let est = KwayEstimator::new(3).estimate(&records).expect("estimate");
        let rel = (est - 1500.0).abs() / 1500.0;
        assert!(rel < 0.05, "estimate {est}");
    }

    #[test]
    fn too_few_records_for_k() {
        let records = build(5, 2, 1 << 10, 10, 50);
        assert_eq!(
            KwayEstimator::new(3).estimate(&records),
            Err(EstimateError::TooFewRecords {
                required: 3,
                actual: 2
            })
        );
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn k_one_panics() {
        let _ = KwayEstimator::new(1);
    }

    #[test]
    fn location_mismatch_rejected() {
        let mut records = build(6, 4, 1 << 10, 10, 50);
        records.push(TrafficRecord::new(
            LocationId::new(99),
            PeriodId::new(9),
            BitmapSize::new(1 << 10).expect("pow2"),
        ));
        assert_eq!(
            KwayEstimator::new(2).estimate(&records),
            Err(EstimateError::LocationMismatch)
        );
    }

    #[test]
    fn mixed_sizes_supported() {
        // Different record sizes within the groups exercise the expansion
        // path inside each group join and across groups.
        let scheme = EncodingScheme::new(0x4A12, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let location = LocationId::new(2);
        let commons: Vec<VehicleSecrets> = (0..400)
            .map(|_| VehicleSecrets::generate(&mut rng, 3))
            .collect();
        let sizes = [1 << 12, 1 << 13, 1 << 13, 1 << 12, 1 << 13, 1 << 13];
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
                for _ in 0..1500 {
                    let v = VehicleSecrets::generate(&mut rng, 3);
                    record.encode(&scheme, &v);
                }
                record
            })
            .collect();
        let est = KwayEstimator::new(3).estimate(&records).expect("estimate");
        let rel = (est - 400.0).abs() / 400.0;
        assert!(rel < 0.2, "estimate {est}, error {rel}");
    }
}
