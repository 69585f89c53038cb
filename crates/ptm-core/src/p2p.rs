//! Point-to-point persistent traffic estimation (paper Sec. IV).
//!
//! Given records `{B_1, …, B_t}` from location `L` and `{B'_1, …, B'_t}`
//! from location `L'` over the same periods, estimate the number of vehicles
//! that passed **both** locations in **every** period.
//!
//! Two-level join: AND-join each location into `E_*` (size `m`) and `E'_*`
//! (size `m'`, w.l.o.g. `m ≤ m'`), expand `E_*` to `S_*` of size `m'`, and
//! **OR** them into `E''_*`. (OR because the AND of cross-location maps has
//! no closed-form estimator — a common vehicle generally sets *different*
//! bits at the two locations.) The zero probability of an `E''_*` bit solves
//! to Eq. (21):
//!
//! ```text
//! n̂'' = s · m' · (ln V''_*,0 − ln V_*,0 − ln V'_*,0)
//! ```
//!
//! # One join per location, one sweep
//!
//! Each location is AND-joined straight at `m'`, the larger of the two
//! joined sizes, and the three counts behind `V_*,0`, `V'_*,0` and
//! `V''_*,0` are read in one sweep over the two joined maps; neither `S_*`
//! nor `E''_*` is built. This is bit-exact against the two-level pipeline
//! above: replication commutes with AND and OR at power-of-two lengths, so
//! the sweep sees the words of `S_*`, `E'_*` and `E''_*`, and `V_*,0` read
//! at `m'` is the same `f64` as read at `m`, because both the zeros count
//! and the length scale by `m'/m`, a power of two (see [`crate::join`]).
//! The `f64` expressions and the order of the errors are unchanged.

use crate::bitmap::Bitmap;
use crate::error::EstimateError;
use crate::join::{
    common_len, counted_join, fraction, join_at, location_bitmaps, ones_in_one_sweep, JoinOp,
};
use crate::record::TrafficRecord;
use std::borrow::Borrow;

/// Which algebraic form of the estimator to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum P2pForm {
    /// The paper's Eq. (21), using the `ln(1+x) ≈ x` approximation — exact
    /// in the large-`m'` limit.
    #[default]
    Paper,
    /// Solves Eq. (19) without the approximation:
    /// `n̂'' = ln(V''₀ / (V₀·V'₀)) / ln(1 + 1/(s·m' − s))`.
    /// An ablation; it differs from [`P2pForm::Paper`] by `O(1/m')`.
    Exact,
}

/// The proposed point-to-point persistent estimator.
#[derive(Debug, Clone, Copy, Default)]
pub struct PointToPointEstimator {
    s: u32,
    form: P2pForm,
}

impl PointToPointEstimator {
    /// Creates the estimator for a system configured with `s` representative
    /// bits per vehicle.
    ///
    /// # Panics
    ///
    /// Panics if `s` is zero.
    pub fn new(s: u32) -> Self {
        assert!(s >= 1, "s must be at least 1");
        Self {
            s,
            form: P2pForm::Paper,
        }
    }

    /// Selects the algebraic form (ablation).
    pub fn with_form(mut self, form: P2pForm) -> Self {
        self.form = form;
        self
    }

    /// Estimates the point-to-point persistent volume from the two
    /// locations' records (owned, or shared handles such as
    /// `Arc<TrafficRecord>`).
    ///
    /// # Errors
    ///
    /// * [`EstimateError::NoRecords`] — either location has no records;
    /// * [`EstimateError::PeriodMismatch`] — the locations cover different
    ///   numbers of periods;
    /// * [`EstimateError::LocationMismatch`] — a record set mixes locations;
    /// * [`EstimateError::Saturated`] — a joined map has no zero bits.
    pub fn estimate<R: Borrow<TrafficRecord>>(
        &self,
        records_l: &[R],
        records_lp: &[R],
    ) -> Result<f64, EstimateError> {
        if records_l.is_empty() || records_lp.is_empty() {
            return Err(EstimateError::NoRecords);
        }
        if records_l.len() != records_lp.len() {
            return Err(EstimateError::PeriodMismatch {
                left: records_l.len(),
                right: records_lp.len(),
            });
        }
        let maps_l = location_bitmaps(records_l)?;
        let m_l = common_len(&maps_l)?;
        let maps_lp = location_bitmaps(records_lp)?;
        let m_lp = common_len(&maps_lp)?;
        let _t = ptm_obs::span!("core.p2p.estimate");
        ptm_obs::counter!("core.p2p.ops").inc();
        let m_prime = m_l.max(m_lp);
        let e_l = counted_join(&maps_l, m_prime, JoinOp::And);
        let e_lp = counted_join(&maps_lp, m_prime, JoinOp::And);
        let (ones_l, ones_lp, ones_double) = ones_in_one_sweep(&e_l, &e_lp, JoinOp::Or);
        // `E_*` is the smaller location's join (the paper's m <= m').
        let (ones_small, ones_large) = if m_l <= m_lp {
            (ones_l, ones_lp)
        } else {
            (ones_lp, ones_l)
        };
        self.estimate_from_zero_fractions(
            m_prime,
            fraction(m_prime - ones_small, m_prime),
            fraction(m_prime - ones_large, m_prime),
            || Ok(fraction(m_prime - ones_double, m_prime)),
        )
    }

    /// Applies the estimator to already AND-joined per-location maps.
    ///
    /// # Errors
    ///
    /// Same saturation / size conditions as
    /// [`PointToPointEstimator::estimate`].
    pub fn estimate_joined(
        &self,
        e_star: &Bitmap,
        e_star_prime: &Bitmap,
    ) -> Result<f64, EstimateError> {
        let _t = ptm_obs::span!("core.p2p.estimate");
        ptm_obs::counter!("core.p2p.ops").inc();
        // W.l.o.g. the second map is the larger one (the paper's m <= m').
        let (small, large) = if e_star.len() <= e_star_prime.len() {
            (e_star, e_star_prime)
        } else {
            (e_star_prime, e_star)
        };
        // The second-level OR-join runs only once both maps are known
        // unsaturated: saturation is reported before a length that is not a
        // power of two.
        let v0_double = || {
            let m_prime = common_len(&[small, large])?;
            Ok(join_at(&[small, large], m_prime, JoinOp::Or).fraction_zeros())
        };
        self.estimate_from_zero_fractions(
            large.len(),
            small.fraction_zeros(),
            large.fraction_zeros(),
            v0_double,
        )
    }

    /// Eq. (21) from the zero fractions of `E_*`, of `E'_*` (size `m'`) and
    /// of their OR `E''_*`, checking each for saturation in that order; the
    /// last is read only once the first two pass.
    fn estimate_from_zero_fractions(
        &self,
        m_prime: usize,
        v0_small: f64,
        v0_large: f64,
        v0_double: impl FnOnce() -> Result<f64, EstimateError>,
    ) -> Result<f64, EstimateError> {
        if v0_small <= 0.0 {
            return Err(EstimateError::Saturated { which: "E_*" });
        }
        if v0_large <= 0.0 {
            return Err(EstimateError::Saturated { which: "E'_*" });
        }
        let v0_double = v0_double()?;
        if v0_double <= 0.0 {
            return Err(EstimateError::Saturated { which: "E''_*" });
        }

        let log_ratio = v0_double.ln() - v0_small.ln() - v0_large.ln();
        let s = self.s as f64;
        let m = m_prime as f64;
        Ok(match self.form {
            P2pForm::Paper => s * m * log_ratio,
            P2pForm::Exact => log_ratio / (1.0 + 1.0 / (s * m - s)).ln(),
        })
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

    struct Scenario {
        records_l: Vec<TrafficRecord>,
        records_lp: Vec<TrafficRecord>,
    }

    /// Two locations over t periods: `common` vehicles pass both every
    /// period; each location additionally sees fresh transient vehicles.
    fn build(
        seed: u64,
        t: usize,
        m_l: usize,
        m_lp: usize,
        common: usize,
        transient_l: usize,
        transient_lp: usize,
    ) -> Scenario {
        let scheme = EncodingScheme::new(0xBEEF, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let loc_l = LocationId::new(10);
        let loc_lp = LocationId::new(20);
        let size_l = BitmapSize::new(m_l).expect("pow2");
        let size_lp = BitmapSize::new(m_lp).expect("pow2");
        let commons: Vec<VehicleSecrets> = (0..common)
            .map(|_| VehicleSecrets::generate(&mut rng, 3))
            .collect();
        let mut records_l = Vec::new();
        let mut records_lp = Vec::new();
        for p in 0..t {
            let mut rl = TrafficRecord::new(loc_l, PeriodId::new(p as u32), size_l);
            let mut rlp = TrafficRecord::new(loc_lp, PeriodId::new(p as u32), size_lp);
            for v in &commons {
                rl.encode(&scheme, v);
                rlp.encode(&scheme, v);
            }
            for _ in 0..transient_l {
                let v = VehicleSecrets::generate(&mut rng, 3);
                rl.encode(&scheme, &v);
            }
            for _ in 0..transient_lp {
                let v = VehicleSecrets::generate(&mut rng, 3);
                rlp.encode(&scheme, &v);
            }
            records_l.push(rl);
            records_lp.push(rlp);
        }
        Scenario {
            records_l,
            records_lp,
        }
    }

    #[test]
    fn recovers_p2p_volume_equal_sizes() {
        let sc = build(1, 5, 1 << 14, 1 << 14, 1500, 4000, 4000);
        let est = PointToPointEstimator::new(3)
            .estimate(&sc.records_l, &sc.records_lp)
            .expect("estimate");
        let rel = (est - 1500.0).abs() / 1500.0;
        assert!(rel < 0.12, "estimate {est}, relative error {rel}");
    }

    #[test]
    fn recovers_p2p_volume_different_sizes() {
        // m'/m = 8, as in Table I columns 6-7.
        let sc = build(2, 5, 1 << 12, 1 << 15, 800, 1500, 14000);
        let est = PointToPointEstimator::new(3)
            .estimate(&sc.records_l, &sc.records_lp)
            .expect("estimate");
        let rel = (est - 800.0).abs() / 800.0;
        assert!(rel < 0.15, "estimate {est}, relative error {rel}");
    }

    #[test]
    fn argument_order_does_not_matter() {
        let sc = build(3, 3, 1 << 12, 1 << 14, 500, 1000, 4000);
        let e = PointToPointEstimator::new(3);
        let a = e.estimate(&sc.records_l, &sc.records_lp).expect("a");
        let b = e.estimate(&sc.records_lp, &sc.records_l).expect("b");
        assert_eq!(a, b);
    }

    #[test]
    fn zero_common_vehicles() {
        let sc = build(4, 5, 1 << 13, 1 << 13, 0, 3000, 3000);
        let est = PointToPointEstimator::new(3)
            .estimate(&sc.records_l, &sc.records_lp)
            .expect("estimate");
        assert!(est.abs() < 120.0, "estimate {est} should be near zero");
    }

    #[test]
    fn exact_form_close_to_paper_form() {
        let sc = build(5, 5, 1 << 13, 1 << 14, 600, 2000, 5000);
        let paper = PointToPointEstimator::new(3)
            .estimate(&sc.records_l, &sc.records_lp)
            .expect("paper");
        let exact = PointToPointEstimator::new(3)
            .with_form(P2pForm::Exact)
            .estimate(&sc.records_l, &sc.records_lp)
            .expect("exact");
        assert!(
            (paper - exact).abs() / exact.abs().max(1.0) < 1e-3,
            "paper {paper} vs exact {exact}"
        );
    }

    #[test]
    fn period_mismatch_detected() {
        let sc = build(6, 3, 1 << 10, 1 << 10, 10, 50, 50);
        let short = &sc.records_lp[..2];
        assert_eq!(
            PointToPointEstimator::new(3).estimate(&sc.records_l, short),
            Err(EstimateError::PeriodMismatch { left: 3, right: 2 })
        );
    }

    #[test]
    fn empty_inputs_detected() {
        let sc = build(7, 3, 1 << 10, 1 << 10, 10, 50, 50);
        assert_eq!(
            PointToPointEstimator::new(3).estimate(&[], &sc.records_lp),
            Err(EstimateError::NoRecords)
        );
        assert_eq!(
            PointToPointEstimator::new(3).estimate(&sc.records_l, &[]),
            Err(EstimateError::NoRecords)
        );
    }

    #[test]
    fn persistent_only_at_one_location_is_not_p2p_persistent() {
        // Vehicles persistent at L but never visiting L' must not inflate
        // the p2p estimate.
        let scheme = EncodingScheme::new(0xBEEF, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let loc_l = LocationId::new(10);
        let loc_lp = LocationId::new(20);
        let size = BitmapSize::new(1 << 13).expect("pow2");
        let l_only: Vec<VehicleSecrets> = (0..1000)
            .map(|_| VehicleSecrets::generate(&mut rng, 3))
            .collect();
        let both: Vec<VehicleSecrets> = (0..500)
            .map(|_| VehicleSecrets::generate(&mut rng, 3))
            .collect();
        let mut records_l = Vec::new();
        let mut records_lp = Vec::new();
        for p in 0..5u32 {
            let mut rl = TrafficRecord::new(loc_l, PeriodId::new(p), size);
            let mut rlp = TrafficRecord::new(loc_lp, PeriodId::new(p), size);
            for v in l_only.iter().chain(both.iter()) {
                rl.encode(&scheme, v);
            }
            for v in &both {
                rlp.encode(&scheme, v);
            }
            for _ in 0..2000 {
                let v = VehicleSecrets::generate(&mut rng, 3);
                rlp.encode(&scheme, &v);
            }
            records_l.push(rl);
            records_lp.push(rlp);
        }
        let est = PointToPointEstimator::new(3)
            .estimate(&records_l, &records_lp)
            .expect("estimate");
        let rel = (est - 500.0).abs() / 500.0;
        assert!(
            rel < 0.2,
            "estimate {est} should track the 500 true p2p vehicles"
        );
    }

    #[test]
    #[should_panic(expected = "s must be at least 1")]
    fn zero_s_panics() {
        let _ = PointToPointEstimator::new(0);
    }

    #[test]
    fn saturated_map_detected() {
        let mut full = Bitmap::new(8);
        for i in 0..8 {
            full.set(i);
        }
        let ok = Bitmap::new(8);
        let est = PointToPointEstimator::new(3);
        assert!(matches!(
            est.estimate_joined(&full, &ok),
            Err(EstimateError::Saturated { .. })
        ));
    }
}
